"""Brute-force diagonalization of small two-atom-per-cell lattices.

Number-conserving sectors of the hard-core excitation Hamiltonian are built
as dense matrices: the 2N x 2N one-excitation matrix, one row per atom, and
its lift to the pairs of distinct atoms for two excitations, so double
occupation of an atom is excluded structurally.  The reports diagonalize
them with LAPACK (``np.linalg.eigh``; the tests compare it with a cyclic
Jacobi solver of their own).  This checks the analytic band formulas, the
dark-level degeneracy, the a >> R single-hopping approximation and the
energy separation of on-cell double excitations.

The N cells form a periodic ring, as the wavenumbers k = 2 pi p / (N a)
assume: couplings use the minimum-image distances between the actual atom
positions z_n -+ R/2.  ``nearest-neighbor-cells`` mode keeps pairs up to
adjacent cells (the three distances a, a + R, a - R), ``full-dipole-sum``
keeps every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, SectorSizeError
from .lattice import (SuperLatticeConfig, allowed_wavenumbers, dipole_coupling,
                      exciton_levels, symmetric_band)

_MAX_DIM = 10_000            # a dense float64 sector of 800 MB
COUPLING_MODES = ("nearest-neighbor-cells", "full-dipole-sum")

#: Dark-level degeneracy window used by the band report, in units of |J|.
DARK_WINDOW_OVER_J = 1e-3


def _atom_couplings(cfg: SuperLatticeConfig, n_cells: int,
                    coupling_mode: str) -> np.ndarray:
    """Symmetric 2N x 2N dipole couplings between atoms around the ring, zero
    on the diagonal and for pairs out of range."""
    n_atoms = 2 * n_cells
    j, i = np.tril_indices(n_atoms, -1)
    cell = np.arange(n_atoms) // 2
    pos = cell * cfg.a + (np.arange(n_atoms) % 2 - 0.5) * cfg.R
    dcell, d = cell[j] - cell[i], pos[j] - pos[i]     # j > i: both >= 0
    dcell = np.minimum(dcell, n_cells - dcell)        # minimum images
    d = np.minimum(d, n_cells * cfg.a - d)
    c = dipole_coupling(d, cfg)
    if coupling_mode == "nearest-neighbor-cells":
        c = np.where(dcell > 1, 0.0, c)
    coupling = np.zeros((n_atoms, n_atoms))
    coupling[j, i] = coupling[i, j] = c
    return coupling


def build_sector(cfg: SuperLatticeConfig, n_cells: int, n_exc: int,
                 coupling_mode: str = "nearest-neighbor-cells",
                 V_dyn: float = 0.0) -> np.ndarray:
    """Dense Hamiltonian of the n_exc-excitation sector.

    One excitation: h1 = E_A + the dipole couplings, one row per atom (atom
    (cell n, alpha) is 2n + alpha).  Two: h1 lifted to the pairs of distinct
    atoms by :func:`_hard_core_pairs`, with 2*V_dyn on pairs filling a cell.
    """
    if coupling_mode not in COUPLING_MODES:
        raise DomainError(f"unknown coupling mode {coupling_mode!r}")
    if n_cells < 1:
        raise DomainError("need n_cells >= 1")
    if n_exc not in (1, 2):
        raise DomainError("n_exc must be 1 or 2")
    n_atoms = 2 * n_cells
    dim = math.comb(n_atoms, n_exc)
    if dim > _MAX_DIM:
        raise SectorSizeError(f"sector dimension {dim} exceeds {_MAX_DIM}: "
                              f"{dim * dim * 8 / 1e6:.1f} MB as a dense matrix")
    h1 = cfg.E_A * np.eye(n_atoms) + _atom_couplings(cfg, n_cells, coupling_mode)
    return h1 if n_exc == 1 else _hard_core_pairs(h1, 2.0 * V_dyn)


def _hard_core_pairs(h1: np.ndarray, shift: float) -> np.ndarray:
    """h1 lifted to the pairs hi > lo of ``np.tril_indices(n, -1)``, that is
    H1 (x) 1 + 1 (x) H1 without double occupation, plus ``shift`` on pairs
    filling one cell (atoms 2n, 2n + 1): h1[hi, hi] + h1[lo, lo] on the
    diagonal, and the hops h1[move, k] of either atom to every free atom k."""
    hi, lo = np.tril_indices(len(h1), -1)
    pair_row = np.zeros(h1.shape, dtype=np.intp)    # pair {x, y} -> its row
    pair_row[hi, lo] = pair_row[lo, hi] = np.arange(hi.size)
    h = np.diag(h1[hi, hi] + h1[lo, lo] + np.where(hi // 2 == lo // 2, shift, 0.0))
    free = np.arange(len(h1) - 2)           # k: the n - 2 atoms a pair leaves free
    k = free + (free >= lo[:, None]) + (free >= hi[:, None] - 1)
    stay = np.stack([hi, lo])[:, :, None]   # the other atom moves to k
    h[np.arange(hi.size)[:, None], pair_row[stay, k]] = h1[stay[::-1], k]
    return h


@dataclass(frozen=True)
class BandReport:
    """Exact single-excitation spectrum against the analytic levels.

    ``max_deviation`` is the largest gap between the sorted exact
    eigenvalues and the a >> R levels {E_a x N} + {E_s(k)}.  It is the
    residual of the a -+ R inter-cell distances, 12 (R/a)^2 |J| to leading
    order.  ``dark_count`` counts eigenvalues within ``dark_window``
    (``DARK_WINDOW_OVER_J * |J|``) of the flat E_a; this is not the number
    of antisymmetric states, which is always N.  A difference of ~1.4 eV
    eigenvalues, ``deviation_over_J`` carries about 5 of the 17 digits the
    CSV prints (1.200297e-3 to 1.200310e-3 over odd N = 3..101 at the
    preset); Bloch bands in offsets from E_A are the route to more.
    """

    n_cells: int
    R_used: float
    J: float
    eigenvalues: np.ndarray
    analytic: np.ndarray
    max_deviation: float
    deviation_over_J: float
    dark_count: int
    dark_window: float


def validate_band(cfg: SuperLatticeConfig, n_cells: int) -> BandReport:
    """Compare the single-excitation spectrum at R = a/100 with the
    analytic {E_a x N} + {E_s(k)} level set.  The ring may be any odd
    n_cells >= 3 (``SuperLatticeConfig`` rejects others) under the sector cap.

    The small R suppresses the splitting of the inter-cell distances
    a -+ R that the single-hopping band ignores; the report quantifies
    what remains of it.  That residual is 12 (R/a)^2 |J| to leading order
    (J [(1+x)^-3 + (1-x)^-3] = J (2 + 12 x^2 + ...) with x = R/a), shifting
    the bright band by +12 x^2 J cos(ka) and the dark levels by
    -12 x^2 J cos(ka).  So ``dark_count``, which counts levels within
    ``DARK_WINDOW_OVER_J * |J|`` of E_a, can fall below the N
    antisymmetric states.
    """
    small = replace(cfg, R=cfg.a / 100.0, N=n_cells)
    w, _ = np.linalg.eigh(build_sector(small, n_cells, 1))

    lv = exciton_levels(small)
    analytic = np.sort(np.concatenate([
        np.full(n_cells, lv.E_a),
        symmetric_band(allowed_wavenumbers(small), small)]))
    max_dev = float(np.max(np.abs(w - analytic)))

    window = DARK_WINDOW_OVER_J * abs(lv.J)
    dark_count = int(np.sum(np.abs(w - lv.E_a) <= window))
    return BandReport(
        n_cells=n_cells, R_used=small.R, J=lv.J, eigenvalues=w,
        analytic=analytic, max_deviation=max_dev,
        deviation_over_J=max_dev / abs(lv.J) if lv.J != 0.0 else 0.0,
        dark_count=dark_count, dark_window=window)


@dataclass(frozen=True)
class BlockingReport:
    """Placement of on-cell double excitations in the two-quantum sector."""

    n_cells: int
    dimension: int
    expected_dimension: int
    no_double_occupation: bool
    V_dyn: float
    cluster_size: int
    cluster_centroid: float
    manifold_centroid: float
    separation: float
    expected_separation: float
    min_gap: float
    separated: bool


def validate_blocking(cfg: SuperLatticeConfig, n_cells: int,
                      V_dyn: float) -> BlockingReport:
    """Check the two-excitation sector: structural single occupation per
    atom, and the 2 E_A + 2 V_dyn placement of doubly-excited cells.

    Eigenstates with more than half their weight on doubly-excited-cell
    basis states form the bound cluster; the report compares its centroid
    offset from the remaining (2 E_A) manifold with 2 V_dyn and flags a
    resonance when the cluster is incomplete or touches the manifold.
    """
    h = build_sector(cfg, n_cells, 2, V_dyn=V_dyn)
    hi, lo = np.tril_indices(2 * n_cells, -1)       # rows, as in build_sector
    w, vecs = np.linalg.eigh(h)
    weights = np.sum(vecs[hi // 2 == lo // 2, :] ** 2, axis=0)
    in_cluster = weights > 0.5
    cluster = w[in_cluster]
    manifold = w[~in_cluster]

    j0 = exciton_levels(cfg).J0
    cluster_centroid = float(np.mean(cluster)) if cluster.size else math.nan
    manifold_centroid = float(np.mean(manifold)) if manifold.size else math.nan
    separation = cluster_centroid - manifold_centroid
    min_gap = (float(np.min(np.abs(cluster[:, None] - manifold[None, :])))
               if cluster.size and manifold.size else 0.0)
    separated = (cluster.size == n_cells and min_gap > 4.0 * abs(j0))
    return BlockingReport(
        n_cells=n_cells, dimension=h.shape[0],
        expected_dimension=math.comb(2 * n_cells, 2),
        no_double_occupation=bool(np.all(hi != lo)), V_dyn=V_dyn,
        cluster_size=int(cluster.size), cluster_centroid=cluster_centroid,
        manifold_centroid=manifold_centroid, separation=separation,
        expected_separation=2.0 * V_dyn, min_gap=min_gap,
        separated=separated)
