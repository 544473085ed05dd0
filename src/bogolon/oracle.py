"""Brute-force diagonalization of small two-atom-per-cell lattices.

Number-conserving sectors of the hard-core excitation Hamiltonian are built
over bitmask bases (one bit per two-level atom, so double occupation of an
atom is excluded structurally) as array expressions of the 2N x 2N atom
coupling matrix, and diagonalized with LAPACK (``np.linalg.eigh``; the
cyclic Jacobi :func:`jacobi_eigh` is the tests' independent reference).
This checks the analytic band formulas, the dark-level degeneracy, the
a >> R single-hopping approximation and the energy separation of on-cell
double excitations.

The N cells form a periodic ring, as the wavenumbers k = 2 pi p / (N a)
assume: couplings use the minimum-image distances between the actual atom
positions z_n -+ R/2.  ``nearest-neighbor-cells`` mode keeps pairs up to
adjacent cells (the three distances a, a + R, a - R), ``full-dipole-sum``
keeps every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb

import numpy as np

from .errors import DomainError, SectorSizeError
from .lattice import (SuperLatticeConfig, allowed_wavenumbers,
                      antisymmetric_energy, dipole_coupling, exciton_levels,
                      symmetric_band)

_MAX_DIM = 10_000            # a dense float64 sector of 800 MB
COUPLING_MODES = ("nearest-neighbor-cells", "full-dipole-sum")
#: Cap on jacobi_eigh's sweeps; a symmetric matrix converges in far fewer.
_JACOBI_MAX_SWEEPS = 100

#: Dark-level degeneracy window used by the band report, in units of |J|.
DARK_WINDOW_OVER_J = 1e-3


@dataclass(frozen=True)
class PaulionBasis:
    """Occupation bitmasks of :func:`build_basis`: n_exc of 2*n_cells bits set.

    Atom (cell n, alpha) is bit 2n + alpha; states are sorted ascending so
    the ordering is deterministic.
    """

    states: tuple

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SectorHamiltonian:
    basis: PaulionBasis
    matrix: np.ndarray


def build_basis(n_cells: int, n_exc: int) -> PaulionBasis:
    if n_cells < 1:
        raise DomainError("need n_cells >= 1")
    if n_exc not in (0, 1, 2):
        raise DomainError("n_exc must be 0, 1 or 2")
    n_atoms = 2 * n_cells
    dim = comb(n_atoms, n_exc)
    if dim > _MAX_DIM:
        raise SectorSizeError(f"sector dimension {dim} exceeds {_MAX_DIM}: "
                              f"{dim * dim * 8 / 1e6:.1f} MB as a dense matrix")
    states = sorted(sum(1 << i for i in atoms)
                    for atoms in combinations(range(n_atoms), n_exc))
    return PaulionBasis(tuple(states))


def _pair_row(x, y):
    """Row of the two-excitation state {x, y}.  Ascending two-bit masks are
    colex order: hi (hi - 1) / 2 + lo, the order of ``np.tril_indices``."""
    hi, lo = np.maximum(x, y), np.minimum(x, y)
    return hi * (hi - 1) // 2 + lo


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
                 V_dyn: float = 0.0) -> SectorHamiltonian:
    """Dense Hamiltonian of the n_exc-excitation sector.

    Diagonal entries are n_exc * E_A, plus 2*V_dyn for states with both
    atoms of one cell excited; off-diagonal entries move one excitation
    between two atoms with the dipole coupling of their distance.
    """
    if coupling_mode not in COUPLING_MODES:
        raise DomainError(f"unknown coupling mode {coupling_mode!r}")
    basis = build_basis(n_cells, n_exc)
    n_atoms = 2 * n_cells
    coupling = _atom_couplings(cfg, n_cells, coupling_mode)

    if n_exc == 0:
        h = np.zeros((1, 1))
    elif n_exc == 1:
        h = cfg.E_A * np.eye(n_atoms) + coupling
    else:
        hi, lo = np.tril_indices(n_atoms, -1)
        h = np.diag(np.where(hi // 2 == lo // 2, 2 * cfg.E_A + 2.0 * V_dyn,
                             2 * cfg.E_A))
        atoms = np.arange(n_atoms)
        for stay, move in ((hi, lo), (lo, hi)):     # move to every free atom k
            row, k = np.nonzero((atoms != stay[:, None]) & (atoms != move[:, None]))
            h[row, _pair_row(stay[row], k)] = coupling[move[row], k]
    return SectorHamiltonian(basis=basis, matrix=h)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Returns eigenvalues ascending and the matching orthonormal eigenvector
    columns.  Pure Python, dim^2/2 rotations per sweep (about 0.5 s at
    dim 66): the independent reference the tests compare LAPACK with.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    if n > 1:
        norm = np.linalg.norm(a)
        for _ in range(_JACOBI_MAX_SWEEPS):
            off = math.sqrt(2.0) * np.linalg.norm(np.triu(a, 1))
            if off <= 1e-15 * max(norm, 1e-300):
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    if abs(apq) <= 1e-18 * max(abs(a[p, p]), abs(a[q, q]), 1e-300):
                        continue
                    tau = 0.5 * (a[q, q] - a[p, p]) / apq
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
                    c = 1.0 / math.hypot(t, 1.0)
                    s = t * c
                    row_p, row_q = a[p, :].copy(), a[q, :].copy()
                    a[p, :] = c * row_p - s * row_q
                    a[q, :] = s * row_p + c * row_q
                    col_p, col_q = a[:, p].copy(), a[:, q].copy()
                    a[:, p] = c * col_p - s * col_q
                    a[:, q] = s * col_p + c * col_q
                    a[p, q] = a[q, p] = 0.0
                    v_p, v_q = v[:, p].copy(), v[:, q].copy()
                    v[:, p] = c * v_p - s * v_q
                    v[:, q] = s * v_p + c * v_q
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def diagonalize(h: SectorHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a sector, from LAPACK."""
    return np.linalg.eigh(h.matrix)


@dataclass(frozen=True)
class BandReport:
    """Exact single-excitation spectrum against the analytic levels.

    ``max_deviation`` is the largest gap between the sorted exact
    eigenvalues and the a >> R levels {E_a x N} + {E_s(k)}.  It is the
    residual of the a -+ R inter-cell distances, 12 (R/a)^2 |J| to leading
    order.  ``dark_count`` counts eigenvalues within ``dark_window``
    (``DARK_WINDOW_OVER_J * |J|``) of the flat E_a; this is not the number
    of antisymmetric states, which is always N.
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
    analytic {E_a x N} + {E_s(k)} level set.

    The small R suppresses the splitting of the inter-cell distances
    a -+ R that the single-hopping band ignores; the report quantifies
    what remains of it.  That residual is 12 (R/a)^2 |J| to leading order
    (J [(1+x)^-3 + (1-x)^-3] = J (2 + 12 x^2 + ...) with x = R/a), shifting
    the bright band by +12 x^2 J cos(ka) and the dark levels by
    -12 x^2 J cos(ka).  So ``dark_count``, which counts levels within
    ``DARK_WINDOW_OVER_J * |J|`` of E_a, can fall below the N
    antisymmetric states.
    """
    if n_cells % 2 == 0 or not 3 <= n_cells <= 7:
        raise DomainError("n_cells must be odd and within 3..7")
    small = replace(cfg, R=cfg.a / 100.0, N=n_cells)
    sector = build_sector(small, n_cells, 1)
    w, _ = diagonalize(sector)

    lv = exciton_levels(small)
    e_a = antisymmetric_energy(small)
    analytic = np.sort(np.concatenate([
        np.full(n_cells, e_a),
        symmetric_band(allowed_wavenumbers(small), small)]))
    max_dev = float(np.max(np.abs(w - analytic)))

    window = DARK_WINDOW_OVER_J * abs(lv.J)
    dark_count = int(np.sum(np.abs(w - e_a) <= window))
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
    sector = build_sector(cfg, n_cells, 2, V_dyn=V_dyn)
    basis = sector.basis
    no_double = all(bin(s).count("1") == 2 for s in basis.states)

    hi, lo = np.tril_indices(2 * n_cells, -1)       # rows, as in build_sector
    w, vecs = diagonalize(sector)
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
        n_cells=n_cells, dimension=basis.dim,
        expected_dimension=comb(2 * n_cells, 2),
        no_double_occupation=no_double, V_dyn=V_dyn,
        cluster_size=int(cluster.size), cluster_centroid=cluster_centroid,
        manifold_centroid=manifold_centroid, separation=separation,
        expected_separation=2.0 * V_dyn, min_gap=min_gap,
        separated=separated)
