"""Brute-force diagonalization of small two-atom-per-cell lattices.

Number-conserving sectors of the hard-core excitation Hamiltonian are built
over bitmask bases (one bit per two-level atom, so double occupation of an
atom is excluded structurally) and diagonalized with a self-contained
cyclic Jacobi eigensolver.  This provides an independent check of the
analytic band formulas, of the dark-level degeneracy, of the a >> R
single-hopping approximation and of the energy separation of on-cell
double excitations.

Couplings use the actual atom positions z_n -+ R/2; ``nearest-neighbor-cells``
mode keeps pairs up to adjacent cells (the three distances a, a + R, a - R),
``full-dipole-sum`` keeps every pair.  Periodic boundaries use minimum-image
distances.
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

_MAX_DIM = 10_000
COUPLING_MODES = ("nearest-neighbor-cells", "full-dipole-sum")
BOUNDARIES = ("periodic", "open")

#: Dark-level degeneracy window used by the band report, in units of |J|.
DARK_WINDOW_OVER_J = 1e-3


@dataclass(frozen=True)
class PaulionBasis:
    """Occupation bitmasks over 2*n_cells atoms with n_exc bits set.

    Atom (cell n, alpha) is bit 2n + alpha; states are sorted ascending so
    the ordering is deterministic.
    """

    n_cells: int
    n_exc: int
    states: tuple

    @property
    def dim(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SectorHamiltonian:
    basis: PaulionBasis
    matrix: np.ndarray
    coupling_mode: str
    boundary: str
    V_dyn: float


def build_basis(n_cells: int, n_exc: int) -> PaulionBasis:
    if n_cells < 1:
        raise DomainError("need n_cells >= 1")
    if n_exc not in (0, 1, 2):
        raise DomainError("n_exc must be 0, 1 or 2")
    n_atoms = 2 * n_cells
    dim = comb(n_atoms, n_exc)
    if dim > _MAX_DIM:
        raise SectorSizeError(f"sector dimension {dim} exceeds {_MAX_DIM}")
    states = sorted(sum(1 << i for i in atoms)
                    for atoms in combinations(range(n_atoms), n_exc))
    return PaulionBasis(n_cells=n_cells, n_exc=n_exc, states=tuple(states))


def _atom_position(idx: int, cfg: SuperLatticeConfig) -> float:
    cell, alpha = divmod(idx, 2)
    return cell * cfg.a + (alpha - 0.5) * cfg.R


def _pair_coupling(i: int, j: int, cfg: SuperLatticeConfig, n_cells: int,
                   coupling_mode: str, boundary: str) -> float:
    """Dipole coupling between atoms i and j, or 0 when out of range."""
    cell_i, cell_j = i // 2, j // 2
    dcell = abs(cell_i - cell_j)
    if boundary == "periodic":
        dcell = min(dcell, n_cells - dcell)
    if coupling_mode == "nearest-neighbor-cells" and dcell > 1:
        return 0.0
    d = abs(_atom_position(i, cfg) - _atom_position(j, cfg))
    if boundary == "periodic":
        length = n_cells * cfg.a
        d = min(d, length - d)
    return dipole_coupling(d, cfg)


def build_sector(cfg: SuperLatticeConfig, n_cells: int, n_exc: int,
                 coupling_mode: str = "nearest-neighbor-cells",
                 boundary: str = "periodic",
                 V_dyn: float = 0.0) -> SectorHamiltonian:
    """Dense Hamiltonian of the n_exc-excitation sector.

    Diagonal entries are n_exc * E_A, plus 2*V_dyn for states with both
    atoms of one cell excited; off-diagonal entries move one excitation
    between two atoms with the dipole coupling of their distance.
    """
    if coupling_mode not in COUPLING_MODES:
        raise DomainError(f"unknown coupling mode {coupling_mode!r}")
    if boundary not in BOUNDARIES:
        raise DomainError(f"unknown boundary {boundary!r}")
    basis = build_basis(n_cells, n_exc)
    index = {s: i for i, s in enumerate(basis.states)}
    n_atoms = 2 * n_cells

    coupling = np.zeros((n_atoms, n_atoms))
    for i in range(n_atoms):
        for j in range(i + 1, n_atoms):
            coupling[i, j] = coupling[j, i] = _pair_coupling(
                i, j, cfg, n_cells, coupling_mode, boundary)

    h = np.zeros((basis.dim, basis.dim))
    for row, s in enumerate(basis.states):
        h[row, row] = n_exc * cfg.E_A
        for cell in range(n_cells):
            if s & (1 << (2 * cell)) and s & (1 << (2 * cell + 1)):
                h[row, row] += 2.0 * V_dyn
        occupied = [i for i in range(n_atoms) if s & (1 << i)]
        for i in occupied:
            for j in range(n_atoms):
                if s & (1 << j):
                    continue
                t = (s ^ (1 << i)) | (1 << j)
                h[row, index[t]] = coupling[i, j]
    return SectorHamiltonian(basis=basis, matrix=h,
                             coupling_mode=coupling_mode, boundary=boundary,
                             V_dyn=V_dyn)


def jacobi_eigh(matrix: np.ndarray,
                max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Returns eigenvalues ascending and the matching orthonormal eigenvector
    columns.  Quadratically convergent; intended for the modest dimensions
    of the excitation sectors.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    if n > 1:
        norm = np.linalg.norm(a)
        for _ in range(max_sweeps):
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
    """Eigenvalues (ascending) and eigenvectors of a sector Hamiltonian."""
    return jacobi_eigh(h.matrix)


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
    sector = build_sector(small, n_cells, 1, "nearest-neighbor-cells",
                          "periodic", 0.0)
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
    sector = build_sector(cfg, n_cells, 2, "nearest-neighbor-cells",
                          "periodic", V_dyn)
    basis = sector.basis
    no_double = all(bin(s).count("1") == 2 for s in basis.states)

    double_rows = np.array([
        i for i, s in enumerate(basis.states)
        if any(s & (1 << (2 * c)) and s & (1 << (2 * c + 1))
               for c in range(n_cells))])
    w, vecs = diagonalize(sector)
    if double_rows.size:
        weights = np.sum(vecs[double_rows, :] ** 2, axis=0)
    else:
        weights = np.zeros_like(w)
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
