"""Brute-force diagonalization of small two-atom-per-cell lattices.

Number-conserving sectors of the hard-core excitation Hamiltonian are built
as dense matrices: the 2N x 2N one-excitation matrix, one row per atom, and
its lift to the pairs of distinct atoms for two excitations, so double
occupation of an atom is excluded structurally.  The band report
diagonalizes the one-excitation matrix with LAPACK (``np.linalg.eigh``;
the tests compare it with a cyclic Jacobi solver of their own).  The
blocking report solves the two-excitation sector in its N total-momentum
blocks instead, read off the same lift at each total momentum; the dense
pair matrix is the reference the tests compare those blocks with.
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

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    atom = np.arange(2 * n_cells)
    cell = atom // 2
    pos = cell * cfg.a + (atom % 2 - 0.5) * cfg.R
    d = np.abs(pos[:, None] - pos)
    d = np.minimum(d, n_cells * cfg.a - d)           # minimum images
    np.fill_diagonal(d, np.inf)
    coupling = dipole_coupling(d, cfg)
    if coupling_mode == "nearest-neighbor-cells":
        dcell = np.abs(cell[:, None] - cell)
        coupling[np.minimum(dcell, n_cells - dcell) > 1] = 0.0
    return coupling


def build_sector(cfg: SuperLatticeConfig, n_cells: int, n_exc: int,
                 coupling_mode: str = "nearest-neighbor-cells",
                 V_dyn: float = 0.0) -> np.ndarray:
    """Dense Hamiltonian of the n_exc-excitation sector.

    One excitation: h1 = E_A + the dipole couplings, one row per atom (atom
    (cell n, alpha) is 2n + alpha).  Two: h1 lifted to the pairs of distinct
    atoms by :func:`_hard_core_pairs`, with 2*V_dyn on pairs filling a cell.
    """
    _check_sector(n_cells, n_exc, coupling_mode)
    h1 = cfg.E_A * np.eye(2 * n_cells) + _atom_couplings(cfg, n_cells, coupling_mode)
    return h1 if n_exc == 1 else _hard_core_pairs(h1, 2.0 * V_dyn)


def _check_sector(n_cells: int, n_exc: int, coupling_mode: str) -> None:
    """Raise for an invalid sector or one over the dense size cap."""
    if coupling_mode not in COUPLING_MODES:
        raise DomainError(f"unknown coupling mode {coupling_mode!r}")
    if n_cells < 1:
        raise DomainError("need n_cells >= 1")
    if n_exc not in (1, 2):
        raise DomainError("n_exc must be 1 or 2")
    dim = math.comb(2 * n_cells, n_exc)
    if dim > _MAX_DIM:
        raise SectorSizeError(f"sector dimension {dim} exceeds {_MAX_DIM}: "
                              f"{dim * dim * 8 / 1e6:.1f} MB as a dense matrix")


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


class _PairBlocks(NamedTuple):
    """Tables of the momentum blocks p = 0..N//2 of an N-cell ring's pair
    sector, which depend on N alone.

    Representative o is atom alpha[o] in cell 0 with atom beta[o] in cell
    r[o].  With ``rows`` the couplings ``coupling[:2].ravel()`` and a zero
    appended, element (o', o) of block p is the sum over the terms
    t = 2 mover + end of ``rows[hop[t, o', o]] * weight[p, t, o', o]``.
    ``solves`` lists the stacks of equal-size blocks, and ``count`` gives
    the multiplicity of each of their eigenvalues.
    """

    alpha: np.ndarray
    beta: np.ndarray
    r: np.ndarray
    on_cell: int                # the pairs (0, 1, 0) filling a cell
    hop: np.ndarray
    weight: np.ndarray
    solves: tuple[tuple[slice, int], ...]
    count: np.ndarray


@functools.lru_cache(maxsize=4)
def _pair_blocks(n_cells: int) -> _PairBlocks:
    """The block tables of the N-cell ring, kept for the last few N: they
    take about 43 MB at N = 69.

    The ordered pair (alpha, beta, r), key (2 alpha + beta) N + r, is atom
    alpha of cell 0 with atom beta of cell r.  At K = 2 pi p / N the lift
    h1 (x) 1 + 1 (x) h1 takes it to (alpha', beta, r - m) with
    C[m, alpha, alpha'] e^{iKm}, and to (alpha, beta', r + m) with
    C[m, beta, beta'], where C[m, alpha, beta] = h1[alpha, 2m + beta] in
    offsets from E_A.  Exchange X takes it to e^{iKr} (beta, alpha, -r),
    its mirror.  The smaller key of the two is the representative o, and
    the block basis is |S o> = (|o> + X|o>) / sqrt(2); the double
    occupation (alpha, alpha, 0) is no representative.  For even N,
    (alpha, alpha, N/2) is its own mirror with X = (-1)^p: |S o> = |o> at
    even p and none at odd p, so these come last.  H commutes with X, so
    <S o'|H|S o> = sqrt(2) <S o'|H|o>, once for a self-mirror o.  Blocks p
    and N - p are complex conjugates: their eigenvalues count twice.
    """
    n = n_cells
    key = np.arange(4 * n)
    a, b, r = key // (2 * n), key // n % 2, key % n
    mirror = (2 * b + a) * n + (-r) % n
    self_mirror = (key == mirror) & (r != 0)
    reps = np.flatnonzero((key < mirror) | self_mirror)
    reps = reps[np.argsort(self_mirror[reps], kind="stable")]
    size, single = reps.size, self_mirror[reps]

    # element (o', o) reads H|o> on both ends u of |S o'>, u[0] = o' and
    # u[1] its mirror: the first atom of o moves m = r_o - r_u cells onto u
    # if the second stays, or the second moves -m cells if the first stays
    u, o = np.stack([reps, mirror[reps]])[:, :, None], reps
    m = (r[o] - r[u]) % n
    hop = np.stack([np.where(b[u] == b[o], 2 * n * a[o] + 2 * m + a[u], 4 * n),
                    np.where(a[u] == a[o], 2 * n * b[o] + 2 * (-m % n) + b[u], 4 * n)])
    # e^{iKm} as the first atom moves, times conj e^{iKr_o'} at the mirror end
    shift = np.stack([m, 0 * m]) + r[u] * [[[0]], [[1]]]
    lift = np.where(single, 1.0, math.sqrt(2.0))
    ends = np.stack([1.0 / lift, ~single / lift])       # <S o'| on u[0], u[1]
    p = np.arange(n // 2 + 1)
    root = np.exp(2j * np.pi / n * np.arange(n))
    weight = ends[:, :, None] * lift * root[np.multiply.outer(p, shift) % n]

    solves = (((slice(None), size),) if n % 2 else
              ((slice(0, None, 2), size), (slice(1, None, 2), size - 2)))
    count = np.where((p == 0) | (2 * p == n), 1, 2)
    blocks = _PairBlocks(
        alpha=a[reps], beta=b[reps], r=r[reps],
        on_cell=int(np.flatnonzero(reps == n)[0]),
        hop=hop.reshape(4, size, size),
        weight=weight.reshape(p.size, 4, size, size), solves=solves,
        count=np.concatenate([np.repeat(count[sel], k) for sel, k in solves]))
    for table in blocks:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return blocks


def _pair_spectrum(coupling: np.ndarray, n_cells: int,
                   V_dyn: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-excitation spectrum of the ring with atom couplings ``coupling``
    (zero diagonal), in offsets from 2 E_A, solved in total-momentum blocks
    with one stacked ``eigh`` per block size.  Returns each eigenvalue, its
    weight on the pairs filling one cell and its multiplicity."""
    t = _pair_blocks(n_cells)
    rows = np.append(coupling[:2].ravel(), 0.0)
    blocks = np.einsum("tij,ptij->pij", rows[t.hop], t.weight)
    blocks[:, t.on_cell, t.on_cell] += 2.0 * V_dyn
    energies, on_cell = [], []
    for sel, k in t.solves:
        w, vecs = np.linalg.eigh(blocks[sel, :k, :k])
        energies.append(w.ravel())
        on_cell.append((np.abs(vecs[:, t.on_cell, :]) ** 2).ravel())
    return np.concatenate(energies), np.concatenate(on_cell), t.count


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
    """Placement of on-cell double excitations in the two-quantum sector.

    ``dimension`` counts the eigenvalues of the momentum blocks with their
    multiplicity, against ``expected_dimension`` = C(2N, 2) pairs of
    distinct atoms; ``no_double_occupation`` checks that no block
    representative puts both excitations on one atom.  Centroids are
    absolute energies, the mean over the cluster or manifold eigenvalues
    with multiplicity; ``separation`` and ``min_gap`` are taken from the
    offsets from 2 E_A.  These agree with a dense ``eigh`` of
    ``build_sector(cfg, N, 2)`` to within 1e-12 E_A, not bit for bit.  At
    V_dyn = 0 the on-cell pairs share degenerate levels with the manifold:
    ``cluster_size`` and the centroids then depend on the basis the
    eigensolver picks inside those levels, and may differ from a dense
    solve.
    """

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

    The sector is solved block by block in total momentum K = 2 pi p / N
    (nearest-neighbour cells), each element read off the pair lift
    h1 (x) 1 + 1 (x) h1 and folded onto the exchange-symmetric pairs of
    distinct atoms.  The dense ``build_sector(cfg, N, 2)`` is the reference
    the tests compare with; the size cap on it still applies here.

    Eigenstates with more than half their weight on doubly-excited-cell
    basis states form the bound cluster; the report compares its centroid
    offset from the remaining (2 E_A) manifold with 2 V_dyn and flags a
    resonance when the cluster is incomplete or touches the manifold.
    """
    mode = "nearest-neighbor-cells"
    _check_sector(n_cells, 2, mode)
    reps = _pair_blocks(n_cells)
    w, weights, count = _pair_spectrum(_atom_couplings(cfg, n_cells, mode),
                                       n_cells, V_dyn)
    in_cluster = weights > 0.5
    cluster, manifold = w[in_cluster], w[~in_cluster]

    def centroid(part):
        n = np.sum(count[part])
        return float(np.dot(count[part], w[part]) / n) if n else math.nan

    j0 = exciton_levels(cfg).J0
    cluster_size = int(np.sum(count[in_cluster]))
    cluster_offset, manifold_offset = centroid(in_cluster), centroid(~in_cluster)
    min_gap = (float(np.min(np.abs(cluster[:, None] - manifold[None, :])))
               if cluster.size and manifold.size else 0.0)
    separated = (cluster_size == n_cells and min_gap > 4.0 * abs(j0))
    return BlockingReport(
        n_cells=n_cells, dimension=int(np.sum(count)),
        expected_dimension=math.comb(2 * n_cells, 2),
        no_double_occupation=bool(np.all((reps.alpha != reps.beta)
                                         | (reps.r != 0))),
        V_dyn=V_dyn, cluster_size=cluster_size,
        cluster_centroid=2.0 * cfg.E_A + cluster_offset,
        manifold_centroid=2.0 * cfg.E_A + manifold_offset,
        separation=cluster_offset - manifold_offset,
        expected_separation=2.0 * V_dyn,
        min_gap=min_gap, separated=separated)
