"""Exact diagonalization of two-atom-per-cell rings.

The N cells form a periodic ring, as the wavenumbers k = 2 pi p / (N a)
assume.  Every route reads one table, C[m, alpha, beta]: the dipole coupling
from atom alpha of cell 0 to atom beta of cell m, at the minimum image of
|m a + (beta - alpha) R|, over the offsets m = 0, +-1 in
``nearest-neighbor-cells`` mode and over all of them in ``full-dipole-sum``.
The band report solves the one-excitation sector in its 2x2 Bloch blocks,
from one FFT of the table over m.  The blocking report solves the pairs of
distinct atoms, so no atom is doubly occupied, in total-momentum blocks,
each real symmetric in a basis fixed by inversion times complex conjugation.
The tests compare both with dense matrices of their own.  This checks the
analytic band formulas, the dark-level degeneracy, the a >> R
single-hopping approximation and the energy separation of on-cell double
excitations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, SectorSizeError
from .lattice import (SuperLatticeConfig, _repulsion, allowed_wavenumbers,
                      dipole_coupling, exciton_levels, symmetric_band)

#: Memory the pair route may take: its tables and the blocks solved at once.
_MAX_PAIR_BYTES = 512e6
COUPLING_MODES = ("nearest-neighbor-cells", "full-dipole-sum")

#: Dark-level degeneracy window used by the band report, in units of |J|.
DARK_WINDOW_OVER_J = 1e-3
_BETA_MINUS_ALPHA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _cell_couplings(cfg: SuperLatticeConfig, n_cells: int,
                    coupling_mode: str) -> np.ndarray:
    """C[m, alpha, beta], the (N, 2, 2) couplings from atom alpha of cell 0
    to atom beta of cell m: zero for the atom itself and, in
    ``nearest-neighbor-cells`` mode, for cells beyond the adjacent ones.
    Callers check the ring and the mode.  Offsets are taken signed, m - N
    past N/2, so C[-m, beta, alpha] rounds like C[m, alpha, beta]."""
    m = (np.arange(n_cells) + n_cells // 2) % n_cells - n_cells // 2
    d = np.abs(m[:, None, None] * cfg.a + _BETA_MINUS_ALPHA * cfg.R)
    d = np.minimum(d, n_cells * cfg.a - d)           # minimum images
    d[0, [0, 1], [0, 1]] = np.inf
    coupling = dipole_coupling(d, cfg)
    if coupling_mode == "nearest-neighbor-cells":
        coupling[2:n_cells - 1] = 0.0                # the cells |m| >= 2
    return coupling


def bloch_levels(cfg: SuperLatticeConfig, n_cells: int,
                 coupling_mode: str = "nearest-neighbor-cells") -> np.ndarray:
    """The 2N one-excitation levels of the N-cell ring, ascending, in offsets
    from E_A: the :func:`_bloch_offsets` put back on -J0 and J0."""
    dark, bright = _bloch_offsets(cfg, n_cells, coupling_mode)
    return np.sort(np.concatenate((dark - cfg.levels.J0, bright + cfg.levels.J0)))


def _bloch_offsets(cfg: SuperLatticeConfig, n_cells: int, coupling_mode: str):
    """Each Bloch block's two levels, p = 0..N-1, in offsets from -J0 (dark)
    and J0 (bright).  The blocks [[A, B], [B*, D]] are the FFT of C[m] over m;
    with B = J0 + b, their antisymmetric and symmetric bare levels
    (A + D)/2 -+ Re b lie 2 (J0 + Re b) apart, coupled by |(A - D)/2 - i Im b|."""
    _check_ring(n_cells, coupling_mode)
    j0 = cfg.levels.J0
    table = _cell_couplings(cfg, n_cells, coupling_mode)
    table[0, 0, 1] -= j0                 # B reads C[m, 0, 1] only
    block = np.fft.fft(table, axis=0)
    a, d, b = block[:, 0, 0].real, block[:, 1, 1].real, block[:, 0, 1]
    split = j0 + b.real
    push = np.copysign(_repulsion(split, np.hypot(0.5 * (a - d), b.imag))[1], split)
    return 0.5 * (a + d) - b.real - push, 0.5 * (a + d) + b.real + push


def _check_ring(n_cells: int, coupling_mode: str) -> None:
    """Raise for an unknown coupling mode or an empty ring."""
    if coupling_mode not in COUPLING_MODES:
        raise DomainError(f"unknown coupling mode {coupling_mode!r}")
    if n_cells < 1:
        raise DomainError("need n_cells >= 1")


class _PairBlocks(NamedTuple):
    """Tables of the real momentum blocks p = 0..N//2 of an N-cell ring's
    pair sector with hops of up to ``reach`` cells, which depend on N and
    the reach alone.

    With ``values`` the couplings of atoms 0 and 1, ``_cell_couplings``
    flattened in (alpha, m, beta) order, followed by 2 V_dyn and a pad, the
    stack of blocks p = 0..N//2 is the (p, size, size) array whose flat
    element ``index[p, t]`` sums ``values[coupling[t]] * weight[p, t]``
    over the terms t.  For even N the last two rows are the pairs that are
    their own exchange mirrors, which exist at even p only: at odd p the
    pad decouples them, and ``keep`` drops their two eigenvalues from the
    (p, size) spectrum.  ``count`` is the multiplicity of block p's
    eigenvalues.
    """

    size: int
    on_cell: int                # the row of the pairs (0, 1, 0) filling a cell
    double_free: bool           # no representative is an atom's double occupation
    index: np.ndarray
    coupling: np.ndarray
    weight: np.ndarray
    keep: np.ndarray
    count: np.ndarray


@functools.lru_cache(maxsize=4)
def _pair_blocks(n_cells: int, reach: int) -> _PairBlocks:
    """The block tables of the N-cell ring, kept for the last few (N, reach):
    about 40 N terms in nearest-neighbour mode, each with a weight and a
    flat element per block.

    The ordered pair (alpha, beta, r), key (2 alpha + beta) N + r, is atom
    alpha of cell 0 with atom beta of cell r.  At K = 2 pi p / N the lift
    h1 (x) 1 + 1 (x) h1 takes it to (alpha', beta, r - m) with
    C[m, alpha, alpha'] e^{iKm}, and to (alpha, beta', r + m) with
    C[m, beta, beta'], C being ``_cell_couplings``.  Exchange X takes it to
    e^{iKr} (beta, alpha, -r), its mirror.  The smaller key of the two is
    the representative o, with |S o> = (|o> + X|o>) / sqrt(2); the double
    occupation (alpha, alpha, 0) is no representative.  For even N,
    (alpha, alpha, N/2) is its own mirror with X = (-1)^p: |S o> = |o> at
    even p and none at odd p.  H commutes with X, so
    <S o'|H|S o> = sqrt(2) <S o'|H|o>, once for a self-mirror o.

    Inversion, atom (n, alpha) -> (-n, 1 - alpha), times complex conjugation
    is an antiunitary Theta that commutes with H, keeps K and squares to 1.
    It takes |S o> to e^{-iKr} |S (1 - beta, 1 - alpha, r)>, or with phase 1
    to |S o'> for o' the mirror of (1 - beta, 1 - alpha, r) when that is no
    representative.  The block basis is Theta-invariant, so every block is
    real symmetric: e^{-iKr/2} |S o> for a fixed o, and (|S o> + Theta|S o>)
    / sqrt(2) with i (|S o> - Theta|S o>) / sqrt(2) for a pair o, o', in the
    order of the first representative.  Each term is a hop of the lift, read
    on one basis state of the bra's orbit and one of the ket's; its weight
    is the real part of its phases.  Blocks p and N - p are complex
    conjugates: their eigenvalues count twice.
    """
    n = n_cells
    key = np.arange(4 * n)
    a, b, r = key // (2 * n), key // n % 2, key % n
    mirror = (2 * b + a) * n + (-r) % n
    self_mirror = (key == mirror) & (r != 0)
    is_rep = (key < mirror) | self_mirror
    reps = np.flatnonzero(is_rep)
    reps = reps[np.argsort(self_mirror[reps], kind="stable")]
    size = reps.size
    position = np.full(4 * n, -1)
    position[reps] = np.arange(size)
    rep_of = np.where(is_rep, position, position[mirror])   # -1: double occupation
    lift = np.where(self_mirror[reps], 1.0, math.sqrt(2.0))

    # Theta's orbits, each phase in units of pi p / N (so K r / 2 is r)
    o, ra = np.arange(size), r[reps]
    image = (3 - a[reps] - 2 * b[reps]) * n + ra      # (1 - beta, 1 - alpha, r)
    theta = rep_of[image]
    phi = np.where(is_rep[image], -2 * ra, 0)[np.minimum(o, theta)]
    fixed, first = theta == o, o <= theta
    width = np.where(fixed, 1, 2)[first]
    start = np.cumsum(width) - width
    col = np.empty(size, dtype=np.intp)
    col[first], col[theta[first]] = start, start
    # each representative's share of the (up to two) basis states of its
    # orbit: the column, the modulus, the power of i and the phase exponent
    half = math.sqrt(0.5)
    share_col = np.stack([col, col + 1])
    share_mod = np.stack([np.where(fixed, 1.0, half), np.where(fixed, 0.0, half)])
    share_i = np.stack([0 * o, np.where(first, 1, 3)])
    share_phase = np.stack([np.where(fixed, -ra, np.where(first, 0, phi)),
                            np.where(first, 0, phi)])

    # the hops of H|o>: mover 0 moves the first atom m cells to atom g,
    # mover 1 the second, over the distinct cell offsets within reach
    m = np.unique(np.arange(-reach, reach + 1) % n)[:, None]
    ket, mover, g = o[:, None, None, None], np.arange(2)[:, None, None], np.arange(2)
    own = np.where(mover == 0, a[reps][ket], b[reps][ket])
    to = np.where(mover == 0, (2 * g + b[reps][ket]) * n + (ra[ket] - m) % n,
                  (2 * a[reps][ket] + g) * n + (ra[ket] + m) % n)
    valid = ((m != 0) | (g != own)) & (rep_of[to] >= 0)
    ket, to, coupling, shift = (np.broadcast_to(x, valid.shape)[valid] for x in (
        ket, to, 2 * n * own + 2 * m + g, np.where(mover == 0, 2 * m, 0)))
    bra = rep_of[to]
    shift += np.where(is_rep[to], 0, 2 * r[to])      # read on the bra's mirror
    # every share of the bra with every share of the ket
    sb, sk = (x[:, None] for x in np.divmod(np.arange(4), 2))
    mod = (lift[ket] / lift[bra]) * share_mod[sb, bra] * share_mod[sk, ket]
    phase = shift + share_phase[sk, ket] - share_phase[sb, bra]
    quarter = share_i[sk, ket] - share_i[sb, bra]
    p = np.arange(n // 2 + 1)
    cos = np.cos(np.pi / (2 * n) * np.arange(4 * n))
    cos[n::2 * n] = 0.0                                # exact quarter turns
    weight = mod * cos[(2 * p[:, None, None] * phase + n * quarter) % (4 * n)]
    element = share_col[sb, bra] * size + share_col[sk, ket]
    keep = np.ones((p.size, size), dtype=bool)
    if n % 2 == 0:                     # no self-mirror states at odd p
        keep[1::2, -2:] = False
        weight[1::2, np.maximum(element // size, element % size) >= size - 2] = 0.0
    used = np.any(weight != 0.0, axis=0)
    # two more terms: value 4N, 2 V_dyn, on the on-cell diagonal at every p
    # and, for even N, value 4N + 1, the pad, on the absent rows' at odd p
    on_cell = col[position[n]]
    extra = np.array([on_cell, size - 2, size - 1])[:1 if n % 2 else 3]
    pad = np.arange(extra.size) > 0
    blocks = _PairBlocks(
        size=size, on_cell=int(on_cell),
        double_free=bool(np.all((a[reps] != b[reps]) | (ra != 0))),
        index=np.append(element[used], extra * (size + 1)) + size * size * p[:, None],
        coupling=np.append(np.broadcast_to(coupling, used.shape)[used], 4 * n + pad),
        weight=np.column_stack([weight[:, used], np.where(pad, p[:, None] % 2, 1)]),
        keep=keep, count=np.where((p == 0) | (2 * p == n), 1.0, 2.0)[:, None])
    for table in blocks:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return blocks


def _pair_bytes(n_cells: int, reach: int) -> tuple[float, float]:
    """Estimated bytes of ``_pair_blocks(n_cells, reach)`` and of solving one
    block, built from neither: about 4.5 terms per representative and hop,
    each with an 8-byte weight and index per block; a block, its
    eigenvectors and three term-sized temporaries."""
    size = 2 * n_cells - n_cells % 2
    terms = 9 * size * min(2 * reach + 1, n_cells)
    return 8.0 * terms * (2 * (n_cells // 2) + 4), 8.0 * (2 * size * size + 3 * terms)


def _fill_blocks(t: _PairBlocks, rows: np.ndarray, V_dyn: float,
                 sel: slice) -> np.ndarray:
    """The real blocks ``sel`` of p = 0..N//2 for the couplings ``rows``,
    with 2 V_dyn on the on-cell pairs.  The absent self-mirror rows of an
    even ring's odd p are decoupled at 4 (sum |rows| + |V_dyn|), twice a
    bound on the sector's spectrum (the rows of atoms 0 and 1 hold each
    atom's Gershgorin radius in h1), so they are each block's two highest
    eigenvalues."""
    pad = 4.0 * (np.abs(rows).sum() + abs(V_dyn)) or 1.0
    values = np.concatenate((rows, (2.0 * V_dyn, pad)))
    k2 = t.size * t.size
    index = t.index[sel] - sel.start * k2 if sel.start else t.index[sel]
    blocks = np.bincount(index.ravel(), (t.weight[sel] * values[t.coupling]).ravel(),
                         minlength=len(index) * k2)
    return blocks.astype(float, copy=False).reshape(-1, t.size, t.size)


def _pair_spectrum(cfg: SuperLatticeConfig, n_cells: int, V_dyn: float,
                   coupling_mode: str = "nearest-neighbor-cells") -> np.ndarray:
    """Two-excitation spectrum of the ring, in offsets from 2 E_A, solved in
    total-momentum blocks with one stacked real ``eigh`` per chunk of blocks.
    Returns the rows: each eigenvalue, its weight on the pairs filling one
    cell and its multiplicity.  Raises ``SectorSizeError`` before building
    anything if the tables and one block would take more than
    ``_MAX_PAIR_BYTES``, and ``DomainError`` for a non-finite V_dyn."""
    _check_ring(n_cells, coupling_mode)
    if not math.isfinite(V_dyn):
        raise DomainError(f"V_dyn must be finite, got {V_dyn!r}")
    reach = 1 if coupling_mode == "nearest-neighbor-cells" else n_cells // 2
    tables, per_block = _pair_bytes(n_cells, reach)
    if tables + per_block > _MAX_PAIR_BYTES:
        raise SectorSizeError(
            f"{n_cells}-cell pair blocks need about {(tables + per_block) / 1e6:.0f} MB,"
            f" over the {_MAX_PAIR_BYTES / 1e6:.0f} MB budget")
    t = _pair_blocks(n_cells, reach)
    # every coupling, as the tables read only those within reach
    rows = _cell_couplings(cfg, n_cells, "full-dipole-sum").transpose(1, 0, 2).ravel()
    spectrum = np.empty((3,) + t.keep.shape)
    spectrum[2] = t.count
    chunk = int((_MAX_PAIR_BYTES - tables) // per_block)
    for lo in range(0, len(t.keep), chunk):
        sel = slice(lo, lo + chunk)
        spectrum[0, sel], vecs = np.linalg.eigh(_fill_blocks(t, rows, V_dyn, sel))
        spectrum[1, sel] = vecs[:, t.on_cell, :] ** 2
    return spectrum[:, t.keep]


@dataclass(frozen=True)
class BandReport:
    """Exact single-excitation spectrum against the analytic levels.

    ``eigenvalues`` and ``analytic`` are absolute energies, ascending;
    ``max_deviation``, the largest gap between them, is read from the Bloch
    levels' offsets from -J0 and J0, against 0 and 4 J cos(ka), with no
    J0-sized cancellation: ``deviation_over_J`` carries about 12 of the 17
    digits the CSV prints (1.20030005600890e-3 to 1.20030005600923e-3 over
    odd N = 3..101 at the preset, 1.20030005600890e-3 in 60 digits).
    ``dark_count`` counts levels within ``dark_window`` (``DARK_WINDOW_OVER_J
    * |J|``) of the flat E_a, not the N antisymmetric states.
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
    n_cells >= 3 (``SuperLatticeConfig`` rejects others); its Bloch levels
    take O(N log N) time.

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
    lv, ks = exciton_levels(small), allowed_wavenumbers(small)
    dark, bright = _bloch_offsets(small, n_cells, "nearest-neighbor-cells")
    max_dev = float(max(np.max(np.abs(dark)), np.max(np.abs(
        np.sort(bright) - np.sort(4.0 * lv.J * np.cos(ks * small.a))))))
    w = np.sort(np.concatenate((dark - lv.J0, bright + lv.J0)))   # as bloch_levels
    window = DARK_WINDOW_OVER_J * abs(lv.J)
    return BandReport(
        n_cells=n_cells, R_used=small.R, J=lv.J, eigenvalues=small.E_A + w,
        analytic=np.sort(np.append(np.full(n_cells, lv.E_a),
                                   symmetric_band(ks, small))),
        max_deviation=max_dev,
        deviation_over_J=max_dev / abs(lv.J) if lv.J != 0.0 else 0.0,
        dark_count=int(np.sum(np.abs(w + lv.J0) <= window)), dark_window=window)


@dataclass(frozen=True)
class BlockingReport:
    """Placement of on-cell double excitations in the two-quantum sector.

    ``dimension`` counts the eigenvalues of the momentum blocks with their
    multiplicity, against ``expected_dimension`` = C(2N, 2) pairs of
    distinct atoms; ``no_double_occupation`` checks that no block
    representative puts both excitations on one atom.  Levels closer than
    1e-12 of the largest offset from 2 E_A form one level, whose on-cell
    weight is the trace of the on-cell projector on its eigenspace over the
    eigenspace's dimension: no eigensolver's choice of basis inside a
    degenerate level changes it.  Centroids are absolute energies, the mean
    over the cluster or manifold eigenvalues with multiplicity;
    ``separation`` and ``min_gap`` are taken from the offsets.  These agree
    with a dense ``eigh`` of the pair sector, at V_dyn = 0 too, to within
    1e-12 E_A, not bit for bit.
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
    (nearest-neighbour cells), each block real symmetric in the basis of
    ``_pair_blocks``.  Its memory, not its dimension, limits the ring: a
    ring whose tables and one block would take more than
    ``_MAX_PAIR_BYTES`` raises ``SectorSizeError`` before anything is built.

    Levels with more than half their weight on doubly-excited-cell basis
    states form the bound cluster; the report compares its centroid offset
    from the remaining (2 E_A) manifold with 2 V_dyn and flags a resonance
    when the cluster is incomplete or touches the manifold.
    """
    spectrum = _pair_spectrum(cfg, n_cells, V_dyn)
    w, weights, count = spectrum[:, np.argsort(spectrum[0])]
    # one level per run of eigenvalues closer than 1e-12 of the largest offset
    gap = w[1:] - w[:-1]
    level = np.concatenate(([0], (gap > 1e-12 * max(-w[0], w[-1])).cumsum()))
    # more than half on-cell; a level that symmetry puts at one half (as at
    # V_dyn = 0) stays out however the last digits of its weight round
    in_cluster = (np.bincount(level, count * weights)
                  > (0.5 + 1e-6) * np.bincount(level, count))[level]
    (manifold_size, cluster_size), (manifold_sum, cluster_sum) = (
        np.bincount(in_cluster, x, minlength=2).tolist() for x in (count, count * w))
    cluster_offset = cluster_sum / cluster_size if cluster_size else math.nan
    manifold_offset = manifold_sum / manifold_size if manifold_size else math.nan
    # in sorted order the closest cluster-manifold pair is a neighbouring one
    across = gap[in_cluster[1:] != in_cluster[:-1]]
    min_gap = float(across.min()) if across.size else 0.0
    separated = (cluster_size == n_cells
                 and min_gap > 4.0 * abs(exciton_levels(cfg).J0))
    return BlockingReport(
        n_cells=n_cells, dimension=int(manifold_size + cluster_size),
        expected_dimension=math.comb(2 * n_cells, 2),
        no_double_occupation=_pair_blocks(n_cells, 1).double_free,
        V_dyn=V_dyn, cluster_size=int(cluster_size),
        cluster_centroid=2.0 * cfg.E_A + cluster_offset,
        manifold_centroid=2.0 * cfg.E_A + manifold_offset,
        separation=cluster_offset - manifold_offset,
        expected_separation=2.0 * V_dyn,
        min_gap=min_gap, separated=separated)
