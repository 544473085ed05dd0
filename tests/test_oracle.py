import math
import re
from dataclasses import replace
from decimal import Decimal, getcontext, localcontext
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogolon import (SuperLatticeConfig, allowed_wavenumbers, bloch_levels,
                     dipole_coupling, exciton_levels, oracle, symmetric_band,
                     validate_band, validate_blocking)
from bogolon.errors import DomainError, SectorSizeError
from bogolon.lattice import MAGIC_ANGLE

#: Cap on jacobi_eigh's sweeps; a symmetric matrix converges in far fewer.
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Returns eigenvalues ascending and the matching orthonormal eigenvector
    columns.  Pure Python, dim^2/2 rotations per sweep (about 0.5 s at
    dim 66): the independent reference these tests compare LAPACK with.
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


def _bitmask_states(n_cells, n_exc):
    """Occupation bitmasks with n_exc of 2*n_cells bits set, ascending; atom
    (cell n, alpha) is bit 2n + alpha."""
    return sorted(sum(1 << i for i in atoms)
                  for atoms in combinations(range(2 * n_cells), n_exc))


def _hard_core_pairs(h1, shift):
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


def _dense_couplings(cfg, n_cells, coupling_mode="nearest-neighbor-cells"):
    """The dense one-excitation matrix in offsets from E_A, one row per atom
    (atom (cell n, alpha) is 2n + alpha): the dipole couplings between the
    absolute positions n a + (alpha - 1/2) R at their minimum images around
    the ring, zero on the diagonal and for pairs out of range."""
    atom = np.arange(2 * n_cells)
    cell = atom // 2
    pos = cell * cfg.a + (atom % 2 - 0.5) * cfg.R
    d = np.abs(pos[:, None] - pos)
    d = np.minimum(d, n_cells * cfg.a - d)
    np.fill_diagonal(d, np.inf)
    coupling = dipole_coupling(d, cfg)
    if coupling_mode == "nearest-neighbor-cells":
        dcell = np.abs(cell[:, None] - cell)
        coupling[np.minimum(dcell, n_cells - dcell) > 1] = 0.0
    return coupling


def _dense_sector(cfg, n_cells, coupling_mode="nearest-neighbor-cells"):
    """The dense one-excitation Hamiltonian h1 = E_A + the couplings."""
    return cfg.E_A * np.eye(2 * n_cells) + _dense_couplings(cfg, n_cells, coupling_mode)


def _pair_sector(cfg, n_cells, coupling_mode="nearest-neighbor-cells", V_dyn=0.0):
    """The dense two-excitation sector, the reference of the momentum
    blocks: h1 lifted to the pairs of distinct atoms, with 2 V_dyn on the
    pairs filling a cell."""
    return _hard_core_pairs(_dense_sector(cfg, n_cells, coupling_mode), 2.0 * V_dyn)


@pytest.fixture()
def no_couplings(monkeypatch):
    """Fail on any build of the coupling table, for rings that need none."""
    def fail(*args):
        raise AssertionError("coupling table built")

    monkeypatch.setattr(oracle, "_cell_couplings", fail)


def test_sector_dimensions(small_cfg):
    for n_cells, n_exc, dim in ((1, 1, 2), (2, 2, 6), (3, 1, 6), (7, 2, 91),
                                (12, 2, 276)):
        h = (_dense_sector(small_cfg, n_cells) if n_exc == 1
             else _pair_sector(small_cfg, n_cells))
        assert isinstance(h, np.ndarray)
        assert h.shape == (dim, dim) == (math.comb(2 * n_cells, n_exc),) * 2
        assert np.array_equal(h, h.T)
        if n_exc == 1:
            assert bloch_levels(small_cfg, n_cells).shape == (dim,)


def test_sectors_reject_invalid_rings(small_cfg, no_couplings):
    for n_cells in (0, -1):
        with pytest.raises(DomainError):
            validate_blocking(small_cfg, n_cells, 1e-3)
    for v_dyn in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            validate_blocking(small_cfg, 6, v_dyn)
    with pytest.raises(DomainError):
        oracle._pair_spectrum(small_cfg, 6, 1e-3, coupling_mode="everything")


@pytest.mark.parametrize("n_cells", [5, 6])
@pytest.mark.parametrize("v_dyn", [1e308, -1e308, 5e307])
def test_pair_blocks_reject_an_overflowing_shift(small_cfg, n_cells, v_dyn):
    # 2 V_dyn, or the even ring's pad 4 (sum |C| + |V_dyn|), would be inf
    # and the report NaN; no numpy warning on the way
    with pytest.raises(DomainError, match=re.escape(
            f"2 V_dyn or the pad 4 (sum |C| + |V_dyn|) overflows at V_dyn = {v_dyn!r}")):
        validate_blocking(small_cfg, n_cells, v_dyn)


def test_bloch_levels_rejects_bad_modes_and_rings(small_cfg, no_couplings):
    with pytest.raises(DomainError):
        bloch_levels(small_cfg, 3, coupling_mode="everything")
    for n_cells in (0, -1):
        for mode in oracle.COUPLING_MODES:
            with pytest.raises(DomainError):
                bloch_levels(small_cfg, n_cells, mode)


def test_single_cell_sector_matrix(small_cfg):
    h = _dense_sector(small_cfg, 1)
    lv = exciton_levels(small_cfg)
    expected = np.array([[small_cfg.E_A, lv.J0], [lv.J0, small_cfg.E_A]])
    assert np.allclose(h, expected, rtol=1e-15, atol=0.0)
    for mode in oracle.COUPLING_MODES:
        assert np.array_equal(oracle._cell_couplings(small_cfg, 1, mode),
                              [[[0.0, lv.J0], [lv.J0, 0.0]]])


def test_three_cell_elements_by_hand(small_cfg):
    # C[m, alpha, beta] couples atom alpha of cell 0, at (alpha - 1/2) R, to
    # atom beta of cell m, at m a + (beta - 1/2) R; cell 2 is cell -1
    a, r = small_cfg.a, small_cfg.R
    distances = {(0, 0, 1): r, (0, 1, 0): r,
                 (1, 0, 0): a, (1, 0, 1): a + r, (1, 1, 0): a - r, (1, 1, 1): a,
                 (2, 0, 0): a, (2, 0, 1): a - r, (2, 1, 0): a + r, (2, 1, 1): a}
    for mode in oracle.COUPLING_MODES:       # every cell is adjacent at N = 3
        c = oracle._cell_couplings(small_cfg, 3, mode)
        assert c.shape == (3, 2, 2)
        for m, alpha, beta in np.ndindex(c.shape):
            want = (dipole_coupling(distances[m, alpha, beta], small_cfg)
                    if (m, alpha, beta) in distances else 0.0)
            assert c[m, alpha, beta] == pytest.approx(want, rel=1e-15), (m, alpha, beta)
    # the offsets +-2, cells 2 and 3, are out of reach on a five-cell ring
    c = oracle._cell_couplings(small_cfg, 5, "nearest-neighbor-cells")
    assert np.all(c[2:4] == 0.0) and np.all(c[4] == c[1].T)
    full = oracle._cell_couplings(small_cfg, 5, "full-dipole-sum")
    assert full[2, 0, 1] == pytest.approx(dipole_coupling(2 * a + r, small_cfg),
                                          rel=1e-15)
    assert np.array_equal(full[:2], c[:2])


def test_double_excitation_shift_on_diagonal(small_cfg):
    v_dyn = 2.5e-4
    h = _pair_sector(small_cfg, 2, V_dyn=v_dyn)
    for row, s in enumerate(_bitmask_states(2, 2)):
        both_one_cell = any(s & (1 << (2 * c)) and s & (1 << (2 * c + 1))
                            for c in range(2))
        expected = 2 * small_cfg.E_A + (2 * v_dyn if both_one_cell else 0.0)
        assert h[row, row] == pytest.approx(expected, rel=1e-15)


def _sector_loop(cfg, n_cells, n_exc, coupling_mode, V_dyn):
    """Sector matrix built state by state: bit tests and one hop at a time."""
    states = _bitmask_states(n_cells, n_exc)
    index = {s: i for i, s in enumerate(states)}
    n_atoms = 2 * n_cells

    def position(i):
        return (i // 2) * cfg.a + (i % 2 - 0.5) * cfg.R

    def coupling(i, j):
        dcell = abs(i // 2 - j // 2)
        dcell = min(dcell, n_cells - dcell)
        if coupling_mode == "nearest-neighbor-cells" and dcell > 1:
            return 0.0
        d = abs(position(i) - position(j))
        d = min(d, n_cells * cfg.a - d)
        return dipole_coupling(d, cfg)

    h = np.zeros((len(states), len(states)))
    for row, s in enumerate(states):
        h[row, row] = n_exc * cfg.E_A
        for cell in range(n_cells):
            if s & (1 << (2 * cell)) and s & (1 << (2 * cell + 1)):
                h[row, row] += 2.0 * V_dyn
        for i in range(n_atoms):
            if not s & (1 << i):
                continue
            for j in range(n_atoms):
                if not s & (1 << j):
                    h[row, index[(s ^ (1 << i)) | (1 << j)]] = coupling(i, j)
    return h


def test_array_sector_equals_bitmask_loop(small_cfg):
    for n_cells in range(1, 9):
        for n_exc in (1, 2):
            for mode in oracle.COUPLING_MODES:
                h = (_dense_sector(small_cfg, n_cells, mode) if n_exc == 1
                     else _pair_sector(small_cfg, n_cells, mode, V_dyn=1e-3))
                assert np.array_equal(h, _sector_loop(
                    small_cfg, n_cells, n_exc, mode, 1e-3))


@settings(max_examples=30, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2),
       r_over_a=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
       v_dyn=st.floats(0.0, 1e-2),
       n_cells=st.integers(1, 4),
       mode=st.sampled_from(oracle.COUPLING_MODES))
def test_sector_matches_loop_and_jacobi_on_random_lattices(theta, r_over_a, v_dyn,
                                                           n_cells, mode):
    # the scalar and array dipole_coupling routes may differ by one ulp on
    # arbitrary distances, hence rtol rather than exact equality here
    cfg = SuperLatticeConfig(E_A=1.5, a=1000.0, R=1000.0 * r_over_a, mu=2.5,
                             theta=theta, N=5)
    for n_exc in (1, 2):
        h = (_dense_sector(cfg, n_cells, mode) if n_exc == 1
             else _pair_sector(cfg, n_cells, mode, V_dyn=v_dyn))
        np.testing.assert_allclose(
            h, _sector_loop(cfg, n_cells, n_exc, mode, v_dyn), rtol=1e-15, atol=0)
    w_lapack, _ = np.linalg.eigh(h)             # the two-excitation sector
    w_jacobi, _ = jacobi_eigh(h)
    assert np.max(np.abs(w_lapack - w_jacobi)) <= 1e-12 * cfg.E_A


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 12), shift=st.floats(-1.0, 1.0))
def test_hard_core_pairs_is_projected_kronecker_lift(data, n, shift):
    # a second route to the pair sector of any symmetric h1, with a diagonal
    # that is not constant: P^T (h1 (x) 1 + 1 (x) h1) P / 2, where P maps
    # each pair (hi, lo) to both of its ordered states
    def values(count, magnitudes):
        signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                                   min_size=count, max_size=count))
        exps = data.draw(st.lists(magnitudes, min_size=count, max_size=count))
        return np.array(signs) * 10.0 ** np.array(exps)

    hi, lo = np.tril_indices(n, -1)
    h1 = np.zeros((n, n))
    h1[hi, lo] = h1[lo, hi] = values(hi.size, st.floats(-9.0, 0.0))
    h1[np.diag_indices(n)] = 1.5 + values(n, st.floats(-9.0, 0.0))
    p = np.zeros((n * n, hi.size))
    p[hi * n + lo, np.arange(hi.size)] = p[lo * n + hi, np.arange(hi.size)] = 1.0
    lift = np.kron(h1, np.eye(n)) + np.kron(np.eye(n), h1)
    expected = p.T @ lift @ p / 2.0
    expected[np.diag_indices(hi.size)] += np.where(hi // 2 == lo // 2, shift, 0.0)
    assert np.array_equal(_hard_core_pairs(h1, shift), expected)


def test_single_cell_spectrum_gives_split_doublet(small_cfg):
    w = bloch_levels(small_cfg, 1)
    lv = exciton_levels(small_cfg)
    assert w[0] == pytest.approx(-lv.J0, rel=1e-14)   # J0 > 0 at 80 deg
    assert w[1] == pytest.approx(lv.J0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2),
       r_over_a=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
       n_cells=st.integers(1, 21),
       mode=st.sampled_from(oracle.COUPLING_MODES))
def test_bloch_levels_match_dense_matrix(theta, r_over_a, n_cells, mode):
    # the 2x2 Bloch blocks against a dense solve of the matrix built from
    # absolute positions, both in offsets from E_A
    cfg = SuperLatticeConfig(E_A=1.5, a=1000.0, R=1000.0 * r_over_a, mu=2.5,
                             theta=theta, N=5)
    coupling = _dense_couplings(cfg, n_cells, mode)
    table = oracle._cell_couplings(cfg, n_cells, mode)
    if n_cells % 2:     # no cell sits half way round: C[-m] = C[m]^T bit for bit
        assert np.array_equal(table, table[-np.arange(n_cells)].transpose(0, 2, 1))
    w = bloch_levels(cfg, n_cells, mode)
    assert w.shape == (2 * n_cells,) and np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(w - np.linalg.eigvalsh(coupling))) <= (
        1e-10 * np.max(np.abs(coupling)))


def _pi():
    """pi to the current precision (the ``decimal`` module docs' recipe)."""
    getcontext().prec += 2
    three = Decimal(3)
    lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def _cos_sin(x):
    """cos x and sin x to the current precision (the docs' Taylor recipes)."""
    getcontext().prec += 2
    out = []
    for i, s, fact, num in ((0, Decimal(1), 1, 1), (1, x, 1, x)):
        lasts, sign = 0, 1
        while s != lasts:
            lasts = s
            i += 2
            fact *= i * (i - 1)
            num *= x * x
            sign *= -1
            s += num / fact * sign
        out.append(s)
    getcontext().prec -= 2
    return +out[0], +out[1]


def _decimal_bloch_offsets(cfg, n_cells, mode):
    """The dark and bright level of each Bloch block p = 0..N-1, as offsets
    from -J0 and J0, from the float coupling table in 60-digit arithmetic:
    each block's DFT sums and its eigenvalues (A + D)/2 -+ hypot((A - D)/2,
    |B|), the one nearer -J0 taken as dark."""
    table = oracle._cell_couplings(cfg, n_cells, mode)
    terms = [(m, [[Decimal(x) for x in row] for row in table[m]])
             for m in range(n_cells) if np.any(table[m] != 0.0)]
    j0 = Decimal(cfg.levels.J0)
    dark, bright = [], []
    with localcontext() as ctx:
        ctx.prec = 60
        two_pi = 2 * _pi()
        turn = [_cos_sin(two_pi * j / n_cells) for j in range(n_cells)]
        for p in range(n_cells):
            a = d = b_re = b_im = Decimal(0)
            for m, c in terms:
                cos, sin = turn[p * m % n_cells]
                a += c[0][0] * cos
                d += c[1][1] * cos
                b_re += c[0][1] * cos
                b_im -= c[0][1] * sin
            split = (((a - d) / 2) ** 2 + b_re ** 2 + b_im ** 2).sqrt()
            low, high = sorted(((a + d) / 2 - split, (a + d) / 2 + split),
                               key=lambda w: abs(w + j0))
            dark.append(low + j0)
            bright.append(high - j0)
    return dark, bright


def test_bloch_dark_levels_match_decimal_reference():
    # the dark levels plus J0, no difference of J0-sized numbers, agree with
    # 60-digit arithmetic on the same table to 1e-14 |J|; the bright ones
    # minus J0 to the same bound
    for r_over_a in (0.1, 0.01):
        for mode in oracle.COUPLING_MODES:
            for n_cells in range(3, 102, 2):
                cfg = SuperLatticeConfig(E_A=1.5, a=1000.0, R=1000.0 * r_over_a,
                                         mu=2.5, theta=math.radians(80.0), N=n_cells)
                tol = Decimal(1e-14 * abs(cfg.levels.J))
                got = oracle._bloch_offsets(cfg, n_cells, mode)
                for mine, ref in zip(got, _decimal_bloch_offsets(cfg, n_cells, mode)):
                    worst = max(abs(Decimal(x) - y) for x, y in zip(mine.tolist(), ref))
                    assert worst <= tol, (r_over_a, mode, n_cells, worst / tol)


def test_band_deviation_matches_decimal_reference(small_cfg):
    # deviation_over_J, read from the offsets, keeps 10 digits of the
    # 60-digit deviation on the same table
    for n_cells in (3, 5, 7, 21, 101):
        report = validate_band(small_cfg, n_cells)
        small = replace(small_cfg, R=report.R_used, N=n_cells)
        dark, bright = _decimal_bloch_offsets(small, n_cells, "nearest-neighbor-cells")
        j = Decimal(report.J)
        with localcontext() as ctx:
            ctx.prec = 60
            two_pi = 2 * _pi()
            band = [4 * j * _cos_sin(two_pi * p / n_cells)[0] for p in range(n_cells)]
            ref = max(max(abs(x) for x in dark), max(
                abs(x - y) for x, y in zip(sorted(bright), sorted(band)))) / abs(j)
        assert abs(Decimal(report.deviation_over_J) / ref - 1) < Decimal(1e-10)


def test_pair_rows_are_the_dense_matrix_rows(small_cfg, cfg):
    # the rows the pair route reads, atoms 0 and 1 to every atom, keep the
    # bits of the dense matrix's first two rows at the preset geometry
    for lattice in (small_cfg, cfg):
        for n_cells in range(1, 202):
            rows = oracle._cell_couplings(lattice, n_cells, "full-dipole-sum")
            assert np.array_equal(rows.transpose(1, 0, 2).ravel(), _dense_couplings(
                lattice, n_cells, "full-dipole-sum")[:2].ravel()), n_cells


def test_jacobi_on_diagonal_matrix():
    w, v = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1.0, 2.0, 3.0], rtol=0, atol=0)
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=0)


def test_jacobi_against_lapack_route():
    rng = np.random.default_rng(55)
    for n in (2, 7, 40):
        m = rng.normal(size=(n, n))
        m = m + m.T
        w, v = jacobi_eigh(m)
        assert np.allclose(w, np.linalg.eigvalsh(m), rtol=1e-12, atol=1e-12)
        assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)


def test_lapack_route_agrees_with_jacobi_on_blocking_sector(small_cfg):
    e_abs = 1e-12 * small_cfg.E_A
    h = _pair_sector(small_cfg, 6, V_dyn=1e-3)
    w_lapack, _ = np.linalg.eigh(h)
    w_jacobi, _ = jacobi_eigh(h)
    assert np.max(np.abs(w_lapack - w_jacobi)) <= e_abs

    # the momentum-block report against the dense sector solved by Jacobi
    blocks = validate_blocking(small_cfg, 6, V_dyn=1e-3)
    jacobi = _dense_blocking(small_cfg, 6, 1e-3, jacobi_eigh)
    assert blocks.cluster_size == jacobi["cluster_size"] == 6
    assert blocks.separated and jacobi["separated"]
    assert abs(blocks.separation - jacobi["separation"]) <= e_abs
    assert abs(blocks.min_gap - jacobi["min_gap"]) <= e_abs


def test_diagonalize_residual_and_trace(small_cfg):
    h = _pair_sector(small_cfg, 3, V_dyn=1e-3)
    w, v = np.linalg.eigh(h)
    e_a = small_cfg.E_A
    for i in range(len(w)):
        residual = np.linalg.norm(h @ v[:, i] - w[i] * v[:, i])
        assert residual < 1e-10 * e_a
    assert np.sum(w) == pytest.approx(np.trace(h), abs=1e-10 * e_a * len(w))


def test_spectrum_invariant_under_cell_relabeling(small_cfg):
    h = _dense_sector(small_cfg, 3)
    # mirror the lattice: cell n -> 2 - n with the in-cell pair swapped
    perm = [2 * (2 - (i // 2)) + (1 - i % 2) for i in range(6)]
    p = np.zeros((6, 6))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
    w_orig, _ = jacobi_eigh(h)
    w_perm, _ = jacobi_eigh(p @ h @ p.T)
    assert np.allclose(w_orig, w_perm, rtol=1e-12, atol=1e-18)


def test_band_report_levels_match_within_distance_splitting(small_cfg):
    # residual deviation comes from the a -+ R distance splitting of the
    # inter-cell couplings: leading term 12 (R/a)^2 |J| at the zone center
    for n_cells in (3, 5, 7):
        report = validate_band(small_cfg, n_cells)
        x = report.R_used / small_cfg.a
        assert report.max_deviation == pytest.approx(
            12.0 * x ** 2 * abs(report.J), rel=0.01)
        assert report.eigenvalues.shape == report.analytic.shape == (2 * n_cells,)


def test_band_report_dark_level_window(small_cfg):
    # dark levels inherit a -+12 (R/a)^2 |J| cos(ka) wobble, so the strict
    # 1e-3 |J| window clips the zone-center level(s)
    expected_counts = {3: 2, 5: 4, 7: 4}
    for n_cells, count in expected_counts.items():
        report = validate_band(small_cfg, n_cells)
        assert report.dark_count == count


def test_band_report_flat_at_magic_angle(small_cfg):
    magic = replace(small_cfg, theta=MAGIC_ANGLE)
    report = validate_band(magic, 3)
    assert np.allclose(report.eigenvalues, magic.E_A,
                       atol=1e-12 * magic.E_A, rtol=0)


def test_band_report_makes_no_dense_solve(small_cfg, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("dense solve")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, fail)
    assert validate_band(small_cfg, 101).eigenvalues.shape == (202,)


def test_band_report_requires_small_odd_cells(small_cfg):
    for bad in (1, 2, 4):
        with pytest.raises(DomainError):
            validate_band(small_cfg, bad)


def test_band_report_residual_independent_of_ring_size(small_cfg):
    # the a -+ R residual 12 (R/a)^2 |J| does not depend on N; carried to
    # O((R/a)^2) as in acceptance 7, the levels match to ~30 (R/a)^4 |J|
    for n_cells in (9, 21, 51, 101):
        report = validate_band(small_cfg, n_cells)
        assert report.eigenvalues.shape == (2 * n_cells,)
        x = report.R_used / small_cfg.a
        assert report.deviation_over_J == pytest.approx(12.0 * x ** 2, rel=0.01)
        small = replace(small_cfg, R=report.R_used, N=n_cells)
        ks = allowed_wavenumbers(small)
        shift = 12.0 * x ** 2 * report.J * np.cos(ks * small.a)
        reference = np.sort(np.concatenate([
            exciton_levels(small).E_a - shift, symmetric_band(ks, small) + shift]))
        residual = np.max(np.abs(report.eigenvalues - reference))
        assert residual < 1e-3 * abs(report.J)


def test_full_sum_error_shrinks_with_pitch(small_cfg):
    # beyond-nearest-neighbour couplings fall off as the pitch grows
    deviations = []
    for a in (1000.0, 2000.0, 4000.0):
        c = replace(small_cfg, a=a)
        w_nn = bloch_levels(c, 5, "nearest-neighbor-cells")
        w_full = bloch_levels(c, 5, "full-dipole-sum")
        deviations.append(np.max(np.abs(w_nn - w_full)))
    assert deviations[0] > deviations[1] > deviations[2]


def test_blocking_reference_case(small_cfg):
    report = validate_blocking(small_cfg, 2, V_dyn=1e-3)
    assert report.dimension == report.expected_dimension == 6
    assert report.no_double_occupation
    assert report.cluster_size == 2
    assert report.separation == pytest.approx(2e-3, rel=0.10)
    assert report.min_gap == pytest.approx(2e-3 - 2 * exciton_levels(small_cfg).J0,
                                           rel=0.02)
    assert report.separated


def test_blocking_flags_resonance_without_shift(small_cfg):
    report = validate_blocking(small_cfg, 2, V_dyn=0.0)
    assert not report.separated


def test_blocking_scales_with_cells(small_cfg):
    report = validate_blocking(small_cfg, 5, V_dyn=1e-3)
    assert report.dimension == math.comb(10, 2)
    assert report.cluster_size == 5
    assert report.separation == pytest.approx(2e-3, rel=0.10)
    assert report.separated


def _dense_blocking(cfg, n_cells, v_dyn, eigh=np.linalg.eigh):
    """The blocking report's fields from one dense solve of the pair sector,
    in offsets from 2 E_A.  Eigenvalues closer than 1e-12 of the largest
    offset form one level, which is in the cluster when the mean of its
    states' on-cell weights is over one half by more than 1e-6."""
    h = _hard_core_pairs(_dense_couplings(cfg, n_cells), 2.0 * v_dyn)
    hi, lo = np.tril_indices(2 * n_cells, -1)
    w, vecs = eigh(h)
    weights = np.sum(vecs[hi // 2 == lo // 2, :] ** 2, axis=0)
    tol = 1e-12 * np.max(np.abs(w))
    levels = [[0]]
    for i in range(1, w.size):
        if w[i] - w[i - 1] > tol:
            levels.append([])
        levels[-1].append(i)
    in_cluster = np.zeros(w.size, dtype=bool)
    for level in levels:
        in_cluster[level] = np.mean(weights[level]) > 0.5 + 1e-6
    cluster, manifold = w[in_cluster], w[~in_cluster]
    offsets = [float(np.mean(x)) if x.size else math.nan for x in (cluster, manifold)]
    min_gap = (float(np.min(np.abs(cluster[:, None] - manifold[None, :])))
               if cluster.size and manifold.size else 0.0)
    return dict(dimension=h.shape[0], cluster_size=int(cluster.size),
                cluster_centroid=2.0 * cfg.E_A + offsets[0],
                manifold_centroid=2.0 * cfg.E_A + offsets[1],
                separation=offsets[0] - offsets[1], min_gap=min_gap,
                separated=(cluster.size == n_cells and min_gap
                           > 4.0 * abs(exciton_levels(cfg).J0)))


def _assert_report_matches_dense(report, dense, e_abs):
    assert report.dimension == report.expected_dimension == dense["dimension"]
    assert report.no_double_occupation
    for key in ("cluster_size", "separated"):
        assert getattr(report, key) == dense[key], key
    for key in ("cluster_centroid", "manifold_centroid", "separation", "min_gap"):
        got, want = getattr(report, key), dense[key]
        assert (math.isnan(got) and math.isnan(want)) or abs(got - want) <= e_abs, key


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2),
       r_over_a=st.floats(0.01, 0.99, exclude_min=True, exclude_max=True),
       v_dyn=st.one_of(st.just(0.0), st.floats(1e-5, 3e-3)),
       n_cells=st.integers(1, 9),
       mode=st.sampled_from(oracle.COUPLING_MODES))
def test_momentum_blocks_match_dense_sector(theta, r_over_a, v_dyn, n_cells, mode):
    # the union of the block spectra, with multiplicity, is the dense pair
    # sector's spectrum; both are built in offsets from 2 E_A, because the
    # absolute 2 E_A + 2 V_dyn diagonal alone rounds by half an ulp of 3 eV
    cfg = SuperLatticeConfig(E_A=1.5, a=1000.0, R=1000.0 * r_over_a, mu=2.5,
                             theta=theta, N=5)
    coupling = _dense_couplings(cfg, n_cells, mode)
    w, weights, count = oracle._pair_spectrum(cfg, n_cells, v_dyn, mode)
    count = count.astype(int)
    dense = np.linalg.eigvalsh(_hard_core_pairs(coupling, 2.0 * v_dyn))
    assert w.shape == weights.shape == count.shape
    assert np.sum(count) == dense.size == math.comb(2 * n_cells, 2)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(np.sort(np.repeat(w, count)) - dense)) <= 1e-12 * scale
    assert np.all((weights >= 0.0) & (weights <= 1.0 + 1e-12))
    # the trace of the projector on the N pairs filling a cell, which does
    # not depend on the basis either eigh picks inside a degenerate level
    assert np.sum(count * weights) == pytest.approx(n_cells, rel=1e-12)
    # every block is real symmetric, read off the couplings of atoms 0 and 1
    reach = 1 if mode == "nearest-neighbor-cells" else n_cells // 2
    blocks = oracle._fill_blocks(oracle._pair_blocks(n_cells, reach),
                                 coupling[:2].ravel(), v_dyn, slice(0, None))
    assert blocks.dtype == np.float64
    assert np.max(np.abs(blocks - blocks.transpose(0, 2, 1))) <= 1e-12 * scale
    if mode == "nearest-neighbor-cells":
        _assert_report_matches_dense(validate_blocking(cfg, n_cells, v_dyn),
                                     _dense_blocking(cfg, n_cells, v_dyn),
                                     1e-12 * cfg.E_A)


def test_pair_memory_bound_raises_before_any_table(small_cfg, monkeypatch):
    def fail(*args):
        raise AssertionError("pair tables built")

    monkeypatch.setattr(oracle, "_pair_blocks", fail)
    # 1015 cells is the first odd ring over the budget, 1013 the last under it
    for n_cells, need in ((1015, 513), (4999, 12407)):
        with pytest.raises(SectorSizeError) as excinfo:
            validate_blocking(small_cfg, n_cells, V_dyn=1e-3)
        assert str(excinfo.value) == (f"{n_cells}-cell pair blocks need about "
                                      f"{need} MB, over the 512 MB budget")
    assert sum(oracle._pair_bytes(1013, 1)) <= oracle._MAX_PAIR_BYTES


def test_pair_blocks_solved_in_chunks_match_one_stack(small_cfg, monkeypatch):
    # a budget that leaves room for one or two blocks at a time
    wholes = {n_cells: oracle._pair_spectrum(small_cfg, n_cells, 1e-3) for n_cells in (6, 9)}
    for n_cells, whole in wholes.items():
        tables, per_block = oracle._pair_bytes(n_cells, 1)
        for blocks in (1, 2):
            monkeypatch.setattr(oracle, "_MAX_PAIR_BYTES", tables + blocks * per_block)
            assert np.array_equal(oracle._pair_spectrum(small_cfg, n_cells, 1e-3), whole)


def test_pair_memory_estimate_bounds_the_tables():
    # the estimate, made before anything is built, covers what is built
    for n_cells, reach in ((2, 1), (6, 1), (9, 4), (69, 1), (101, 1), (30, 15)):
        t = oracle._pair_blocks(n_cells, reach)
        tables, per_block = oracle._pair_bytes(n_cells, reach)
        built = sum(x.nbytes for x in t if isinstance(x, np.ndarray))
        assert built <= tables
        assert 2 * 8 * t.size ** 2 <= per_block


def test_single_cell_blocking_matches_dense(small_cfg):
    # one pair and no hops: a cluster of one, no manifold to compare with
    report = validate_blocking(small_cfg, 1, V_dyn=1e-3)
    dense = _dense_blocking(small_cfg, 1, 1e-3)
    _assert_report_matches_dense(report, dense, 1e-12 * small_cfg.E_A)
    assert report.cluster_size == 1 and report.dimension == 1
    assert math.isnan(report.manifold_centroid) and math.isnan(report.separation)
    assert report.cluster_centroid == pytest.approx(2 * small_cfg.E_A + 2e-3, rel=1e-15)
    assert report.min_gap == 0.0 and not report.separated

