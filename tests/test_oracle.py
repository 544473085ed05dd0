import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogolon import (SuperLatticeConfig, allowed_wavenumbers, build_sector,
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


@pytest.fixture()
def no_couplings(monkeypatch):
    """Fail on any build of the atom couplings, for sectors that need none."""
    def fail(*args):
        raise AssertionError("atom couplings built")

    monkeypatch.setattr(oracle, "_atom_couplings", fail)


def test_sector_dimensions(small_cfg):
    for n_cells, n_exc, dim in ((1, 1, 2), (2, 2, 6), (3, 1, 6), (7, 2, 91),
                                (12, 2, 276)):
        h = build_sector(small_cfg, n_cells, n_exc)
        assert isinstance(h, np.ndarray)
        assert h.shape == (dim, dim) == (math.comb(2 * n_cells, n_exc),) * 2
        assert np.array_equal(h, h.T)


def test_sector_rejects_large_or_invalid_sectors(small_cfg, no_couplings):
    with pytest.raises(SectorSizeError) as excinfo:
        build_sector(small_cfg, 71, 2)          # C(142, 2) = 10011
    assert str(excinfo.value) == ("sector dimension 10011 exceeds 10000: "
                                  "801.8 MB as a dense matrix")
    with pytest.raises(DomainError):
        build_sector(small_cfg, 0, 1)
    with pytest.raises(DomainError):
        build_sector(small_cfg, 3, 3)
    with pytest.raises(DomainError):
        build_sector(small_cfg, 3, 0)


def test_single_cell_sector_matrix(small_cfg):
    h = build_sector(small_cfg, 1, 1)
    lv = exciton_levels(small_cfg)
    expected = np.array([[small_cfg.E_A, lv.J0], [lv.J0, small_cfg.E_A]])
    assert np.allclose(h, expected, rtol=1e-15, atol=0.0)


def test_three_cell_elements_by_hand(small_cfg):
    # atom i sits at (i//2)*a + (i%2 - 1/2)*R; single-excitation rows are
    # the atoms, so row/column index equals the atom index
    h = build_sector(small_cfg, 3, 1, "nearest-neighbor-cells")
    a, r = small_cfg.a, small_cfg.R
    assert h[0, 1] == pytest.approx(dipole_coupling(r, small_cfg), rel=1e-15)
    assert h[0, 2] == pytest.approx(dipole_coupling(a, small_cfg), rel=1e-15)
    assert h[0, 3] == pytest.approx(dipole_coupling(a + r, small_cfg), rel=1e-15)
    assert h[1, 2] == pytest.approx(dipole_coupling(a - r, small_cfg), rel=1e-15)
    # cells 0 and 2 are adjacent around the three-cell ring
    assert h[0, 4] == pytest.approx(dipole_coupling(a, small_cfg), rel=1e-15)
    assert h[1, 4] == pytest.approx(dipole_coupling(a + r, small_cfg), rel=1e-15)
    assert np.allclose(h, h.T, rtol=0, atol=0)
    assert np.allclose(np.diag(h), small_cfg.E_A, rtol=1e-16)


def test_double_excitation_shift_on_diagonal(small_cfg):
    v_dyn = 2.5e-4
    h = build_sector(small_cfg, 2, 2, V_dyn=v_dyn)
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
                h = build_sector(small_cfg, n_cells, n_exc, mode, V_dyn=1e-3)
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
        h = build_sector(cfg, n_cells, n_exc, mode, V_dyn=v_dyn)
        np.testing.assert_allclose(
            h, _sector_loop(cfg, n_cells, n_exc, mode, v_dyn), rtol=1e-15, atol=0)
    w_lapack, _ = np.linalg.eigh(h)             # the two-excitation sector
    w_jacobi, _ = jacobi_eigh(h)
    assert np.max(np.abs(w_lapack - w_jacobi)) <= 1e-12 * cfg.E_A


def test_single_cell_spectrum_gives_split_doublet(small_cfg):
    w, _ = np.linalg.eigh(build_sector(small_cfg, 1, 1))
    lv = exciton_levels(small_cfg)
    assert w[0] == pytest.approx(lv.E_a, rel=1e-14)   # J0 > 0 at 80 deg
    assert w[1] == pytest.approx(lv.E_s, rel=1e-14)


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


def test_lapack_route_agrees_with_jacobi_on_blocking_sector(small_cfg, monkeypatch):
    e_abs = 1e-12 * small_cfg.E_A
    h = build_sector(small_cfg, 6, 2, V_dyn=1e-3)
    w_lapack, _ = np.linalg.eigh(h)
    w_jacobi, _ = jacobi_eigh(h)
    assert np.max(np.abs(w_lapack - w_jacobi)) <= e_abs

    lapack = validate_blocking(small_cfg, 6, V_dyn=1e-3)
    monkeypatch.setattr(np.linalg, "eigh", jacobi_eigh)
    jacobi = validate_blocking(small_cfg, 6, V_dyn=1e-3)
    assert lapack.cluster_size == jacobi.cluster_size == 6
    assert lapack.separated and jacobi.separated
    assert abs(lapack.separation - jacobi.separation) <= e_abs
    assert abs(lapack.min_gap - jacobi.min_gap) <= e_abs


def test_diagonalize_residual_and_trace(small_cfg):
    h = build_sector(small_cfg, 3, 2, V_dyn=1e-3)
    w, v = np.linalg.eigh(h)
    e_a = small_cfg.E_A
    for i in range(len(w)):
        residual = np.linalg.norm(h @ v[:, i] - w[i] * v[:, i])
        assert residual < 1e-10 * e_a
    assert np.sum(w) == pytest.approx(np.trace(h), abs=1e-10 * e_a * len(w))


def test_spectrum_invariant_under_cell_relabeling(small_cfg):
    h = build_sector(small_cfg, 3, 1)
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
        w_nn, _ = np.linalg.eigh(build_sector(c, 5, 1, "nearest-neighbor-cells"))
        w_full, _ = np.linalg.eigh(build_sector(c, 5, 1, "full-dipole-sum"))
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


def test_build_sector_rejects_bad_modes(small_cfg):
    with pytest.raises(DomainError):
        build_sector(small_cfg, 3, 1, coupling_mode="everything")
