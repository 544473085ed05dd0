import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bogolon import (MAGIC_ANGLE, SuperLatticeConfig, WaveguideConfig,
                     antisymmetric_energy, coupling_bright, exciton_levels,
                     find_resonance_k, hopfield, polariton, reference_setup,
                     symmetric_band, verify_diagonalization)
from bogolon.errors import (AmbiguousSolutionError, DegenerateModeError,
                            DomainError, ModelError, NoSolutionError)
from bogolon.polariton import _lower_branch
from bogolon.waveguide import photon_dispersion, resonant_q0

K_STAR_REFERENCE = 1.4e-5       # quoted operating wavenumber
K_STAR_PRESET = 1.3817490737859908e-05   # frozen find_resonance_k result
X2_LOWER_REFERENCE = 0.56       # quoted excitonic fraction there


def test_mode_normalization_and_splitting(wg, cfg):
    rng = np.random.default_rng(11)
    for k in rng.uniform(0.0, math.pi / cfg.a, 300):
        mode = hopfield(float(k), wg, cfg)
        assert mode.X_upper ** 2 + mode.Y_upper ** 2 == pytest.approx(1.0, abs=1e-12)
        assert mode.X_lower ** 2 + mode.Y_lower ** 2 == pytest.approx(1.0, abs=1e-12)
        assert mode.E_upper - mode.E_lower == pytest.approx(2.0 * mode.D, abs=1e-12)
        assert mode.E_upper >= mode.E_lower
        assert mode.D >= abs(mode.delta) >= 0.0


def test_branch_orthogonality(wg, cfg):
    rng = np.random.default_rng(12)
    for k in rng.uniform(0.0, math.pi / cfg.a, 300):
        mode = hopfield(float(k), wg, cfg)
        overlap = mode.X_upper * mode.X_lower + mode.Y_upper * mode.Y_lower
        assert abs(overlap) < 1e-12


def test_no_crossing_gap(wg, cfg):
    for k in np.linspace(0.0, math.pi / cfg.a, 200):
        mode = hopfield(float(k), wg, cfg)
        f = coupling_bright(float(k), wg, cfg)
        assert mode.E_upper - mode.E_lower >= 2.0 * f > 0.0


def test_resonant_mixing_is_half_half(cfg):
    # guide tuned so the photon sits exactly on the k = 0 exciton level
    e_s0 = symmetric_band(0.0, cfg)
    wg0 = WaveguideConfig(epsilon=2.0, q0=resonant_q0(2.0, e_s0), u_b=0.25,
                          S_bar=math.pi * cfg.a ** 2)
    mode = hopfield(0.0, wg0, cfg)
    assert mode.delta == pytest.approx(0.0, abs=1e-15)
    for amp in (mode.X_upper, mode.Y_upper, mode.X_lower, mode.Y_lower):
        assert amp ** 2 == pytest.approx(0.5, abs=1e-12)


def test_decoupled_limit_pure_fractions(cfg):
    # negligible dipole: branches become pure photon / pure exciton
    weak = replace(cfg, mu=1e-9)
    wg_blue = WaveguideConfig(epsilon=2.0, q0=resonant_q0(2.0, 1.6), u_b=0.25,
                              S_bar=math.pi * cfg.a ** 2)
    mode = hopfield(0.0, wg_blue, weak)   # photon above exciton: delta > 0
    assert mode.X_lower ** 2 == pytest.approx(1.0, abs=1e-9)
    assert mode.X_upper ** 2 == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("E_A", [0.5, 1.0, 1.5, 2.0])
def test_degenerate_mode_raises(cfg, E_A):
    # at the magic angle the k = 0 band sits on E_A, the guide puts the
    # photon there too, and u_b^2 / S_bar underflows the coupling to 0
    magic = replace(cfg, E_A=E_A, theta=MAGIC_ANGLE)
    assert symmetric_band(0.0, magic) == E_A
    flat = WaveguideConfig(epsilon=1.0, q0=resonant_q0(1.0, E_A), u_b=1e-300,
                           S_bar=1e308)
    for call in (hopfield, _lower_branch,
                 lambda *args: _lower_branch(*args, in_zone=True)):
        with pytest.raises(DegenerateModeError):
            call(0.0, flat, magic)


def test_operating_point_fraction(wg, cfg, setup):
    k_star = setup.mode.k
    assert k_star == pytest.approx(K_STAR_REFERENCE, rel=0.10)
    assert setup.mode.X_lower ** 2 == pytest.approx(X2_LOWER_REFERENCE, abs=0.02)
    # regression values
    assert k_star == pytest.approx(1.3817490737859908e-05, rel=1e-6)
    assert setup.mode.X_lower ** 2 == pytest.approx(0.5564009586830054, rel=1e-6)


def test_verify_diagonalization_residual(wg, cfg, setup):
    assert verify_diagonalization(setup.mode, wg, cfg) < 1e-12 * cfg.E_A
    rng = np.random.default_rng(13)
    for k in rng.uniform(0.0, math.pi / cfg.a, 50):
        mode = hopfield(float(k), wg, cfg)
        assert verify_diagonalization(mode, wg, cfg) < 1e-12 * cfg.E_A


def test_find_resonance_contract(wg, cfg):
    e_a = antisymmetric_energy(cfg)
    k_star = find_resonance_k(e_a, wg, cfg)
    assert abs(hopfield(k_star, wg, cfg).E_lower - e_a) < 1e-12
    assert k_star == pytest.approx(K_STAR_REFERENCE, rel=0.10)


def test_find_resonance_at_band_bottom(wg, cfg):
    target = hopfield(0.0, wg, cfg).E_lower
    assert find_resonance_k(target, wg, cfg) == 0.0


def test_find_resonance_outside_range(wg, cfg):
    with pytest.raises(NoSolutionError):
        find_resonance_k(1.6, wg, cfg)
    with pytest.raises(NoSolutionError):
        find_resonance_k(0.5, wg, cfg)


def test_find_resonance_ambiguous_near_band_maximum(wg, cfg):
    # the lower branch rises to a shallow maximum and then follows the
    # cosine band down: a target just below the maximum is reached twice
    ks = np.linspace(0.0, math.pi / cfg.a, 2001)
    vals = [hopfield(float(k), wg, cfg).E_lower for k in ks]
    lv = exciton_levels(cfg)
    target = max(vals) - 2.0 * lv.J
    with pytest.raises(AmbiguousSolutionError) as err:
        find_resonance_k(target, wg, cfg)
    assert len(err.value.candidates) == 2
    for k in err.value.candidates:
        assert abs(hopfield(k, wg, cfg).E_lower - target) < 1e-12


def test_lower_branch_turns_excitonic_at_large_k(wg, cfg):
    k_edge = math.pi / cfg.a
    mode = hopfield(k_edge, wg, cfg)
    assert mode.X_lower ** 2 > 1.0 - 1e-6
    # far blue detuning: the branch tracks the bare band up to the tiny
    # residual repulsion f^2/(D + delta)
    e_s = symmetric_band(k_edge, cfg)
    assert mode.E_lower == pytest.approx(e_s, rel=1e-7)
    f = coupling_bright(k_edge, wg, cfg)
    assert e_s - mode.E_lower == pytest.approx(f ** 2 / (mode.D + mode.delta),
                                               rel=1e-6)


def test_lower_fraction_monotone_through_anticrossing(wg, cfg):
    # excitonic fraction of the lower branch sweeps from photon-dominated
    # to exciton-dominated across the resonance
    ks = np.linspace(0.0, 5e-5, 120)
    fractions = [hopfield(float(k), wg, cfg).X_lower ** 2 for k in ks]
    assert all(b > a for a, b in zip(fractions, fractions[1:]))
    assert fractions[0] < 0.5 < fractions[-1]


def test_find_resonance_k_preset_value_frozen(wg, cfg):
    k_star = find_resonance_k(antisymmetric_energy(cfg), wg, cfg)
    assert k_star == pytest.approx(K_STAR_PRESET, rel=1e-15)


def test_hopfield_array_matches_scalar_calls(wg, cfg):
    ks = np.linspace(0.0, math.pi / cfg.a, 301)
    grid = hopfield(ks, wg, cfg)
    for i, k in enumerate(ks):
        one = hopfield(float(k), wg, cfg)
        for field in ("E_upper", "E_lower", "X_upper", "Y_upper", "X_lower",
                      "Y_lower", "delta", "D"):
            assert getattr(grid, field)[i] == pytest.approx(
                getattr(one, field), rel=1e-14, abs=1e-300)
    thetas = np.linspace(0.0, math.pi / 2, 91)
    by_angle = hopfield(0.0, wg, cfg, theta=thetas)
    for i, theta in enumerate(thetas):
        one = hopfield(0.0, wg, replace(cfg, theta=float(theta)))
        assert by_angle.E_lower[i] == pytest.approx(one.E_lower, rel=1e-14)
        assert by_angle.X_lower[i] == pytest.approx(one.X_lower, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(k_over_zone=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
       theta=st.floats(0.0, math.pi / 2), E_A=st.floats(0.5, 3.0),
       a=st.floats(100.0, 5000.0), r_over_a=st.floats(0.01, 0.99),
       mu=st.floats(0.1, 10.0), epsilon=st.floats(1.0, 12.0),
       u_b=st.floats(0.01, 1.0), detune=st.floats(0.5, 2.0))
def test_hopfield_array_normalized_and_orthogonal(k_over_zone, theta, E_A, a,
                                                  r_over_a, mu, epsilon, u_b,
                                                  detune):
    cfg = SuperLatticeConfig(E_A=E_A, a=a, R=r_over_a * a, mu=mu, theta=0.0,
                             N=101)
    wg = WaveguideConfig(epsilon=epsilon, q0=detune * resonant_q0(epsilon, E_A),
                         u_b=u_b, S_bar=math.pi * a ** 2)
    ks = np.array(k_over_zone) * math.pi / a
    for k in (ks, float(ks[0])):
        mode = hopfield(k, wg, cfg, theta=theta)
        assert np.all(np.abs(mode.X_upper ** 2 + mode.Y_upper ** 2 - 1.0) < 1e-12)
        assert np.all(np.abs(mode.X_lower ** 2 + mode.Y_lower ** 2 - 1.0) < 1e-12)
        assert np.all(np.abs(mode.X_upper * mode.X_lower
                             + mode.Y_upper * mode.Y_lower) < 1e-12)
        # the bare levels pushed apart by f^2 / (D + |delta|), bit for bit
        e_s, e_ph = symmetric_band(k, cfg, theta=theta), photon_dispersion(k, wg)
        f, delta = coupling_bright(k, wg, cfg), (e_ph - e_s) / 2.0
        rep = f ** 2 / (np.hypot(delta, f) + abs(delta))
        assert np.array_equal(mode.E_lower, np.minimum(e_s, e_ph) - rep)
        assert np.array_equal(mode.E_upper, np.maximum(e_s, e_ph) + rep)


@settings(max_examples=60, deadline=None)
@given(k_over_zone=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
       theta=st.floats(0.0, math.pi / 2), E_A=st.floats(0.5, 3.0),
       a=st.floats(100.0, 5000.0), r_over_a=st.floats(0.01, 0.99),
       mu=st.floats(0.1, 10.0), epsilon=st.floats(1.0, 12.0),
       u_b=st.floats(0.01, 1.0), detune=st.floats(0.5, 2.0))
def test_lower_branch_equals_hopfield_bitwise(k_over_zone, theta, E_A, a,
                                              r_over_a, mu, epsilon, u_b, detune):
    # the lower branch alone, with and without the zone check, is hopfield's
    cfg = SuperLatticeConfig(E_A=E_A, a=a, R=r_over_a * a, mu=mu, theta=theta,
                             N=101)
    wg = WaveguideConfig(epsilon=epsilon, q0=detune * resonant_q0(epsilon, E_A),
                         u_b=u_b, S_bar=math.pi * a ** 2)
    ks = np.array(k_over_zone) * math.pi / a
    for k in (ks, float(ks[0])):
        want = hopfield(k, wg, cfg).E_lower
        for in_zone in (False, True):
            got = _lower_branch(k, wg, cfg, in_zone=in_zone)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


def _bisect_loop(target, wg, cfg):
    """The one-midpoint-per-call bisection that find_resonance_k replaced,
    kept verbatim as its reference (module constants written out)."""
    k_max = math.pi / cfg.a
    ks = np.linspace(0.0, k_max, 1000 + 1)
    vals = hopfield(ks, wg, cfg).E_lower - target

    hits = [float(ks[i]) for i in np.flatnonzero(vals == 0.0)]
    brackets = [(float(ks[i]), float(ks[i + 1]))
                for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]

    if not hits and not brackets:
        lo, hi = float(vals.min() + target), float(vals.max() + target)
        raise NoSolutionError(
            f"target {target} eV outside lower-branch range [{lo}, {hi}] eV")

    roots = list(hits)
    for a_k, b_k in brackets:
        fa = hopfield(a_k, wg, cfg).E_lower - target
        lo, hi = a_k, b_k
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = hopfield(mid, wg, cfg).E_lower - target
            if abs(fm) < 1e-12:
                lo = hi = mid
                break
            if fa * fm <= 0.0:
                hi = mid
            else:
                lo, fa = mid, fm
        roots.append(0.5 * (lo + hi))

    roots = sorted(set(roots))
    if len(roots) > 1:
        raise AmbiguousSolutionError(
            f"{len(roots)} wavenumbers reach {target} eV on the lower branch",
            candidates=roots)
    return roots[0]


def _outcome(solver, target, wg, cfg):
    try:
        return solver(target, wg, cfg)
    except ModelError as err:
        return type(err), getattr(err, "candidates", None)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi / 2),
       r_over_a=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       kind=st.sampled_from(["dark", "inside", "below_max"]),
       u=st.floats(0.0, 1.0))
def test_find_resonance_k_equals_bisect_loop(theta, r_over_a, kind, u):
    setup = reference_setup()
    try:
        cfg = replace(setup.cfg, theta=theta, R=r_over_a * setup.cfg.a)
    except DomainError:
        # |J0| <= 180 eV A^3 / R^3 at the preset mu, so J0^2 is finite for
        # R/a >= 1e-40: only a smaller R may be rejected as overflowing
        assert r_over_a < 1e-40
        return
    wg = setup.wg
    # Near that limit the reference loop may overflow in the mixing
    # amplitudes it computes but never uses: silence the overflow and
    # compare what both return or raise.
    with np.errstate(all="ignore"):
        e = hopfield(np.linspace(0.0, math.pi / cfg.a, 2001), wg, cfg).E_lower
        span = e.max() - e.min()
        target = float(antisymmetric_energy(cfg) if kind == "dark"
                       else e.min() + u * span if kind == "inside"
                       else e.max() - 1e-3 * u * span)
        new = _outcome(find_resonance_k, target, wg, cfg)
        ref = _outcome(_bisect_loop, target, wg, cfg)
    assert new == ref
    assert type(new) is type(ref)


def _decimal_lower(k, wg, cfg):
    """The lower eigenvalue of the float 2x2 H(k) in 80-digit arithmetic."""
    e_s, e_ph, f = map(Decimal, (symmetric_band(k, cfg), photon_dispersion(k, wg),
                                 coupling_bright(k, wg, cfg)))
    with localcontext() as ctx:
        ctx.prec = 80
        return (e_s + e_ph) / 2 - (((e_ph - e_s) / 2) ** 2 + f * f).sqrt()


@settings(max_examples=60, deadline=None)
@example(theta=1.309, r_over_a=1.95e-7, target=4.3106)
@example(theta=1.050, r_over_a=2.94e-5, target=1.81132)
@given(theta=st.floats(1.0, math.pi / 2),
       r_over_a=st.floats(-12.0, -3.0).map(lambda e: 10.0 ** e),
       target=st.floats(1.501, 4.6))
def test_find_resonance_k_meets_its_tolerance_on_tiny_cells(theta, r_over_a, target):
    # J0 from 11 eV up to 1e29 eV puts the bright exciton far above the
    # photon band, so the lower branch is the photon, E from just over 1.5 to
    # 4.63 eV, beside a level of size J0: the crossing still meets 1e-12 eV
    # against the exact lower eigenvalue of the same float matrix
    setup = reference_setup()
    cfg = replace(setup.cfg, theta=theta, R=r_over_a * setup.cfg.a)
    k = find_resonance_k(target, setup.wg, cfg)
    assert abs(_decimal_lower(k, setup.wg, cfg) - Decimal(target)) <= Decimal(1e-12)


@pytest.mark.parametrize("halvings", [1, 2, 6, 7, 12, 13, 18, 19, 24])
def test_find_resonance_k_stops_on_both_sides_of_a_block_edge(wg, cfg,
                                                              halvings):
    # Target the energy at a seeded midpoint `halvings` levels down the
    # bisection tree of the dark-level bracket: the loop stops exactly there.
    # 1 stops at the first midpoint of a path, 24 in a re-aimed path call.
    ks = np.linspace(0.0, math.pi / cfg.a, 1001)
    vals = hopfield(ks, wg, cfg).E_lower - antisymmetric_energy(cfg)
    i = int(np.flatnonzero(vals[:-1] * vals[1:] < 0.0)[0])
    lo, hi = float(ks[i]), float(ks[i + 1])
    for right in np.random.default_rng(halvings).integers(0, 2, halvings - 1):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if right else (lo, mid)
    mid = 0.5 * (lo + hi)
    target = hopfield(mid, wg, cfg).E_lower
    assert _bisect_loop(target, wg, cfg) == mid
    assert find_resonance_k(target, wg, cfg) == mid


def test_find_resonance_k_makes_three_branch_calls_at_the_preset(wg, cfg,
                                                                 monkeypatch):
    # the coarse scan, then one aimed path and one re-aimed path
    sizes = []

    def counted(k, *args, **kwargs):
        sizes.append(np.size(k))
        return _lower_branch(k, *args, **kwargs)

    monkeypatch.setattr(polariton, "_lower_branch", counted)
    assert find_resonance_k(antisymmetric_energy(cfg), wg, cfg) == K_STAR_PRESET
    assert len(sizes) == 3 and sizes[0] == 1001
