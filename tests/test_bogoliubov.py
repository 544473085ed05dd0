import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bogolon import (BogoliubovCoeffs, antisymmetric_energy,
                     bogolon_steady_state, coefficients,
                     reconstruct_dark_amplitudes, steady_state)
from bogolon.errors import (DomainError, InstabilityError, PoleError,
                            SignRegimeError)
from bogolon.kinematic import InteractionParams
from bogolon.pumpprobe import DriveConfig
from bogolon.polariton import HopfieldMode


def test_trivial_coeffs_without_coupling():
    co = coefficients(E_a_tilde=1.5, V_mf=0.0, E_drive=1.4)
    assert co.u == 1.0
    assert co.v == 0.0
    assert co.E0_bar == pytest.approx(0.1, rel=1e-12)


def test_reference_point_coeffs():
    # drive on the bare dark level, unit pump occupation: gap = 2 Delta~,
    # coupling Delta~, so E0bar = sqrt(3) Delta~ and u^2 = (2/sqrt(3)+1)/2
    dt = 9.074967455816682e-05
    co = coefficients(E_a_tilde=1.5 + 2.0 * dt, V_mf=dt, E_drive=1.5)
    assert co.E0_bar == pytest.approx(math.sqrt(3.0) * dt, rel=1e-12)
    assert co.u ** 2 == pytest.approx(0.5 * (2.0 / math.sqrt(3.0) + 1.0),
                                      rel=1e-12)


def test_gap_closure_divergence():
    gap = 1e-4
    near = coefficients(E_a_tilde=1.5 + gap, V_mf=gap * (1.0 - 1e-8),
                        E_drive=1.5)
    nearer = coefficients(E_a_tilde=1.5 + gap, V_mf=gap * (1.0 - 1e-10),
                          E_drive=1.5)
    assert nearer.u > near.u > 10.0
    assert nearer.v > near.v > 10.0
    with pytest.raises(InstabilityError):
        coefficients(E_a_tilde=1.5 + gap, V_mf=gap, E_drive=1.5)
    with pytest.raises(InstabilityError):
        coefficients(E_a_tilde=1.5 + gap, V_mf=2.0 * gap, E_drive=1.5)


def test_sign_regime_rejected():
    with pytest.raises(SignRegimeError):
        coefficients(E_a_tilde=1.5, V_mf=1e-5, E_drive=1.6)
    with pytest.raises(DomainError):
        coefficients(E_a_tilde=1.5, V_mf=-1e-5, E_drive=1.4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["E_a_tilde", "V_mf", "E_drive"])
def test_coefficients_reject_non_finite_arguments(name, bad):
    # each would otherwise give NaN coefficients (or E0_bar = inf) with no
    # error; the check comes before the sign and gap regimes
    args = dict(E_a_tilde=1.5 + 2e-4, V_mf=1e-4, E_drive=1.5)
    args[name] = bad
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        coefficients(**args)


@pytest.mark.parametrize("args,square", [((1e160, 0.0, 0.0), "(E_a~ - E)^2"),
                                         ((1.0, 1e200, 0.0), "V_mf^2"),
                                         ((1e308, 0.0, -1e308), "(E_a~ - E)^2")])
def test_coefficients_name_an_overflowing_square(args, square):
    # finite arguments whose square overflows: not a bare OverflowError, nor
    # sqrt(inf - inf)
    with pytest.raises(DomainError, match=re.escape(f"the square {square} overflows")):
        coefficients(*args)


@settings(max_examples=1000, deadline=None)
@given(v=st.floats(1e-8, 1e-3), ratio=st.floats(1.0 + 1e-6, 50.0),
       e=st.floats(0.5, 3.0))
def test_hyperbolic_identity_random_triples(v, ratio, e):
    e_a_tilde = e + v * ratio
    gap = e_a_tilde - e     # exact (Sterbenz): the detuning coefficients sees
    co = coefficients(E_a_tilde=e_a_tilde, V_mf=v, E_drive=e)
    assert abs(co.u ** 2 - co.v ** 2 - 1.0) < 1e-12
    # the rotation choice that cancels the pair-creation terms
    lhs = 0.5 * co.V_mf * (co.u ** 2 + co.v ** 2)
    rhs = gap * co.u * co.v
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pair_modes_without_probe():
    co = coefficients(E_a_tilde=1.5001, V_mf=2e-5, E_drive=1.5)
    assert bogolon_steady_state(co, 0.0) == (0.0, 0.0)


def test_pair_modes_reject_vanishing_energy():
    co = BogoliubovCoeffs(u=1.0, v=0.0, E0_bar=0.0, E_a_tilde=1.5, V_mf=0.0,
                          E_drive=1.5)
    with pytest.raises(PoleError):
        bogolon_steady_state(co, 1e-9)


def test_pair_modes_ratio():
    co = coefficients(E_a_tilde=1.5002, V_mf=8e-5, E_drive=1.5)
    c_plus, c_minus = bogolon_steady_state(co, 1e-9)
    assert abs(c_plus) / abs(c_minus) == pytest.approx(co.u / co.v, rel=1e-12)


def test_reconstruction_identity_and_zeros():
    co_free = coefficients(E_a_tilde=1.5001, V_mf=0.0, E_drive=1.5)
    assert reconstruct_dark_amplitudes(co_free, 1.0 + 2.0j, 0.5j) == (
        1.0 + 2.0j, 0.5j)
    co = coefficients(E_a_tilde=1.5002, V_mf=5e-5, E_drive=1.5)
    assert reconstruct_dark_amplitudes(co, 0.0, 0.0) == (0.0, 0.0)


def test_reconstruction_closed_forms():
    co = coefficients(E_a_tilde=1.5003, V_mf=1e-4, E_drive=1.5)
    f = 2e-9
    b_plus, b_minus = reconstruct_dark_amplitudes(
        co, *bogolon_steady_state(co, f))
    e0sq = co.E0_bar ** 2
    assert b_plus == pytest.approx(
        (co.E_drive - co.E_a_tilde) * f / e0sq, rel=1e-12)
    assert b_minus == pytest.approx(co.V_mf * f / e0sq, rel=1e-12)


def test_pair_correlation_requires_pump_and_probe():
    co = coefficients(E_a_tilde=1.5002, V_mf=6e-5, E_drive=1.5)
    _, b_minus = reconstruct_dark_amplitudes(co, *bogolon_steady_state(co, 1e-9))
    assert b_minus != 0.0
    co_free = coefficients(E_a_tilde=1.5002, V_mf=0.0, E_drive=1.5)
    _, b0 = reconstruct_dark_amplitudes(
        co_free, *bogolon_steady_state(co_free, 1e-9))
    assert b0 == 0.0
    _, b1 = reconstruct_dark_amplitudes(co, *bogolon_steady_state(co, 0.0))
    assert b1 == 0.0


def test_spectrum_energy():
    co = coefficients(E_a_tilde=1.5004, V_mf=0.0, E_drive=1.5)
    assert co.E0_bar == pytest.approx(4e-4, rel=1e-12)
    co2 = coefficients(E_a_tilde=1.5004, V_mf=2e-4, E_drive=1.5)
    assert co2.E0_bar == pytest.approx(math.sqrt(16e-8 - 4e-8), rel=1e-12)


def _mode() -> HopfieldMode:
    x = math.sqrt(0.56)
    return HopfieldMode(k=1.4e-5, E_upper=1.5004, E_lower=1.4999,
                        X_upper=math.sqrt(0.44), Y_upper=x, X_lower=-x,
                        Y_lower=math.sqrt(0.44), delta=1e-5, D=2e-4)


def test_agrees_with_driven_pair_solution(cfg):
    # same physics two ways: rotate-and-solve against the direct 2x2 solve
    e_a = antisymmetric_energy(cfg)
    mode = _mode()
    rng = np.random.default_rng(34)
    for _ in range(300):
        v = float(rng.uniform(1e-8, 5e-4))
        gap = v * float(rng.uniform(1.05, 20.0))
        f = float(rng.uniform(1e-12, 1e-6))
        e_drive = e_a + 2.0 * v - gap
        ip = InteractionParams(m_c2=3.0, U=v * 1e5, Delta=v, X2=1.0)
        drive = DriveConfig(E_drive=e_drive, F_pump=0.0, F_probe_plus=f,
                            F_probe_minus=0.0, hGamma_ph=0.0, hGamma_s=0.0,
                            hGamma_a=0.0, k_pump=mode.k, q=1e-6, n_pump=1.0)
        ss = steady_state(drive, mode, ip, cfg)
        co = coefficients(E_a_tilde=ss.E_a_tilde, V_mf=ss.V_mf,
                          E_drive=e_drive)
        b_plus, b_minus = reconstruct_dark_amplitudes(
            co, *bogolon_steady_state(co, f))
        assert b_plus == pytest.approx(ss.B_plus, rel=1e-10)
        assert b_minus == pytest.approx(ss.B_minus, rel=1e-10)
