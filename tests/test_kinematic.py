import math
from dataclasses import replace

import pytest

from bogolon import (WaveguideConfig, double_excitation_excluded,
                     effective_mass, exciton_levels, hopfield,
                     interaction_params)
from bogolon.constants import CONSTANTS
from bogolon.errors import DomainError
from bogolon.waveguide import resonant_q0

# Frozen chain at the reference point: mc^2 = eps * E_A; U = 4 pi
# (hbar c)^2 / (mc^2 a^2); Delta = U / 100001.
MC2_REFERENCE = 3.0
U_REFERENCE = 16.310284991190162
DELTA_REFERENCE = 1.6310121889971262e-04


def test_effective_mass_reference(wg):
    assert effective_mass(wg) == pytest.approx(MC2_REFERENCE, rel=1e-12)


def test_effective_mass_limits(cfg):
    unity = WaveguideConfig(epsilon=1.0, q0=resonant_q0(1.0, cfg.E_A), u_b=0.5,
                            S_bar=1e6)
    assert effective_mass(unity) == pytest.approx(cfg.E_A, rel=1e-12)
    doubled = replace(unity, q0=2.0 * unity.q0)
    assert effective_mass(doubled) == pytest.approx(2.0 * cfg.E_A, rel=1e-12)


def test_interaction_params_reference(wg, cfg):
    ip = interaction_params(wg, cfg, X2=0.56)
    assert ip.U == pytest.approx(U_REFERENCE, rel=1e-12)
    assert ip.Delta == pytest.approx(DELTA_REFERENCE, rel=1e-12)
    assert ip.Delta == pytest.approx(1.6e-4, rel=0.05)
    assert ip.Delta_tilde == pytest.approx(ip.Delta * 0.56, rel=1e-15)
    assert ip.Delta_tilde == pytest.approx(9.1e-5, rel=0.05)


def test_interaction_dimensional_chain(wg, cfg):
    # hand-computed: 4 pi * 1973.269804^2 / (3.0 * 1000^2) / 100001
    by_hand = (4.0 * math.pi * CONSTANTS.hbar_c ** 2
               / (3.0000000000000004 * cfg.a ** 2) / cfg.N)
    ip = interaction_params(wg, cfg, X2=1.0)
    assert ip.Delta == pytest.approx(by_hand, rel=1e-12)


def test_interaction_extensivity(wg, cfg):
    for n in (3, 101, 100001):
        ip = interaction_params(wg, replace(cfg, N=n), X2=0.3)
        assert ip.Delta * n == pytest.approx(ip.U, rel=1e-12)


def test_interaction_thermodynamic_limit(wg, cfg):
    small = interaction_params(wg, replace(cfg, N=1001), X2=0.5)
    large = interaction_params(wg, replace(cfg, N=1000001), X2=0.5)
    assert large.Delta < 1e-2 * small.Delta


def test_interaction_params_rejects_bad_fraction(wg, cfg):
    for bad in (-0.1, 1.1):
        with pytest.raises(DomainError):
            interaction_params(wg, cfg, X2=bad)


def test_vertex_set_structure(wg, cfg):
    ip = interaction_params(wg, cfg, X2=0.56)
    assert ip.pol_dark_cross == pytest.approx(4.0 * ip.pol_dark_pair, rel=1e-15)
    assert ip.pol_pol == pytest.approx(ip.pol_dark_pair * ip.X2, rel=1e-15)
    assert ip.dark_dark == pytest.approx(ip.Delta / 2.0, rel=1e-15)
    assert ip.pol_dark_pair == pytest.approx(ip.Delta_tilde / 2.0, rel=1e-15)
    assert ip.pol_dark_pair == pytest.approx(4.56e-5, rel=0.01)


def test_vertex_set_limits(wg, cfg):
    full = interaction_params(wg, cfg, X2=1.0)
    assert full.pol_pol == full.pol_dark_pair == pytest.approx(
        full.dark_dark, rel=1e-15)
    assert full.pol_dark_cross == pytest.approx(4.0 * full.dark_dark, rel=1e-15)
    off = interaction_params(wg, cfg, X2=0.0)
    assert off.pol_pol == off.pol_dark_pair == off.pol_dark_cross == 0.0
    assert off.dark_dark > 0.0


def test_double_excitation_needs_dynamical_shift(wg, cfg, setup):
    report = double_excitation_excluded(cfg, wg, V_dyn=0.0, tolerance=1e-8,
                                        k_pump=setup.drive.k_pump)
    assert not report
    assert report.channels["2E_A"][1] == 0.0


def test_double_excitation_excluded_at_reference(wg, cfg, setup):
    report = double_excitation_excluded(cfg, wg, V_dyn=1e-3, tolerance=1e-5,
                                        k_pump=setup.drive.k_pump)
    assert report
    lv = exciton_levels(cfg)
    for _, gap in report.channels.values():
        assert gap >= 2e-3 - 2.0 * lv.J0 - 1e-9


def test_double_excitation_constructed_resonance(wg, cfg, setup):
    lv = exciton_levels(cfg)
    report = double_excitation_excluded(cfg, wg, V_dyn=lv.J0, tolerance=1e-5,
                                        k_pump=setup.drive.k_pump)
    assert not report
    assert report.channels["2E_s"][1] < 1e-15


def test_double_excitation_rejects_bad_tolerance(wg, cfg, setup):
    with pytest.raises(DomainError):
        double_excitation_excluded(cfg, wg, V_dyn=1e-3, tolerance=0.0,
                                   k_pump=setup.drive.k_pump)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_double_excitation_rejects_non_finite_shift(wg, cfg, setup, bad):
    # inf would report the state excluded, NaN not excluded with E_e = NaN
    with pytest.raises(DomainError, match="V_dyn must be finite"):
        double_excitation_excluded(cfg, wg, V_dyn=bad, tolerance=1e-5,
                                   k_pump=setup.drive.k_pump)


@pytest.mark.parametrize("big", [1e308, -1e308])
def test_double_excitation_rejects_an_overflowing_pair_energy(wg, cfg, setup, big):
    # E_e = inf would report the state excluded
    with pytest.raises(DomainError, match=r"E_e = 2 E_A \+ 2 V_dyn overflows"):
        double_excitation_excluded(cfg, wg, V_dyn=big, tolerance=1e-5,
                                   k_pump=setup.drive.k_pump)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_double_excitation_rejects_non_finite_tolerance(wg, cfg, setup, bad):
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        double_excitation_excluded(cfg, wg, V_dyn=1e-3, tolerance=bad,
                                   k_pump=setup.drive.k_pump)


@pytest.mark.parametrize("k_over_zone", [0.0, 1e-3, 0.5, 1.0, -0.25])
def test_double_excitation_pump_channel_is_the_lower_branch(wg, cfg, setup,
                                                            k_over_zone):
    k_pump = setup.drive.k_pump + k_over_zone * math.pi / cfg.a
    k_pump = max(-math.pi / cfg.a, min(k_pump, math.pi / cfg.a))
    report = double_excitation_excluded(cfg, wg, V_dyn=1e-3, tolerance=1e-5,
                                        k_pump=k_pump)
    energy = report.channels["2E_lower(k_pump)"][0]
    want = 2.0 * hopfield(k_pump, wg, cfg).E_lower
    assert type(energy) is float and energy.hex() == want.hex()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_double_excitation_rejects_pump_outside_the_zone(wg, cfg, sign):
    with pytest.raises(DomainError, match="Brillouin zone"):
        double_excitation_excluded(cfg, wg, V_dyn=1e-3, tolerance=1e-5,
                                   k_pump=sign * 1.01 * math.pi / cfg.a)
