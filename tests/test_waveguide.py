import math
from dataclasses import replace

import numpy as np
import pytest

from bogolon import (CONSTANTS, WaveguideConfig, coupling_bright,
                     coupling_dark, photon_dispersion)
from bogolon.errors import DomainError

# Frozen: sqrt(2) * 1.5 / 1973.269804 and the k = 0 bright coupling
# sqrt(1.5 * 4 pi * 14.399645 / (pi * 1000^2 * 1000)) * 0.25 * 2.5.
Q0_REFERENCE = 1.075028026709541e-03
F_BRIGHT_K0 = 1.8370946619254545e-04


def test_resonant_q0(wg, cfg):
    assert wg.q0 == pytest.approx(Q0_REFERENCE, rel=1e-12)
    assert photon_dispersion(0.0, wg) == pytest.approx(cfg.E_A, rel=1e-14)


def test_photon_dispersion_shape(wg):
    e0 = photon_dispersion(0.0, wg)
    assert photon_dispersion(wg.q0, wg) == pytest.approx(
        math.sqrt(2.0) * e0, rel=1e-14)
    # linear asymptote with slope hbar c / sqrt(eps)
    q_large = 1e3 * wg.q0
    slope = (photon_dispersion(2 * q_large, wg)
             - photon_dispersion(q_large, wg)) / q_large
    assert slope == pytest.approx(CONSTANTS.hbar_c / math.sqrt(wg.epsilon),
                                  rel=1e-5)


def test_photon_dispersion_even_and_increasing(wg):
    qs = np.linspace(0.0, 5e-3, 40)
    vals = [photon_dispersion(float(q), wg) for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for q in qs:
        assert photon_dispersion(-float(q), wg) == photon_dispersion(float(q), wg)


def test_bright_coupling_reference_value(wg, cfg):
    assert coupling_bright(0.0, wg, cfg) == pytest.approx(F_BRIGHT_K0, rel=1e-12)


def test_bright_coupling_node_at_pi_over_R(wg, cfg):
    assert coupling_bright(math.pi / cfg.R, wg, cfg) < 1e-16


def test_dark_coupling_limits(wg, cfg):
    assert coupling_dark(0.0, wg, cfg) == 0.0
    k_anti = math.pi / cfg.R
    # at kR = pi the roles swap: dark maximal, bright off
    assert coupling_dark(k_anti, wg, cfg) > 1e3 * coupling_bright(k_anti, wg, cfg)


def test_dark_over_bright_is_tangent(wg, cfg):
    k = 1.4e-5
    ratio = coupling_dark(k, wg, cfg) / coupling_bright(k, wg, cfg)
    assert ratio == pytest.approx(math.tan(k * cfg.R / 2.0), rel=1e-12)
    assert ratio == pytest.approx(7.000001143333557e-04, rel=1e-12)


def test_dark_coupling_negligible_in_operating_regime(wg, cfg):
    # quantitative version of "much weaker than the bright coupling",
    # over the wavenumbers around the dark-level crossing
    for k in np.linspace(1e-6, 1.5e-5, 7):
        assert (coupling_dark(float(k), wg, cfg)
                / coupling_bright(float(k), wg, cfg)) < 1e-3


def test_pythagorean_sum_independent_of_R(wg, cfg):
    k = 2e-3
    total = coupling_bright(k, wg, cfg) ** 2 + coupling_dark(k, wg, cfg) ** 2
    for r_new in (10.0, 250.0, 900.0):
        c2 = replace(cfg, R=r_new)
        total2 = coupling_bright(k, wg, c2) ** 2 + coupling_dark(k, wg, c2) ** 2
        assert total2 == pytest.approx(total, rel=1e-12)


def test_small_k_expansion_bound(wg, cfg):
    # Taylor remainder control: relative error of the leading forms is
    # below (kR)^2/4 for kR < 0.1
    pref = lambda k: coupling_bright(k, wg, cfg) / abs(math.cos(k * cfg.R / 2))
    for k in np.geomspace(1e-6, 0.09 / cfg.R, 12):
        k = float(k)
        bright, dark = coupling_bright(k, wg, cfg), coupling_dark(k, wg, cfg)
        bound = (k * cfg.R) ** 2 / 4.0
        assert abs(bright - pref(k)) / bright < bound
        approx_dark = pref(k) * k * cfg.R / 2.0
        assert abs(dark - approx_dark) / dark < bound


def test_waveguide_config_invariants():
    good = dict(epsilon=2.0, q0=1e-3, u_b=0.25, S_bar=1e6)
    WaveguideConfig(**good)
    for bad in (dict(good, epsilon=0.5), dict(good, q0=0.0),
                dict(good, u_b=0.0), dict(good, u_b=1.5),
                dict(good, S_bar=-1.0),
                dict(good, epsilon=math.inf), dict(good, q0=math.nan),
                dict(good, u_b=math.nan), dict(good, S_bar=math.inf)):
        with pytest.raises((DomainError, ValueError)):
            WaveguideConfig(**bad)
