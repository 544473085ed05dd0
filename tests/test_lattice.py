import math
from dataclasses import fields, replace

import numpy as np
import pytest

from bogolon import (MAGIC_ANGLE, SuperLatticeConfig, allowed_wavenumbers,
                     antisymmetric_energy, cli, dipole_coupling, exciton_levels,
                     find_resonance_k, intercell_couplings, lattice,
                     symmetric_band)
from bogolon.errors import DomainError

# Frozen reference couplings: direct evaluation of
# 14.399645 * mu^2 * (1 - 3 cos^2 theta) / r^3 with mu = 2.5, theta = 80 deg.
J_R100_TH80 = 8.185648576659407e-05
J_R100_TH0 = -1.7999556250e-04
J_A1000_TH80 = 8.185648576659408e-08
J_A1100_TH80 = 6.149998930623146e-08
J_A900_TH80 = 1.1228598870589036e-07


def test_dipole_coupling_reference_values(cfg):
    assert dipole_coupling(100.0, cfg) == pytest.approx(J_R100_TH80, rel=1e-12)
    flat = replace(cfg, theta=0.0)
    assert dipole_coupling(100.0, flat) == pytest.approx(J_R100_TH0, rel=1e-12)


def test_dipole_coupling_vanishes_at_magic_angle(cfg):
    magic = replace(cfg, theta=MAGIC_ANGLE)
    assert abs(dipole_coupling(100.0, magic)) < 1e-18
    assert math.degrees(MAGIC_ANGLE) == pytest.approx(54.7356, abs=1e-4)


def test_dipole_coupling_rejects_nonpositive_distance(cfg):
    with pytest.raises(DomainError):
        dipole_coupling(0.0, cfg)
    with pytest.raises(DomainError):
        dipole_coupling(-5.0, cfg)
    # and an angle override outside [0, pi/2]
    with pytest.raises(DomainError):
        dipole_coupling(100.0, cfg, theta=2.0)
    with pytest.raises(DomainError):
        exciton_levels(cfg, theta=np.array([0.5, -0.1]))


def test_dipole_coupling_inverse_cube_scaling(cfg):
    for r in (10.0, 123.4, 5000.0):
        assert dipole_coupling(2.0 * r, cfg) == pytest.approx(
            dipole_coupling(r, cfg) / 8.0, rel=1e-12)


def test_dipole_coupling_sign_and_monotonicity(cfg):
    thetas = np.linspace(0.0, math.pi / 2, 181)
    values = [dipole_coupling(100.0, replace(cfg, theta=float(t)))
              for t in thetas]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 0 for t, v in zip(thetas, values) if t < MAGIC_ANGLE - 1e-6)
    assert all(v > 0 for t, v in zip(thetas, values) if t > MAGIC_ANGLE + 1e-6)


def test_exciton_levels_reference_numbers(cfg):
    lv = exciton_levels(cfg)
    assert lv.J0 == pytest.approx(J_R100_TH80, rel=1e-12)
    assert lv.J == pytest.approx(J_A1000_TH80, rel=1e-12)
    assert lv.E_s == cfg.E_A + lv.J0
    assert lv.E_a == cfg.E_A - lv.J0


def test_exciton_levels_collapse_at_magic_angle(cfg):
    lv = exciton_levels(replace(cfg, theta=MAGIC_ANGLE))
    assert lv.E_s == pytest.approx(cfg.E_A, abs=1e-15)
    assert lv.E_a == pytest.approx(cfg.E_A, abs=1e-15)


def test_exciton_levels_order_flips_below_magic_angle(cfg):
    lv = exciton_levels(replace(cfg, theta=0.0))
    assert lv.E_s < cfg.E_A < lv.E_a


def test_levels_sum_rule_random_configs(cfg):
    rng = np.random.default_rng(42)
    for _ in range(200):
        c = SuperLatticeConfig(
            E_A=float(rng.uniform(0.5, 3.0)), a=float(rng.uniform(500, 5000)),
            R=float(rng.uniform(10, 400)), mu=float(rng.uniform(0.5, 5.0)),
            theta=float(rng.uniform(0, math.pi / 2)),
            N=int(rng.choice([3, 5, 101])))
        lv = exciton_levels(c)
        assert lv.E_s + lv.E_a == pytest.approx(2.0 * c.E_A, rel=1e-15)


def test_intercell_couplings_reference_numbers(cfg):
    j11, j12, j21 = intercell_couplings(cfg)
    assert j11 == pytest.approx(J_A1000_TH80, rel=1e-12)
    assert j12 == pytest.approx(J_A1100_TH80, rel=1e-12)
    assert j21 == pytest.approx(J_A900_TH80, rel=1e-12)


def test_intercell_couplings_merge_as_R_vanishes(cfg):
    tight = replace(cfg, R=1e-6)
    j11, j12, j21 = intercell_couplings(tight)
    assert j12 == pytest.approx(j11, rel=1e-8)
    assert j21 == pytest.approx(j11, rel=1e-8)


def test_intercell_couplings_vanish_at_magic_angle(cfg):
    for j in intercell_couplings(replace(cfg, theta=MAGIC_ANGLE)):
        assert abs(j) < 1e-20


def test_symmetric_band_values(cfg):
    lv = exciton_levels(cfg)
    assert symmetric_band(0.0, cfg) == pytest.approx(
        cfg.E_A + lv.J0 + 4.0 * lv.J, rel=1e-15)
    k_quarter = math.pi / (2.0 * cfg.a)
    assert symmetric_band(k_quarter, cfg) == pytest.approx(
        cfg.E_A + lv.J0, abs=1e-20)


def test_symmetric_band_flat_at_magic_angle(cfg):
    magic = replace(cfg, theta=MAGIC_ANGLE)
    for k in (0.0, 1e-4, math.pi / cfg.a):
        assert symmetric_band(k, magic) == pytest.approx(cfg.E_A, abs=1e-15)


def test_symmetric_band_rejects_out_of_zone(cfg):
    with pytest.raises(DomainError):
        symmetric_band(1.5 * math.pi / cfg.a, cfg)


def test_symmetric_band_average_over_zone(cfg):
    energies = [symmetric_band(float(k), cfg) for k in allowed_wavenumbers(cfg)]
    lv = exciton_levels(cfg)
    assert np.mean(energies) == pytest.approx(cfg.E_A + lv.J0, rel=1e-12)


def test_antisymmetric_energy(cfg):
    assert antisymmetric_energy(cfg) == pytest.approx(
        cfg.E_A - J_R100_TH80, rel=1e-12)
    assert antisymmetric_energy(replace(cfg, theta=MAGIC_ANGLE)) == pytest.approx(
        cfg.E_A, abs=1e-15)
    assert antisymmetric_energy(replace(cfg, theta=0.0)) == pytest.approx(
        cfg.E_A + 1.7999556250e-04, rel=1e-12)


def test_allowed_wavenumbers_structure():
    c3 = SuperLatticeConfig(E_A=1.5, a=1000.0, R=100.0, mu=2.5,
                            theta=1.0, N=3)
    ks = allowed_wavenumbers(c3)
    expected = np.array([-2 * math.pi / 3000, 0.0, 2 * math.pi / 3000])
    assert np.allclose(ks, expected, rtol=0, atol=1e-18)

    c5 = replace(c3, N=5)
    ks5 = allowed_wavenumbers(c5)
    assert len(ks5) == 5
    assert np.allclose(np.diff(ks5), 2 * math.pi / (5 * c5.a), rtol=1e-15)


def test_allowed_wavenumbers_count(cfg):
    assert len(allowed_wavenumbers(cfg)) == cfg.N


def test_config_invariants():
    good = dict(E_A=1.5, a=1000.0, R=100.0, mu=2.5, theta=1.0, N=3)
    SuperLatticeConfig(**good)
    for bad in (dict(good, a=-1.0), dict(good, R=0.0), dict(good, R=1000.0),
                dict(good, mu=0.0), dict(good, E_A=0.0),
                dict(good, theta=2.0), dict(good, N=4), dict(good, N=1),
                dict(good, mu=math.nan), dict(good, mu=math.inf),
                dict(good, E_A=math.nan), dict(good, a=math.inf),
                dict(good, R=math.nan), dict(good, theta=math.nan),
                # J0 = J(R), J = J(a) or J0^2 overflows
                dict(good, R=1e-90), dict(good, mu=1e200), dict(good, a=1e200)):
        with pytest.raises((DomainError, ValueError)):
            SuperLatticeConfig(**bad)


def test_config_derives_its_levels_once(cfg, wg, monkeypatch):
    # a parameter scan pays for the two dipole sums once per config
    j0, j = dipole_coupling(cfg.R, cfg), dipole_coupling(cfg.a, cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dipole_coupling(*args, **kwargs)

    monkeypatch.setattr(lattice, "dipole_coupling", counted)
    k = np.linspace(0.0, math.pi / cfg.a, 7)
    for _ in range(3):
        lv = exciton_levels(cfg)
        band = symmetric_band(k, cfg)
        e_a = antisymmetric_energy(cfg)
        k_star = find_resonance_k(e_a, wg, cfg)
    assert len(calls) <= 2
    assert (lv.J0, lv.J, lv.E_s, lv.E_a) == (j0, j, cfg.E_A + j0, cfg.E_A - j0)
    assert e_a == cfg.E_A - j0
    assert np.array_equal(band, cfg.E_A + j0 + 4.0 * j * np.cos(k * cfg.a))
    assert 0.0 < k_star < math.pi / cfg.a
    # the levels are no field: the config compares, hashes and writes as
    # its six inputs
    assert [f.name for f in fields(SuperLatticeConfig)] == [
        "E_A", "a", "R", "mu", "theta", "N"]
    twin = SuperLatticeConfig(**{f.name: getattr(cfg, f.name)
                                 for f in fields(cfg)})
    assert twin == cfg and hash(twin) == hash(cfg)
    assert list(cli._settings(cfg)) == ["E_A", "a", "R", "mu", "theta_deg", "N"]
    # a replaced config derives its own levels
    other = replace(cfg, R=1.5 * cfg.R, theta=math.radians(70.0))
    lv = exciton_levels(other)
    assert lv.J0 == dipole_coupling(other.R, other) != j0
    assert lv.J == dipole_coupling(other.a, other) != j
    assert antisymmetric_energy(other) == other.E_A - lv.J0


@pytest.mark.parametrize("value, kind", [
    (np.float64(-0.0), float), (np.float64(math.pi), float),
    (np.float64(5e-324), float), (np.float64(math.inf), float),
    (np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0], float),   # NaN payload
    (np.complex128(1.5 - 0.0j), complex), (np.complex128(-0.0 + 2e-310j), complex),
    (np.bool_(True), bool), (np.array(0.25), float), (np.array(1j), complex)])
def test_unwrap_returns_python_scalars_with_the_same_bits(value, kind):
    got = lattice._unwrap(value)
    assert type(got) is kind
    want = np.asarray(value)
    assert np.asarray(got, dtype=want.dtype).tobytes() == want.tobytes()


def test_unwrap_returns_arrays_as_they_are():
    for value in (np.zeros(3), np.ones((2, 2), dtype=complex), np.zeros(0)):
        assert lattice._unwrap(value) is value
