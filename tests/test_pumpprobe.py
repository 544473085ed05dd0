import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bogolon import (DriveConfig, antisymmetric_energy, hopfield,
                     interaction_params, polariton_damping, pump_occupation,
                     pumpprobe, spectrum, steady_state, time_evolve)
from bogolon.cli import build_run_config
from bogolon.errors import (BistabilityError, DomainError, PoleError,
                            StabilityError)
from bogolon.kinematic import InteractionParams
from bogolon.polariton import HopfieldMode, _lower_branch


def _mode(x2_lower: float = 0.56, e_lower: float = 1.4999) -> HopfieldMode:
    x = math.sqrt(x2_lower)
    y = math.sqrt(1.0 - x2_lower)
    return HopfieldMode(k=1.4e-5, E_upper=1.5004, E_lower=e_lower,
                        X_upper=y, Y_upper=x, X_lower=-x, Y_lower=y,
                        delta=1e-5, D=2e-4)


def _drive(**kw) -> DriveConfig:
    base = dict(E_drive=1.4999, F_pump=0.0, F_probe_plus=1e-9,
                F_probe_minus=0.0, hGamma_ph=1e-10, hGamma_s=1e-8,
                hGamma_a=1e-12, k_pump=1.4e-5, q=1e-6, n_pump=1.0)
    base.update(kw)
    return DriveConfig(**base)


def _ip(delta=1.6e-4, x2=0.56) -> InteractionParams:
    return InteractionParams(m_c2=3.0, U=delta * 1e5, Delta=delta, X2=x2)


def test_polariton_damping_reference():
    drive = _drive()
    assert polariton_damping(_mode(0.56), drive) == pytest.approx(
        2.822e-9, rel=1e-12)
    assert polariton_damping(_mode(1.0 - 1e-18), drive) == pytest.approx(
        0.5e-8, rel=1e-9)
    assert polariton_damping(_mode(1e-18), drive) == pytest.approx(
        0.5e-10, rel=1e-9)


def test_pump_occupation_dark_drive():
    sol = pump_occupation(_drive(F_pump=0.0, n_pump=None), _mode(), _ip())
    assert sol.n_pump == 0.0
    # also undamped, detuned either way, and without the Hartree shift
    mode = _mode()
    for ip in (_ip(), _ip(delta=0.0)):
        for damping in (1e-8, 0.0):
            for e in (mode.E_lower, mode.E_lower + 1e-4, mode.E_lower - 1e-4):
                drive = _drive(F_pump=0.0, n_pump=None, E_drive=e,
                               hGamma_s=damping, hGamma_ph=damping)
                assert pump_occupation(drive, mode, ip).n_pump == 0.0


def test_pump_occupation_prescribed_unity():
    ip = _ip()
    sol = pump_occupation(_drive(n_pump=1.0), _mode(), ip)
    assert sol.n_pump == 1.0
    assert sol.E_pol_tilde == pytest.approx(1.4999 + ip.Delta * ip.X2 ** 2,
                                            rel=1e-15)
    # implied pump amplitude reproduces the Lorentzian
    e = 1.4999
    hg = polariton_damping(_mode(), _drive())
    expected = math.sqrt(1.0 * ((e - sol.E_pol_tilde) ** 2 + hg ** 2))
    assert sol.f_pump_magnitude == pytest.approx(expected, rel=1e-12)


def test_pump_occupation_resonant_lorentzian_peak():
    # negligible Hartree shift: N = |F|^2 / hG_pol^2 on resonance
    ip = _ip(delta=1e-30, x2=0.5)
    mode = _mode(0.5)
    drive = _drive(E_drive=mode.E_lower, F_pump=1e-10, n_pump=None,
                   hGamma_s=1e-8, hGamma_ph=1e-8)
    hg = polariton_damping(mode, drive)
    sol = pump_occupation(drive, mode, ip)
    assert sol.n_pump == pytest.approx((1e-10 / hg) ** 2, rel=1e-9)


def test_pump_occupation_fixed_point_residual():
    # red-detuned mirror of the weak bistable drive below: E - E_pol =
    # -5e-5 eV with Delta X^4 > 0 leaves one root; and that drive's
    # detuning with a pump below the window: one root where g is concave,
    # beneath a bound |F|^2 / hG^2 = 0.5 that lies between the turning points
    ip = _ip()
    mode = _mode()
    for e, f in ((1.49985, 3e-9), (1.49995, 2e-9)):
        drive = _drive(F_pump=f, n_pump=None, E_drive=e)
        sol = pump_occupation(drive, mode, ip)
        hg = polariton_damping(mode, drive)
        residual = sol.n_pump - abs(drive.F_pump) ** 2 / (
            (drive.E_drive - sol.E_pol_tilde) ** 2 + hg ** 2)
        assert abs(residual) < 1e-10 * sol.n_pump


def _cubic_roots(drive, mode, ip):
    """Real roots of N ((d - s N)^2 + h^2) = |F|^2 by numpy's companion
    matrix, ascending; for F != 0 none is negative."""
    d = drive.E_drive - mode.E_lower
    s, h = ip.Delta * ip.X2 ** 2, polariton_damping(mode, drive)
    roots = np.roots([s * s, -2.0 * s * d, d * d + h * h, -abs(drive.F_pump) ** 2])
    scale = np.max(np.abs(roots))
    return np.sort([r.real for r in roots if abs(r.imag) <= 1e-6 * scale])


def test_pump_occupation_bistable_drive_raises():
    # blue-detuned strong pump: the Lorentzian fixed point folds over
    # (roots 0.99885, 1.00116, 4.0); and a weak pump 5e-5 eV above the
    # polariton (roots 3.6e-9, 0.99647, 0.99651).  The turning points
    # bracket the middle, unstable root.
    ip = _ip(delta=1e-4, x2=0.5)
    mode = _mode(0.5)
    shift = ip.Delta * ip.X2 ** 2
    strong = (_drive(E_drive=mode.E_lower + 3.0 * shift, F_pump=5e-5,
                     n_pump=None, hGamma_s=1e-7, hGamma_ph=1e-7), mode, ip)
    weak = (_drive(F_pump=3e-9, n_pump=None, E_drive=1.49995), _mode(), _ip())
    for drive, mode, ip in (strong, weak):
        low, middle, high = _cubic_roots(drive, mode, ip)
        assert 0.0 < low < middle < high
        with pytest.raises(BistabilityError) as err:
            pump_occupation(drive, mode, ip)
        n_minus, n_plus = err.value.bracket
        assert low < n_minus < middle < n_plus < high


def test_pump_occupation_undamped_on_bare_polariton():
    # h = d = 0: g(N) = s^2 N^3 - |F|^2, one finite root for s > 0
    mode, ip = _mode(), _ip()
    s = ip.Delta * ip.X2 ** 2
    drive = _drive(F_pump=3e-9, n_pump=None, E_drive=mode.E_lower,
                   hGamma_s=0.0, hGamma_ph=0.0)
    sol = pump_occupation(drive, mode, ip)
    assert sol.n_pump == pytest.approx((3e-9 / s) ** (2.0 / 3.0), rel=1e-12)
    # without the Hartree shift nothing limits the occupation
    with pytest.raises(BistabilityError, match="occupation diverges"):
        pump_occupation(drive, mode, _ip(delta=0.0))


def _picard(drive, mode, ip):
    """The former solver: the Lorentzian fixed point with 1/2-damped updates
    to 1e-12 relative step, BistabilityError after 10,000 updates."""
    e = drive.E_drive
    e_pol = mode.E_lower
    hg = polariton_damping(mode, drive)
    shift = ip.Delta * ip.X2 ** 2
    f2 = abs(drive.F_pump) ** 2
    shape = np.broadcast(e, e_pol, hg).shape
    idx = np.arange(math.prod(shape))
    detuning = np.broadcast_to(e - e_pol, shape).ravel()
    hg2 = np.broadcast_to(hg ** 2, shape).ravel()
    n, n_out = np.zeros(idx.size), np.zeros(idx.size)
    for _ in range(10_000):
        denom = (detuning - shift * n) ** 2 + hg2
        if (denom == 0.0).any():
            raise BistabilityError("undamped drive exactly on resonance")
        n, n_prev = 0.5 * n + 0.5 * f2 / denom, n
        keep = ~(np.abs(n - n_prev) <= 1e-12 * np.maximum(n, 1e-300))
        if not keep.all():
            n_out[idx[~keep]] = n[~keep]
            idx, detuning, hg2, n, n_prev = (
                x[keep] for x in (idx, detuning, hg2, n, n_prev))
        if idx.size == 0:
            return n_out.reshape(shape)
    raise BistabilityError("fixed point did not converge")


#: Smallest distance, in log10 |F|^2, of a drawn drive from a fold of the
#: bistable window, and in d / h from its cusp d = sqrt(3) h.
_FOLD_MARGIN = 0.01
_CUSP_MARGIN = 0.1


def _kerr_case(s, h, c, F_pump=0.0):
    """(drive, mode, ip) with s = Delta X^4, h = hG_pol and d = E - E_pol = c h."""
    mode, ip = _mode(0.5), _ip(delta=4.0 * s, x2=0.5)   # s = Delta X2^2
    drive = _drive(E_drive=mode.E_lower + c * h, hGamma_s=2.0 * h,
                   hGamma_ph=2.0 * h, n_pump=None, F_pump=F_pump)
    return drive, mode, ip


@st.composite
def _kerr_drives(draw):
    """(drive, mode, ip) with s = Delta X^4 in [1e-6, 1e-3] eV, h = hG_pol in
    [1e-10, 1e-6] eV and d = E - E_pol = c h for c in [-20, 200].  |F|^2 lies
    inside the bistable window or up to three decades either side of it, at
    least _FOLD_MARGIN decades from either fold; without a window
    (c <= sqrt(3)), up to three decades either side of the drive that gives
    s N = h."""
    s = 10.0 ** draw(st.floats(-6.0, -3.0))
    h = 10.0 ** draw(st.floats(-10.0, -6.0))
    c = draw(st.floats(-20.0, 200.0).filter(
        lambda c: abs(c - math.sqrt(3.0)) >= _CUSP_MARGIN))
    drive, mode, ip = _kerr_case(s, h, c)
    d, h = drive.E_drive - mode.E_lower, polariton_damping(mode, drive)
    s = ip.Delta * ip.X2 ** 2

    def f2_at(n):
        return n * ((d - s * n) ** 2 + h * h)

    if d > math.sqrt(3.0) * h:
        spread = math.sqrt(d * d - 3.0 * h * h)
        folds = [math.log10(f2_at((2.0 * d + sign * spread) / (3.0 * s)))
                 for sign in (1.0, -1.0)]
    else:
        folds = [math.log10(f2_at(h / s))] * 2
    lo, hi = folds
    inside = hi - lo > 2.0 * _FOLD_MARGIN and draw(st.booleans())
    span = (lo + _FOLD_MARGIN, hi - _FOLD_MARGIN) if inside else (lo - 3.0, hi + 3.0)
    log_f2 = draw(st.floats(*span).filter(
        lambda x: min(abs(x - f) for f in folds) >= _FOLD_MARGIN))
    return replace(drive, F_pump=math.sqrt(10.0 ** log_f2)), mode, ip


@settings(max_examples=300, deadline=None)
@given(case=_kerr_drives())
def test_pump_occupation_newton_property(case):
    drive, mode, ip = case
    roots = _cubic_roots(drive, mode, ip)
    if len(roots) == 3:
        with pytest.raises(BistabilityError) as err:
            pump_occupation(drive, mode, ip)
        n_minus, n_plus = err.value.bracket
        assert roots[0] < n_minus < roots[1] < n_plus < roots[2]
        return
    assert len(roots) == 1
    sol = pump_occupation(drive, mode, ip)
    assert sol.iterations > 0
    d, f2 = drive.E_drive - mode.E_lower, abs(drive.F_pump) ** 2
    h2 = polariton_damping(mode, drive) ** 2
    s = ip.Delta * ip.X2 ** 2
    r = d - s * sol.n_pump
    lorentzian = f2 / (r * r + h2)
    assert abs(sol.n_pump - lorentzian) <= 1e-12 * sol.n_pump
    try:
        reference = _picard(drive, mode, ip)
    except BistabilityError:
        return
    # Picard stops at a step |n_k - n_(k-1)| <= 1e-12 n_k of the map
    # P(n) = (n + T(n)) / 2, T the Lorentzian; with |P'| = q < 1 at the root
    # its remaining error is at most q / (1 - q) times that step.  Both
    # routes round near 1e-16 n besides.
    q = abs(1.0 + 2.0 * s * f2 * r / (r * r + h2) ** 2) / 2.0
    tol = 1e-12 * q / (1.0 - q) + 1e-14
    assert abs(sol.n_pump - reference) <= tol * sol.n_pump


def _compacting_kerr_root(d, s, h2, f2):
    """The former Kerr solver on flat arrays: Newton steps that gather the
    unsettled elements into shorter arrays after every step."""
    with np.errstate(all="ignore"):
        dd, s3 = d * d, 3.0 * s
        n_i, spread = 2.0 * d / s3, np.sqrt(dd - 3.0 * h2) / s3
        points = np.stack((n_i - spread, n_i + spread, n_i))
        r = d - s * points
        g = points * (r * r + h2) - f2
        bistable = (points[0] > 0.0) & (g[0] > 0.0) & (g[1] < 0.0)
        if bistable.any():
            i = np.flatnonzero(bistable)[0]
            n_lo, n_hi = float(points[0, i]), float(points[1, i])
            raise BistabilityError(
                f"bistable drive at E - E_pol = {float(d[i])!r} eV: three "
                f"occupations solve the Lorentzian, turning points N = {n_lo!r}, "
                f"{n_hi!r}", bracket=(n_lo, n_hi))
        bound = np.fmin(f2 / (h2 + np.where(s * d <= 0.0, dd, 0.0)),
                        np.fmax(1.5 * n_i, 0.0) + np.cbrt(f2 / (s * s)))
        if not np.isfinite(bound).all():
            raise BistabilityError(
                "undamped drive exactly on the unshifted polariton resonance; "
                "occupation diverges", bracket=(0.0, math.inf))
        # the closed-form real root of the cubic, clipped to [0, bound];
        # where it is not finite, 0 for a root below N_i, else the bound
        s2 = s * s
        p3, hq = (3.0 * h2 - dd) / (9.0 * s2), g[2] / (2.0 * s2)
        u = np.cbrt(-hq - np.copysign(np.sqrt(hq * hq + p3 * p3 * p3), hq))
        n0 = n_i + (u - p3 / u)
        n = np.where(np.isfinite(n0), np.clip(n0, 0.0, bound),
                     np.where((n_i > 0.0) & (g[2] >= 0.0), 0.0, bound))
        idx = np.arange(d.size)
        n_out, iterations = np.empty(d.size), 0
        for _ in range(100):
            sn = s * n
            r = d - sn
            slope = r * r + h2
            step = (n * slope - f2) / (slope - 2.0 * sn * r)
            n, n_prev = np.minimum(np.maximum(n - step, 0.0), bound), n
            iterations += idx.size
            done = np.abs(n - n_prev) <= 1e-12 * n
            if done.any():
                n_out[idx[done]] = n[done]
                if done.all():
                    return n_out, iterations
                keep = ~done
                idx, d, s, h2, bound, n, n_prev = (
                    x[keep] for x in (idx, d, s, h2, bound, n, n_prev))
    raise BistabilityError(
        "occupation Newton steps did not settle in 100: the "
        "drive sits within rounding of a turning point",
        bracket=tuple(sorted((float(n_prev[0]), float(n[0])))))


def _compacting_pump_occupation(drive, mode, ip, E_drive=None):
    """(n_pump, E_pol_tilde, iterations) of the former self-consistent
    branch: broadcast and flatten the inputs, solve, reshape."""
    e = drive.E_drive if E_drive is None else E_drive
    e_pol, hg, shift = mode.E_lower, polariton_damping(mode, drive), 2.0 * ip.pol_pol
    shape = np.broadcast(e, e_pol, hg, shift).shape
    d, s, h2 = (np.broadcast_to(x, shape).ravel()
                for x in (e - e_pol, shift, hg * hg))
    n, iterations = _compacting_kerr_root(d, s, h2,
                                          abs(drive.F_pump) * abs(drive.F_pump))
    n = pumpprobe._unwrap(n.reshape(shape))
    return n, pumpprobe._unwrap(e_pol + shift * n), iterations


def _assert_bitwise_as_compacting(drive, mode, ip, E_drive=None):
    """pump_occupation gives the former solver's values, types and shapes to
    the bit, or the same BistabilityError message and bracket."""
    try:
        want = _compacting_pump_occupation(drive, mode, ip, E_drive)
    except BistabilityError as expected:
        with pytest.raises(BistabilityError) as err:
            pump_occupation(drive, mode, ip, E_drive=E_drive)
        assert str(err.value) == str(expected)
        assert err.value.bracket == expected.bracket
        return expected
    sol = pump_occupation(drive, mode, ip, E_drive=E_drive)
    got = (sol.n_pump, sol.E_pol_tilde, sol.iterations)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return None


def _one_call(cases):
    """(drive, mode, energies, deltas) that pose every case in one call.

    The cubic depends on c = d / h and f2 s / h^3 only, so each case moves
    to the first one's damping and pump by setting its detuning and Kerr
    constant s = Delta X2^2 (``_ip(delta=deltas, x2=0.5)``)."""
    drive, mode, _ = cases[0]
    h, f2 = polariton_damping(mode, drive), abs(drive.F_pump) ** 2
    energies, deltas = [], []
    for drive_i, mode_i, ip_i in cases:
        h_i = polariton_damping(mode_i, drive_i)
        s_i = ip_i.Delta * ip_i.X2 ** 2
        c = (drive_i.E_drive - mode_i.E_lower) / h_i
        energies.append(mode.E_lower + c * h)
        deltas.append(4.0 * s_i * abs(drive_i.F_pump) ** 2 * (h / h_i) ** 3 / f2)
    return drive, mode, np.array(energies), np.array(deltas)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(_kerr_drives(), _kerr_drives()),
                      min_size=1, max_size=4))
# every drive red-detuned, so no element has a fold to test
@example(pairs=[
    (_kerr_case(1e-4, 1e-8, -5.0, 1e-6), _kerr_case(1e-5, 1e-7, -0.5, 1e-5)),
    (_kerr_case(1e-3, 1e-9, -20.0, 1e-7), _kerr_case(1e-4, 1e-8, -1.0, 1e-7))])
# red beside blue: single roots above and below the bistable window of
# d = 50 h, and one drive inside it
@example(pairs=[
    (_kerr_case(1e-4, 1e-8, -5.0, 1e-6), _kerr_case(1e-4, 1e-8, 50.0, 1e-7)),
    (_kerr_case(1e-3, 1e-9, -20.0, 1e-7), _kerr_case(1e-4, 1e-8, 50.0, 3e-9)),
    (_kerr_case(1e-4, 1e-8, 50.0, 1e-10), _kerr_case(1e-5, 1e-7, -0.5, 1e-5))])
def test_pump_occupation_bitwise_equals_compacting_solver(pairs):
    cases = [case for pair in pairs for case in pair]
    for drive, mode, ip in cases:
        _assert_bitwise_as_compacting(drive, mode, ip)
    drive, mode, energies, deltas = _one_call(cases)

    def check(e, delta):
        return _assert_bitwise_as_compacting(drive, mode, _ip(delta=delta, x2=0.5), e)

    # each element alone, then all of them and those that settle, flat and 2-D
    settled = [i for i in range(len(cases))
               if check(energies[i:i + 1], deltas[i:i + 1]) is None]
    for e, delta in ((energies, deltas), (energies[settled], deltas[settled])):
        for shape in (e.shape, (1, e.size), (e.size, 1)) if e.size else ():
            check(e.reshape(shape), delta.reshape(shape))
    check(energies.reshape(2, -1), deltas.reshape(2, -1))
    # every detuning against every Kerr constant: d and s broadcast apart
    check(energies[:, None], deltas[None, :])


def test_pump_occupation_step_cap_raises():
    # within 1e-8 of the cusp d = sqrt(3) h and 1e-6 of g(N_i) in |F|^2: the
    # Newton steps stay above 1e-12 relative for all 100 steps
    h = 1.4885718676066422e-08
    drive = _drive(E_drive=1.4999000128914104, F_pump=5.078198328893605e-11,
                   hGamma_s=h, hGamma_ph=h, n_pump=None)
    mode, ip = _mode(0.5), _ip(delta=0.00098461914866043, x2=0.5)
    errors = []
    for e_drive in (None, np.array([drive.E_drive])):
        with pytest.raises(BistabilityError, match="did not settle") as err:
            pump_occupation(drive, mode, ip, E_drive=e_drive)
        errors.append((str(err.value), err.value.bracket))
        assert _assert_bitwise_as_compacting(drive, mode, ip, e_drive) is not None
    assert errors[0] == errors[1]
    lo, hi = errors[0][1]
    assert lo < hi
    assert (lo, hi) == (3.510490665998621e-05, 3.5104906660043044e-05)
    # a drive 1.4e-8 relative weaker, which capped from the former start,
    # settles from the closed-form root inside that start's last bracket
    sol = pump_occupation(replace(drive, F_pump=5.078196789046701e-11), mode, ip)
    assert sol.n_pump == 3.464794315529549e-05
    assert 3.464794315527114e-05 < sol.n_pump < 3.464794315532956e-05


@settings(max_examples=150, deadline=None)
@given(cases=st.lists(_kerr_drives(), min_size=1, max_size=8))
def test_pump_occupation_takes_at_most_two_steps_off_the_folds(cases):
    # from the closed-form start one Newton step settles almost every
    # element and two settle the rest, alone and in one call
    settled = []
    for drive, mode, ip in cases:
        try:
            sol = pump_occupation(drive, mode, ip)
        except BistabilityError:
            continue
        assert 1 <= sol.iterations <= 2
        settled.append((drive, mode, ip))
    if settled:
        drive, mode, energies, deltas = _one_call(settled)
        sol = pump_occupation(drive, mode, _ip(delta=deltas, x2=0.5),
                              E_drive=energies)
        assert energies.size <= sol.iterations <= 2 * energies.size


def test_pump_occupation_shapes_and_scalar_types():
    ip = _ip()
    drive = _drive(F_pump=1e-3, n_pump=None)
    base = _red_detuned_mode()
    x2 = np.array([[0.5], [0.56], [0.6]])
    mode = replace(base, E_lower=base.E_lower + 1e-5 * np.arange(5),
                   X_lower=-np.sqrt(x2), Y_lower=np.sqrt(1.0 - x2))
    grid = np.linspace(1.4998, 1.5004, 15).reshape(3, 5)
    sol = pump_occupation(drive, mode, ip, E_drive=grid)
    assert sol.n_pump.shape == sol.E_pol_tilde.shape == (3, 5)
    flat_mode = replace(mode, **{
        f: np.broadcast_to(getattr(mode, f), grid.shape).ravel()
        for f in ("E_lower", "X_lower", "Y_lower")})
    flat = pump_occupation(drive, flat_mode, ip, E_drive=grid.ravel())
    assert np.array_equal(sol.n_pump, flat.n_pump.reshape(3, 5))
    assert np.array_equal(sol.E_pol_tilde, flat.E_pol_tilde.reshape(3, 5))
    assert sol.iterations == flat.iterations
    one = pump_occupation(drive, base, ip)
    assert type(one.n_pump) is float and type(one.E_pol_tilde) is float
    assert type(one.iterations) is int and one.iterations > 0
    # no drive energies: nothing to solve, no Newton step
    none = pump_occupation(drive, base, ip, E_drive=np.empty(0))
    assert none.n_pump.shape == (0,) and none.iterations == 0


def test_steady_state_pump_off_decouples(cfg):
    mode, ip = _mode(), _ip()
    drive = _drive(n_pump=0.0, hGamma_a=1e-9)
    ss = steady_state(drive, mode, ip, cfg)
    assert ss.V_mf == 0.0
    assert ss.B_minus == 0.0
    e_a = antisymmetric_energy(cfg)
    expected = drive.F_probe_plus / (drive.E_drive - e_a + 1j * drive.hGamma_a)
    assert ss.B_plus == pytest.approx(expected, rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(delta=st.floats(1e-10, 1e-2), x2=st.floats(0.01, 1.0),
       n=st.floats(0.0, 10.0))
def test_steady_state_mean_field_couplings_exact(cfg, delta, x2, n):
    # the module docstring's three couplings, to the last bit
    mode = _mode(x2)
    ss = steady_state(_drive(n_pump=n), mode, _ip(delta, x2), cfg)
    assert ss.E_pol_tilde == mode.E_lower + delta * x2 ** 2 * n
    assert ss.E_a_tilde == antisymmetric_energy(cfg) + 2.0 * (delta * x2) * n
    assert ss.V_mf == (delta * x2) * n


def test_steady_state_matches_undamped_closed_forms(cfg):
    # independent route: the textbook single-probe expressions
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = float(rng.uniform(0.1, 3.0))
        v = ip.Delta_tilde * n
        gap_target = float(rng.uniform(1.2, 8.0)) * v
        e = e_a + 2.0 * v - gap_target
        f = float(rng.uniform(1e-10, 1e-6))
        drive = _drive(E_drive=e, F_probe_plus=f, hGamma_a=0.0, n_pump=n)
        ss = steady_state(drive, mode, ip, cfg)
        e_a_t = e_a + 2.0 * v
        denom = (e - e_a_t) ** 2 - v ** 2
        assert ss.B_plus == pytest.approx((e - e_a_t) * f / denom, rel=1e-12)
        assert ss.B_minus == pytest.approx(v * f / denom, rel=1e-12)
        assert ss.I_plus == pytest.approx(abs(ss.B_plus) ** 2, rel=1e-12)
        assert ss.I_minus == pytest.approx(abs(ss.B_minus) ** 2, rel=1e-12)


def test_steady_state_equal_probes_single_resonance(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    v = ip.Delta_tilde
    e_a_t = e_a + 2.0 * v
    f = 1e-9
    drive = _drive(F_probe_plus=f, F_probe_minus=f, hGamma_a=0.0, n_pump=1.0)
    eps = 1e-9
    near_plus = steady_state(replace(drive, E_drive=e_a_t + v + eps),
                             mode, ip, cfg)
    near_minus = steady_state(replace(drive, E_drive=e_a_t - v + eps),
                              mode, ip, cfg)
    # divergent response only at E = E_a~ + V: the other root cancels
    assert abs(near_plus.B_plus) > 1e4 * abs(near_minus.B_plus)


def test_steady_state_pole_on_undamped_resonance(cfg):
    # pump off, no damping, drive bitwise on the bare dark level
    mode, ip = _mode(), _ip()
    drive = _drive(E_drive=antisymmetric_energy(cfg), hGamma_a=0.0, n_pump=0.0)
    with pytest.raises(PoleError):
        steady_state(drive, mode, ip, cfg)


@pytest.mark.parametrize("change,quantity", [
    (dict(hGamma_a=1e160), "pair determinant"),
    (dict(E_drive=1e300), "pump amplitude"),
    (dict(n_pump=1e300), "pump amplitude"),
    (dict(n_pump=None, F_pump=1e160), "|F_pump|^2"),
    (dict(n_pump=None, F_pump=1e-5, E_drive=1e300), "(E - E_pol)^2")])
def test_overflowing_drive_raises_domain_error(setup, change, quantity):
    # an accepted drive whose squares overflow a float64 names the quantity;
    # a Python-float ** would raise a bare OverflowError
    drive = replace(setup.drive, **change)
    calls = [lambda: steady_state(drive, setup.mode, setup.ip, setup.cfg),
             lambda: spectrum(drive, setup.mode, setup.ip, setup.cfg,
                              np.array([drive.E_drive]))]
    if "hGamma_a" not in change:
        calls.append(lambda: pump_occupation(drive, setup.mode, setup.ip))
    for call in calls:
        with pytest.raises(DomainError, match="overflows") as err:
            call()
        assert quantity in str(err.value)


def test_overflowing_polariton_damping_raises_domain_error(setup):
    # hG_pol^2 overflows the occupation cubic, for a scalar mode, an array
    # mode and an array of drive energies
    drive = replace(setup.drive, n_pump=None, F_pump=1e-5, hGamma_s=1e160)
    k = setup.drive.k_pump
    modes = hopfield(np.array([k, 0.5 * k]), setup.wg, setup.cfg)
    grid = np.array([drive.E_drive, drive.E_drive - 1e-4])
    calls = [lambda: pump_occupation(drive, setup.mode, setup.ip),
             lambda: pump_occupation(drive, modes, setup.ip),
             lambda: pump_occupation(drive, setup.mode, setup.ip, E_drive=grid),
             lambda: steady_state(drive, setup.mode, setup.ip, setup.cfg),
             lambda: spectrum(drive, setup.mode, setup.ip, setup.cfg, grid)]
    for call in calls:
        with pytest.raises(DomainError, match=r"hG_pol\^2 overflows"):
            call()


def test_prescribed_pump_amplitude_overflow_raises_without_warning(setup):
    # the sustaining amplitude of an array mode: its squares overflow
    # silently (warnings are errors here) and name the amplitude
    drive = replace(setup.drive, hGamma_s=1e160)
    k = setup.drive.k_pump
    modes = hopfield(np.array([k, 0.5 * k]), setup.wg, setup.cfg)
    with pytest.raises(DomainError, match="pump amplitude sustaining n_pump overflows"):
        pump_occupation(drive, modes, setup.ip)


def test_overflowing_probe_or_pair_intensity_raises_domain_error(setup):
    s = setup
    huge = replace(s.drive, F_probe_plus=1e200)
    # |F-|^2 = 1e308 is finite, but B+- = F- O(V) / det are not squarable
    big = replace(s.drive, F_probe_plus=0.0, F_probe_minus=1e154)
    grid = [big.E_drive, big.E_drive + 1e-5]
    for call, quantity in [
            (lambda: spectrum(huge, s.mode, s.ip, s.cfg, [huge.E_drive]),
             "the probe intensity |F+|^2 + |F-|^2 overflows"),
            (lambda: steady_state(huge, s.mode, s.ip, s.cfg),
             "the pair intensity |B+|^2 + |B-|^2 overflows"),
            (lambda: spectrum(big, s.mode, s.ip, s.cfg, grid),
             "the pair intensity |B+|^2 + |B-|^2 overflows"),
            (lambda: steady_state(big, s.mode, s.ip, s.cfg),
             "the pair intensity |B+|^2 + |B-|^2 overflows")]:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == quantity
    # an exact pole keeps its infinite cells beside finite ones
    drive = _drive(hGamma_a=0.0, n_pump=0.0, F_probe_plus=1e140)
    e_a = antisymmetric_energy(s.cfg)
    points = spectrum(drive, _mode(), _ip(), s.cfg, [e_a - 1e-6, e_a])
    assert np.isfinite(points[0].I_plus_scaled) and np.isinf(points[1].I_plus_scaled)


def test_overflowing_detuning_square_raises_domain_error(setup):
    # d^2 = inf sends Newton onto inf and NaN, or (undamped, with a Kerr
    # constant small enough that 2d / 3s overflows) the bound to inf; either
    # error path names the square, also beside an element that settles
    drive = replace(setup.drive, n_pump=None, F_pump=1e-5, E_drive=1e300)
    grid = np.array([[setup.drive.E_drive - 1e-6], [1e300]])
    undamped = _drive(hGamma_s=0.0, hGamma_ph=0.0, n_pump=None, F_pump=1e-5)
    weak = (_mode(0.5), _ip(delta=4e-12, x2=0.5))
    calls = [lambda: pump_occupation(drive, setup.mode, setup.ip, E_drive=grid),
             lambda: time_evolve(drive, setup.mode, setup.ip, setup.cfg,
                                 t_end=1.0, dt=1.0),
             lambda: pump_occupation(undamped, *weak, E_drive=1e300),
             lambda: pump_occupation(undamped, *weak,
                                     E_drive=np.array([1.4998, 1e300]))]
    for call in calls:
        with pytest.raises(DomainError, match=r"\(E - E_pol\)\^2 .* overflows"):
            call()
    assert pump_occupation(drive, setup.mode, setup.ip, E_drive=grid[0]).iterations
    assert pump_occupation(undamped, *weak, E_drive=1.4998).iterations


def test_steady_state_resonance_energies(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(hGamma_a=1e-6, n_pump=1.0)
    ss = steady_state(drive, mode, ip, cfg)
    rad = ss.V_mf ** 2 - drive.hGamma_a ** 2
    assert ss.E_res_plus == pytest.approx(ss.E_a_tilde + math.sqrt(rad),
                                          rel=1e-12)
    assert ss.E_res_minus == pytest.approx(ss.E_a_tilde - math.sqrt(rad),
                                           rel=1e-12)
    overdamped = steady_state(_drive(hGamma_a=1.0, n_pump=1.0), mode, ip, cfg)
    assert overdamped.E_res_plus is None
    assert overdamped.E_res_minus is None


def _peak_offsets(points):
    i_minus = np.array([p.I_minus_scaled for p in points])
    offsets = np.array([p.E_offset for p in points])
    idx = [i for i in range(1, len(points) - 1)
           if i_minus[i] > i_minus[i - 1] and i_minus[i] > i_minus[i + 1]]
    return offsets[idx]


def test_spectrum_two_peak_structure(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(n_pump=1.0)
    grid = np.linspace(e_a, e_a + 4.0 * ip.Delta_tilde, 8001)
    peaks = _peak_offsets(spectrum(drive, mode, ip, cfg, grid))
    assert len(peaks) == 2
    dt = ip.Delta_tilde
    assert peaks[0] == pytest.approx(dt, rel=0.01)
    assert peaks[1] == pytest.approx(3.0 * dt, rel=0.01)
    assert (peaks > 0).all()
    splitting = peaks[1] - peaks[0]
    assert splitting == pytest.approx(
        2.0 * math.sqrt(dt ** 2 - drive.hGamma_a ** 2), rel=0.01)


def test_spectrum_overdamped_single_peak(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(n_pump=1.0, hGamma_a=2.0 * ip.Delta_tilde)
    grid = np.linspace(e_a, e_a + 4.0 * ip.Delta_tilde, 8001)
    peaks = _peak_offsets(spectrum(drive, mode, ip, cfg, grid))
    assert len(peaks) == 1
    # merged peak sits at the shifted dark level E_a~ = E_a + 2 Delta~
    assert peaks[0] == pytest.approx(2.0 * ip.Delta_tilde, rel=0.01)


def test_spectrum_splitting_scales_with_occupation(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    grid = np.linspace(e_a, e_a + 4.0 * ip.Delta_tilde, 16001)
    full = _peak_offsets(spectrum(_drive(n_pump=1.0), mode, ip, cfg, grid))
    half = _peak_offsets(spectrum(_drive(n_pump=0.5), mode, ip, cfg, grid))
    assert len(full) == len(half) == 2
    assert half[1] - half[0] == pytest.approx(0.5 * (full[1] - full[0]),
                                              rel=0.01)


def test_time_evolve_monotone_when_overdamped(cfg):
    # drive on the shifted dark level with Gamma_a above the coupling:
    # no oscillation, the occupation creeps up monotonically
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    v = ip.Delta_tilde
    drive = _drive(E_drive=e_a + 2.0 * v, hGamma_a=4.0 * v, n_pump=1.0)
    traj = time_evolve(drive, mode, ip, cfg, t_end=3.0 / (4.0 * v),
                       dt=0.02 / (4.0 * v), sample_every=20)
    occupations = np.abs(traj.B_plus) ** 2
    assert np.all(np.diff(occupations) >= -1e-30)
    assert occupations[-1] > 0.0


def _complex(limit):
    return st.builds(complex, _zero_or_normal(limit), _zero_or_normal(limit))


@st.composite
def _probed_drives(draw):
    """(drive, mode, ip): complex probes on both sides, a dark damping, and
    a self-consistent pump at or below the pump polariton, where the
    occupation has one root."""
    mode, ip = _mode(), _ip()
    drive = _drive(E_drive=mode.E_lower - draw(st.floats(0.0, 1e-4)),
                   F_pump=draw(_complex(1e-4)), n_pump=None,
                   F_probe_plus=draw(_complex(1e-8)),
                   F_probe_minus=draw(_complex(1e-8)),
                   hGamma_a=draw(st.floats(0.0, 1e-5)))
    return drive, mode, ip


@settings(max_examples=200, deadline=None)
@given(case=_probed_drives(), scale=st.floats(1e-3, 1e3))
def test_spectrum_probe_quadratic_scaling(cfg, case, scale):
    drive, mode, ip = case
    ss1 = steady_state(drive, mode, ip, cfg)
    ss2 = steady_state(replace(drive, F_probe_plus=scale * drive.F_probe_plus,
                               F_probe_minus=scale * drive.F_probe_minus),
                       mode, ip, cfg)
    assert ss2.N_pump == ss1.N_pump
    assert ss2.I_plus == pytest.approx(scale ** 2 * ss1.I_plus, rel=1e-12)
    assert ss2.I_minus == pytest.approx(scale ** 2 * ss1.I_minus, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(case=_probed_drives())
def test_spectrum_probe_side_reciprocity(cfg, case):
    drive, mode, ip = case
    fwd = steady_state(drive, mode, ip, cfg)
    rev = steady_state(replace(drive, F_probe_plus=drive.F_probe_minus,
                               F_probe_minus=drive.F_probe_plus), mode, ip, cfg)
    assert rev.I_plus == fwd.I_minus
    assert rev.I_minus == fwd.I_plus


def test_spectrum_zero_damping_limit(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    v = ip.Delta_tilde
    e_a_t = e_a + 2.0 * v
    e_off = 5.0 * v     # safely off both resonances
    exact = v ** 2 / ((e_a_t + e_off - e_a_t) ** 2 - v ** 2) ** 2 * 1e-18
    errors = []
    for hg in (1e-6, 1e-8, 1e-10):
        ss = steady_state(_drive(E_drive=e_a_t + e_off, hGamma_a=hg,
                                 F_probe_plus=1e-9), mode, ip, cfg)
        errors.append(abs(ss.I_minus - exact) / exact)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-6


def test_spectrum_requires_grid(cfg):
    e_a = antisymmetric_energy(cfg)
    for grid in ([], 1.5, [[e_a, e_a]]):
        with pytest.raises(DomainError):
            spectrum(_drive(), _mode(), _ip(), cfg, grid)


def test_time_evolve_stays_dark_without_drive(cfg):
    drive = _drive(F_pump=0.0, F_probe_plus=0.0, F_probe_minus=0.0, n_pump=0.0)
    traj = time_evolve(drive, _mode(), _ip(), cfg, t_end=1e4, dt=10.0)
    assert np.all(traj.A == 0.0)
    assert np.all(traj.B_plus == 0.0)
    assert np.all(traj.B_minus == 0.0)


def test_time_evolve_single_mode_relaxation(cfg):
    # V = 0, one probe: B(t) = B_ss (1 - exp(-i z t)), z = (E_a~-E) - i hG_a
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    hg = 1e-5
    delta = 3e-5
    drive = _drive(E_drive=e_a - delta, hGamma_a=hg, n_pump=0.0,
                   F_probe_plus=1e-9)
    z = complex(delta, -hg)
    b_ss = -drive.F_probe_plus / z
    dt = 0.002 / max(delta, hg)
    traj = time_evolve(drive, mode, ip, cfg, t_end=3.0 / hg, dt=dt,
                       sample_every=100)
    for t, b in zip(traj.times, traj.B_plus):
        expected = b_ss * (1.0 - np.exp(-1j * z * t))
        assert abs(b - expected) <= 1e-8 * abs(b_ss)


def test_time_evolve_converges_to_steady_state(cfg):
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(E_drive=e_a, hGamma_a=1e-6, hGamma_s=4e-6, hGamma_ph=4e-6,
                   F_pump=1e-7, n_pump=1.0)
    ss = steady_state(drive, mode, ip, cfg)
    scale = max(abs(ss.E_a_tilde - drive.E_drive),
                abs(ss.E_pol_tilde - drive.E_drive), ss.V_mf, 4e-6)
    traj = time_evolve(drive, mode, ip, cfg, t_end=20.0 / 1e-6,
                       dt=0.09 / scale, sample_every=10 ** 9)
    final = np.array([traj.A[-1], traj.B_plus[-1], traj.B_minus[-1]])
    target = np.array([ss.A_amp, ss.B_plus, ss.B_minus])
    assert np.linalg.norm(final - target) <= 1e-6 * np.linalg.norm(target)


def test_time_evolve_rejects_unstable_step(cfg):
    mode, ip = _mode(), _ip()
    drive = _drive(n_pump=1.0)
    with pytest.raises(StabilityError):
        time_evolve(drive, mode, ip, cfg, t_end=1e6, dt=1e5)
    with pytest.raises(DomainError):
        time_evolve(drive, mode, ip, cfg, t_end=-1.0, dt=1.0)


def test_time_evolve_rejects_int64_step_counts(setup):
    # 1e20 steps would wrap the int64 sample times (long samples) or
    # overflow the list of stretches (one step per sample)
    s = setup
    for sample_every in (10 ** 17, 1):
        with pytest.raises(StabilityError):
            time_evolve(s.drive, s.mode, s.ip, s.cfg, t_end=1e20, dt=1.0,
                        sample_every=sample_every)


def test_time_evolve_caps_samples_on_a_direct_call(setup, monkeypatch):
    # 1e5 steps at sample_every 1 ask for 1e5 samples; the cap of 1000
    # raises sample_every to 100, and the last sample still ends on t_end
    monkeypatch.setattr(pumpprobe, "_MAX_SAMPLES", 1000)
    s = setup
    traj = time_evolve(s.drive, s.mode, s.ip, s.cfg, t_end=1e5, dt=1.0,
                       sample_every=1)
    assert traj.sample_every == 100
    assert len(traj.times) <= 1001
    assert traj.times[-1] == traj.t_end == 1e5


def _rk4_loop(drive, mode, ip, cfg, t_end, dt, sample_every):
    """Classical four-stage RK4 on (A, B+, B-), one Python step at a time."""
    ss = steady_state(drive, mode, ip, cfg)
    e, v = drive.E_drive, ss.V_mf
    z_pol = (ss.E_pol_tilde - e) - 1j * polariton_damping(mode, drive)
    z_a = (ss.E_a_tilde - e) - 1j * drive.hGamma_a

    def rhs(a, bp, bm):
        return (-1j * (z_pol * a + drive.F_pump),
                -1j * (z_a * bp + v * bm.conjugate() + drive.F_probe_plus),
                -1j * (z_a * bm + v * bp.conjugate() + drive.F_probe_minus))

    def shifted(y, k, c):
        return [x + c * kx for x, kx in zip(y, k)]

    n_steps = max(1, math.ceil(t_end / dt))
    if (n_steps - 1) * dt >= t_end:   # t_end / dt rounded up past n_steps - 1
        n_steps -= 1
    h = t_end / n_steps
    y = [0j, 0j, 0j]
    times, ys = [0.0], [y]
    for step in range(1, n_steps + 1):
        k1 = rhs(*y)
        k2 = rhs(*shifted(y, k1, 0.5 * h))
        k3 = rhs(*shifted(y, k2, 0.5 * h))
        k4 = rhs(*shifted(y, k3, h))
        y = [x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
             for x, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if step % sample_every == 0 or step == n_steps:
            times.append(step * h)
            ys.append(y)
    return np.array(times), np.array(ys).T


def _damped_drive(cfg, detuning, damping, forces, n_pump):
    return _drive(E_drive=antisymmetric_energy(cfg) + detuning,
                  hGamma_ph=damping[0], hGamma_s=damping[1],
                  hGamma_a=damping[2], F_pump=complex(*forces[:2]),
                  F_probe_plus=complex(*forces[2:4]),
                  F_probe_minus=complex(*forces[4:]), n_pump=n_pump)


def _routes(cfg, detuning, damping, forces, n_pump, steps, sample_every,
            binary=False):
    """Step-matrix and loop trajectories of one damped drive, dt = 0.05/scale,
    or with ``binary`` the power of two below it, so that t_end / dt is
    exactly ``steps``."""
    mode, ip = _mode(), _ip()
    drive = _damped_drive(cfg, detuning, damping, forces, n_pump)
    ss = steady_state(drive, mode, ip, cfg)
    scale = max(abs(ss.E_a_tilde - drive.E_drive),
                abs(ss.E_pol_tilde - drive.E_drive), ss.V_mf, *damping)
    dt = 0.05 / scale
    if binary:
        dt = 2.0 ** math.floor(math.log2(dt))
    traj = time_evolve(drive, mode, ip, cfg, t_end=steps * dt, dt=dt,
                       sample_every=sample_every)
    return traj, _rk4_loop(drive, mode, ip, cfg, steps * dt, dt, sample_every)


#: Smallest nonzero force or pump occupation of the property below.  The
#: amplitudes are at most bilinear in these inputs (B+ fed by V_mf ~ n_pump
#: times B- ~ F-), so with this floor every amplitude stays above ~1e-195,
#: far from float64's subnormal range (< 2.2e-308), where the absolute
#: spacing 4.9e-324 ends the 1e-12 relative agreement of the two routes.
_FLOOR = 1e-100


def _zero_or_normal(limit, signed=True):
    magnitude = st.floats(_FLOOR, limit)
    if signed:
        magnitude = magnitude | magnitude.map(lambda x: -x)
    return st.just(0.0) | magnitude


@settings(max_examples=30, deadline=None)
@given(detuning=st.floats(-5e-5, 5e-5),
       damping=st.tuples(*[st.floats(1e-6, 2e-5)] * 3),
       forces=st.tuples(*[_zero_or_normal(1e-6)] * 6),
       n_pump=_zero_or_normal(1.5, signed=False),
       steps=st.floats(2000.0, 4000.0),
       sample_every=st.sampled_from([1, 7, 10 ** 9]))
def test_time_evolve_step_matrix_matches_rk4_loop(cfg, detuning, damping, forces,
                                                  n_pump, steps, sample_every):
    traj, (times, ref) = _routes(cfg, detuning, damping, forces, n_pump, steps,
                                 sample_every)
    assert np.array_equal(traj.times, times)
    for amp, expected in zip((traj.A, traj.B_plus, traj.B_minus), ref):
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_time_evolve_subnormal_force_stays_finite_and_tiny(cfg):
    # below the property's floor: F- = 5e-324 drives B- to ~2.5e-318, where
    # the two routes round differently; both must still stay finite and tiny
    forces = (0.0, 0.0, 0.0, 0.0, 0.0, 5e-324)
    traj, (_, ref) = _routes(cfg, 0.0, (1e-6,) * 3, forces, 0.0, 2000.0, 1)
    for route in ((traj.A, traj.B_plus, traj.B_minus), ref):
        a, b_plus, b_minus = (np.asarray(x) for x in route)
        assert np.all(a == 0) and np.all(b_plus == 0)
        assert np.all(np.isfinite(b_minus))
        assert 0 < np.max(np.abs(b_minus)) <= 1e-300


_EP_FORCES = (3e-7, -1e-7, 2e-9, 5e-10, -1e-9, 3e-9)


@pytest.mark.parametrize("sample_every", [1, 7, 10 ** 9])
@pytest.mark.parametrize("side, off", [(1.0, 0.0), (3.0, 0.0), (1.0, 1e-6)])
def test_time_evolve_at_the_pair_exceptional_point(cfg, side, off, sample_every):
    # E - E_a = Delta~ n or 3 Delta~ n puts the drive at V_mf = |E_a~ - E|,
    # where the pair generator is a Jordan block (a double eigenvalue with
    # one eigenvector); random draws of the property never land there
    n_pump = 1.2
    detuning = side * _ip().Delta_tilde * n_pump * (1.0 + off)
    damping = (5e-6, 8e-6, 4e-6)
    ss = steady_state(_damped_drive(cfg, detuning, damping, _EP_FORCES, n_pump),
                      _mode(), _ip(), cfg)
    gap = abs(abs(ss.E_a_tilde - antisymmetric_energy(cfg) - detuning) - ss.V_mf)
    assert gap <= (1e-9 if off == 0.0 else 1e-4) * ss.V_mf
    assert off == 0.0 or gap >= 1e-7 * ss.V_mf
    traj, (times, ref) = _routes(cfg, detuning, damping, _EP_FORCES, n_pump,
                                 3000.0, sample_every)
    assert np.array_equal(traj.times, times)
    for amp, expected in zip((traj.A, traj.B_plus, traj.B_minus), ref):
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_time_evolve_never_reads_the_closed_forms(setup, monkeypatch):
    # the second route shares only the rotating frame with the closed forms
    s = setup
    drive = replace(s.drive, hGamma_a=1e-6, hGamma_s=1e-6, hGamma_ph=1e-6)
    kept = time_evolve(drive, s.mode, s.ip, s.cfg, sample_every=7)

    def closed_form(*args, **kwargs):
        raise AssertionError("time_evolve read the stationary solution")
    for name in ("_pair", "steady_state"):
        monkeypatch.setattr(pumpprobe, name, closed_form)
    traj = time_evolve(drive, s.mode, s.ip, s.cfg, sample_every=7)
    assert len(traj.times) > 1 and np.isfinite(traj.B_plus).all()
    for got, want in zip((traj.A, traj.B_plus, traj.B_minus),
                         (kept.A, kept.B_plus, kept.B_minus)):
        assert np.array_equal(got, want)


def test_time_evolve_apply_is_map_bit_for_bit():
    # one map over many states equals _map on each state, and both equal
    # one rounding per float multiply and add in _map's order, bit for bit:
    # no fused multiply-add
    rng = np.random.default_rng(28)

    def draw(n):
        return tuple(complex(c) for c in rng.standard_normal(n)
                     + 1j * rng.standard_normal(n))

    def mul(u, w):
        return complex(u.real * w.real - u.imag * w.imag,
                       u.real * w.imag + u.imag * w.real)
    for _ in range(6):
        u, states = draw(8), [draw(3) for _ in range(40)]
        x = np.array(states).T
        out = np.empty_like(x)
        pumpprobe._apply(u, x, out)
        a, p, q, r, s, fa, f0, f1 = u
        for j, (a0, y0, y1) in enumerate(states):
            got = tuple(out[:, j].tolist())
            assert got == pumpprobe._map(u, (a0, y0, y1))
            assert got == (a0 + (mul(a, a0) + fa), y0 + (mul(p, y0) + mul(q, y1) + f0),
                           y1 + (mul(r, y0) + mul(s, y1) + f1))


@pytest.mark.parametrize("sample_every, rest", [(1, 0), (3, 0), (3, 2)])
@pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5, 7, 9, 31, 33, 1023, 1025])
def test_time_evolve_doubling_matches_rk4_loop(cfg, n_samples, sample_every, rest):
    # the doubling pass fills samples f..2f-1 from 0..f-1: counts at and
    # beside each power of two, with and without a remainder step
    steps = n_samples * sample_every + rest
    traj, (times, ref) = _routes(cfg, 2e-5, (1e-6, 2e-6, 1e-6), _EP_FORCES, 0.7,
                                 float(steps), sample_every, binary=True)
    assert len(traj.times) == n_samples + 1 + (rest > 0)
    assert np.array_equal(traj.times, times)
    for amp, expected in zip((traj.A, traj.B_plus, traj.B_minus), ref):
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_time_evolve_takes_whole_steps_when_t_end_is_a_multiple_of_dt(cfg):
    # t_end = 5 dt at this dt, yet t_end / dt = 5.000000000000001 rounds up:
    # five steps, not six, and six samples at sample_every 1
    traj, (times, ref) = _routes(cfg, 2e-5, (1e-6, 2e-6, 1e-6), _EP_FORCES, 0.7,
                                 5.0, 1)
    assert traj.dt == 474.20333839144746 and traj.t_end == 5 * traj.dt
    assert traj.t_end / traj.dt > 5.0
    assert len(traj.times) == len(times) == 6
    assert np.array_equal(traj.times, times)
    for amp, expected in zip((traj.A, traj.B_plus, traj.B_minus), ref):
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("sample_every", [1, 7])
def test_time_evolve_chunks_are_bitwise_one_pass(cfg, monkeypatch, sample_every):
    # chunks of 5 columns, the last one partial, and at sample_every 7 a
    # remainder step: the one-pass trace bit for bit, and the loop's to 1e-12
    args = (cfg, 2e-5, (1e-6, 2e-6, 1e-6), _EP_FORCES, 0.7, 2003.0, sample_every)
    whole, _ = _routes(*args)
    monkeypatch.setattr(pumpprobe, "_CHUNK", 5)
    chunked, (times, ref) = _routes(*args)
    assert len(chunked.times) > 5 * 50
    assert np.array_equal(chunked.times, times)
    for field in ("times", "A", "B_plus", "B_minus"):
        assert np.array_equal(getattr(chunked, field), getattr(whole, field))
    for amp, expected in zip((chunked.A, chunked.B_plus, chunked.B_minus), ref):
        assert np.max(np.abs(amp - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_drive_config_invariants():
    with pytest.raises(DomainError):
        _drive(E_drive=0.0)
    with pytest.raises(DomainError):
        _drive(hGamma_a=-1e-12)
    with pytest.raises(DomainError):
        _drive(n_pump=-0.5)
    for bad in (dict(E_drive=math.nan), dict(E_drive=math.inf),
                dict(hGamma_a=math.nan), dict(hGamma_s=math.inf),
                dict(F_pump=complex(math.nan, 0.0)), dict(F_probe_plus=math.inf),
                dict(k_pump=math.nan), dict(q=math.inf), dict(n_pump=math.inf),
                dict(n_pump=math.nan)):
        with pytest.raises(DomainError):
            _drive(**bad)


# -- the array path: each element as in the scalar call ---------------------

def _red_detuned_mode() -> HopfieldMode:
    # lower branch above every drive energy used below, even with its
    # Hartree shift: the occupation has a single fixed point
    return _mode(e_lower=1.501)


def test_pump_occupation_array_fixed_point_elementwise():
    mode, ip = _red_detuned_mode(), _ip()
    drive = _drive(F_pump=1e-3, n_pump=None)
    energies = np.linspace(1.4998, 1.5004, 41)
    sol = pump_occupation(drive, mode, ip, E_drive=energies)
    assert sol.n_pump.shape == energies.shape
    hg = polariton_damping(mode, drive)
    shift = ip.Delta * ip.X2 ** 2
    lorentzian = abs(drive.F_pump) ** 2 / (
        (energies - mode.E_lower - shift * sol.n_pump) ** 2 + hg ** 2)
    assert np.all(np.abs(sol.n_pump - lorentzian) <= 1e-12 * sol.n_pump)
    assert np.all(sol.n_pump > 0.1)
    # the loop over scalar calls is the reference
    scalar = [pump_occupation(replace(drive, E_drive=float(e)), mode, ip)
              for e in energies]
    assert sol.n_pump.tolist() == [s.n_pump for s in scalar]
    assert sol.E_pol_tilde.tolist() == [s.E_pol_tilde for s in scalar]
    assert isinstance(sol.iterations, int)
    assert sol.iterations == sum(s.iterations for s in scalar)


def test_pump_occupation_array_with_one_bistable_element_raises():
    # the bistable drive of test_pump_occupation_bistable_drive_raises
    # placed among drives that converge
    ip = _ip(delta=1e-4, x2=0.5)
    mode = _mode(0.5)
    shift = ip.Delta * ip.X2 ** 2
    drive = _drive(F_pump=5e-5, n_pump=None, hGamma_s=1e-7, hGamma_ph=1e-7)
    energies = mode.E_lower - np.array([1e-3, 2e-3, -3.0 * shift, 3e-3])
    with pytest.raises(BistabilityError):
        pump_occupation(drive, mode, ip, E_drive=energies)
    pump_occupation(drive, mode, ip, E_drive=np.delete(energies, 2))


def test_spectrum_self_consistent_equals_prescribed_at_solved_occupation(cfg):
    mode, ip = _red_detuned_mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(F_pump=1e-3, n_pump=None, hGamma_a=1e-7)
    grid = np.linspace(e_a, e_a + 4.0 * ip.Delta_tilde, 201)
    points = spectrum(drive, mode, ip, cfg, grid)
    n = pump_occupation(drive, mode, ip, E_drive=grid).n_pump
    assert np.ptp(n) > 0.01 * n.max()      # the occupation follows the drive
    for e, n_e, p in zip(grid, n, points):
        (q,) = spectrum(replace(drive, n_pump=float(n_e)), mode, ip, cfg,
                        [float(e)])
        assert p.E_offset == q.E_offset
        assert p.I_minus_scaled == q.I_minus_scaled
        assert p.I_plus_scaled == q.I_plus_scaled


@pytest.mark.parametrize("pump", [dict(n_pump=1.0),
                                  dict(F_pump=1e-3, n_pump=None)])
@pytest.mark.parametrize("hGamma_a", [1e-7, 0.0])
def test_spectrum_columns_equal_scalar_steady_state(cfg, pump, hGamma_a):
    # a grid of drive energies takes the array path of _pair, one
    # Python-float energy the scalar path through _where and _unwrap
    mode, ip = _red_detuned_mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(hGamma_a=hGamma_a, **pump)
    grid = np.linspace(e_a - ip.Delta_tilde, e_a + 4.0 * ip.Delta_tilde, 101)
    spec = spectrum(drive, mode, ip, cfg, grid)
    offset, i_minus, i_plus = spec.E_offset, spec.I_minus_scaled, spec.I_plus_scaled
    assert np.all(np.isfinite(i_minus)) and np.all(np.isfinite(i_plus))
    norm = abs(drive.F_probe_plus) * abs(drive.F_probe_plus)
    for i, e in enumerate(grid.tolist()):
        ss = steady_state(replace(drive, E_drive=e), mode, ip, cfg)
        assert type(ss.I_plus) is float and type(ss.N_pump) is float
        assert offset[i] == e - e_a
        assert i_minus[i] == ss.I_minus / norm
        assert i_plus[i] == ss.I_plus / norm


_MODE_FIELDS = ("E_upper", "E_lower", "X_upper", "Y_upper", "X_lower", "Y_lower",
                "delta", "D")


@settings(max_examples=30, deadline=None)
@given(theta_deg=st.floats(60.0, 89.0), R=st.floats(120.0, 250.0),
       log_f_pump=st.floats(-5.0, -4.0),
       log_dampings=st.tuples(*[st.floats(-9.0, -6.0)] * 3),
       probes=st.tuples(*[st.floats(-2.0, 2.0)] * 4), span=st.floats(0.5, 4.0))
def test_scalar_calls_equal_array_elements_bit_for_bit(theta_deg, R, log_f_pump,
                                                       log_dampings, probes, span):
    # scan-like operating points with complex probes and a self-consistent
    # pump on the red side of the pumped mode, where it has one occupation
    g_ph, g_s, g_a = (10.0 ** x for x in log_dampings)
    p = [1e-9 * x for x in probes]
    run = build_run_config({
        "lattice": {"theta_deg": theta_deg, "R": R},
        "drive": {"F_pump": 10.0 ** log_f_pump, "hGamma_ph": g_ph, "hGamma_s": g_s,
                  "hGamma_a": g_a, "n_pump": None, "F_probe_plus": p[:2],
                  "F_probe_minus": p[2:]}}, preset=True)
    cfg, wg, drive = run.lattice, run.waveguide, run.drive
    ks = np.concatenate([drive.k_pump * np.linspace(0.5, 1.5, 9),
                         np.linspace(0.0, math.pi / cfg.a, 7)])
    modes, lower = hopfield(ks, wg, cfg), _lower_branch(ks, wg, cfg)
    for i, k in enumerate(ks.tolist()):
        one = hopfield(k, wg, cfg)
        assert ([getattr(modes, f)[i] for f in _MODE_FIELDS]
                == [getattr(one, f) for f in _MODE_FIELDS])
        assert lower[i] == _lower_branch(k, wg, cfg)
    mode = hopfield(drive.k_pump, wg, cfg)
    ip = interaction_params(wg, cfg, mode.X_lower * mode.X_lower)
    energies = mode.E_lower - span * ip.Delta_tilde * np.linspace(0.0, 1.0, 13)
    pump = pump_occupation(drive, mode, ip, E_drive=energies)
    spec = spectrum(drive, mode, ip, cfg, energies)
    fp, fm = abs(drive.F_probe_plus), abs(drive.F_probe_minus)
    norm = fp * fp + fm * fm or 1.0
    for i, e in enumerate(energies.tolist()):
        at = replace(drive, E_drive=e)
        one = pump_occupation(at, mode, ip)
        assert (pump.n_pump[i], pump.E_pol_tilde[i]) == (one.n_pump, one.E_pol_tilde)
        ss = steady_state(at, mode, ip, cfg)
        assert spec.I_plus_scaled[i] == ss.I_plus / norm
        assert spec.I_minus_scaled[i] == ss.I_minus / norm


def test_spectrum_exact_pole_is_infinite_between_finite_neighbours(cfg):
    # pump off, no damping: the pair determinant vanishes exactly at E_a
    mode, ip = _mode(), _ip()
    e_a = antisymmetric_energy(cfg)
    drive = _drive(hGamma_a=0.0, n_pump=0.0)
    grid = np.array([e_a - 2e-6, e_a - 1e-6, e_a, e_a + 1e-6, e_a + 2e-6])
    points = spectrum(drive, mode, ip, cfg, grid)
    assert math.isinf(points[2].I_plus_scaled)
    assert math.isinf(points[2].I_minus_scaled)
    for p in points[[0, 1, 3, 4]]:
        assert math.isfinite(p.I_plus_scaled) and p.I_plus_scaled > 0.0
        assert p.I_minus_scaled == 0.0
