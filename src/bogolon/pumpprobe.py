"""Driven pump-probe dynamics of the pumped mode and the dark-exciton pair.

A strong pump populates the lower branch at wavenumber k with occupation
N; probes at k +- q drive the flat dark level.  In the frame rotating at
the common drive energy E the mean-field amplitudes obey

    i dA/dt   = (E_pol~ - E - i hG_pol) A + F_pump,
    i dB+/dt  = (E_a~ - E - i hG_a) B+ + V conj(B-) + F+,
    i dB-/dt  = (E_a~ - E - i hG_a) B- + V conj(B+) + F-,

with the pump-induced anomalous coupling V and the Hartree-shifted
energies set by the vertices of :class:`kinematic.InteractionParams`,

    V = 2 pol_dark_pair N = Delta_tilde N,
    E_pol~ = E_pol(k) + 2 pol_pol N = E_pol(k) + Delta X^4 N,
    E_a~ = E_a + pol_dark_cross N = E_a + 2 Delta_tilde N.

Damping enters as -i hGamma added to each rotating-frame energy; squared
resonance denominators are then squared moduli of complex factors.  The
dark pair couples through the conjugate amplitude (the anomalous B+ B-
channel), which for real drives reduces to the familiar closed forms

    B+ = (E - E_a~) F / ((E - E_a~)^2 - V^2),
    B- = V F / ((E - E_a~)^2 - V^2),

for a single probe F at k + q with no damping.  Time units are hbar/eV.
The stationary formulas broadcast over drive energies and mode fields.

:func:`time_evolve` checks them with classical RK4, as powers of the
RK4 step map x -> P(hM) x of the affine generator M on
x = (A, B+, conj(B-), 1).  That keeps RK4's truncation error; exp(Mt)
would not, and would equal the closed forms by construction.

Without a prescribed N, the pump equation fixes N = |A|^2 as a root of the
driven-Kerr cubic, which has three, a bistable drive, only inside the
window of optical bistability that :func:`pump_occupation` tests first.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import BistabilityError, DomainError, PoleError, StabilityError
from .kinematic import InteractionParams
from .lattice import (SuperLatticeConfig, _any, _check_finite, _finite, _unwrap,
                      _where, antisymmetric_energy)
from .polariton import HopfieldMode

_OCCUPATION_TOL = 1e-12
_NEWTON_MAX_STEPS = 100
_SQUARE_OVERFLOWS = "the square (E - E_pol)^2 in the occupation cubic overflows"
#: Most samples after t = 0 that one :func:`time_evolve` call returns.
_MAX_SAMPLES = 1_000_000
#: Samples one numpy pass of :func:`time_evolve`'s sampler maps at a time.
_CHUNK = 65_536
#: Record type of :func:`spectrum`.
_SPECTRUM_DTYPE = np.dtype((np.record, [("E_offset", float), ("I_minus_scaled", float),
                                        ("I_plus_scaled", float)]))


@dataclass(frozen=True, kw_only=True)
class DriveConfig:
    """Pump/probe drive in the rotating frame.

    E_drive: common pump/probe energy (eV); F_pump and F_probe_plus/minus:
    complex drive amplitudes (eV) at k and k +- q; hGamma_*: damping rates
    as energies hbar*Gamma (eV); k_pump, q: pump wavenumber and probe
    offset (1/Angstrom).  When ``n_pump`` is set the pump occupation is
    prescribed directly; otherwise it is solved self-consistently from
    F_pump.  The defaults are an undamped weak probe at k + q and no pump.
    """

    E_drive: float
    F_pump: complex = 0j
    F_probe_plus: complex = 1e-9 + 0j
    F_probe_minus: complex = 0j
    hGamma_ph: float = 0.0
    hGamma_s: float = 0.0
    hGamma_a: float = 0.0
    k_pump: float
    q: float = 1e-6
    n_pump: Optional[float] = None

    def __post_init__(self):
        _check_finite(self)
        if self.E_drive <= 0:
            raise DomainError("E_drive must be positive")
        if min(self.hGamma_ph, self.hGamma_s, self.hGamma_a) < 0:
            raise DomainError("damping rates must be >= 0")
        if self.n_pump is not None and self.n_pump < 0:
            raise DomainError("prescribed pump occupation must be >= 0")


@dataclass(frozen=True)
class PumpSolution:
    """Pump occupation together with the shifted mode energy (arrays for an
    array call); ``iterations`` counts the Newton steps, summed over
    elements, and is 0 for a prescribed occupation."""

    n_pump: float
    E_pol_tilde: float
    f_pump_magnitude: float
    iterations: int


@dataclass(frozen=True)
class SteadyState:
    """Stationary amplitudes, intensities and resonance energies."""

    A_amp: complex
    N_pump: float
    B_plus: complex
    B_minus: complex
    I_plus: float
    I_minus: float
    E_a_tilde: float
    E_pol_tilde: float
    V_mf: float
    E_res_plus: Optional[float]
    E_res_minus: Optional[float]


@dataclass(frozen=True)
class Trajectory:
    """Sampled rotating-frame trajectory of (A, B+, B-), with the step, end
    time and sampling it was resolved with."""

    times: np.ndarray
    A: np.ndarray
    B_plus: np.ndarray
    B_minus: np.ndarray
    dt: float
    t_end: float
    sample_every: int


def polariton_damping(mode: HopfieldMode, drive: DriveConfig) -> float:
    """Lower-branch damping hG_pol = (X^2 hG_s + Y^2 hG_ph) / 2."""
    x, y = mode.X_lower, mode.Y_lower
    return 0.5 * (x * x * drive.hGamma_s + y * y * drive.hGamma_ph)


def pump_occupation(drive: DriveConfig, mode: HopfieldMode,
                    ip: InteractionParams, *, E_drive=None) -> PumpSolution:
    """Pump occupation N and shifted energy E_pol~ = E_pol + Delta X^4 N.

    With ``drive.n_pump`` set, returns it together with the pump amplitude
    that would sustain it.  Otherwise N solves the Lorentzian

        N = |F_pump|^2 / ((E - E_pol~(N))^2 + hG_pol^2),

    i.e. the driven-Kerr cubic g(N) = N ((d - s N)^2 + h^2) - |F|^2 = 0 with
    d = E - E_pol, s = Delta X^4 and h = hG_pol.  g has turning points only
    for d^2 > 3 h^2, at N+- = (2d +- sqrt(d^2 - 3h^2)) / (3s); the drive is
    bistable (three occupations) exactly when N- > 0 and
    g(N-) > 0 > g(N+), which raises ``BistabilityError`` with
    ``bracket = (N-, N+)``.  Otherwise the single root comes from Newton
    steps on g to 1e-12 relative step, clipped to [0, bound] for an upper
    bound with g(bound) >= 0, from the cubic's closed-form real root.
    An undriven mode stays empty; an undamped drive on the unshifted bare
    resonance (h = d = s = 0) has no finite occupation and raises
    ``BistabilityError``, as do 100 steps that do not settle; a pump
    amplitude, given or sustaining, or a d or h whose square overflows
    ``DomainError``.

    Broadcasts over an array ``E_drive`` (default ``drive.E_drive``) and
    over array mode fields element by element, settled elements frozen; a
    scalar drive stays on float64 scalars through the same numpy ufuncs.
    The first bistable element in C order raises for the whole call.
    """
    e = drive.E_drive if E_drive is None else E_drive
    e_pol = mode.E_lower
    hg = polariton_damping(mode, drive)
    shift = 2.0 * ip.pol_pol

    if drive.n_pump is not None:
        n = drive.n_pump
        e_t = e_pol + shift * n
        # numpy values warn where a square overflows, Python floats do not;
        # np.errstate costs a scalar call about 1.5 us
        with (nullcontext() if type(e) is type(e_t) is type(hg) is float
              else np.errstate(all="ignore")):
            f_mag = _finite(np.sqrt(n * ((e - e_t) * (e - e_t) + hg * hg)),
                            "the pump amplitude sustaining n_pump overflows")
        return PumpSolution(n_pump=n, E_pol_tilde=e_t,
                            f_pump_magnitude=_unwrap(f_mag), iterations=0)

    f = abs(drive.F_pump)
    f2 = _finite(f * f, "|F_pump|^2 overflows")
    d, s, h = (np.asarray(x, dtype=float)[()] for x in (e - e_pol, shift, hg))
    n, iterations = (_kerr_root(d, s, h, f2) if f2 > 0.0
                     else (np.zeros_like(d + s + h), 0))
    n = _unwrap(n)
    return PumpSolution(n, _unwrap(e_pol + shift * n), f, iterations)


def _kerr_root(d, s, h, f2):
    """Root of g(N) = N ((d - s N)^2 + h^2) - f2 for each element of what the
    float64 scalars or arrays d, s, h broadcast to (f2 > 0), and the Newton
    steps taken over elements.  Newton starts at the closed-form root (else
    at 0 or the bound) and is clipped to [0, bound]; settled elements are
    frozen, not gathered."""
    with np.errstate(all="ignore"):
        def g(n):
            r = d - s * n
            return n * (r * r + h2) - f2
        h2 = _finite(h * h, "the damping square hG_pol^2 overflows")
        # g at its turning points N-, N+ (NaN for d^2 < 3 h2, where there
        # are none) and at its inflection N_i = 2d / (3s).
        dd, s3 = d * d, 3.0 * s
        n_i, spread = 2.0 * d / s3, np.sqrt(dd - 3.0 * h2) / s3
        n_minus = n_i - spread
        # for s > 0, N- > 0 needs d > sqrt(3) h: red drives have no fold
        fold = n_minus > 0.0
        if _any(fold):
            n_plus = n_i + spread
            bistable = fold & (g(n_minus) > 0.0) & (g(n_plus) < 0.0)
            if _any(bistable):
                i = np.argmax(bistable)     # the first in C order
                d_i, n_lo, n_hi = (float(np.broadcast_to(x, np.shape(bistable)).flat[i])
                                   for x in (d, n_minus, n_plus))
                raise BistabilityError(
                    f"bistable drive at E - E_pol = {d_i!r} eV: three occupations "
                    f"solve the Lorentzian, turning points N = {n_lo!r}, {n_hi!r}",
                    bracket=(n_lo, n_hi))
        # Every root lies below bound, and g(bound) >= 0: N h2 <= f2, and
        # N (d^2 + h2) <= f2 when s d <= 0; past max(d/s, 0) + c, with
        # s^2 c^3 = f2, s N - d >= s c, so g >= s^2 c^3 - f2 = 0.
        bound = np.fmin(f2 / (h2 + _where(s * d <= 0.0, dd, 0.0)),
                        np.fmax(1.5 * n_i, 0.0) + np.cbrt(f2 / (s * s)))
        if _any(~np.isfinite(bound)):
            _finite(dd, _SQUARE_OVERFLOWS)
            raise BistabilityError(
                "undamped drive exactly on the unshifted polariton resonance; "
                "occupation diverges", bracket=(0.0, math.inf))
        # Start at the real root N_i + t of t^3 + 3 p3 t + 2 hq = 0, the cubic
        # about N_i, with the larger cube root u so t = u - p3 / u does not
        # cancel.  Where it is not finite (s = 0, overflow, the cusp, three
        # real roots), start from 0 for a root below N_i, where g is
        # concave, else from the bound, where g is convex.
        g_i, s2 = g(n_i), s * s
        p3, hq = (3.0 * h2 - dd) / (9.0 * s2), g_i / (2.0 * s2)
        u = np.cbrt(-hq - np.copysign(np.sqrt(hq * hq + p3 * p3 * p3), hq))
        n = n_i + (u - p3 / u)
        n = _where(np.isfinite(n), np.minimum(np.maximum(n, 0.0), bound),
                   _where((n_i > 0.0) & (g_i >= 0.0), 0.0, bound))
        active, left, iterations = True, np.size(n), 0
        for _ in range(_NEWTON_MAX_STEPS):
            sn = s * n
            r = d - sn
            slope = r * r + h2
            step = (n * slope - f2) / (slope - 2.0 * sn * r)
            new = np.minimum(np.maximum(n - step, 0.0), bound)
            iterations += left
            n, n_prev = _where(active, new, n), n
            # a frozen element has not moved, so it stays settled
            active = ~(np.abs(n - n_prev) <= _OCCUPATION_TOL * n)
            left = int(np.count_nonzero(active))
            if not left:
                return n, iterations
    _finite(dd, _SQUARE_OVERFLOWS)      # Newton ran on inf and NaN
    raise BistabilityError(
        f"occupation Newton steps did not settle in {_NEWTON_MAX_STEPS}: the "
        "drive sits within rounding of a turning point",
        bracket=tuple(sorted(float(x.flat[np.argmax(active)]) for x in (n_prev, n))))


def _rotating_frame(drive: DriveConfig, mode: HopfieldMode,
                    ip: InteractionParams, cfg: SuperLatticeConfig, e):
    """Renormalized energies at drive energy e: (pump, E_a~, V_mf, hG_pol)."""
    pump = pump_occupation(drive, mode, ip, E_drive=e)
    e_a_t = antisymmetric_energy(cfg) + ip.pol_dark_cross * pump.n_pump
    v_mf = 2.0 * ip.pol_dark_pair * pump.n_pump
    return pump, e_a_t, v_mf, polariton_damping(mode, drive)


def _intensity(z):
    """|z|^2 of complex z as hypot(re, im) squared: no fused multiply-add,
    inf where it overflows.  Call it with numpy's warnings off."""
    r = np.hypot(z.real, z.imag)
    return r * r


def _pair(drive: DriveConfig, e, e_a_t, v):
    """Dark-pair amplitudes, intensities and determinant at drive energy e
    in the frame (E_a~, V_mf): (B+, I+, B-, I-, det).  The intensities are
    infinite where the determinant vanishes; where it, or I+ + I- off it,
    overflows, ``DomainError``.  Call it with numpy's warnings off."""
    x, hg_a = e_a_t - e, drive.hGamma_a
    # (E_a~ - E - i hG_a) B+ + V conj(B-) + F+ = 0 and the conjugated
    # partner equation; unknowns (B+, conj(B-)), real determinant.  So B =
    # (V conj(G) - F (x + i hG_a)) / det for (F, G) = (F+, F-), (F-, F+), in
    # float64 parts: numpy's complex product may fuse a multiply-add.
    det = _finite(x * x + hg_a * hg_a - v * v,
                  "the pair determinant (E_a~ - E)^2 + hG_a^2 - V^2 overflows")
    pole, out = det == 0.0, []
    for f, g in ((drive.F_probe_plus, drive.F_probe_minus),
                 (drive.F_probe_minus, drive.F_probe_plus)):
        b = np.empty_like(det, dtype=complex)     # det has every input's shape
        np.divide(v * g.real - (f.real * x - f.imag * hg_a), det, out=b.real)
        np.divide(v * -g.imag - (f.real * hg_a + f.imag * x), det, out=b.imag)
        out += [b, _where(pole, math.inf, _intensity(b))]
    _finite(_where(pole, 0.0, out[1] + out[3]),
            "the pair intensity |B+|^2 + |B-|^2 overflows")
    return (*out, det)


def steady_state(drive: DriveConfig, mode: HopfieldMode,
                 ip: InteractionParams, cfg: SuperLatticeConfig) -> SteadyState:
    """Stationary solution of the driven three-amplitude system.

    The dark pair (B+, conj(B-)) satisfies a 2x2 linear system with real
    determinant (E_a~ - E)^2 + hG_a^2 - V^2; a vanishing determinant (drive
    exactly at a resonance that damping does not lift) raises ``PoleError``,
    one that overflows, or a pair intensity that does, ``DomainError``.  A
    mode with array fields gives array fields; the pair resonances E_res_+-
    are None (NaN elements in arrays) when damping exceeds V_mf.
    """
    e = drive.E_drive
    with np.errstate(all="ignore"):
        pump, e_a_t, v, hg_pol = _rotating_frame(drive, mode, ip, cfg, e)
        denom_pump = e - pump.E_pol_tilde + 1j * hg_pol
        a_amp = _where(denom_pump != 0, np.divide(drive.F_pump, denom_pump),
                       complex(math.inf))
        b_plus, i_plus, b_minus, i_minus, det = _pair(drive, e, e_a_t, v)
    if _any(det == 0.0):
        raise PoleError(f"drive energy {e} eV sits exactly on a pair resonance")
    rad = v * v - drive.hGamma_a * drive.hGamma_a
    split = _where(rad > 0, np.sqrt(abs(rad)), math.nan)
    ss = SteadyState(*map(_unwrap, (
        a_amp, pump.n_pump, b_plus, b_minus, i_plus, i_minus, e_a_t,
        pump.E_pol_tilde, v, e_a_t + split, e_a_t - split)))
    if isinstance(ss.E_res_plus, float) and math.isnan(ss.E_res_plus):
        ss = replace(ss, E_res_plus=None, E_res_minus=None)
    return ss


def spectrum(drive: DriveConfig, mode: HopfieldMode, ip: InteractionParams,
             cfg: SuperLatticeConfig, energies) -> np.recarray:
    """Probe-normalized dark intensities over a 1-D drive-energy grid in one
    broadcast pass: records (E_offset = E - E_a, I_minus_scaled, I_plus_scaled).

    Intensities are scaled by the total injected probe intensity
    |F+|^2 + |F-|^2; energies are reported as offsets from the bare dark
    level.  Grid points exactly on an undamped resonance are infinite, an
    overflowing probe or pair intensity raises ``DomainError``.  A
    self-consistent pump is solved at every grid point in one Newton pass
    from the closed-form root, and one bistable at any grid point raises
    ``BistabilityError``.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size == 0:
        raise DomainError("energy grid must be a nonempty 1-D array")
    fp, fm = abs(drive.F_probe_plus), abs(drive.F_probe_minus)
    norm = _finite(fp * fp + fm * fm,
                   "the probe intensity |F+|^2 + |F-|^2 overflows") or 1.0
    with np.errstate(all="ignore"):
        _, e_a_t, v, _ = _rotating_frame(drive, mode, ip, cfg, energies)
        _, i_plus, _, i_minus, _ = _pair(drive, energies, e_a_t, v)
    out = np.empty(energies.shape, dtype=_SPECTRUM_DTYPE)
    out["E_offset"] = energies - antisymmetric_energy(cfg)
    out["I_minus_scaled"] = i_minus / norm
    out["I_plus_scaled"] = i_plus / norm
    return out.view(np.recarray)


def time_evolve(drive: DriveConfig, mode: HopfieldMode, ip: InteractionParams,
                cfg: SuperLatticeConfig, t_end: Optional[float] = None,
                dt: Optional[float] = None,
                sample_every: Optional[int] = None) -> Trajectory:
    """Integrate the rotating-frame amplitudes from rest with classical RK4.

    One step of h = t_end / n is x -> P(hM) x on x = (A, B+, conj(B-), 1),
    with n = ceil(t_end / dt), less one where (n - 1) dt already reaches
    t_end, M the affine generator and P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.
    M is block diagonal but for its forcing column f, so
    P(hM) = [[P(hG), S(hG) h f], [0, 1]] with S(z) = 1 + z/2 + z^2/6 + z^3/24:
    a scalar map for A and a 2x2 map for (B+, conj(B-)), each with its
    column, evaluated by Horner's rule in Python complex scalars and kept as
    the increment P - 1.  One ladder of squarings raises the step to the
    stride ``sample_every`` and to the steps left after the last full
    stride, which the final sample takes.  The stride map S gives sample 1,
    and each further square S^f maps samples 0..f-1 to f..2f-1 in one pass
    over float64 parts in a fixed order (no BLAS, no fused multiply-add):
    sample j is popcount(j) maps deep.  The step must resolve the fastest
    rate of the frame (the largest of the detunings, V_mf and the
    dampings), dt < 0.1 / rate, and there must be fewer than 2**63 steps,
    else ``StabilityError``.

    Unset settings follow the frame: dt = 0.05 / rate; t_end = 25 over the
    slowest nonzero damping, where the final state sits on
    :func:`steady_state`, or 10^4 dt undamped; ``sample_every`` gives
    about 2000 samples.  A ``sample_every`` that would give more than
    ``_MAX_SAMPLES`` samples after t = 0 is raised to the smallest that
    does not.  The trajectory carries the resolved settings.
    """
    e = drive.E_drive
    pump, e_a_t, v, hg_pol = _rotating_frame(drive, mode, ip, cfg, e)
    rate = max(abs(e_a_t - e), abs(pump.E_pol_tilde - e), v,
               drive.hGamma_a, hg_pol)
    if dt is None:
        dt = 0.05 / max(rate, 1e-30)
    if t_end is None:
        gammas = [g for g in (drive.hGamma_a, drive.hGamma_ph, drive.hGamma_s)
                  if g > 0]
        t_end = 25.0 / min(gammas) if gammas else dt * 10_000
    if dt <= 0 or t_end <= 0:
        raise DomainError("t_end and dt must be positive")
    if t_end / dt >= 2.0 ** 63:
        raise StabilityError(
            f"{t_end / dt:.3g} steps to t_end; the int64 sample times hold "
            f"fewer than 2**63")
    # t_end / dt may round up past a whole number of steps
    n_steps = max(1, math.ceil(t_end / dt))
    if (n_steps - 1) * dt >= t_end:
        n_steps -= 1
    if sample_every is None:
        sample_every = max(1, n_steps // 2000)
    if sample_every < 1:
        raise DomainError("sample_every must be >= 1")
    sample_every = max(sample_every, -(-n_steps // _MAX_SAMPLES))
    if rate > 0 and dt >= 0.1 / rate:
        raise StabilityError(
            f"dt = {dt} exceeds stability bound 0.1/{rate} = {0.1 / rate}")

    # V_mf is real, so (B+, conj(B-)) is a closed pair:
    # d conj(B-)/dt = i (conj(z_a) conj(B-) + V B+ + conj(F-)).
    z_pol = (pump.E_pol_tilde - e) - 1j * hg_pol
    z_a = (e_a_t - e) - 1j * drive.hGamma_a
    h = t_end / n_steps
    zp, z00, z01, z10, z11, fp, f0, f1 = (complex(h * c) for c in (
        -1j * z_pol, -1j * z_a, -1j * v, 1j * v, 1j * z_a.conjugate(),
        -1j * drive.F_pump, -1j * drive.F_probe_plus,
        1j * drive.F_probe_minus.conjugate()))
    # Horner's rule P(hM) = 1 + hM (1 + hM (1 + hM (1 + hM/4) / 3) / 2) on
    # the increment: each pass turns 1 + D into 1 + hM (1 + D) / k
    step = (0j,) * 8
    for k in (4, 3, 2, 1):
        a, p, q, r, s, ca, c0, c1 = step
        step = ((zp + zp * a) / k, (z00 + (z00 * p + z01 * r)) / k,
                (z01 + (z00 * q + z01 * s)) / k, (z10 + (z10 * p + z11 * r)) / k,
                (z11 + (z10 * q + z11 * s)) / k, (zp * ca + fp) / k,
                (z00 * c0 + z01 * c1 + f0) / k, (z10 * c0 + z11 * c1 + f1) / k)

    stride = min(sample_every, n_steps)
    n_samples, rest = divmod(n_steps, stride)
    power, rest_map = _ladder(step, (stride, rest))
    # sample f + j is S^f sample j: popcount(j) maps deep, not j, which
    # magnifies rounding less where the pair generator is (nearly) defective
    x = np.zeros((3, n_samples + 1 + (rest > 0)), dtype=complex)
    x[:, 1] = _map(power, (0j, 0j, 0j))
    for f in (1 << k for k in range(1, n_samples.bit_length())):
        power = _compose(power, power)
        n = min(f, n_samples + 1 - f)
        _apply(power, x[:, :n], x[:, f:f + n])
    marks = np.arange(n_samples + 1) * stride
    if rest:
        x[:, -1] = _map(rest_map, x[:, -2].tolist())
        marks = np.append(marks, n_steps)
    return Trajectory(times=marks * h, A=x[0], B_plus=x[1],
                      B_minus=np.conjugate(x[2], out=x[2]), dt=dt,
                      t_end=t_end, sample_every=sample_every)


# An affine map of (A, B+, conj(B-)) is a tuple (a, p, q, r, s, fa, f0, f1)
# of Python complex scalars: A -> A + (a A + fa) and the pair
# (y0, y1) -> (y0 + (p y0 + q y1 + f0), y1 + (r y0 + s y1 + f1)).  Keeping
# the increment, not 1 + a, keeps its low digits: a step moves the state
# by a few percent, and 1 + a would round them to the spacing of 1.

def _map(u, x):
    """The affine map u applied to the amplitudes x = (A, y0, y1)."""
    a, p, q, r, s, fa, f0, f1 = u
    amp, y0, y1 = x
    return (amp + (a * amp + fa), y0 + (p * y0 + q * y1 + f0),
            y1 + (r * y0 + s * y1 + f1))


def _compose(u, w):
    """The affine map u o w: w first, then u, whose increment is
    u's + w's + u's w's and whose column is _map(u, w's)."""
    a, p, q, r, s, fa, f0, f1 = u
    a2, p2, q2, r2, s2, fa2, g0, g1 = w
    return (a + a2 + a * a2, p + p2 + (p * p2 + q * r2),
            q + q2 + (p * q2 + q * s2), r + r2 + (r * p2 + s * r2),
            s + s2 + (r * q2 + s * s2), fa2 + (a * fa2 + fa),
            g0 + (p * g0 + q * g1 + f0), g1 + (r * g0 + s * g1 + f1))


def _ladder(step, exponents):
    """step**n for each n in exponents (None for 0), from one ladder of
    squares shared by all of them."""
    powers = [None] * len(exponents)
    square, bit, top = step, 1, max(exponents)
    while True:
        for i, n in enumerate(exponents):
            if n & bit:
                powers[i] = square if powers[i] is None else _compose(square, powers[i])
        bit <<= 1
        if bit > top:
            return powers
        square = _compose(square, square)


def _apply(u, x, out):
    """out[:, j] = _map(u, x[:, j]) bit for bit, _CHUNK columns at a time, in
    float64 parts: each product c z as CPython forms it, the sums in _map's
    order; numpy's complex product may fuse a multiply-add on some CPUs."""
    a, p, q, r, s, fa, f0, f1 = u
    for lo in range(0, x.shape[1], _CHUNK):
        cols = slice(lo, lo + _CHUNK)
        amp, y0, y1 = x[:, cols]
        for o, y, terms, f in ((out[0, cols], amp, [(a, amp)], fa),
                               (out[1, cols], y0, [(p, y0), (q, y1)], f0),
                               (out[2, cols], y1, [(r, y0), (s, y1)], f1)):
            re, im = (sum(t[1:], t[0]) for t in zip(*(
                (c.real * z.real - c.imag * z.imag, c.real * z.imag + c.imag * z.real)
                for c, z in terms)))
            o.real = y.real + (re + f.real)
            o.imag = y.imag + (im + f.imag)
