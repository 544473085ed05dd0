"""Two-mode mixing of the bright exciton with the guided photon.

At each wavenumber k the bright sector is the 2x2 Hamiltonian

    H(k) = [[E_s(k), f_k], [f_k, E_ph(k)]]

in the (exciton, photon) basis, with f_k the bright coupling.  Its
eigenmodes are the upper/lower branches

    E_pm(k) = (E_ph + E_s)/2 +- D_k,   D_k = sqrt(delta_k^2 + f_k^2),

with detuning delta_k = (E_ph(k) - E_s(k))/2 and real mixing amplitudes

    X_pm = +-sqrt((D -+ delta)/(2D)),  Y_pm = f / sqrt(2D(D -+ delta)),

normalized as X^2 + Y^2 = 1 per branch.  Amplitudes are kept real: all
downstream quantities use X^2, X^4 and |f|^2 only.  The formulas
broadcast over arrays of wavenumbers and, in :func:`hopfield`, angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSolutionError, DegenerateModeError, NoSolutionError
from .lattice import SuperLatticeConfig, _any, _unwrap, _where, symmetric_band
from .waveguide import WaveguideConfig, _bright_coupling, photon_dispersion

#: Points of the coarse bracket scan used by the resonance finder.
_SCAN_POINTS = 1000
#: Energy tolerance of the resonance bisection (eV).
_ENERGY_TOL = 1e-12


@dataclass(frozen=True)
class HopfieldMode:
    """Branch energies and mixing amplitudes at one wavenumber (or a grid)."""

    k: float
    E_upper: float
    E_lower: float
    X_upper: float
    Y_upper: float
    X_lower: float
    Y_lower: float
    delta: float
    D: float


def _branch_energies(k, wg: WaveguideConfig, cfg: SuperLatticeConfig,
                     theta=None):
    """(mean, delta, D, f) of H(k): the branches are E_pm = mean +- D."""
    e_ph = photon_dispersion(k, wg)
    e_s = symmetric_band(k, cfg, theta=theta)
    f = _bright_coupling(k, e_ph, wg, cfg)
    delta = (e_ph - e_s) / 2.0
    d = np.hypot(delta, f)
    if _any(d == 0.0):
        raise DegenerateModeError(
            "coupling and detuning both vanish; mixing amplitudes undefined")
    return (e_ph + e_s) / 2.0, delta, d, f


def hopfield(k, wg: WaveguideConfig, cfg: SuperLatticeConfig, *,
             theta=None) -> HopfieldMode:
    """Diagonalize the bright-exciton/photon pair at wavenumber k.  ``k`` and
    ``theta`` (rad, default ``cfg.theta``) may be arrays; fields broadcast."""
    mean, delta, d, f = _branch_energies(k, wg, cfg, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Cancellation-free small differences: D -+ delta = f^2 / (D +- delta).
        d_minus = _where(delta > 0.0, f ** 2 / (d + delta), d - delta)
        d_plus = _where(delta < 0.0, f ** 2 / (d - delta), d + delta)
        # d_minus/d_plus vanish only when f = 0; the branch is then pure photon.
        y_up = _where(d_minus > 0.0, f / np.sqrt(2.0 * d * d_minus), 1.0)
        y_lo = _where(d_plus > 0.0, f / np.sqrt(2.0 * d * d_plus), 1.0)
    return HopfieldMode(*map(_unwrap, (
        k, mean + d, mean - d, np.sqrt(d_minus / (2.0 * d)), y_up,
        -np.sqrt(d_plus / (2.0 * d)), y_lo, delta, d)))


def verify_diagonalization(mode: HopfieldMode, wg: WaveguideConfig,
                           cfg: SuperLatticeConfig) -> float:
    """Residual off-diagonal element after rotating H(k) by (X, Y).

    Rebuilds the 2x2 Hamiltonian from the configs and applies the mode's
    amplitudes; returns max |offdiag| of U H U^T.  Exact amplitudes give a
    residual below 1e-12 * E_A.
    """
    e_ph = photon_dispersion(mode.k, wg)
    e_s = symmetric_band(mode.k, cfg)
    f = _bright_coupling(mode.k, e_ph, wg, cfg)
    h = np.array([[e_s, f], [f, e_ph]])
    u = np.array([[mode.X_upper, mode.Y_upper],
                  [mode.X_lower, mode.Y_lower]])
    rotated = u @ h @ u.T
    return float(max(abs(rotated[0, 1]), abs(rotated[1, 0])))


def find_resonance_k(target: float, wg: WaveguideConfig,
                     cfg: SuperLatticeConfig) -> float:
    """Wavenumber k >= 0 where the lower-branch energy equals ``target``.

    Scans [0, pi/a] on a coarse grid for sign changes of E(k) - target,
    then bisects each bracket to |E(k) - target| < 1e-12 eV or 200 halvings.
    The bisection walks an aimed path: one array call of E_lower gives the
    midpoints, each 0.5 * (lo + hi) of its bracket, that it visits if
    E - target follows the chord of the current bracket, down to the width
    where the tolerance is due.  The walk reads them on their true signs and
    re-aims from the bracket at the first midpoint off the path.  Every
    point it reads is the loop's own midpoint, so k is bitwise that of a
    one-point-per-call loop.  Raises ``NoSolutionError`` if the target is
    outside the branch range and ``AmbiguousSolutionError`` (listing all
    roots) if the scan brackets more than one crossing.
    """
    def offset(k):
        mean, _, d, _ = _branch_energies(k, wg, cfg)
        return mean - d - target

    ks = np.linspace(0.0, math.pi / cfg.a, _SCAN_POINTS + 1)
    vals = offset(ks)

    hits = [float(ks[i]) for i in np.flatnonzero(vals == 0.0)]
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)

    if not hits and brackets.size == 0:
        lo, hi = float(vals.min() + target), float(vals.max() + target)
        raise NoSolutionError(
            f"target {target} eV outside lower-branch range [{lo}, {hi}] eV")

    roots = list(hits)
    for i in brackets:
        lo, hi, halvings = float(ks[i]), float(ks[i + 1]), 0
        f_lo, f_hi = float(vals[i]), float(vals[i + 1])
        # A midpoint on lo or hi is the root: the loop's bracket can then
        # only keep it or collapse onto it.
        while halvings < 200 and lo < 0.5 * (lo + hi) < hi:
            # The midpoints the loop visits if E - target is the chord from
            # (lo, f_lo) to (hi, f_hi), down to where the tolerance is due.
            slope = abs(f_hi - f_lo) / (hi - lo)
            a, b, path = lo, hi, []
            while len(path) < 200 - halvings:
                m = 0.5 * (a + b)
                path.append(m)
                if slope * (b - a) < 2.0 * _ENERGY_TOL:
                    break
                # the loop's rule on the chord at m, scaled by hi - lo > 0
                if f_lo * (f_lo * (hi - m) + f_hi * (m - lo)) > 0.0:
                    a = m
                else:
                    b = m
            # Walk them on their true signs up to the first one off the path.
            for m, fm in zip(path, offset(np.array(path)).tolist()):
                if m != 0.5 * (lo + hi):
                    break
                halvings += 1
                if abs(fm) < _ENERGY_TOL:
                    lo = hi = m
                    break
                if f_lo * fm <= 0.0:
                    hi, f_hi = m, fm
                else:
                    lo, f_lo = m, fm
        roots.append(0.5 * (lo + hi))

    roots = sorted(set(roots))
    if len(roots) > 1:
        raise AmbiguousSolutionError(
            f"{len(roots)} wavenumbers reach {target} eV on the lower branch",
            candidates=roots)
    return roots[0]
