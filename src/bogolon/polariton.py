"""Two-mode mixing of the bright exciton with the guided photon.

At each wavenumber k the bright sector is the 2x2 Hamiltonian

    H(k) = [[E_s(k), f_k], [f_k, E_ph(k)]]

in the (exciton, photon) basis, with f_k the bright coupling.  Its
eigenmodes, the upper/lower branches, are the bare levels pushed apart by
rep = f^2 / (D + |delta|) = D - |delta|, D = sqrt(delta^2 + f^2):

    E_+ = max(E_s, E_ph) + rep,   E_- = min(E_s, E_ph) - rep,

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
from .lattice import (SuperLatticeConfig, _any, _band, _repulsion, _unwrap,
                      _where, symmetric_band)
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


def _block(k, e_s, wg: WaveguideConfig, cfg: SuperLatticeConfig):
    """(E_lower, E_ph, delta, D, rep, f) of H(k), given E_s = symmetric_band."""
    e_ph = photon_dispersion(k, wg)
    f = _bright_coupling(k, e_ph, wg, cfg)
    delta = (e_ph - e_s) / 2.0
    d, rep = _repulsion(delta, f)
    if _any(d == 0.0):
        raise DegenerateModeError(
            "coupling and detuning both vanish; mixing amplitudes undefined")
    return np.minimum(e_s, e_ph) - rep, e_ph, delta, d, rep, f


def _lower_branch(k, wg: WaveguideConfig, cfg: SuperLatticeConfig, *, in_zone=False):
    """``hopfield(k, wg, cfg).E_lower`` alone, bit for bit; ``in_zone=True``
    skips the zone check for k known to lie in [0, pi/a]."""
    e_s = (_band if in_zone else symmetric_band)(k, cfg)
    return _unwrap(_block(k, e_s, wg, cfg)[0])


def hopfield(k, wg: WaveguideConfig, cfg: SuperLatticeConfig, *,
             theta=None) -> HopfieldMode:
    """Diagonalize the bright-exciton/photon pair at wavenumber k.  ``k`` and
    ``theta`` (rad, default ``cfg.theta``) may be arrays; fields broadcast."""
    e_s = symmetric_band(k, cfg, theta=theta)
    lower, e_ph, delta, d, rep, f = _block(k, e_s, wg, cfg)
    far = d + abs(delta)    # D -+ delta: rep on the nearer bare level's side
    d_minus, d_plus = _where(delta > 0.0, rep, far), _where(delta < 0.0, rep, far)
    with np.errstate(divide="ignore", invalid="ignore"):
        # d_minus/d_plus vanish only when f = 0; the branch is then pure photon.
        y_up = _where(d_minus > 0.0, f / np.sqrt(2.0 * d * d_minus), 1.0)
        y_lo = _where(d_plus > 0.0, f / np.sqrt(2.0 * d * d_plus), 1.0)
    return HopfieldMode(*map(_unwrap, (
        k, np.maximum(e_s, e_ph) + rep, lower, np.sqrt(d_minus / (2.0 * d)), y_up,
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
    The bisection reads, in one array call, the midpoints it visits if
    E - target follows the chord of its bracket, walks them on their true
    signs and re-aims at the first one off that path, so k is bitwise that
    of a one-point-per-call loop.  Raises ``NoSolutionError`` if the target
    is outside the branch range and ``AmbiguousSolutionError`` (listing all
    roots) if the scan brackets more than one crossing.
    """
    ks = np.linspace(0.0, math.pi / cfg.a, _SCAN_POINTS + 1)
    e = _lower_branch(ks, wg, cfg, in_zone=True)
    vals = e - target

    hits = [float(ks[i]) for i in np.flatnonzero(vals == 0.0)]
    brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)

    if not hits and brackets.size == 0:
        raise NoSolutionError(f"target {target} eV outside lower-branch range "
                              f"[{float(e.min())}, {float(e.max())}] eV")

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
            e_path = _lower_branch(np.array(path), wg, cfg, in_zone=True)
            for m, fm in zip(path, (e_path - target).tolist()):
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
