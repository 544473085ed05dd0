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
#: Bisection levels evaluated per array call by the resonance finder.
_BLOCK_DEPTH = 6
_BLOCK = 2 ** _BLOCK_DEPTH
#: Index stride of each bisection level in a block, coarsest first.
_LEVEL_STEPS = tuple(_BLOCK >> level for level in range(_BLOCK_DEPTH))


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
    One array call of E_lower gives the next ``_BLOCK_DEPTH`` levels of
    midpoints, each 0.5 * (lo + hi) of its parent bracket, so k is bitwise
    that of a one-point-per-call loop.  Raises ``NoSolutionError`` if the
    target is outside the branch range and ``AmbiguousSolutionError``
    (listing all roots) if the scan brackets more than one crossing.
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
    grid = np.empty(_BLOCK + 1)
    for i in brackets:
        lo, hi, f_lo, halvings = float(ks[i]), float(ks[i + 1]), vals[i], 0
        while halvings < 200 and lo != hi:   # lo = hi: tolerance met
            # lo, hi and the midpoints of the next levels between them,
            # one strided pass per level, coarsest first.
            grid[0], grid[-1] = lo, hi
            for step in _LEVEL_STEPS:
                grid[step // 2::step] = 0.5 * (grid[:-1:step] + grid[step::step])
            f_grid = offset(grid[1:-1])
            a, b = 0, _BLOCK
            while b - a > 1 and halvings < 200:
                m, halvings = (a + b) // 2, halvings + 1
                fm = f_grid[m - 1]
                if abs(fm) < _ENERGY_TOL:
                    a = b = m
                elif f_lo * fm <= 0.0:
                    b = m
                else:
                    a, f_lo = m, fm
            lo, hi = float(grid[a]), float(grid[b])
        roots.append(0.5 * (lo + hi))

    roots = sorted(set(roots))
    if len(roots) > 1:
        raise AmbiguousSolutionError(
            f"{len(roots)} wavenumbers reach {target} eV on the lower branch",
            candidates=roots)
    return roots[0]
