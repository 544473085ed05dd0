"""Pair transformation of the driven dark excitons.

The pump-induced anomalous coupling V between dark excitons at k + p and
k - p is removed by the hyperbolic rotation

    C_p  = u B_{k+p} + v B_{k-p}^dag,   u^2 - v^2 = 1,

choosing (V/2)(u^2 + v^2) = (E_a~ - E) u v so the pair-creation terms
cancel.  In the stable regime E_a~ - E > |V| the solution is

    u^2 = ((E_a~ - E) / E0bar + 1) / 2,
    v^2 = ((E_a~ - E) / E0bar - 1) / 2,
    E0bar = sqrt((E_a~ - E)^2 - V^2),

and the correlated pair modes are dispersion-less with energy E0bar per
quantum.  Operators are represented throughout by their complex mean-field
amplitudes; the commutator algebra survives only as the u, v constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InstabilityError, PoleError, SignRegimeError

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """Hyperbolic rotation coefficients and pair-mode energies (eV)."""

    u: float
    v: float
    E0_bar: float
    E_a_tilde: float
    V_mf: float
    E_drive: float


def coefficients(E_a_tilde: float, V_mf: float,
                 E_drive: float) -> BogoliubovCoeffs:
    """Rotation coefficients in the stable regime E_a~ - E > |V|.

    Raises ``SignRegimeError`` when the drive lies above the shifted dark
    level (real coefficients undefined there) and ``InstabilityError`` when
    |V| closes the pair gap.  The defining cancellation relation is checked
    to 1e-12 relative as an internal consistency guard.  A non-finite
    argument raises ``DomainError`` before the regime checks.
    """
    for name, x in (("E_a_tilde", E_a_tilde), ("V_mf", V_mf), ("E_drive", E_drive)):
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")
    if V_mf < 0:
        raise DomainError("V_mf must be >= 0")
    gap = E_a_tilde - E_drive
    if gap < 0:
        raise SignRegimeError(
            f"drive {E_drive} eV above shifted dark level {E_a_tilde} eV")
    if gap ** 2 <= V_mf ** 2:
        raise InstabilityError(
            f"anomalous coupling {V_mf} eV closes the pair gap "
            f"(detuning {gap} eV)")
    e0_bar = math.sqrt(gap ** 2 - V_mf ** 2)
    u = math.sqrt(0.5 * (gap / e0_bar + 1.0))
    v = math.sqrt(0.5 * (gap / e0_bar - 1.0))

    lhs = 0.5 * V_mf * (u ** 2 + v ** 2)
    rhs = gap * u * v
    if abs(lhs - rhs) > _IDENTITY_TOL * max(abs(lhs), abs(rhs), e0_bar):
        raise ArithmeticError("pair-cancellation relation violated "
                              f"({lhs} != {rhs})")
    return BogoliubovCoeffs(u=u, v=v, E0_bar=e0_bar, E_a_tilde=E_a_tilde,
                            V_mf=V_mf, E_drive=E_drive)


def bogolon_steady_state(coeffs: BogoliubovCoeffs,
                         F_probe: complex) -> tuple[complex, complex]:
    """Stationary pair-mode amplitudes under a single probe at k + q:
    C+ = -u F / E0bar, C- = +v F / E0bar."""
    if coeffs.E0_bar == 0.0:
        raise PoleError("pair-mode energy vanishes; no stationary response")
    return (-coeffs.u * F_probe / coeffs.E0_bar,
            coeffs.v * F_probe / coeffs.E0_bar)


def reconstruct_dark_amplitudes(coeffs: BogoliubovCoeffs, C_plus: complex,
                                C_minus: complex) -> tuple[complex, complex]:
    """Invert the pair rotation: B+ = u C+ - v conj(C-), and k <-> -k."""
    b_plus = coeffs.u * C_plus - coeffs.v * complex(C_minus).conjugate()
    b_minus = coeffs.u * C_minus - coeffs.v * complex(C_plus).conjugate()
    return b_plus, b_minus

