"""Hard-core interaction constants of bosonized excitations.

Treating the two-level excitations as bosons requires a contact repulsion
that blocks double excitation of one atom.  For a lower-branch mode of
effective mass energy mc^2 the on-site potential and its lattice-normalized
strength are

    U = 4 pi (hbar c)^2 / (mc^2 a^2),   Delta = U / N,

and the pump-branch vertices are weighted by the excitonic fraction X^2 of
the pumped mode, Delta_tilde = Delta * X^2.  The four retained scattering
vertices are properties of :class:`InteractionParams`, and they alone set
the mean-field frame of :mod:`pumpprobe` for a pump occupation N:

    pol_pol = Delta X^4 / 2          Kerr shift     E_pol~ = E_pol + 2 pol_pol N
    pol_dark_pair = Delta X^2 / 2    pair coupling  V = 2 pol_dark_pair N
    pol_dark_cross = 2 Delta X^2     dark shift     E_a~ = E_a + pol_dark_cross N
    dark_dark = Delta / 2

Every factor is a power of two, so away from underflow these are
Delta X^4 N, Delta_tilde N and 2 Delta_tilde N to the last bit.

``double_excitation_excluded`` implements the energy-conservation argument
that removes the bound state of two excited atoms in one cell from the
scattering kinematics: with an on-cell shift V_dyn the pair state sits at
E_e = 2 E_A + 2 V_dyn, away from every two-quantum channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import DomainError
from .lattice import SuperLatticeConfig, _finite, exciton_levels
from .polariton import _lower_branch
from .waveguide import WaveguideConfig


@dataclass(frozen=True)
class InteractionParams:
    """Contact-interaction constants and the vertices they give (all in eV)."""

    m_c2: float
    U: float
    Delta: float
    X2: float

    @property
    def Delta_tilde(self) -> float:     # Delta X^2, pump-weighted constant
        return self.Delta * self.X2

    @property
    def pol_pol(self) -> float:         # Delta X^4 / 2, pump self-interaction
        return self.Delta * (self.X2 * self.X2) / 2.0

    @property
    def pol_dark_pair(self) -> float:   # Delta X^2 / 2, two pump quanta <-> dark pair
        return self.Delta * self.X2 / 2.0

    @property
    def pol_dark_cross(self) -> float:  # 2 Delta X^2, density-density cross term
        return 2.0 * self.Delta * self.X2

    @property
    def dark_dark(self) -> float:       # Delta / 2
        return self.Delta / 2.0


def effective_mass(wg: WaveguideConfig) -> float:
    """Band-bottom mass energy mc^2 = hbar c q0 sqrt(eps) of the guided mode."""
    return CONSTANTS.hbar_c * wg.q0 * math.sqrt(wg.epsilon)


def interaction_params(wg: WaveguideConfig, cfg: SuperLatticeConfig,
                       X2: float) -> InteractionParams:
    """Contact constants for a pump mode of excitonic fraction X2."""
    if not 0.0 <= X2 <= 1.0:
        raise DomainError("X2 must lie in [0, 1]")
    m_c2 = effective_mass(wg)
    U = 4.0 * math.pi * (CONSTANTS.hbar_c * CONSTANTS.hbar_c) / (m_c2 * (cfg.a * cfg.a))
    return InteractionParams(m_c2=m_c2, U=U, Delta=U / cfg.N, X2=X2)


@dataclass(frozen=True)
class ExclusionReport:
    """Gap of the on-cell doubly-excited state to each two-quantum channel."""

    E_e: float
    V_dyn: float
    tolerance: float
    channels: dict
    excluded: bool

    def __bool__(self) -> bool:
        return self.excluded


def double_excitation_excluded(cfg: SuperLatticeConfig, wg: WaveguideConfig,
                               V_dyn: float, tolerance: float,
                               k_pump: float) -> ExclusionReport:
    """Check that E_e = 2 E_A + 2 V_dyn is off-resonant with every channel.

    Channels tested: 2 E_s, 2 E_a, 2 E_A, and twice the lower-branch energy
    at the pump wavenumber.  Truthy iff all gaps exceed ``tolerance``.
    A non-finite V_dyn, or one whose E_e overflows, or a tolerance that is
    not finite and positive, raises ``DomainError``.
    """
    if not math.isfinite(V_dyn):
        raise DomainError(f"V_dyn must be finite, got {V_dyn!r}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise DomainError(f"tolerance must be finite and positive, got {tolerance!r}")
    lv = exciton_levels(cfg)
    e_pump = _lower_branch(k_pump, wg, cfg)
    e_e = _finite(2.0 * cfg.E_A + 2.0 * V_dyn,
                  f"E_e = 2 E_A + 2 V_dyn overflows at V_dyn = {V_dyn!r}")
    channels = {
        "2E_s": 2.0 * lv.E_s,
        "2E_a": 2.0 * lv.E_a,
        "2E_A": 2.0 * cfg.E_A,
        "2E_lower(k_pump)": 2.0 * e_pump,
    }
    gaps = {name: abs(e_e - e) for name, e in channels.items()}
    return ExclusionReport(
        E_e=e_e, V_dyn=V_dyn, tolerance=tolerance,
        channels={name: (channels[name], gaps[name]) for name in channels},
        excluded=all(g > tolerance for g in gaps.values()))
