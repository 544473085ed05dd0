"""Hard-core interaction constants of bosonized excitations.

Treating the two-level excitations as bosons requires a contact repulsion
that blocks double excitation of one atom.  For a lower-branch mode of
effective mass energy mc^2 the on-site potential and its lattice-normalized
strength are

    U = 4 pi (hbar c)^2 / (mc^2 a^2),   Delta = U / N,

and the pump-branch vertices are weighted by the excitonic fraction X^2 of
the pumped mode, Delta_tilde = Delta * X^2.  The four retained scattering
vertices (pump-pump, pump-pair conversion, density cross term, dark-dark)
are fixed multiples of these constants.

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
from .lattice import SuperLatticeConfig, exciton_levels
from .polariton import hopfield
from .waveguide import WaveguideConfig


@dataclass(frozen=True)
class InteractionParams:
    """Contact-interaction constants (all energies in eV)."""

    m_c2: float
    U: float
    Delta: float
    Delta_tilde: float
    X2: float


@dataclass(frozen=True)
class VertexSet:
    """Coefficients of the four retained interaction terms (eV)."""

    pol_pol: float          # Delta X^4 / 2, pump-mode self-interaction
    pol_dark_pair: float    # Delta X^2 / 2, two pump quanta <-> dark pair
    pol_dark_cross: float   # 2 Delta X^2, density-density cross term
    dark_dark: float        # Delta / 2


def effective_mass(wg: WaveguideConfig) -> float:
    """Band-bottom mass energy mc^2 = hbar c q0 sqrt(eps) of the guided mode."""
    return CONSTANTS.hbar_c * wg.q0 * math.sqrt(wg.epsilon)


def interaction_params(wg: WaveguideConfig, cfg: SuperLatticeConfig,
                       X2: float) -> InteractionParams:
    """Contact constants for a pump mode of excitonic fraction X2."""
    if not 0.0 <= X2 <= 1.0:
        raise DomainError("X2 must lie in [0, 1]")
    m_c2 = effective_mass(wg)
    U = 4.0 * math.pi * CONSTANTS.hbar_c ** 2 / (m_c2 * cfg.a ** 2)
    delta = U / cfg.N
    return InteractionParams(m_c2=m_c2, U=U, Delta=delta,
                             Delta_tilde=delta * X2, X2=X2)


def vertex_set(ip: InteractionParams) -> VertexSet:
    return VertexSet(
        pol_pol=ip.Delta * ip.X2 ** 2 / 2.0,
        pol_dark_pair=ip.Delta * ip.X2 / 2.0,
        pol_dark_cross=2.0 * ip.Delta * ip.X2,
        dark_dark=ip.Delta / 2.0)


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
    """
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    lv = exciton_levels(cfg)
    e_pump = hopfield(k_pump, wg, cfg).E_lower
    e_e = 2.0 * cfg.E_A + 2.0 * V_dyn
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
