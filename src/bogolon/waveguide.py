"""1D waveguide photons and their coupling to the two in-cell exciton states.

The guided photon has the massive dispersion

    E_ph(q) = (hbar c / sqrt(eps)) * sqrt(q0^2 + q^2),

with effective dielectric constant eps and confinement wavenumber q0.  An
excitation shared by the two atoms of a cell couples to the field through
the in-cell interference factors cos(kR/2) (symmetric state, bright) and
sin(kR/2) (antisymmetric state, dark), both on top of the prefactor

    sqrt(E_ph(k) / (eps0 Sbar a)) * u_b * mu,

where Sbar is the effective photon cross-section and u_b the mode amplitude
at the lattice position.  Only magnitudes are exposed; every downstream
observable depends on |f|^2.  Wavenumbers may be given as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError
from .lattice import SuperLatticeConfig, _check_finite, _unwrap


@dataclass(frozen=True)
class WaveguideConfig:
    """Photon mode parameters.

    epsilon: effective dielectric constant (>= 1); q0: confinement
    wavenumber (1/Angstrom); u_b: dimensionless mode amplitude at the
    lattice, 0 < u_b <= 1; S_bar: effective cross-section (Angstrom^2).
    """

    epsilon: float
    q0: float
    u_b: float
    S_bar: float

    def __post_init__(self):
        _check_finite(self)
        if self.epsilon < 1.0:
            raise DomainError("epsilon must be >= 1")
        if self.q0 <= 0:
            raise DomainError("q0 must be positive")
        if not 0.0 < self.u_b <= 1.0:
            raise DomainError("u_b must lie in (0, 1]")
        if self.S_bar <= 0:
            raise DomainError("S_bar must be positive")


def resonant_q0(epsilon: float, E_A: float) -> float:
    """The q0 that puts the photon band bottom at E_A:
    q0 = sqrt(eps) * E_A / (hbar c)."""
    return math.sqrt(epsilon) * E_A / CONSTANTS.hbar_c


def photon_dispersion(q, wg: WaveguideConfig):
    """Guided-photon energy at wavenumber q (any real q), in eV."""
    return _unwrap(CONSTANTS.hbar_c / math.sqrt(wg.epsilon) * np.hypot(wg.q0, q))


def _coupling_prefactor(e_ph, wg: WaveguideConfig, cfg: SuperLatticeConfig):
    # sqrt(E_ph/(eps0 Sbar a)) * u_b * mu with 1/eps0 = 4 pi e^2/(4 pi eps0)
    return np.sqrt(e_ph * CONSTANTS.inv_eps0 / (wg.S_bar * cfg.a)) * wg.u_b * cfg.mu


def _bright_coupling(k, e_ph, wg: WaveguideConfig, cfg: SuperLatticeConfig):
    """coupling_bright at k, given e_ph = photon_dispersion(k, wg)."""
    return _unwrap(_coupling_prefactor(e_ph, wg, cfg)
                   * np.abs(np.cos(k * cfg.R / 2.0)))


def coupling_bright(k, wg: WaveguideConfig, cfg: SuperLatticeConfig):
    """|f_k| for the bright (symmetric) exciton: prefactor * |cos(kR/2)|."""
    return _bright_coupling(k, photon_dispersion(k, wg), wg, cfg)


def coupling_dark(k, wg: WaveguideConfig, cfg: SuperLatticeConfig):
    """|f_k| for the dark (antisymmetric) exciton: prefactor * |sin(kR/2)|.

    Vanishes at k = 0; at the operating wavenumbers k R << 1 it is smaller
    than the bright coupling by tan(kR/2) ~ kR/2.
    """
    return _unwrap(_coupling_prefactor(photon_dispersion(k, wg), wg, cfg)
                   * np.abs(np.sin(k * cfg.R / 2.0)))
