"""Physical constants in the eV / Angstrom unit system.

All energies are eV, lengths Angstrom, wavenumbers 1/Angstrom, dipole
moments e*Angstrom, angles radians.  Rates enter as energies hbar*Gamma.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants shared by every module.

    hbar_c
        hbar * c in eV*Angstrom.
    coulomb_mu2_prefactor
        e^2/(4 pi eps0) in eV*Angstrom, so that a dipole-dipole energy
        mu^2/(4 pi eps0 r^3) is ``coulomb_mu2_prefactor * mu**2 / r**3``
        with mu in e*Angstrom and r in Angstrom.
    """

    hbar_c: float = 1973.269804
    coulomb_mu2_prefactor: float = 14.399645

    @property
    def inv_eps0(self) -> float:
        """1/eps0 expressed as 4*pi*e^2/(4 pi eps0), in eV*Angstrom per e^2."""
        return 4.0 * math.pi * self.coulomb_mu2_prefactor


#: The single instance read by all modules.
CONSTANTS = PhysicalConstants()
