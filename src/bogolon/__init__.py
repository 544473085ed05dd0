"""Dark and bright excitons in a two-atom-per-cell 1D lattice coupled to a
waveguide: exciton bands, branch mixing, contact-interaction pump-probe
spectra, correlated dark-pair analysis, and an exact-diagonalization
cross-check on small lattices."""

from .bogoliubov import (BogoliubovCoeffs, bogolon_steady_state, coefficients,
                         reconstruct_dark_amplitudes)
from .constants import CONSTANTS, PhysicalConstants
from .kinematic import (ExclusionReport, InteractionParams,
                        double_excitation_excluded, effective_mass,
                        interaction_params)
from .lattice import (MAGIC_ANGLE, ExcitonLevels, SuperLatticeConfig,
                      allowed_wavenumbers, antisymmetric_energy,
                      dipole_coupling, exciton_levels, intercell_couplings,
                      symmetric_band)
from .oracle import (BandReport, BlockingReport, build_sector, validate_band,
                     validate_blocking)
from .polariton import (HopfieldMode, find_resonance_k, hopfield,
                        verify_diagonalization)
from .presets import PAPER, RunSetup, operating_point, reference_setup
from .pumpprobe import (DriveConfig, PumpSolution, SteadyState, Trajectory,
                        polariton_damping, pump_occupation, spectrum,
                        steady_state, time_evolve)
from .waveguide import (WaveguideConfig, coupling_bright, coupling_dark,
                        photon_dispersion)

__version__ = "0.1.0"
