"""Dark and bright excitons in a two-atom-per-cell 1D lattice coupled to a
waveguide: exciton bands, branch mixing, contact-interaction pump-probe
spectra, correlated dark-pair analysis, and an exact-diagonalization
cross-check on small lattices."""

from .bogoliubov import (BogoliubovCoeffs, bogolon_steady_state, coefficients,
                         reconstruct_dark_amplitudes)
from .constants import CONSTANTS, PhysicalConstants
from .kinematic import (ExclusionReport, InteractionParams, VertexSet,
                        double_excitation_excluded, effective_mass,
                        interaction_params, vertex_set)
from .lattice import (MAGIC_ANGLE, ExcitonLevels, SuperLatticeConfig,
                      allowed_wavenumbers, antisymmetric_energy,
                      dipole_coupling, exciton_levels, fold_wavenumber,
                      intercell_couplings, symmetric_band)
from .oracle import (BandReport, BlockingReport, build_sector, validate_band,
                     validate_blocking)
from .polariton import (HopfieldMode, find_resonance_k, hopfield,
                        verify_diagonalization)
from .presets import (RunSetup, operating_point, reference_lattice,
                      reference_setup, reference_waveguide, sustaining_drive)
from .pumpprobe import (DriveConfig, PumpSolution, SpectrumPoint, SteadyState,
                        Trajectory, polariton_damping, pump_occupation,
                        rate_scale, spectrum, spectrum_columns, steady_state,
                        time_evolve)
from .waveguide import (WaveguideConfig, coupling_bright, coupling_dark,
                        photon_dispersion)

__version__ = "0.1.0"
