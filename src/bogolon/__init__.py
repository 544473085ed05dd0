"""Dark and bright excitons in a two-atom-per-cell 1D lattice coupled to a
waveguide: exciton bands, branch mixing, contact-interaction pump-probe
spectra, correlated dark-pair analysis, and an exact-diagonalization
cross-check on small lattices.  Each exported name loads its module on first
use, so a command imports only the modules it runs."""

import importlib

#: Each export's submodule.  An export is read from it on every access and
#: never stored here, so restoring a function patched there restores it here.
_MODULE = {name: module for module, names in {
    "bogoliubov": "BogoliubovCoeffs bogolon_steady_state coefficients "
                  "reconstruct_dark_amplitudes",
    "constants": "CONSTANTS PhysicalConstants",
    "kinematic": "ExclusionReport InteractionParams double_excitation_excluded "
                 "effective_mass interaction_params",
    "lattice": "MAGIC_ANGLE ExcitonLevels SuperLatticeConfig allowed_wavenumbers "
               "antisymmetric_energy dipole_coupling exciton_levels "
               "intercell_couplings symmetric_band",
    "oracle": "BandReport BlockingReport bloch_levels validate_band validate_blocking",
    "polariton": "HopfieldMode find_resonance_k hopfield verify_diagonalization",
    "presets": "PAPER RunSetup operating_point reference_setup",
    "pumpprobe": "DriveConfig PumpSolution SteadyState Trajectory polariton_damping "
                 "pump_occupation spectrum steady_state time_evolve",
    "waveguide": "WaveguideConfig coupling_bright coupling_dark photon_dispersion",
}.items() for name in names.split()}

__all__ = sorted(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE and name not in _MODULE.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE.get(name, name)}", __name__)
    return getattr(module, name) if name in _MODULE else module


def __dir__():
    return [*globals(), *__all__]
