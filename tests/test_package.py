import importlib

import bogolon

#: The package's exports and the submodule that defines each.
EXPORTS = {
    "bogoliubov": ["BogoliubovCoeffs", "bogolon_steady_state", "coefficients",
                   "reconstruct_dark_amplitudes"],
    "constants": ["CONSTANTS", "PhysicalConstants"],
    "kinematic": ["ExclusionReport", "InteractionParams",
                  "double_excitation_excluded", "effective_mass",
                  "interaction_params"],
    "lattice": ["MAGIC_ANGLE", "ExcitonLevels", "SuperLatticeConfig",
                "allowed_wavenumbers", "antisymmetric_energy", "dipole_coupling",
                "exciton_levels", "intercell_couplings", "symmetric_band"],
    "oracle": ["BandReport", "BlockingReport", "bloch_levels", "validate_band",
               "validate_blocking"],
    "polariton": ["HopfieldMode", "find_resonance_k", "hopfield",
                  "verify_diagonalization"],
    "presets": ["PAPER", "RunSetup", "operating_point", "reference_setup"],
    "pumpprobe": ["DriveConfig", "PumpSolution", "SteadyState", "Trajectory",
                  "polariton_damping", "pump_occupation", "spectrum",
                  "steady_state", "time_evolve"],
    "waveguide": ["WaveguideConfig", "coupling_bright", "coupling_dark",
                  "photon_dispersion"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_exports_are_their_modules_objects():
    assert len(NAMES) == 46
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"bogolon.{module}")
        for name in names:
            assert getattr(bogolon, name) is getattr(mod, name), name
    assert sorted(bogolon.__all__) == NAMES
    assert set(NAMES) <= set(dir(bogolon))
    assert bogolon.oracle is importlib.import_module("bogolon.oracle")
    assert not hasattr(bogolon, "no_such_name")
