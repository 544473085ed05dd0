import ast
import importlib
from pathlib import Path

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


#: The modules that evaluate formulas.  Each power there is a product, so
#: scalar and array calls round alike and no byte rests on libm's pow;
#: floatcsv's integer powers are exact and stay.
FORMULA_MODULES = ("lattice", "waveguide", "polariton", "kinematic", "pumpprobe",
                   "bogoliubov", "presets", "oracle", "cli")
_CONSTANT = (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator)


def _powers(tree):
    """Line numbers of each ``**`` with a non-constant operand, ``**=`` and
    call of ``pow``, ``math.pow`` or ``np.power`` in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not all(isinstance(n, _CONSTANT) for n in ast.walk(node)):
                yield node.lineno
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            yield node.lineno
        elif isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "pow"
                or getattr(node.func, "attr", None) in ("pow", "power", "float_power")):
            yield node.lineno


def test_formula_modules_take_no_variable_to_a_power():
    assert list(_powers(ast.parse("x ** 2; y **= 3; pow(x, 2); np.power(x, 3)"))) \
        == [1, 1, 1, 1]
    assert not list(_powers(ast.parse("2.0 ** 63; -(10 ** 2) ** 3; f(**kw)")))
    for module in FORMULA_MODULES:
        path = Path(importlib.import_module(f"bogolon.{module}").__file__)
        assert not list(_powers(ast.parse(path.read_text()))), module
