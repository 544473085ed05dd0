import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bogolon import (PAPER, antisymmetric_energy, cli, photon_dispersion,
                     pump_occupation, pumpprobe, reference_setup, time_evolve)
from bogolon.cli import (Dataset, EvolveSpec, _fmt, _settings,
                         build_run_config, main)
from bogolon.errors import ModelError

ROOT = Path(__file__).resolve().parents[1]


def _read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            if " = " in line:
                key, _, value = line[2:].partition(" = ")
                meta[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


def _render_reference(dataset):
    """The per-cell render: every cell through _fmt, row by row."""
    lines = [f"# bogolon {dataset.command} dataset"]
    lines += [f"# {key} = {_fmt(value)}" for key, value in dataset.meta]
    lines.append(",".join(dataset.columns))
    lines += [",".join(_fmt(x) for x in row) for row in dataset.rows.tolist()]
    return "\n".join(lines) + "\n"


def _first_mismatch(dataset):
    """(line number, rendered, reference) of the first line where
    ``render`` departs from the reference, else None; a diff of two whole
    CSVs is too slow to report."""
    got = dataset.render().split("\n")
    want = _render_reference(dataset).split("\n")
    pairs = zip(got + [None] * len(want), want + [None] * len(got))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


@pytest.fixture(scope="module")
def preset_datasets():
    run = build_run_config({}, preset=True)
    return {name: handler(run) for name, handler in cli._HANDLERS.items()}


def test_render_matches_per_cell_reference_at_preset(preset_datasets):
    assert len(preset_datasets) == 6
    for name, dataset in preset_datasets.items():
        assert _first_mismatch(dataset) is None, name


@pytest.mark.parametrize("name", ["levels", "dispersion", "fractions",
                                  "spectrum", "evolve"])
def test_figure_rows_are_float64(preset_datasets, name):
    # any other dtype (a complex or object column) renders every cell
    # through _fmt instead of repr
    rows = preset_datasets[name].rows
    assert rows.dtype == np.float64 and rows.ndim == 2


def _around(x):
    return [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]


# repr switches to exponent notation below 1e-4 and from 1e16
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-5,
                *_around(1e-4), *_around(1e16), *_around(-1e-4),
                *_around(-1e16)]


@settings(max_examples=200, deadline=None)
@given(rows=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                 max_side=12),
    elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())))
def test_render_matches_per_cell_reference_on_float64(rows):
    columns = [f"c{i}" for i in range(rows.shape[1])]
    dataset = Dataset("levels", [("x", 1.5), ("n", 3)], columns, rows)
    assert _first_mismatch(dataset) is None


def test_render_matches_per_cell_reference_on_object_table():
    rows = np.array([
        ("band", "dimension", 5), ("band", "eigenvalues[0]", np.float64(1.5)),
        ("band", "max_deviation", np.float64(9.8e-11)),
        ("band", "neg_zero", np.float64(-0.0)),
        ("band", "nan", np.float64(math.nan)), ("blocking", "separated", True),
        ("blocking", "no_double_occupation", False),
        ("blocking", "cluster_size", 6), ("blocking", "big", np.float64(1e16)),
    ], dtype=object)
    dataset = Dataset("oracle", [], ["section", "key", "value"], rows)
    assert _first_mismatch(dataset) is None
    text = dataset.render()
    assert "blocking,separated,True\n" in text
    assert "band,dimension,5\n" in text and "band,nan,nan\n" in text


def test_levels_with_preset_and_magic_angle_row(tmp_path):
    out = tmp_path / "levels.csv"
    rc = main(["levels", "--preset", "paper", "--out", str(out),
               "--sweep", "theta:54.7356:80:236"])
    assert rc == 0
    meta, header, rows = _read_csv(out)
    assert header == ["theta_deg", "E_plus", "E_minus", "E_s", "E_a"]
    assert rows.shape == (236, 5)
    assert meta["lattice.theta_deg"] == "80.0"
    # first grid point is the magic angle: levels collapse
    assert abs(rows[0, 3] - rows[0, 4]) < 1e-9
    # at 80 degrees the dark level lies below the bright one
    assert rows[-1, 4] < rows[-1, 3]
    assert rows[-1, 4] == pytest.approx(-8.185648576659407e-05, rel=1e-9)


def test_levels_bare_angle_columns(tmp_path):
    out = tmp_path / "levels.csv"
    assert main(["levels", "--preset", "paper", "--out", str(out),
                 "--sweep", "theta:0:1:2"]) == 0
    _, _, rows = _read_csv(out)
    # theta = 0: E_s - E_A = -1.8e-4, dark level mirrored above
    assert rows[0, 3] == pytest.approx(-1.7999556250e-4, rel=1e-9)
    assert rows[0, 4] == pytest.approx(+1.7999556250e-4, rel=1e-9)


def test_dispersion_dataset_crosses_dark_level(tmp_path):
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--preset", "paper", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["k", "E_plus", "E_minus", "E_ph", "E_s", "E_a"]
    k_star = float(meta["derived.k_star"])
    assert k_star == pytest.approx(1.4e-5, rel=0.10)
    # zero photon detuning at k = 0
    assert rows[0, 3] == pytest.approx(0.0, abs=1e-12)
    # the lower branch crosses the flat dark level at finite k
    gap = rows[:, 2] - rows[:, 5]
    assert gap[0] < 0.0 and gap[-1] > 0.0
    crossings = np.sum(np.sign(gap[:-1]) != np.sign(gap[1:]))
    assert crossings == 1


def test_fractions_dataset(tmp_path):
    out = tmp_path / "frac.csv"
    assert main(["fractions", "--preset", "paper", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["k", "X2_upper", "Y2_upper", "X2_lower", "Y2_lower"]
    assert np.allclose(rows[:, 1] + rows[:, 2], 1.0, atol=1e-12)
    assert np.allclose(rows[:, 3] + rows[:, 4], 1.0, atol=1e-12)
    k_star = float(meta["derived.k_star"])
    nearest = np.argmin(np.abs(rows[:, 0] - k_star))
    assert rows[nearest, 3] == pytest.approx(0.56, abs=0.02)
    # fractions swap across the anticrossing
    assert rows[0, 3] < 0.5 < rows[-1, 3]
    assert np.all(np.diff(rows[:, 3]) > 0)


def test_spectrum_dataset_two_peaks_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["spectrum", "--preset", "paper", "--out", str(out1)]) == 0
    assert main(["spectrum", "--preset", "paper", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = _read_csv(out1)
    assert header == ["E_offset", "I_minus_scaled", "I_plus_scaled"]
    i_minus = rows[:, 1]
    peaks = [i for i in range(1, len(rows) - 1)
             if i_minus[i] > i_minus[i - 1] and i_minus[i] > i_minus[i + 1]]
    assert len(peaks) == 2
    dt = float(meta["derived.Delta_tilde"])
    assert rows[peaks[0], 0] == pytest.approx(dt, rel=0.05)
    assert rows[peaks[1], 0] == pytest.approx(3 * dt, rel=0.05)
    assert all(rows[p, 0] > 0 for p in peaks)


def test_evolve_matches_steady_intensities(tmp_path):
    out = tmp_path / "ev.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "drive": {"hGamma_a": 1e-6, "hGamma_s": 4e-6, "hGamma_ph": 4e-6,
                  "F_pump": 0.0},
        "evolve": {"t_end": 2.0e7, "sample_every": 1000},
    }))
    assert main(["evolve", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["t", "A2", "B_plus2", "B_minus2"]
    assert rows[0, 1] == rows[0, 2] == rows[0, 3] == 0.0
    assert rows[-1, 2] == pytest.approx(float(meta["steady.I_plus"]), rel=1e-6)
    assert rows[-1, 3] == pytest.approx(float(meta["steady.I_minus"]), rel=1e-6)


def test_evolve_preset_reaches_steady_state(tmp_path):
    # the default t_end = 25 / hGamma_a runs uncapped (9e10 steps, ~2000
    # samples) and ends on the steady values
    out = tmp_path / "ev.csv"
    assert main(["evolve", "--preset", "paper", "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert meta["evolve.capped"] == "False"
    assert rows[-1, 0] == float(meta["evolve.t_end"])
    assert rows[-1, 1] == pytest.approx(float(meta["steady.N_pump"]), rel=1e-9)
    assert rows[-1, 2] == pytest.approx(float(meta["steady.I_plus"]), rel=1e-9)


def test_evolve_default_step_resolves_damping(tmp_path):
    # the polariton damping hG_pol = 5e-4 eV is the fastest rate here: the
    # default step must resolve it, as time_evolve requires
    out, config = tmp_path / "ev.csv", tmp_path / "cfg.json"
    config.write_text(json.dumps({"drive": {"hGamma_s": 1e-3, "hGamma_ph": 1e-3}}))
    assert main(["evolve", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert float(meta["evolve.dt"]) == pytest.approx(0.05 / 5e-4, rel=1e-12)
    assert rows[-1, 1] == pytest.approx(float(meta["steady.N_pump"]), rel=1e-9)
    assert rows[-1, 2] == pytest.approx(float(meta["steady.I_plus"]), rel=1e-9)


def test_preset_pump_amplitude_sustains_n_pump_after_overlay(tmp_path):
    # a lattice overlay moves the pump mode; the preset's F_pump is derived
    # again so that the trace ends on the prescribed occupation
    out, config = tmp_path / "ev.csv", tmp_path / "cfg.json"
    config.write_text(json.dumps({"lattice": {"theta_deg": 70}}))
    assert main(["evolve", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert float(meta["drive.F_pump"]) != reference_setup().drive.F_pump
    assert abs(rows[-1, 1] - float(meta["steady.N_pump"])) <= 1e-9
    # a pinned amplitude is kept
    pinned = {"lattice": {"theta_deg": 70}, "drive": {"F_pump": 5e-5}}
    assert build_run_config(pinned, preset=True).drive.F_pump == 5e-5


def test_pump_amplitude_sustains_n_pump_without_preset(tmp_path):
    # the preset's lattice, guide and damping given without --preset: F_pump
    # follows the same rule as at the preset, and the trace ends on N
    setup = reference_setup()
    damping = {key: getattr(setup.drive, key)
               for key in ("hGamma_ph", "hGamma_s", "hGamma_a")}
    out, config = tmp_path / "ev.csv", tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "lattice": _settings(setup.cfg), "waveguide": _settings(setup.wg),
        "drive": {"n_pump": 1.0, **damping}}))
    assert main(["evolve", "--config", str(config), "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    sustaining = pump_occupation(replace(setup.drive, F_pump=0.0),
                                 setup.mode, setup.ip).f_pump_magnitude
    assert sustaining == 5.049320551224296e-05
    assert float(meta["drive.F_pump"]) == sustaining
    assert abs(rows[-1, 1] - float(meta["steady.N_pump"])) <= 1e-9


def test_evolve_capped_without_explicit_budget(tmp_path, monkeypatch):
    # the cap raises sample_every, not t_end: sample_every 5000 asks for
    # 1.8e7 samples of the 9e10 preset steps; a cap of 1000 keeps the test
    # small, the rule is the same at the shipped 1e6
    monkeypatch.setattr(pumpprobe, "_MAX_SAMPLES", 1000)
    out = tmp_path / "ev.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"evolve": {"sample_every": 5000}}))
    assert main(["evolve", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert meta["evolve.capped"] == "True"
    t_end, dt = float(meta["evolve.t_end"]), float(meta["evolve.dt"])
    steps = math.ceil(t_end / dt)
    every = -(-steps // 1000)
    assert steps > 5000 * 1000 and int(meta["evolve.sample_every"]) == every
    assert len(rows) <= 1001
    assert rows[-1, 0] == t_end
    # a request that just meets the cap is kept as given
    config.write_text(json.dumps({"evolve": {"sample_every": every}}))
    assert main(["evolve", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert meta["evolve.capped"] == "False"
    assert int(meta["evolve.sample_every"]) == every


def test_time_evolve_defaults_are_the_evolve_command_settings(tmp_path):
    # the evolve command leaves dt, t_end and sample_every to time_evolve
    out = tmp_path / "ev.csv"
    assert main(["evolve", "--preset", "paper", "--out", str(out)]) == 0
    meta, _, _ = _read_csv(out)
    s = reference_setup()
    traj = time_evolve(s.drive, s.mode, s.ip, s.cfg)
    assert (repr(traj.dt), repr(traj.t_end), str(traj.sample_every)) == (
        meta["evolve.dt"], meta["evolve.t_end"], meta["evolve.sample_every"])


def test_evolve_explicit_budget_overflow_is_numerical_error(tmp_path):
    # no step cap: only step counts that overflow the int64 sample times
    # (2**63 and beyond) exit 3
    config, out = tmp_path / "cfg.json", tmp_path / "x.csv"

    def run(evolve):
        config.write_text(json.dumps({"evolve": evolve}))
        return main(["evolve", "--preset", "paper", "--config", str(config),
                     "--out", str(out)])

    assert run({"t_end": 1e9, "dt": 1.0}) == 0
    assert run({"t_end": 2.0 ** 63 - 1024, "dt": 1.0}) == 0
    _, _, rows = _read_csv(out)
    assert rows[-1, 0] == 2.0 ** 63 - 1024 and np.all(np.isfinite(rows))
    for t_end in (2.0 ** 63, 1e20, 1e308):
        assert run({"t_end": t_end, "dt": 1.0}) == 3


def test_oracle_report(tmp_path):
    out = tmp_path / "oracle.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"oracle": {"n_cells": 3, "V_dyn": 1e-3}}))
    assert main(["oracle", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    text = out.read_text()
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or line == "section,key,value":
            continue
        section, key, value = line.split(",")
        values[(section, key)] = value
    assert values[("blocking", "expected_dimension")] == "15"
    assert values[("blocking", "separated")] == "True"
    assert float(values[("blocking", "separation")]) == pytest.approx(2e-3, rel=0.1)
    assert float(values[("band", "deviation_over_J")]) < 2e-3


def test_oracle_ring_reach(tmp_path, capsys, monkeypatch):
    config, out = tmp_path / "cfg.json", tmp_path / "oracle.csv"

    def run(n_cells):
        config.write_text(json.dumps({"oracle": {"n_cells": n_cells}}))
        return main(["oracle", "--preset", "paper", "--config", str(config),
                     "--out", str(out)])

    assert run(21) == 0
    assert out.read_text().count("\nband,eigenvalues[") == 42
    assert run(4) == 3
    # a two-excitation sector over the cap fails before any band solve
    monkeypatch.setattr(cli, "validate_band", None)
    capsys.readouterr()
    for n_cells in (73, 4999):
        assert run(n_cells) == 3
    err = capsys.readouterr().err
    assert "sector dimension 10585 exceeds 10000" in err
    assert "sector dimension 49975003 exceeds 10000" in err


def test_plot_script_flag(tmp_path):
    out = tmp_path / "frac.csv"
    assert main(["fractions", "--preset", "paper", "--out", str(out),
                 "--sweep", "k:0:2e-5:11", "--plot-script"]) == 0
    script = (tmp_path / "frac.csv.gp").read_text()
    assert "plot" in script and "using 1:2" in script


def test_exit_code_config_errors(tmp_path):
    assert main(["levels", "--out", str(tmp_path / "x.csv")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["levels", "--config", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"lattice": {"R": 2000.0}}))
    assert main(["levels", "--preset", "paper", "--config", str(invalid)]) == 2
    assert main(["levels", "--preset", "paper", "--sweep", "nope:0:1:5"]) == 2
    assert main(["spectrum", "--preset", "paper", "--sweep", "theta:0:90:5",
                 "--out", str(tmp_path / "y.csv")]) == 2
    assert main(["levels", "--preset", "paper", "--sweep", "theta:0:90",
                 "--out", str(tmp_path / "y.csv")]) == 2
    for command in ("evolve", "oracle"):     # commands without a sweep
        assert main([command, "--preset", "paper", "--sweep", "k:0:1:10",
                     "--out", str(tmp_path / "y.csv")]) == 2, command
    # an --out that cannot be written
    assert main(["levels", "--preset", "paper",
                 "--out", str(tmp_path / "missing" / "y.csv")]) == 2
    # misspelt or removed keys, non-integral counts and ill-typed values
    sweep = {"variable": "theta", "min": 0.0, "max": [90.0], "count": 5}
    theta = {"variable": "theta", "min": 0.0, "max": 90.0}
    for command, settings in [
            ("levels", {"lattice": {"theta": 10}}),
            ("levels", {"lattise": {}}),
            ("levels", {"lattice": {"N": 101.5}}),
            ("levels", {"waveguide": {"L": 1e8}}),
            ("levels", {"output_path": "x.csv"}),
            ("oracle", {"oracle": {"n_cells": None}}),
            ("evolve", {"evolve": {"sample_every": [1]}}),
            # JSON booleans are not numbers, also inside a [re, im] pair
            ("levels", {"lattice": {"E_A": True}}),
            ("levels", {"drive": {"F_pump": [True, False]}}),
            ("oracle", {"oracle": {"n_cells": True}}),
            ("levels", {"sweep": sweep}),
            # sweep counts outside [2, 10^7], and max <= min
            ("levels", {"sweep": {**theta, "count": 1}}),
            ("levels", {"sweep": {**theta, "count": 10 ** 7 + 1}}),
            ("levels", {"sweep": {**theta, "max": 0.0, "count": 5}}),
            # a section, or the whole config, that is not an object
            ("levels", {"lattice": 5}),
            ("levels", [1, 2]),
            # an in-cell coupling J0 or J0^2 that overflows
            ("levels", {"lattice": {"R": 1e-90}}),
            ("levels", {"lattice": {"mu": 1e200}}),
            ("levels", {"lattice": {"a": 1e-200, "R": 1e-201}})]:
        invalid.write_text(json.dumps(settings))
        assert main([command, "--preset", "paper", "--config", str(invalid),
                     "--out", str(tmp_path / "z.csv")]) == 2, settings


def test_complex_value_as_re_im_pair(tmp_path):
    config, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    config.write_text(json.dumps({"drive": {"F_probe_plus": [1e-9, 2e-9]}}))
    assert main(["levels", "--preset", "paper", "--config", str(config),
                 "--out", str(out)]) == 0
    assert "# drive.F_probe_plus = (1e-09+2e-09j)\n" in out.read_text()


def test_module_entry_point_help_and_missing_command(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = [sys.executable, "-m", "bogolon.cli"]
    proc = subprocess.run(run + ["--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for command in cli._HANDLERS:
        assert f"\n  {command} " in proc.stdout, command
    proc = subprocess.run(run, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert "command" in proc.stderr


def test_exit_code_numerical_domain(tmp_path):
    config = tmp_path / "cfg.json"
    cases = [
        # dark level far above the lower branch: no resonance wavenumber
        ("spectrum", {"drive": {"E_drive": 1.6, "k_pump": None},
                      "lattice": {"theta_deg": 10.0}}),
        # a zero step is rejected before the step count divides by it
        ("evolve", {"evolve": {"dt": 0}}),
        ("evolve", {"evolve": {"sample_every": 0}}),
    ]
    for command, settings in cases:
        config.write_text(json.dumps(settings))
        rc = main([command, "--preset", "paper", "--config", str(config),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3, (command, settings)


def test_self_consistent_spectrum_exit_codes(tmp_path, capsys):
    setup = reference_setup()
    e_a = antisymmetric_energy(setup.cfg)
    span = 4.0 * setup.ip.Delta_tilde
    config, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    # F = 1e-5 eV at E - E_pol = Delta~ lies inside the bistable window
    # (about 3.8e-9 to 4.7e-5 eV) of the preset pump mode
    config.write_text(json.dumps({"drive": {
        "n_pump": None, "F_pump": 1e-5, "E_drive": e_a + span / 4.0}}))
    rc = main(["spectrum", "--preset", "paper", "--config", str(config),
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical-domain error" in err and "bistable drive" in err
    # below the dark level (E <= E_pol) the occupation has one root
    rc = main(["spectrum", "--preset", "paper", "--config", str(config),
               "--sweep", f"E_drive:{e_a - span!r}:{e_a - 1e-12!r}:201",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert rows.shape == (201, 3)
    assert np.all(rows[:, 0] < 0.0) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("section,key", [("lattice", "mu"),
                                         ("drive", "E_drive"),
                                         ("drive", "F_pump")])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_exit_code_non_finite_inputs(tmp_path, section, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({section: {key: value}}))
    rc = main(["levels", "--preset", "paper", "--config", str(config),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_reader_inverts_settings():
    # the preset's resolved sections, written out and read back without
    # the preset, give the same configs
    preset = build_run_config({}, preset=True)
    data = {s: _settings(getattr(preset, s))
            for s in ("lattice", "waveguide", "drive")}
    run = build_run_config(data)
    assert (run.lattice, run.waveguide, run.drive) == (
        preset.lattice, preset.waveguide, preset.drive)
    # null in evolve takes the default
    assert build_run_config({"evolve": {"dt": None}}, preset=True).evolve \
        == EvolveSpec()


def _resolved(data, preset=False):
    """The (lattice, waveguide, drive) ``data`` resolves to, or the type and
    message of the numerical-domain error it raises."""
    try:
        run = build_run_config(data, preset=preset)
    except ModelError as err:
        return type(err), str(err)
    return run.lattice, run.waveguide, run.drive


@st.composite
def _overlays(draw):
    """A config overlay on PAPER: each of theta_deg, R, epsilon and n_pump
    (null too) given or absent, and F_pump and k_pump given or absent."""
    def section(**keys):
        return draw(st.fixed_dictionaries({}, optional=keys))
    return {"lattice": section(theta_deg=st.floats(60.0, 85.0),
                               R=st.floats(80.0, 150.0)),
            "waveguide": section(epsilon=st.floats(1.5, 3.0)),
            "drive": section(n_pump=st.none() | st.floats(0.0, 2.0),
                             F_pump=st.floats(0.0, 1e-4),
                             k_pump=st.floats(1e-5, 3e-5))}


@settings(max_examples=60, deadline=None)
@given(overlay=_overlays())
def test_preset_is_paper_overlaid_key_by_key(overlay):
    # --preset resolves PAPER merged with the overlay, section by section,
    # exactly as that merged config resolves without --preset
    merged = {name: {**PAPER[name], **overlay[name]} for name in PAPER}
    assert _resolved(overlay, preset=True) == _resolved(merged)


@pytest.mark.parametrize("override", [{"waveguide": {"epsilon": 3.0}},
                                      {"lattice": {"E_A": 1.6}}])
def test_q0_follows_resonance_unless_pinned(override):
    run = build_run_config(override, preset=True)
    assert photon_dispersion(0.0, run.waveguide) == pytest.approx(
        run.lattice.E_A, rel=1e-15)
    # the preset's own q0, pinned, is kept off resonance
    q0 = reference_setup().wg.q0
    pinned = {**override, "waveguide": {**override.get("waveguide", {}),
                                        "q0": q0}}
    run = build_run_config(pinned, preset=True)
    assert run.waveguide.q0 == q0
    assert photon_dispersion(0.0, run.waveguide) != pytest.approx(
        run.lattice.E_A, rel=1e-6)


def test_config_without_preset(tmp_path):
    out = tmp_path / "lv.csv"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "lattice": {"E_A": 1.5, "a": 1000.0, "R": 100.0, "mu": 2.5,
                    "theta_deg": 80.0, "N": 101},
        "waveguide": {"epsilon": 2.0, "u_b": 0.25,
                      "S_bar": math.pi * 1e6, "q0": None},
        "sweep": {"variable": "theta", "min": 0.0, "max": 90.0, "count": 11},
    }))
    assert main(["levels", "--config", str(config), "--out", str(out)]) == 0
    meta, _, rows = _read_csv(out)
    assert meta["lattice.N"] == "101"
    assert rows.shape == (11, 5)
