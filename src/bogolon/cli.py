"""Command-line interface: figure datasets and oracle reports as CSV.

Usage: ``bogolon <command> [options]``, the options before or after the
command; ``bogolon --help`` lists the six commands, one per ``cmd_*``
handler and its docstring.

Configuration is JSON (angles in degrees, lengths in Angstrom, energies in
eV); ``--preset paper`` starts from the bundled reference parameter set
``presets.PAPER``, which an explicit ``--config`` overlays key by key before
the derived settings are resolved.  Output is CSV with ``#`` metadata lines
carrying the fully resolved parameters; ``--plot-script`` writes a
companion gnuplot script.
Exit codes: 0 success, 2 configuration error, 3 numerical-domain error.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .errors import ModelError
from .lattice import (SuperLatticeConfig, antisymmetric_energy,
                      check_cell_count, exciton_levels, symmetric_band)
from .polariton import find_resonance_k, hopfield
from .presets import PAPER, operating_point, reference_setup
from .pumpprobe import (DriveConfig, pump_occupation, spectrum, steady_state,
                        time_evolve)
from .waveguide import WaveguideConfig, photon_dispersion, resonant_q0

SWEEP_VARIABLES = ("theta", "k", "E_drive")
#: The section, class and key of the config value each sweep variable sets.
_SWEPT = {"theta": ("lattice", SuperLatticeConfig, "theta_deg"),
          "k": ("drive", DriveConfig, "k_pump"),
          "E_drive": ("drive", DriveConfig, "E_drive")}
_MAX_SWEEP = 10_000_000
#: Grid points evaluated per block of column expressions; bounds the
#: temporaries of a sweep at any count up to _MAX_SWEEP.
_CHUNK = 65_536
#: Config fields with another JSON key and unit: (key, to JSON, from JSON).
_RENAMED = {"theta": ("theta_deg", math.degrees, math.radians)}


class ConfigError(ValueError):
    """Malformed configuration input."""


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    min: float
    max: float
    count: int

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep variable must be one of {SWEEP_VARIABLES}")
        if not 2 <= self.count <= _MAX_SWEEP:
            raise ConfigError(f"sweep count must lie in [2, {_MAX_SWEEP}]")
        if not self.max > self.min:
            raise ConfigError("sweep max must exceed min")

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class EvolveSpec:
    """RK4 trace settings; None derives each from the drive (time_evolve)."""

    dt: Optional[float] = None
    t_end: Optional[float] = None
    sample_every: Optional[int] = None


@dataclass(frozen=True)
class OracleSpec:
    """Ring size and dynamic interaction of the exact-diagonalization reports."""

    n_cells: int = 5
    V_dyn: float = 1e-3


@dataclass(frozen=True)
class RunConfig:
    lattice: SuperLatticeConfig
    waveguide: WaveguideConfig
    drive: DriveConfig
    sweep: Optional[SweepSpec]
    evolve: EvolveSpec
    oracle: OracleSpec


_TYPES = {"float": float, "int": int, "complex": complex}


def _parse_value(type_name: str, value):
    """A JSON value as a config field's declared type (text: annotations are
    deferred): finite float or complex ([re, im] too), integral int, str,
    or Optional of one; never a boolean, and null only for an Optional."""
    if type_name.startswith("Optional["):
        return None if value is None else _parse_value(type_name[9:-1], value)
    if value is None:
        raise ValueError("must not be null")
    if isinstance(value, bool) or (isinstance(value, list) and any(
            isinstance(x, bool) for x in value)):
        raise ValueError(f"must not be a boolean, got {value!r}")
    if type_name == "str":
        return str(value)
    if type_name == "complex" and isinstance(value, list) and len(value) == 2:
        value = complex(*value)
    parsed = _TYPES[type_name](value)
    if not cmath.isfinite(parsed):
        raise ValueError(f"must be finite, got {value!r}")
    if isinstance(value, (int, float)) and parsed != value:
        raise ValueError(f"must be an integer, got {value!r}")
    return parsed


def _checked(where: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, its bad input raised as a ConfigError."""
    try:
        return parse(*args, **kwargs)
    except (KeyError, ValueError, TypeError, OverflowError) as err:
        raise ConfigError(f"bad {where}: {err}") from err


def _settings(config) -> dict:
    """A dataclass as its JSON section: fields in declaration order,
    renamed as in _RENAMED."""
    def entry(name):
        key, to_json, _ = _RENAMED.get(name, (name, None, None))
        value = getattr(config, name)
        return key, value if to_json is None else to_json(value)
    return dict(entry(f.name) for f in fields(config))


@functools.cache
def _plan(cls, where: str) -> tuple:
    """How :func:`_parse_section` reads ``cls`` from section ``where``: the
    section's error label, then per field in declaration order its JSON
    key, name, declared type, from-JSON conversion and error label."""
    plan = []
    for f in fields(cls):
        key, _, from_json = _RENAMED.get(f.name, (f.name, None, None))
        plan.append((key, f.name, f.type, from_json, f"{where}.{key}"))
    return f"{where} section", tuple(plan)


def _parse_section(cls, where: str, values: dict):
    """The config dataclass ``cls`` from its JSON section, the inverse of
    :func:`_settings`: each key is a field, parsed by its declared type; an
    absent key takes the field default, and any other key is an error."""
    label, plan = _plan(cls, where)
    kwargs = {}
    for key, name, type_name, from_json, key_label in plan:
        if key in values:
            value = _checked(key_label, _parse_value, type_name, values[key])
            kwargs[name] = value if from_json is None else from_json(value)
    if len(kwargs) < len(values):
        known = [key for key, *_ in plan]
        unknown = sorted(values.keys() - set(known))
        raise ConfigError(f"unknown {where} keys {unknown}; expected {known}")
    return _checked(label, cls, **kwargs)


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def build_run_config(data: dict, preset: bool = False) -> RunConfig:
    """Resolve a configuration dictionary, optionally on top of
    :data:`presets.PAPER`, which each given section overlays key by key.

    With or without the preset, each derived setting the merged sections
    leave absent or null follows the resolved lattice and guide: q0 puts
    the photon band bottom on E_A, E_drive is the dark level and k_pump the
    wavenumber where the lower branch crosses it; an absent or null F_pump
    sustains a set n_pump, else there is no pump.
    """
    unknown = data.keys() - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    lat, wgd, drv = ({**(PAPER[name] if preset else {}), **_section(data, name)}
                     for name in ("lattice", "waveguide", "drive"))

    cfg = _parse_section(SuperLatticeConfig, "lattice", lat)
    oracle = _parse_section(OracleSpec, "oracle", _section(data, "oracle"))
    _checked("oracle.n_cells", check_cell_count, oracle.n_cells)
    if wgd.get("q0") is None and "epsilon" in wgd:
        wgd["q0"] = _checked("waveguide.epsilon", lambda: resonant_q0(
            _parse_value("float", wgd["epsilon"]), cfg.E_A))
    wg = _parse_section(WaveguideConfig, "waveguide", wgd)

    e_a = antisymmetric_energy(cfg)
    if drv.get("F_pump", 0) is None:
        del drv["F_pump"]
    if drv.get("E_drive") is None:
        drv["E_drive"] = e_a
    if drv.get("k_pump") is None:
        # the preset solved this crossing already for its own lattice and guide
        base = reference_setup() if preset else None
        own = base and (cfg, wg) == (base.cfg, base.wg)
        drv["k_pump"] = base.drive.k_pump if own else find_resonance_k(e_a, wg, cfg)
    drive = _parse_section(DriveConfig, "drive", drv)
    if drive.n_pump is not None and "F_pump" not in drv:
        pump = pump_occupation(drive, *operating_point(cfg, wg, drive.k_pump))
        drive = replace(drive, F_pump=pump.f_pump_magnitude)

    sweep = data.get("sweep")
    if sweep is not None:
        sweep = _parse_section(SweepSpec, "sweep", _section(data, "sweep"))
        section, cls, key = _SWEPT[sweep.variable]
        for end in ("min", "max"):      # checked as that value in the config
            _checked(f"sweep.{end}", _parse_section, cls, section, {
                **(lat if section == "lattice" else drv), key: getattr(sweep, end)})
    return RunConfig(
        lattice=cfg, waveguide=wg, drive=drive, sweep=sweep,
        evolve=_parse_section(EvolveSpec, "evolve", _section(data, "evolve")),
        oracle=oracle)


# ---------------------------------------------------------------------------
# dataset construction

def _fmt(value) -> str:
    if isinstance(value, complex):
        return repr(value) if value.imag else repr(value.real)
    if isinstance(value, (bool, int, str)):
        return str(value)
    return repr(float(value))


@dataclass
class Dataset:
    command: str
    meta: list
    columns: list
    rows: np.ndarray

    def chunks(self):
        """The CSV file as UTF-8 chunks: the ``#`` and column lines, then a
        float64 table's :func:`csv_blocks`; an object table is one chunk."""
        lines = [f"# bogolon {self.command} dataset"]
        lines += [f"# {key} = {_fmt(value)}" for key, value in self.meta]
        lines.append(",".join(self.columns))
        if self.rows.dtype != np.float64:
            lines += map(",".join, zip(*(map(_fmt, c) for c in self.rows.T.tolist())))
        yield ("\n".join(lines) + "\n").encode()
        if self.rows.dtype == np.float64:
            # csv_blocks writes each cell as repr, _fmt's text for a float
            from .floatcsv import csv_blocks
            yield from csv_blocks(self.rows)

    def render(self) -> str:
        return b"".join(self.chunks()).decode()


def _meta(section: str, config) -> list:
    """A dataclass's ``#`` lines: ``section.key`` per :func:`_settings`
    entry, None written as ``none``."""
    return [(f"{section}.{key}", "none" if value is None else value)
            for key, value in _settings(config).items()]


def _common_meta(run: RunConfig) -> list:
    return [entry for section, config in (
        ("constants", CONSTANTS), ("lattice", run.lattice),
        ("waveguide", run.waveguide), ("drive", run.drive),
        ("derived", run.lattice.levels)) for entry in _meta(section, config)]


def _sweep(run: RunConfig, variable: Optional[str] = None,
           default: Optional[SweepSpec] = None) -> Optional[SweepSpec]:
    """The configured sweep of ``variable``, else ``default``; a command
    without a sweep variable takes no sweep."""
    if run.sweep is None:
        return default
    got = run.sweep.variable
    if got != variable:
        raise ConfigError(f"this command takes no sweep, got {got!r}"
                          if variable is None else
                          f"this command sweeps {variable!r}, got {got!r}")
    return run.sweep


def _rows(grid: np.ndarray, columns) -> np.ndarray:
    """The float64 rows of ``columns(grid)``, a tuple of column arrays
    (scalars broadcast), computed on _CHUNK grid points at a time."""
    for lo in range(0, grid.size, _CHUNK):
        block = np.broadcast_arrays(*columns(grid[lo:lo + _CHUNK]))
        if lo == 0:
            rows = np.empty((grid.size, len(block)))
        np.stack(block, axis=1, out=rows[lo:lo + _CHUNK])
    return rows


def cmd_levels(run: RunConfig) -> Dataset:
    """Branch and bare level energies (offsets from E_A) vs angle at k = 0."""
    cfg, wg = run.lattice, run.waveguide
    sweep = _sweep(run, "theta", SweepSpec("theta", 0.0, 90.0, 1001))

    def columns(theta_deg):
        theta = np.radians(theta_deg)
        mode = hopfield(0.0, wg, cfg, theta=theta)
        lv = exciton_levels(cfg, theta=theta)
        return (theta_deg, mode.E_upper - cfg.E_A, mode.E_lower - cfg.E_A,
                lv.E_s - cfg.E_A, lv.E_a - cfg.E_A)

    meta = _common_meta(run) + [("note", "energies as offsets from E_A at k=0")]
    return Dataset("levels", meta,
                   ["theta_deg", "E_plus", "E_minus", "E_s", "E_a"],
                   _rows(sweep.grid(), columns))


def _default_k_sweep(wg: WaveguideConfig) -> SweepSpec:
    # Cover the anticrossing region generously.
    return SweepSpec("k", 0.0, 8.0 * wg.q0 / 100.0, 1001)


def cmd_dispersion(run: RunConfig) -> Dataset:
    """Branch, photon and bare level energies (offsets from E_A) vs k."""
    cfg, wg = run.lattice, run.waveguide
    sweep = _sweep(run, "k", _default_k_sweep(wg))
    e_a = exciton_levels(cfg).E_a

    def columns(k):
        mode = hopfield(k, wg, cfg)
        return (k, mode.E_upper - cfg.E_A, mode.E_lower - cfg.E_A,
                photon_dispersion(k, wg) - cfg.E_A,
                symmetric_band(k, cfg) - cfg.E_A, e_a - cfg.E_A)

    meta = _common_meta(run) + [
        ("derived.k_star", run.drive.k_pump),
        ("note", "energies as offsets from E_A"),
    ]
    return Dataset("dispersion", meta,
                   ["k", "E_plus", "E_minus", "E_ph", "E_s", "E_a"],
                   _rows(sweep.grid(), columns))


def cmd_fractions(run: RunConfig) -> Dataset:
    """Excitation and photon fractions of both branches vs k."""
    cfg, wg = run.lattice, run.waveguide
    sweep = _sweep(run, "k", _default_k_sweep(wg))

    def columns(k):
        mode = hopfield(k, wg, cfg)
        return (k, mode.X_upper ** 2, mode.Y_upper ** 2,
                mode.X_lower ** 2, mode.Y_lower ** 2)

    meta = _common_meta(run) + [("derived.k_star", run.drive.k_pump)]
    return Dataset("fractions", meta,
                   ["k", "X2_upper", "Y2_upper", "X2_lower", "Y2_lower"],
                   _rows(sweep.grid(), columns))


def cmd_spectrum(run: RunConfig) -> Dataset:
    """Probe-normalized dark intensities vs drive energy offset E - E_a."""
    cfg = run.lattice
    mode, ip = operating_point(cfg, run.waveguide, run.drive.k_pump)
    e_a = antisymmetric_energy(cfg)
    n_for_span = run.drive.n_pump if run.drive.n_pump is not None else 1.0
    span = 4.0 * ip.Delta_tilde * max(n_for_span, 1e-3)
    sweep = _sweep(run, "E_drive", SweepSpec("E_drive", e_a, e_a + span, 10001))

    def columns(e):
        spec = spectrum(run.drive, mode, ip, cfg, e)
        return spec.E_offset, spec.I_minus_scaled, spec.I_plus_scaled

    meta = _common_meta(run) + [
        ("derived.Delta", ip.Delta), ("derived.Delta_tilde", ip.Delta_tilde),
        ("derived.X2", ip.X2),
    ]
    return Dataset("spectrum", meta,
                   ["E_offset", "I_minus_scaled", "I_plus_scaled"],
                   _rows(sweep.grid(), columns))


def cmd_evolve(run: RunConfig) -> Dataset:
    """Rotating-frame time traces of |A|^2 and |B+-|^2."""
    cfg, drive, spec = run.lattice, run.drive, run.evolve
    _sweep(run)
    mode, ip = operating_point(cfg, run.waveguide, drive.k_pump)

    ss = steady_state(drive, mode, ip, cfg)
    traj = time_evolve(drive, mode, ip, cfg, spec.t_end, spec.dt,
                       spec.sample_every)
    rows = np.column_stack([traj.times] + [
        np.abs(x) ** 2 for x in (traj.A, traj.B_plus, traj.B_minus)])
    # a requested sampling differs from the one used only where capped
    capped = spec.sample_every not in (None, traj.sample_every)
    used = EvolveSpec(dt=traj.dt, t_end=traj.t_end, sample_every=traj.sample_every)
    meta = _common_meta(run) + _meta("evolve", used) + [
        ("evolve.capped", capped), ("steady.I_plus", ss.I_plus),
        ("steady.I_minus", ss.I_minus), ("steady.N_pump", ss.N_pump),
    ]
    return Dataset("evolve", meta, ["t", "A2", "B_plus2", "B_minus2"], rows)


def cmd_oracle(run: RunConfig) -> Dataset:
    """Exact-diagonalization reports: band check and blocking check."""
    from .oracle import validate_band, validate_blocking
    cfg, spec = run.lattice, run.oracle
    _sweep(run)
    # the pair check meets its 512 MB estimate first, before a band solve
    blocking = validate_blocking(cfg, spec.n_cells, spec.V_dyn)
    band = validate_band(cfg, spec.n_cells)

    rows = []
    for section, report in (("band", band), ("blocking", blocking)):
        for key, value in _settings(report).items():
            if isinstance(value, np.ndarray):
                rows += [(section, f"{key}[{i}]", x) for i, x in enumerate(value)]
            else:
                rows.append((section, key, value))
    meta = _common_meta(run) + _meta("oracle", spec)
    return Dataset("oracle", meta, ["section", "key", "value"],
                   np.array(rows, dtype=object))


_HANDLERS = {handler.__name__.removeprefix("cmd_"): handler
             for handler in (cmd_levels, cmd_dispersion, cmd_fractions,
                             cmd_spectrum, cmd_evolve, cmd_oracle)}


# ---------------------------------------------------------------------------
# entry point

def _plot_script(out_path: str, dataset: Dataset) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set xlabel '{dataset.columns[0]}'",
    ]
    plots = ", ".join(
        f"'{out_path}' using 1:{i + 2} with lines"
        for i in range(len(dataset.columns) - 1))
    lines.append(f"plot {plots}")
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` reuses it."""
    import argparse
    commands = "".join(f"\n  {name:<12}{handler.__doc__}"
                       for name, handler in _HANDLERS.items())
    parser = argparse.ArgumentParser(
        prog="bogolon", usage="%(prog)s <command> [options]",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Figure datasets for the lattice-waveguide exciton model.",
        epilog="commands:" + commands)
    parser.add_argument("command", choices=_HANDLERS, metavar="command",
                        help="the dataset to write, one of the commands below")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--preset", choices=["paper"],
                        help="start from the bundled reference parameter set")
    parser.add_argument("--out", help="output CSV path (default: <command>.csv)")
    parser.add_argument("--sweep", help="var:min:max:count override")
    parser.add_argument("--plot-script", action="store_true",
                        help="also write a companion gnuplot script")
    return parser


def main(argv=None) -> int:
    import json
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as err:
                raise ConfigError(f"cannot read config {args.config}: {err}")
            if not isinstance(data, dict):
                raise ConfigError("top-level config must be a JSON object")
        if not args.config and not args.preset:
            raise ConfigError("provide --config and/or --preset paper")
        if args.sweep:
            parts = args.sweep.split(":")
            if len(parts) != 4:
                raise ConfigError("--sweep expects var:min:max:count")
            data = {**data, "sweep": dict(zip((f.name for f in fields(SweepSpec)),
                                              parts))}
        run = build_run_config(data, preset=args.preset == "paper")
        out_path = args.out or f"{args.command}.csv"
        dataset = _HANDLERS[args.command](run)
    except ModelError as err:
        # resolving derived quantities (e.g. the pump wavenumber) can fail
        # numerically even for a well-formed configuration
        print(f"numerical-domain error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        with open(out_path, "wb") as fh:
            fh.writelines(dataset.chunks())
        if args.plot_script:
            with open(out_path + ".gp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_plot_script(out_path, dataset))
    except OSError as err:
        print(f"cannot write {out_path}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
