"""Command-line interface: figure datasets and oracle reports as CSV.

Subcommands
    levels       branch and level energies vs dipole angle at k = 0
    dispersion   branch, photon and level energies vs k
    fractions    excitation/photon fractions of both branches vs k
    spectrum     probe-normalized dark intensities vs drive energy
    evolve       rotating-frame time traces |A|^2, |B+-|^2
    oracle       exact-diagonalization band and blocking reports

Configuration is JSON (angles in degrees, lengths in Angstrom, energies in
eV); ``--preset paper`` loads the bundled reference parameter set, which an
explicit ``--config`` overlays key by key.  Output is CSV with ``#``
metadata lines carrying the fully resolved parameters; ``--plot-script``
writes a companion gnuplot script.  Exit codes: 0 success, 2 configuration
error, 3 numerical-domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, ModelError, StabilityError
from .kinematic import interaction_params
from .lattice import (SuperLatticeConfig, antisymmetric_energy,
                      exciton_levels, symmetric_band)
from .oracle import validate_band, validate_blocking
from .polariton import find_resonance_k, hopfield
from .presets import reference_setup
from .pumpprobe import DriveConfig, spectrum_columns, steady_state, time_evolve
from .waveguide import WaveguideConfig, photon_dispersion

SWEEP_VARIABLES = ("theta", "k", "E_drive")
_MAX_SWEEP = 10_000_000
#: Most evolve samples (rows after t = 0) one command writes.
_MAX_EVOLVE_SAMPLES = 1_000_000
#: Grid points evaluated per block of column expressions; bounds the
#: temporaries of a sweep at any count up to _MAX_SWEEP.
_CHUNK = 65_536


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
class RunConfig:
    lattice: SuperLatticeConfig
    waveguide: WaveguideConfig
    drive: DriveConfig
    sweep: Optional[SweepSpec]
    evolve: dict
    oracle: dict
    output_path: Optional[str]


def _as_complex(value, where: str) -> complex:
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else [value]
    if all(isinstance(x, (int, float)) and math.isfinite(x) for x in parts):
        return complex(*parts)
    raise ConfigError(f"{where} must be a finite number or [re, im] pair")


def _settings(config) -> dict:
    """A config dataclass as its JSON section: fields in declaration order,
    the angle theta given as theta_deg."""
    def entry(name):
        value = getattr(config, name)
        return ("theta_deg", math.degrees(value)) if name == "theta" else (name, value)
    return dict(entry(f.name) for f in fields(config))


def _section(data: dict, name: str) -> dict:
    value = data.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return value


def build_run_config(data: dict, preset: bool = False) -> RunConfig:
    """Resolve a configuration dictionary, optionally on top of the preset."""
    base = reference_setup() if preset else None

    lat_in = _section(data, "lattice")
    if base is None and not lat_in:
        raise ConfigError("lattice section required without a preset")
    lat = {**(_settings(base.cfg) if base else {}), **lat_in}
    try:
        cfg = SuperLatticeConfig(
            E_A=float(lat["E_A"]), a=float(lat["a"]), R=float(lat["R"]),
            mu=float(lat["mu"]), theta=math.radians(float(lat["theta_deg"])),
            N=int(lat["N"]))
    except KeyError as err:
        raise ConfigError(f"lattice section missing key {err}") from err
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad lattice section: {err}") from err

    wg_in = _section(data, "waveguide")
    wgd = {**(_settings(base.wg) if base else {}), **wg_in}
    try:
        length = float(wgd["L"]) if wgd.get("L") is not None else cfg.N * cfg.a
        if wgd.get("q0") is not None:
            wg = WaveguideConfig(epsilon=float(wgd["epsilon"]), q0=float(wgd["q0"]),
                                 u_b=float(wgd["u_b"]), S_bar=float(wgd["S_bar"]),
                                 L=length)
        else:
            wg = WaveguideConfig.from_resonance(
                epsilon=float(wgd["epsilon"]), E_A=cfg.E_A, u_b=float(wgd["u_b"]),
                S_bar=float(wgd["S_bar"]), L=length)
    except KeyError as err:
        raise ConfigError(f"waveguide section missing key {err}") from err
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad waveguide section: {err}") from err

    drv_in = _section(data, "drive")
    drv_defaults = (
        _settings(base.drive) if base else
        dict(E_drive=None, F_pump=0.0, F_probe_plus=1e-9, F_probe_minus=0.0,
             hGamma_ph=0.0, hGamma_s=0.0, hGamma_a=0.0, k_pump=None,
             q=1e-6, n_pump=None))
    drv = {**drv_defaults, **drv_in}
    # Preset-derived operating points go stale when the lattice or guide is
    # overridden; recompute anything the user did not pin explicitly.
    geometry_changed = bool(lat_in) or bool(wg_in)
    e_a = antisymmetric_energy(cfg)
    if drv.get("E_drive") is None or (geometry_changed and "E_drive" not in drv_in):
        e_drive = e_a
    else:
        e_drive = float(drv["E_drive"])
    k_pump = drv.get("k_pump")
    if k_pump is None or (geometry_changed and "k_pump" not in drv_in):
        k_pump = find_resonance_k(e_a, "lower", wg, cfg)
    n_pump = drv.get("n_pump")
    try:
        drive = DriveConfig(
            E_drive=e_drive,
            F_pump=_as_complex(drv["F_pump"], "drive.F_pump"),
            F_probe_plus=_as_complex(drv["F_probe_plus"], "drive.F_probe_plus"),
            F_probe_minus=_as_complex(drv["F_probe_minus"], "drive.F_probe_minus"),
            hGamma_ph=float(drv["hGamma_ph"]), hGamma_s=float(drv["hGamma_s"]),
            hGamma_a=float(drv["hGamma_a"]), k_pump=float(k_pump),
            q=float(drv["q"]), n_pump=None if n_pump is None else float(n_pump))
    except ConfigError:
        raise
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad drive section: {err}") from err

    sweep = None
    if "sweep" in data and data["sweep"] is not None:
        s = data["sweep"]
        if not isinstance(s, dict):
            raise ConfigError("sweep must be an object")
        try:
            sweep = SweepSpec(variable=str(s["variable"]), min=float(s["min"]),
                              max=float(s["max"]), count=int(s["count"]))
        except KeyError as err:
            raise ConfigError(f"sweep missing key {err}") from err

    return RunConfig(lattice=cfg, waveguide=wg, drive=drive, sweep=sweep,
                     evolve=_section(data, "evolve"),
                     oracle=_section(data, "oracle"),
                     output_path=data.get("output_path"))


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

    def render(self) -> str:
        lines = [f"# bogolon {self.command} dataset"]
        lines += [f"# {key} = {_fmt(value)}" for key, value in self.meta]
        lines.append(",".join(self.columns))
        # repr is what _fmt gives a float; formatting a column at a time
        # keeps the per-cell work to the repr itself
        fmt = repr if self.rows.dtype == np.float64 else _fmt
        lines += map(",".join, zip(*(map(fmt, c) for c in self.rows.T.tolist())))
        return "\n".join(lines) + "\n"


def _common_meta(run: RunConfig) -> list:
    lv = exciton_levels(run.lattice)
    return [
        ("constants.hbar_c", CONSTANTS.hbar_c),
        ("constants.coulomb_mu2_prefactor", CONSTANTS.coulomb_mu2_prefactor),
        *((f"{section}.{key}", "none" if value is None else value)
          for section, config in (("lattice", run.lattice),
                                  ("waveguide", run.waveguide),
                                  ("drive", run.drive))
          for key, value in _settings(config).items()),
        ("derived.J0", lv.J0), ("derived.J", lv.J),
        ("derived.E_s", lv.E_s), ("derived.E_a", lv.E_a),
    ]


def _sweep_or_default(run: RunConfig, variable: str,
                      default: SweepSpec) -> SweepSpec:
    if run.sweep is not None:
        if run.sweep.variable != variable:
            raise ConfigError(
                f"this command sweeps {variable!r}, got {run.sweep.variable!r}")
        return run.sweep
    return default


def _rows(grid: np.ndarray, columns) -> np.ndarray:
    """The rows of ``columns(grid)``, a tuple of column arrays (scalars
    broadcast), computed on _CHUNK grid points at a time."""
    return np.concatenate([
        np.column_stack(np.broadcast_arrays(*columns(grid[lo:lo + _CHUNK])))
        for lo in range(0, grid.size, _CHUNK)])


def cmd_levels(run: RunConfig) -> Dataset:
    """Branch and bare level energies (offsets from E_A) vs angle at k = 0."""
    cfg, wg = run.lattice, run.waveguide
    sweep = _sweep_or_default(run, "theta",
                              SweepSpec("theta", 0.0, 90.0, 1001))

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


def _default_k_sweep(cfg: SuperLatticeConfig, wg: WaveguideConfig) -> SweepSpec:
    # Cover the anticrossing region generously.
    return SweepSpec("k", 0.0, 8.0 * wg.q0 / 100.0, 1001)


def cmd_dispersion(run: RunConfig) -> Dataset:
    """Branch, photon and bare level energies (offsets from E_A) vs k."""
    cfg, wg = run.lattice, run.waveguide
    sweep = _sweep_or_default(run, "k", _default_k_sweep(cfg, wg))
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
    sweep = _sweep_or_default(run, "k", _default_k_sweep(cfg, wg))

    def columns(k):
        mode = hopfield(k, wg, cfg)
        return (k, mode.X_upper ** 2, mode.Y_upper ** 2,
                mode.X_lower ** 2, mode.Y_lower ** 2)

    meta = _common_meta(run) + [("derived.k_star", run.drive.k_pump)]
    return Dataset("fractions", meta,
                   ["k", "X2_upper", "Y2_upper", "X2_lower", "Y2_lower"],
                   _rows(sweep.grid(), columns))


def _operating_point(run: RunConfig):
    cfg, wg, drive = run.lattice, run.waveguide, run.drive
    mode = hopfield(drive.k_pump, wg, cfg)
    ip = interaction_params(wg, cfg, mode.X_lower ** 2)
    return mode, ip


def cmd_spectrum(run: RunConfig) -> Dataset:
    """Probe-normalized dark intensities vs drive energy offset E - E_a."""
    cfg = run.lattice
    mode, ip = _operating_point(run)
    e_a = antisymmetric_energy(cfg)
    n_for_span = run.drive.n_pump if run.drive.n_pump is not None else 1.0
    span = 4.0 * ip.Delta_tilde * max(n_for_span, 1e-3)
    sweep = _sweep_or_default(run, "E_drive",
                              SweepSpec("E_drive", e_a, e_a + span, 10001))
    rows = _rows(sweep.grid(),
                 lambda e: spectrum_columns(run.drive, mode, ip, cfg, e))
    meta = _common_meta(run) + [
        ("derived.Delta", ip.Delta), ("derived.Delta_tilde", ip.Delta_tilde),
        ("derived.X2", ip.X2),
    ]
    return Dataset("spectrum", meta,
                   ["E_offset", "I_minus_scaled", "I_plus_scaled"], rows)


def cmd_evolve(run: RunConfig) -> Dataset:
    """Rotating-frame time traces of |A|^2 and |B+-|^2."""
    cfg = run.lattice
    drive = run.drive
    mode, ip = _operating_point(run)

    ss = steady_state(drive, mode, ip, cfg)
    scale = max(abs(ss.E_a_tilde - drive.E_drive),
                abs(ss.E_pol_tilde - drive.E_drive), ss.V_mf,
                drive.hGamma_a, 1e-30)
    dt = float(run.evolve.get("dt", 0.05 / scale))
    gammas = [g for g in (drive.hGamma_a, drive.hGamma_ph, drive.hGamma_s)
              if g > 0]
    default_t_end = 25.0 / min(gammas) if gammas else dt * 10_000
    t_end = float(run.evolve.get("t_end", default_t_end))
    if dt <= 0 or t_end <= 0:
        raise DomainError("evolve.dt and evolve.t_end must be positive")
    if t_end / dt >= 2.0 ** 63:
        raise StabilityError(
            f"evolve needs {t_end / dt:.3g} steps; the int64 sample times "
            f"hold fewer than 2**63")
    steps = max(1, math.ceil(t_end / dt))
    sample_every = int(run.evolve.get("sample_every", max(1, steps // 2000)))
    # values below 1 are left to time_evolve to reject
    min_every = -(-steps // _MAX_EVOLVE_SAMPLES)
    capped = 0 < sample_every < min_every
    if capped:
        sample_every = min_every

    traj = time_evolve(drive, mode, ip, cfg, t_end, dt, sample_every)
    rows = np.column_stack([traj.times] + [
        np.abs(x) ** 2 for x in (traj.A, traj.B_plus, traj.B_minus)])
    meta = _common_meta(run) + [
        ("evolve.dt", dt), ("evolve.t_end", t_end),
        ("evolve.sample_every", sample_every), ("evolve.capped", capped),
        ("steady.I_plus", ss.I_plus), ("steady.I_minus", ss.I_minus),
        ("steady.N_pump", ss.N_pump),
    ]
    return Dataset("evolve", meta, ["t", "A2", "B_plus2", "B_minus2"], rows)


def cmd_oracle(run: RunConfig) -> Dataset:
    """Exact-diagonalization reports: band check and blocking check."""
    cfg = run.lattice
    n_cells = int(run.oracle.get("n_cells", 5))
    v_dyn = float(run.oracle.get("V_dyn", 1e-3))
    band = validate_band(cfg, n_cells)
    blocking = validate_blocking(cfg, n_cells, v_dyn)

    rows = []
    for key, value in asdict(band).items():
        if isinstance(value, np.ndarray):
            for i, x in enumerate(value):
                rows.append(("band", f"{key}[{i}]", x))
        else:
            rows.append(("band", key, value))
    for key, value in asdict(blocking).items():
        rows.append(("blocking", key, value))
    meta = _common_meta(run) + [("oracle.n_cells", n_cells),
                                ("oracle.V_dyn", v_dyn)]
    return Dataset("oracle", meta, ["section", "key", "value"],
                   np.array(rows, dtype=object))


_HANDLERS = {
    "levels": cmd_levels,
    "dispersion": cmd_dispersion,
    "fractions": cmd_fractions,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "oracle": cmd_oracle,
}


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


def _parse_sweep_flag(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError("--sweep expects var:min:max:count")
    try:
        return SweepSpec(variable=parts[0], min=float(parts[1]),
                         max=float(parts[2]), count=int(parts[3]))
    except ValueError as err:
        raise ConfigError(f"bad --sweep value: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bogolon",
        description="Figure datasets for the lattice-waveguide exciton model.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _HANDLERS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--preset", choices=["paper"],
                       help="start from the bundled reference parameter set")
        p.add_argument("--out", help="output CSV path (default: <command>.csv)")
        p.add_argument("--sweep", help="var:min:max:count override")
        p.add_argument("--plot-script", action="store_true",
                       help="also write a companion gnuplot script")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = {}
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except OSError as err:
                raise ConfigError(f"cannot read config {args.config}: {err}")
            except json.JSONDecodeError as err:
                raise ConfigError(f"invalid JSON in {args.config}: {err}")
            if not isinstance(data, dict):
                raise ConfigError("top-level config must be a JSON object")
        if not args.config and not args.preset:
            raise ConfigError("provide --config and/or --preset paper")
        if args.sweep:
            sweep = _parse_sweep_flag(args.sweep)
            data = {**data, "sweep": dict(variable=sweep.variable, min=sweep.min,
                                          max=sweep.max, count=sweep.count)}
        run = build_run_config(data, preset=args.preset == "paper")
        out_path = args.out or run.output_path or f"{args.command}.csv"
        dataset = _HANDLERS[args.command](run)
    except ModelError as err:
        # resolving derived quantities (e.g. the pump wavenumber) can fail
        # numerically even for a well-formed configuration
        print(f"numerical-domain error: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OverflowError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dataset.render())
        if args.plot_script:
            with open(out_path + ".gp", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_plot_script(out_path, dataset))
    except OSError as err:
        print(f"cannot write {out_path}: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
