"""Span recorder that wraps bogolon's public functions from outside.

Each public function of each layer module is replaced by a wrapper that
records a span (name, start, end, parent span, operation id).  Modules bind
each other's functions with ``from .x import f``, so the wrapper is put in
place of the original in every ``bogolon.*`` namespace and module-level dict
that holds it; otherwise nested calls such as polariton -> lattice go
uncounted.  Nothing under ``src/`` is edited.

Per pass the recorder keeps, for every span name, the call count and the
self time (span time minus the time its child spans cover), plus work
counters taken from arguments and return values.  Raw spans are kept in
memory up to a cap and written out by :meth:`Tracer.save`.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "lattice", "waveguide", "polariton", "kinematic",
          "pumpprobe", "bogoliubov", "oracle", "presets")


class PassStats:
    """Aggregates of one pass: per span name [calls, self_s]."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.configs = set()
        self.top_level_s = 0.0


class Tracer:
    def __init__(self, span_cap: int = 500_000):
        self.span_cap = span_cap
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.s_name, self.s_op = array("i"), array("i")
        self.s_parent = array("q")
        self.s_start, self.s_end = array("d"), array("d")
        self.n_spans = 0
        self.stack: list[list] = []   # [span id, child seconds]
        self.op_id = -1
        self.stats = PassStats()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Wrapper recording one span per call; ``count(stats, args, kwargs,
        result, token)`` adds work counters, ``token`` being the hopfield
        call count at entry."""
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        tracer = self
        wants_token = name == "polariton.find_resonance_k"

        def traced(*args, **kwargs):
            stats, stack = tracer.stats, tracer.stack
            sid = tracer.n_spans
            tracer.n_spans += 1
            token = stats.spans["polariton.hopfield"][0] if wants_token else None
            start = perf_counter()
            if sid < tracer.span_cap:
                tracer.s_name.append(nid)
                tracer.s_op.append(tracer.op_id)
                tracer.s_parent.append(stack[-1][0] if stack else -1)
                tracer.s_start.append(start)
                tracer.s_end.append(math.nan)
            stack.append([sid, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    stats.top_level_s += dur
                agg = stats.spans[name]
                agg[0] += 1
                agg[1] += dur - child
                if sid < tracer.span_cap:
                    tracer.s_end[sid] = end
            if count is not None:
                count(stats, args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def new_pass(self) -> PassStats:
        done, self.stats = self.stats, PassStats()
        return done

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every public layer function in all bogolon namespaces."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bogolon.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, COUNTERS.get(name))
        dataset = importlib.import_module("bogolon.cli").Dataset
        self._patch(dataset, "render", dataset.render,
                    self.wrap("cli.render", dataset.render, COUNTERS["cli.render"]))
        for modname, mod in list(sys.modules.items()):
            if modname != "bogolon" and not modname.startswith("bogolon."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, obj, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._patch(obj, key, val, wrappers[val])

    def _patch(self, holder, key, original, wrapper) -> None:
        if isinstance(holder, dict):
            holder[key] = wrapper
        else:
            setattr(holder, key, wrapper)
        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    def save(self, path) -> None:
        n = min(self.n_spans, self.span_cap)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.s_name, dtype=np.int32)[:n],
                 op=np.frombuffer(self.s_op, dtype=np.int32)[:n],
                 parent=np.frombuffer(self.s_parent, dtype=np.int64)[:n],
                 start=np.frombuffer(self.s_start, dtype=np.float64)[:n],
                 end=np.frombuffer(self.s_end, dtype=np.float64)[:n])


# -- work counters from arguments and return values --------------------------

def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _exciton_levels(stats, args, kwargs, result, token):
    stats.configs.add(_arg(args, kwargs, 0, "cfg"))


def _find_resonance_k(stats, args, kwargs, result, token):
    stats.counters["find_resonance_k.hopfield"] += (
        stats.spans["polariton.hopfield"][0] - token)


def _pump_occupation(stats, args, kwargs, result, token):
    stats.counters["pump_occupation.iterations"] += result.iterations


def _spectrum(stats, args, kwargs, result, token):
    stats.counters["spectrum.points"] += len(_arg(args, kwargs, 4, "energies"))
    stats.counters["spectrum.pole_hits"] += sum(
        1 for p in result if math.isinf(p.I_minus_scaled) or math.isinf(p.I_plus_scaled))


def _time_evolve(stats, args, kwargs, result, token):
    # computed from the arguments, as time_evolve sizes its loop
    t_end, dt = _arg(args, kwargs, 4, "t_end"), _arg(args, kwargs, 5, "dt")
    stats.counters["time_evolve.steps"] += max(1, math.ceil(t_end / dt))


def _build_basis(stats, args, kwargs, result, token):
    # computed: states kept over bitmasks scanned, 2^(2N)
    stats.counters["build_basis.useful"] += result.dim
    stats.counters["build_basis.scanned"] += 2 ** (2 * _arg(args, kwargs, 0, "n_cells"))


def _jacobi_eigh(stats, args, kwargs, result, token):
    # computed from the argument's shape
    dim = np.shape(_arg(args, kwargs, 0, "matrix"))[0]
    stats.counters["jacobi_eigh.dim"] = max(stats.counters["jacobi_eigh.dim"], dim)


def _render(stats, args, kwargs, result, token):
    stats.counters["render.bytes"] += len(result.encode())


COUNTERS = {
    "lattice.exciton_levels": _exciton_levels,
    "polariton.find_resonance_k": _find_resonance_k,
    "pumpprobe.pump_occupation": _pump_occupation,
    "pumpprobe.spectrum": _spectrum,
    "pumpprobe.time_evolve": _time_evolve,
    "oracle.build_basis": _build_basis,
    "oracle.jacobi_eigh": _jacobi_eigh,
    "cli.render": _render,
}


#: Counters derived from arguments or array sizes rather than observed work.
COMPUTED = ("lattice.exciton_levels.distinct_ratio", "pumpprobe.spectrum.points",
            "pumpprobe.time_evolve.steps", "pumpprobe.time_evolve.us_per_step",
            "oracle.build_basis.useful_ratio", "oracle.jacobi_eigh.dim")

UNITS = {"self_s": "s", "overhead_s": "s", "bytes": "B", "us_per_step": "us",
         "distinct_ratio": "ratio", "useful_ratio": "ratio",
         "top_level_coverage": "ratio"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: PassStats, wall_s: float, scale: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name.  ``wall_s``
    is the pass's raw wall time; ``scale`` turns raw seconds into reference
    seconds (see hostspeed) for the self times."""
    sp, c = p.spans, p.counters

    def calls(name):
        return sp[name][0] if name in sp else 0

    def self_s(name):
        return scale * sp[name][1] if name in sp else 0.0

    m = {}
    for name in ("cli.build_run_config", "polariton.hopfield",
                 "polariton.find_resonance_k", "lattice.symmetric_band",
                 "lattice.dipole_coupling", "waveguide.photon_dispersion",
                 "waveguide.coupling_bright", "pumpprobe.steady_state",
                 "pumpprobe.time_evolve", "kinematic.interaction_params",
                 "bogoliubov.coefficients", "oracle.jacobi_eigh",
                 "presets.reference_setup"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("cli.main", "cli.render", "polariton.verify_diagonalization",
                 "pumpprobe.spectrum", "kinematic.double_excitation_excluded",
                 "bogoliubov.reconstruct_dark_amplitudes", "oracle.build_basis",
                 "oracle.build_sector", "oracle.validate_band",
                 "oracle.validate_blocking"):
        m[f"{name}.self_s"] = self_s(name)
    m["cli.cmd.self_s"] = scale * sum(v[1] for k, v in sp.items()
                                      if k.startswith("cli.cmd_"))
    m["cli.render.bytes"] = c["render.bytes"]
    m["polariton.find_resonance_k.hopfield_per_call"] = _ratio(
        c["find_resonance_k.hopfield"], calls("polariton.find_resonance_k"))
    m["lattice.exciton_levels.calls"] = calls("lattice.exciton_levels")
    m["lattice.exciton_levels.distinct_ratio"] = _ratio(
        len(p.configs), calls("lattice.exciton_levels"))
    m["pumpprobe.spectrum.points"] = c["spectrum.points"]
    m["pumpprobe.spectrum.pole_hits"] = c["spectrum.pole_hits"]
    m["pumpprobe.pump_occupation.calls"] = calls("pumpprobe.pump_occupation")
    m["pumpprobe.pump_occupation.iterations"] = c["pump_occupation.iterations"]
    m["pumpprobe.time_evolve.steps"] = c["time_evolve.steps"]
    m["pumpprobe.time_evolve.us_per_step"] = 1e6 * _ratio(
        self_s("pumpprobe.time_evolve"), c["time_evolve.steps"])
    m["oracle.build_basis.useful_ratio"] = _ratio(
        c["build_basis.useful"], c["build_basis.scanned"])
    m["oracle.jacobi_eigh.dim"] = c["jacobi_eigh.dim"]
    m["trace.top_level_coverage"] = _ratio(p.top_level_s, wall_s)
    m["trace.spans"] = sum(v[0] for v in sp.values())
    return m
