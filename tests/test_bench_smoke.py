"""One pass of every benchmark workload, checked by the workload itself.

``bench/`` calls the package the way a user would; a changed signature or
a removed name there shows up here as a failed operation, before a
benchmark run does.  The traced pass also runs the span recorder, which
wraps every public function by name.
"""

import importlib
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def _run_each(tmp_path, tracer=None):
    """One pass per workload: its failed checks by operation, and the
    per-layer metrics of the pass when ``tracer`` is installed."""
    workloads, spans = _bench_module("workloads"), _bench_module("spans")
    failures, metrics = {}, {}
    for name, workload_cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_cls(1, workdir)
        if tracer is not None:
            # as bench/run.py traces passes only after untraced ones, the
            # metrics leave out what construction resolves (the preset)
            tracer.new_pass()
        harness = workloads.Harness(tracer)
        start = perf_counter()
        workload.run_pass(harness)
        if tracer is not None:
            metrics[name] = spans.layer_metrics(
                tracer.new_pass(), perf_counter() - start, 1.0)
        reasons = workload.check(harness.records)
        assert len(reasons) == len(harness.records) > 0, name
        failures.update({f"{name}/{op.label}#{i}": reason for i, (op, reason)
                         in enumerate(zip(harness.records, reasons)) if reason})
    return failures, metrics


def test_package_exports_are_restored_after_tracing():
    # the package reads an export from its module on every access, so a
    # wrapper read through it while traced does not outlive the tracer
    import bogolon
    from bogolon import polariton
    original = polariton.hopfield
    tracer = _bench_module("spans").Tracer()
    tracer.install()
    try:
        assert bogolon.hopfield is not original
        assert bogolon.hopfield.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert bogolon.hopfield is original


def test_every_workload_passes_its_own_check(tmp_path):
    failures, _ = _run_each(tmp_path)
    assert failures == {}


def test_every_workload_passes_traced(tmp_path):
    tracer = _bench_module("spans").Tracer()
    tracer.install()
    try:
        failures, metrics = _run_each(tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert failures == {}
    figures = metrics["figures"]
    assert figures["presets.reference_setup.calls"] > 0
    # --preset reuses the preset's own resonance wavenumber
    assert figures["polariton.find_resonance_k.calls"] == 0
    # cmd_spectrum computes its spectra through pumpprobe.spectrum
    assert figures["pumpprobe.spectrum.points"] > 0
    assert figures["pumpprobe.spectrum.pole_hits"] == 0
