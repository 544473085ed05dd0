"""Benchmark of the bogolon package: one seeded workload per run.

    python3 bench/run.py --workload {figures,scan,crosscheck} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``./src`` as
checked out, nothing is installed.  The workload's inputs are generated
from the seed once, then identical passes run until ``--seconds`` have
elapsed.  The first pass warms up; all the others give the timings.  Every
pass is checked against an independent recomputation (``reference.py``)
and every failure counts.

Times are in reference seconds: each operation's wall time is scaled by the
host speed measured just before and after it (``hostspeed.py``), because
other tenants of a shared host slow whole stretches of a run by up to 2x.
The raw wall times are reported beside them in the run record.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
probes, spread across the run, of a fresh process importing bogolon and
resolving ``--preset paper``), ``wall_s`` (median pass time, the sum of its
operations), ``op_p50_ms`` / ``op_p90_ms`` (per-operation latency pooled
over passes), ``peak_rss_mb``.  ``failed_frac`` is printed with them; the result line
carries it as ``failed`` / ``attempted``.

``--trace 1`` first runs untraced passes for a third of the time, then
wraps every public bogolon function with a span recorder (``spans.py``) and
prints the per-layer metrics, per pass (median over traced passes; self
times in reference seconds by the pass's host-speed scale), plus the
tracing overhead.  Spans are written to ``.bench_out/``.

The last line of standard output is the JSON result; the lines before it
are a human-readable table and a ``run-record`` line with versions, thread
settings, revision, seed and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path.cwd()
NPROC = os.cpu_count() or 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
OUT = ROOT / ".bench_out"
SETUP_PROBE = Path(__file__).with_name("setup_probe.py")


def _percentiles(samples: list[float]) -> tuple[float, float, int]:
    """(p50, p90, samples above p90), linear interpolation."""
    p50 = statistics.median(samples)
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
    return p50, p90, sum(1 for x in samples if x > p90)


def _setup_probe() -> tuple[float, float]:
    """Seconds a fresh process takes to import bogolon and resolve the
    preset: (raw, reference seconds)."""
    out = subprocess.run([sys.executable, str(SETUP_PROBE)], cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, timeout=120, check=True)
    raw, scaled = out.stdout.split()[-2:]
    return float(raw), float(scaled)


def _revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bogolon").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    git = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        git = out.stdout.strip() or None
    return {"git_revision": git, "source_sha256": digest.hexdigest()}


def _run_passes(workload, seconds: float, harness_factory, on_pass=None,
                setup: list | None = None):
    """Run passes until ``seconds`` elapse; return per-pass (wall, raw wall,
    records, failures), a pass's wall being the sum of its operations.  At
    least three passes run, the first being a warm-up.  With ``setup``
    given, SETUP_PROBES setup probes are spread evenly over the run between
    passes."""
    passes = []
    start = perf_counter()
    while len(passes) < 3 or perf_counter() - start < seconds:
        if (setup is not None and len(setup) < SETUP_PROBES
                and perf_counter() - start >= len(setup) * seconds / SETUP_PROBES):
            setup.append(_setup_probe())
        h = harness_factory()
        workload.run_pass(h)
        wall = sum(op.seconds for op in h.records)
        raw_wall = sum(op.raw_s for op in h.records)
        if on_pass is not None:
            on_pass(wall, raw_wall)
        passes.append((wall, raw_wall, h.records, workload.check(h.records)))
        for op in h.records:
            op.value = None   # checked; keep memory flat across passes
    return passes


def _limit_threads() -> dict:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(max(1, min(wanted, NPROC)))
    return {var: os.environ[var] for var in THREAD_VARS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "scan", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bogolon" / "__init__.py").is_file():
        print(f"bogolon sources not found under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    threads = _limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import bogolon
    import workloads

    if Path(bogolon.__file__).resolve().parent != (ROOT / "src" / "bogolon").resolve():
        print(f"imported bogolon from {bogolon.__file__}, not ./src", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": NPROC, "blas_threads": threads,
            "client": "closed loop, 1 client", **_revision(),
            "time_basis": "reference seconds: wall time x REF_KERNEL_S / host-speed "
                          "kernel time, kernel timed before and after each operation "
                          "and, in the probe process, each setup probe",
            "ref_kernel_s": hostspeed.REF_KERNEL_S,
        }
        if args.trace:
            metrics, passes = _traced(workload, args, record)
        else:
            setup = []
            passes = _run_passes(workload, args.seconds, workloads.Harness,
                                 setup=setup)
            metrics = _end_to_end(passes, setup, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(op.label, reason) for _, _, records, reasons in passes
                for op, reason in zip(records, reasons) if reason is not None]
    attempted = sum(len(records) for _, _, records, _ in passes)
    record["failed_frac"] = len(failures) / attempted
    record["failures"] = failures[:10]

    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<{width}}  {record['failed_frac']:.6g} "
          f"({len(failures)}/{attempted})")
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _end_to_end(passes, setup: list[tuple[float, float]], record: dict) -> dict:
    timed = passes[1:]
    ops = [op.seconds for _, _, records, _ in timed for op in records]
    raw_ops = [op.raw_s for _, _, records, _ in timed for op in records]
    p50, p90, beyond = _percentiles(ops)
    raw_p50, raw_p90, _ = _percentiles(raw_ops)
    record.update(passes_timed=len(timed), warmup_passes=1,
                  pass_walls_s=[round(w, 4) for w, _, _, _ in timed],
                  raw_pass_walls_s=[round(w, 4) for _, w, _, _ in timed],
                  raw_wall_s=statistics.median(w for _, w, _, _ in timed),
                  raw_op_p50_ms=1e3 * raw_p50, raw_op_p90_ms=1e3 * raw_p90,
                  op_p50_samples=len(ops), op_p90_samples=len(ops),
                  op_p90_samples_beyond=beyond,
                  setup_samples_s=[round(s, 4) for _, s in setup],
                  raw_setup_samples_s=[round(s, 4) for s, _ in setup])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
        "wall_s": {"value": statistics.median(w for w, _, _, _ in timed), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def _traced(workload, args, record):
    """Untraced passes for a third of the time, then traced passes."""
    import spans
    import workloads
    untraced = _run_passes(workload, args.seconds / 3.0, workloads.Harness)
    tracer = spans.Tracer()
    per_pass = []
    tracer.install()
    try:
        tracer.new_pass()
        traced = _run_passes(
            workload, 2.0 * args.seconds / 3.0,
            lambda: workloads.Harness(tracer),
            on_pass=lambda wall, raw_wall: per_pass.append(
                spans.layer_metrics(tracer.new_pass(), raw_wall, wall / raw_wall)))
    finally:
        tracer.uninstall()
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    untraced_wall = statistics.median(w for w, _, _, _ in untraced[1:])
    traced_wall = statistics.median(w for w, _, _, _ in traced[1:])
    per_pass = per_pass[1:]
    metrics = {name: {"value": float(statistics.median(p[name] for p in per_pass)),
                      "unit": spans.unit(name)}
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    record.update(untraced_passes=len(untraced) - 1, traced_passes=len(per_pass),
                  untraced_wall_s=untraced_wall, traced_wall_s=traced_wall,
                  trace_overhead_s=traced_wall - untraced_wall,
                  spans_recorded=min(tracer.n_spans, tracer.span_cap),
                  spans_total=tracer.n_spans, warmup_passes=1,
                  computed_counters=list(spans.COMPUTED),
                  per_layer_basis="per pass, median over traced passes")
    return metrics, untraced + traced


if __name__ == "__main__":
    sys.exit(main())
