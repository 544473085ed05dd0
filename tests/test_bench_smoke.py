"""One pass of every benchmark workload, checked by the workload itself.

``bench/`` calls the package the way a user would; a changed signature or
a removed name there shows up here as a failed operation, before a
benchmark run does.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_workload_passes_its_own_check(tmp_path):
    sys.path.insert(0, str(BENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    failures = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workload_cls(1, workdir)
        harness = workloads.Harness()
        workload.run_pass(harness)
        reasons = workload.check(harness.records)
        assert len(reasons) == len(harness.records) > 0, name
        failures.update({f"{name}/{op.label}#{i}": reason for i, (op, reason)
                         in enumerate(zip(harness.records, reasons)) if reason})
    assert failures == {}
