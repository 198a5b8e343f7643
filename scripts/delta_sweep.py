#!/usr/bin/env python
"""Payload-scaling sweep: full vs delta routing through the fleet CLI.

Runs the same seeded closed-loop fleet at several chain lengths in both
routing modes and fails (exit 1) if delta routing ever moves more bytes
than full routing — the CI guard against the delta path silently
regressing into negative savings (e.g. manifest overhead outgrowing the
chunk dedup on some workload shape).  Results land in
``BENCH_delta_sweep.json`` for the artifact upload.

Usage: PYTHONPATH=src python scripts/delta_sweep.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

# The sweep persists through the benchmark suite's single emitter, so
# its naming and serialisation never drift from the benches.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent
                       / "benchmarks"))
from conftest import emit_bench  # noqa: E402

SPECS = ["chain:10:5", "chain:25:5", "chain:50:5"]
SEED = 7


def run_fleet(spec: str, delta: bool) -> dict:
    command = [
        sys.executable, "-m", "repro", "loadtest",
        "--workflow", spec, "--mode", "closed",
        "--instances", "2", "--concurrency", "2",
        "--seed", str(SEED), "--audit-every", "1", "--json",
    ]
    if delta:
        command.append("--delta")
    out = subprocess.run(command, check=True, capture_output=True,
                         text=True)
    return json.loads(out.stdout)


def main() -> int:
    sweep = {}
    failed = False
    for spec in SPECS:
        point = {}
        for mode in ("full", "delta"):
            report = run_fleet(spec, delta=(mode == "delta"))
            if report["audit_failures"]:
                print(f"FAIL {spec} [{mode}]: "
                      f"{report['audit_failures']} audit failures")
                failed = True
            point[mode] = {
                "bytes_on_wire": (report["bytes_to_cloud"]
                                  + report["bytes_from_cloud"]),
                "makespan_seconds": report["makespan_seconds"],
                "instances_completed": report["instances_completed"],
            }
        ratio = (point["delta"]["bytes_on_wire"]
                 / point["full"]["bytes_on_wire"])
        point["ratio"] = round(ratio, 4)
        sweep[spec] = point
        verdict = "ok" if ratio < 1.0 else "REGRESSION"
        print(f"{spec}: full {point['full']['bytes_on_wire']:,} B, "
              f"delta {point['delta']['bytes_on_wire']:,} B "
              f"(ratio {ratio:.4f}) {verdict}")
        if ratio >= 1.0:
            failed = True
    emit_bench("delta_sweep", sweep)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
