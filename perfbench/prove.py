"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --seeds 1-10                 # every workload
    python3 perfbench/prove.py --workloads audit_read --seeds 1-5
    python3 perfbench/prove.py --repeat 7                   # counter repeatability
    python3 perfbench/prove.py --seeds 1-10 --held-out 1009 --repeat 7 \\
        --record perfbench/PROVENANCE.json
    python3 perfbench/prove.py --seeds 1-10 \\
        --record perfbench/PROVENANCE.json --under second_set

For every end-to-end metric it prints the median of the runs and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, beside the metric's bound from
``BENCHMARK.json``.  ``--repeat SEED`` runs each workload twice traced
with one seed and lists which counters read the same at the
checkpoint.  ``--record`` writes the runs' provenance: host, versions,
git revision, workload parameters, seeds and every figure; with
``--under KEY`` it stores them under KEY of an existing record instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; ``(result, wall seconds, detail)``."""
    began = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    wall = time.perf_counter() - began
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    detail_path = os.path.join(
        HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail_path, encoding="utf-8") as f:
        detail = json.load(f)
    return json.loads(lines[-1]), wall, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def seeds_arg(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def prove(workloads, seeds, bench):
    """Run every seed of every workload; print and return the figures."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, wall, _ = run_once(workload, seed, bench["run_seconds"],
                                       0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": wall, **values})
            print(f"{workload} seed {seed}: wall {wall:.1f}s "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            median, rel = spread([run[name] for run in runs])
            ok = rel < bound / 3 or name == "setup_s"
            summary[name] = {"median": median, "spread": rel,
                             "bound": bound}
            print(f"  {name:14s} median {median:12.4f}  spread "
                  f"{rel:7.4f}  bound/3 {bound / 3:.4f}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        out[workload] = {"runs": runs, "summary": summary}
    return out


def repeat(workloads, seed, bench):
    """Counters at the checkpoint of two traced runs of one seed."""
    out = {}
    for workload in workloads:
        snaps = [run_once(workload, seed, bench["run_seconds"], 1)[2]
                 ["checkpoint"] for _ in range(2)]
        same = sorted(k for k in snaps[0] if snaps[0][k] == snaps[1].get(k))
        differ = sorted(k for k in snaps[0] if k not in same)
        out[workload] = {"seed": seed, "repeat": same, "differ": differ,
                         "checkpoint": snaps[0]}
        print(f"{workload}: {len(same)} counters repeat exactly; differ: "
              f"{', '.join(differ) or 'none'}", flush=True)
    return out


def provenance():
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import hostspeed
    import run
    import scenarios

    specs = {spec.name: {
        "spec": spec.label, "instances_in_flight": spec.inflight,
        "portals": spec.portals, "placement": spec.placement,
        "routing": "delta" if spec.delta else "full",
        "shared_verification_cache": spec.shared_vcache,
        "chunk_cache_bytes": spec.chunk_cache_bytes,
        "sweep_every": spec.sweep_every,
        "split_threshold_bytes": scenarios.SPLIT_BYTES,
    } for spec in (scenarios.LONG_CHAIN, scenarios.SHORT_CHURN)}
    audit = scenarios.AuditWorkload
    specs["audit_read"] = {
        "fill": scenarios.AUDIT_FILL.label,
        "instances": audit.INSTANCES, "census_every": audit.CENSUS_EVERY,
        "archive_share": audit.ARCHIVE_SHARE,
        "tamper_share": audit.TAMPER_SHARE,
    }
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cryptography": version("cryptography"),
        "git_sha": sha,
        "key_bits": scenarios.KEY_BITS,
        "setups_per_run": run.SETUPS,
        "clock": "time.process_time",
        "nominal_ms": hostspeed.NOMINAL_MS,
        "specs": specs,
    }


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", type=seeds_arg)
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--record")
    parser.add_argument("--under")
    args = parser.parse_args(argv)
    record = {"why": {w["name"]: w["why"] for w in bench["workloads"]},
              "run_seconds": bench["run_seconds"]}
    if args.seeds:
        record["seeds"] = args.seeds
        record["results"] = prove(args.workloads, args.seeds, bench)
    if args.held_out is not None:
        record["held_out_seed"] = args.held_out
        record["held_out"] = {}
        for workload in args.workloads:
            result, wall, detail = run_once(
                workload, args.held_out, bench["run_seconds"], 0)
            record["held_out"][workload] = {"result": result,
                                            "table": detail["table"]}
            print(f"{workload} held-out seed {args.held_out}: correct="
                  f"{result['correct']} failed={result['failed']}",
                  flush=True)
    if args.repeat is not None:
        record["repeat"] = repeat(args.workloads, args.repeat, bench)
    if args.record:
        record["provenance"] = provenance()
        if args.under:
            with open(args.record, encoding="utf-8") as f:
                record = {**json.load(f), args.under: record}
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
