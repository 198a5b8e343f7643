"""Host-time benchmark of the DRA4WfMS cloud.

    python3 perfbench/run.py --workload long_chain --seed 1 --seconds 20 --trace 0

Runs one workload (``long_chain``, ``short_churn`` or ``audit_read``, see
``scenarios.py``) from the repository's ``src/`` tree, checks every
output, prints a table of named metrics, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones listed in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, measured in four quarters of
``--seconds``: traced, untraced, untraced, traced (traced quarters wrap
every layer's entry points in spans; the time ratio of the two kinds is
``trace_overhead``).  End-to-end times are this process's CPU time
(``scenarios.CLOCK``) scaled to a nominal host speed by the reference
task of ``hostspeed.py``; per-layer times are elapsed and unscaled;
``--seconds`` is elapsed time.  Details and the span log go to
``perfbench/out/``.
Exits 1 when an output is wrong, 2 when the program sources are missing.
"""

from __future__ import annotations

import time

#: CPU seconds of interpreter start-up, counted in ``setup_s``.
_PROCESS_START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3

#: Reference task samples before and after each set-up, which set the
#: host speed its time is scaled by.
SETUP_SAMPLES = 10

#: Sim components (``SimClock`` tags) → the traced layers that do the
#: work the simulation charges to them.
CALIBRATION = {
    "portal": ("portal",),
    "pool": ("pool", "hbase", "hdfs"),
    "notify": ("notify",),
}


def declared_metrics(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json lists for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def median_p90(values):
    """``(median, 90th percentile)`` of a sample of at least two."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# -- end-to-end ------------------------------------------------------------------


def end_to_end(name, phase, setup_s):
    """The end-to-end metrics plus the full named table."""
    write = name != "audit_read"
    op = "hop" if write else "audit"
    samples = phase.scaled_ms[op]
    p50, p90 = median_p90(samples)
    raw_p50, _ = median_p90(phase.latency_ms[op])
    ops = phase.ops[op] if write else sum(phase.ops.values())
    per_s = ops / phase.nominal_s
    rss = phase.checkpoint["rss_mb"]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p90": {"value": p90, "unit": "ms"},
        "ops_per_s": {"value": per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    table = [("setup_s", setup_s, "s", SETUPS)]
    if write:
        table += [
            ("hop_ms_p50", p50, "ms", len(samples)),
            ("hop_ms_p90", p90, "ms", len(samples)),
            ("hops_per_s", per_s, "1/s", ops),
        ]
        if name == "short_churn":
            inst50, _ = median_p90(phase.instance_s)
            table.append(("instance_s_p50", inst50, "s",
                          len(phase.instance_s)))
        table.append(("wire_kb_per_hop",
                      phase.wire_bytes / 1024 / phase.ops["hop"], "KB",
                      phase.ops["hop"]))
        if phase.peak_hot_bytes:
            table.append(("stored_bytes_per_live_byte",
                          phase.peak_hot_bytes / phase.live_bytes_at_peak,
                          "B/B", phase.ops["sweep"]))
    else:
        archive = phase.scaled_ms.get("archive", [])
        table += [
            ("audit_ms_p50", p50, "ms", len(samples)),
            ("audit_ms_p90", p90, "ms", len(samples)),
            ("archive_ms_p50", statistics.median(archive), "ms",
             len(archive)),
            ("reads_per_s", per_s, "1/s", ops),
        ]
    table += [
        ("measured_op_ms_p50", raw_p50, "ms", len(samples)),
        ("host_slowness", phase.speed.slowness(), "x", len(phase.speed.ms)),
        ("peak_rss_mb", rss, "MB", sum(
            n for key, n in phase.checkpoint.items()
            if key.startswith("ops."))),
        ("failed_frac", ratio(phase.failed, phase.attempted), "1",
         phase.attempted),
        # Below 1 when the host gave time to other tenants.
        ("cpu_share", ratio(phase.busy_s, phase.wall_s), "1", ""),
    ]
    return metrics, table


# -- per layer -------------------------------------------------------------------


def merged(summary, kinds):
    """Sum the trace summaries of several root kinds."""
    out = {"ops": 0, "root_ms": 0.0, "self_ms": {}, "calls": {},
           "incl_ms": {}}
    for kind in kinds:
        entry = summary.get(kind)
        if entry is None:
            continue
        out["ops"] += entry["ops"]
        out["root_ms"] += entry["root_ms"]
        for key in ("self_ms", "calls", "incl_ms"):
            for name, value in entry[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def self_check(entry):
    """Layer self times plus the loop's own time minus the root spans,
    in ms per op (0 up to float rounding)."""
    return ratio(sum(entry["self_ms"].values()) - entry["root_ms"],
                 entry["ops"])


def per_layer(name, traced, plain, summary):
    """Per-layer metrics of the traced phase; 0 where a layer is idle."""
    m = dict.fromkeys(declared_metrics(1), 0.0)
    everything = merged(summary, [k for k in summary if k != "gate"])

    def per_call(span):
        return ratio(everything["incl_ms"].get(span, 0.0),
                     everything["calls"].get(span, 0))

    m["pool.latest_ms"] = per_call("pool.latest")
    m["archive.export_ms"] = per_call("archive.export_archive")
    m["archive.verify_ms"] = per_call("archive.verify_archive")
    m["census.ms"] = ratio(summary.get("census", {}).get("root_ms", 0.0),
                           summary.get("census", {}).get("ops", 0))
    m["pool.sweep_ms"] = ratio(summary.get("sweep", {}).get("root_ms", 0.0),
                               summary.get("sweep", {}).get("ops", 0))
    counts, end = traced.counts, traced.counters_end
    for key in ("portal.rejected", "portal.delta_fallbacks", "hbase.flushes",
                "hbase.splits", "chunkcache.evictions"):
        m[key] = counts.get(key, 0)
    for cache in ("vcache", "chunkcache"):
        hits = counts.get(f"{cache}.hits", 0)
        m[f"{cache}.hit_rate"] = ratio(
            hits, hits + counts.get(f"{cache}.misses", 0))
    m["chunkstore.dedup_ratio"] = ratio(
        end.get("chunkstore.logical_bytes", 0),
        end.get("chunkstore.unique_bytes", 0))

    write = name != "audit_read"
    kinds = ("hop", "launch") if write else ("audit",)
    entry = merged(summary, kinds)
    ops = traced.ops["hop"] if write else traced.ops["audit"]
    layer = {key: ratio(value, ops) for key, value in entry["self_ms"].items()}
    calls = {key: ratio(value, ops) for key, value in entry["calls"].items()}
    sim = {}
    for kind in kinds:
        for component, seconds in traced.sim_s.get(kind, {}).items():
            sim[component] = sim.get(component, 0.0) + 1e3 * seconds / ops
    for component, layers in CALIBRATION.items():
        host = sum(layer.get(x, 0.0) for x in layers)
        m[f"calib.{component}"] = ratio(host, sim.get(component, 0.0))
    signs = calls.get("crypto.sign", 0) + calls.get("crypto.sign_pss", 0)
    verifies = (calls.get("crypto.verify", 0)
                + calls.get("crypto.verify_pss", 0))
    if write:
        m.update({
            "portal.self_ms_per_hop": layer.get("portal", 0.0),
            "aea.self_ms_per_hop": layer.get("aea", 0.0),
            "tfc.self_ms_per_hop": layer.get("tfc", 0.0),
            "verify.calls_per_hop": calls.get("verify.verify_document", 0),
            "verify.self_ms_per_hop": layer.get("verify", 0.0),
            "c14n.calls_per_hop": (
                calls.get("c14n.canonicalize", 0)
                + calls.get("c14n.canonicalize_boundaries", 0)),
            "c14n.ms_per_hop": layer.get("c14n", 0.0),
            "dsig.ms_per_hop": layer.get("dsig", 0.0),
            "xmlenc.ms_per_hop": layer.get("xmlenc", 0.0),
            "parse.calls_per_hop": calls.get("parse.from_bytes", 0),
            "parse.ms_per_hop": layer.get("parse", 0.0),
            "definition.calls_per_hop": calls.get(
                "definition.definition", 0),
            "definition.ms_per_hop": layer.get("definition", 0.0),
            "docops.ms_per_hop": layer.get("docops", 0.0),
            "delta.ms_per_hop": layer.get("delta", 0.0),
            "rsa.signs_per_hop": signs,
            "rsa.verifies_per_hop": verifies,
            "crypto.ms_per_hop": layer.get("crypto", 0.0),
            "pool.store_ms_per_hop": ratio(
                entry["incl_ms"].get("pool.store", 0.0), ops),
            "hbase.ms_per_hop": layer.get("hbase", 0.0),
            "hbase.puts_per_hop": calls.get("hbase.put", 0),
            "hdfs.ms_per_hop": layer.get("hdfs", 0.0),
            "hdfs.bytes_written_per_hop": ratio(
                counts.get("hdfs.bytes_written", 0), ops),
            "notify.per_hop": calls.get("notify.notify", 0),
            "unattributed_ms_per_hop": layer.get("loop", 0.0),
            "wire_kb_per_hop": plain.wire_bytes / 1024 / plain.ops["hop"],
        })
        if plain.peak_hot_bytes:
            m["stored_bytes_per_live_byte"] = (
                plain.peak_hot_bytes / plain.live_bytes_at_peak)
        traced_op = traced.nominal_s / traced.ops["hop"]
        plain_op = plain.nominal_s / plain.ops["hop"]
    else:
        m.update({
            "verify.ms_per_audit": layer.get("verify", 0.0),
            "c14n.ms_per_audit": layer.get("c14n", 0.0),
            "rsa.verifies_per_audit": verifies,
            "unattributed_ms_per_audit": layer.get("loop", 0.0),
        })
        traced_op = traced.nominal_s / sum(traced.ops.values())
        plain_op = plain.nominal_s / sum(plain.ops.values())
    m["trace_overhead"] = traced_op / plain_op
    shares = {key: ratio(value, entry["root_ms"])
              for key, value in entry["self_ms"].items()}
    units = declared_metrics(1)
    return ({key: {"value": value, "unit": units[key]}
             for key, value in m.items()},
            {"self_check_ms_per_op": self_check(entry),
             "self_share": shares})


# -- main --------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("long_chain", "short_churn", "audit_read"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import hostspeed
    import layertrace
    import scenarios

    clock = scenarios.CLOCK
    import_s = clock() - _PROCESS_START
    reference = hostspeed.ReferenceTask()
    setups = []
    warmups = []
    speed = []
    for _ in range(SETUPS):
        workload = None  # the previous set-up is garbage before timing
        gc.collect()
        before = reference.samples(clock, SETUP_SAMPLES)
        began = clock()
        workload = scenarios.build(args.workload, args.seed, reference)
        warmups.append(workload.setup())
        took = clock() - began
        near = before + reference.samples(clock, SETUP_SAMPLES)
        setups.append(took * hostspeed.NOMINAL_MS / statistics.median(near))
        speed += near
    setup_s = (import_s * hostspeed.NOMINAL_MS / statistics.median(speed)
               + statistics.median(setups))
    gc.collect()

    phases = list(warmups)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "import_s": import_s, "setups_s": setups,
              "setup_speed_ms": speed}
    if args.trace:
        # Traced and untraced quarters in T U U T order, so a drift in
        # host speed or program state over the run biases neither side.
        tracer = layertrace.LayerTracer()
        runs = {True: [], False: []}
        for traced in (True, False, False, True):
            if traced:
                tracer.install()
            try:
                runs[traced].append(workload.run(
                    args.seconds / 4, tracer if traced else None))
            finally:
                tracer.uninstall()
        check = scenarios.Phase(attempted=1)
        phases += runs[True] + runs[False] + [check]
        traced = scenarios.Phase.merge(runs[True])
        plain = scenarios.Phase.merge(runs[False])
        metrics, extra = per_layer(args.workload, traced, plain,
                                   tracer.summarize())
        detail.update(extra)
        detail["checkpoint"] = traced.checkpoint
        table = [(key, item["value"], item["unit"], "")
                 for key, item in metrics.items()]
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        if abs(extra["self_check_ms_per_op"]) > 1e-6:
            check.fail("trace self-check",
                        ValueError("layer self times do not sum to the "
                                   "root spans"))
    else:
        phase = workload.run(args.seconds)
        phases.append(phase)
        metrics, table = end_to_end(args.workload, phase, setup_s)
        detail["checkpoint"] = phase.checkpoint
        detail["counts"] = phase.counts
        detail["counters_end"] = phase.counters_end
        detail["join_retries"] = phase.join_retries

    declared = declared_metrics(args.trace)
    if {k: v["unit"] for k, v in metrics.items()} != declared:
        raise SystemExit("perfbench: reported metrics differ from the ones "
                         "BENCHMARK.json declares")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail.update(result=result, table=table, errors=errors)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for key, value, unit, samples in table:
        count = f"  (n={samples})" if samples != "" else ""
        print(f"{key:32s} {value:14.4f} {unit}{count}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
