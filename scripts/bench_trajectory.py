#!/usr/bin/env python
"""Aggregate every ``BENCH_*.json`` into one markdown trajectory table.

Each benchmark emitted through ``benchmarks/conftest.py::emit_bench``
carries a ``bench_meta`` provenance stamp (name, stamp schema version,
git SHA, cpu count).  This script sweeps the repo root (or ``--root``)
for BENCH files and renders one row per file — provenance plus the
bench's headline value (``HEADLINES``) — so a sequence of commits, each
re-running the benches, reads as a curve: which tree produced which
number on how many cores.  A bench without a known headline shows
``-``.

Legacy files written before the stamp existed are kept in the table
with ``-`` placeholders rather than skipped or failed on; the
checked-in seeds predate the stamp and must still aggregate cleanly
(CI runs this script on them).

Usage::

    python scripts/bench_trajectory.py                # table to stdout
    python scripts/bench_trajectory.py --out docs/BENCH_TRAJECTORY.md
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

COLUMNS = ("bench", "schema", "git sha", "cpus", "headline",
           "result keys")


def _speedups(table: dict, unit: str, counts=("2", "4")) -> str:
    key = f"speedup_vs_1_{unit}"
    return "speedup " + ", ".join(
        f"{n} {unit}s {table[n][key]:.2f}x" for n in counts)


#: bench name → the one value that says whether it got better.
HEADLINES = {
    "delta_routing": lambda p: (
        f"delta/full host s {p['delta']['host_seconds']:.2f}/"
        f"{p['full']['host_seconds']:.2f}, "
        f"measured_ratio {p['measured_ratio']:.3f}"),
    "delta_sweep": lambda p: "delta/full bytes " + ", ".join(
        f"{workload} {p[workload]['ratio']:.3f}"
        for workload in sorted(p) if workload != "bench_meta"),
    "fleet_real": lambda p: _speedups(p["by_workers"], "worker"),
    "portal_scaling": lambda p: _speedups(p["by_portals"], "portal"),
    "storage_lifecycle": lambda p: (
        f"baseline_over_peak {p['baseline_over_peak']:.2f}x"),
}


def headline(name: str, payload: dict) -> str:
    """The headline value of one bench, or ``-`` when unknown."""
    render = HEADLINES.get(name)
    if render is None:
        return "-"
    try:
        return render(payload)
    except (KeyError, TypeError, ValueError, AttributeError):
        return "-"


def _row(path: pathlib.Path) -> list[str]:
    """One table row; never raises — unreadable files become a row too."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return [path.name, "-", "-", "-", "-", "(unreadable)"]
    if not isinstance(payload, dict):
        return [path.name, "-", "-", "-", "-", "(not an object)"]
    meta = payload.get("bench_meta")
    if not isinstance(meta, dict):
        meta = {}
    name = str(meta.get("name") or path.stem.removeprefix("BENCH_"))
    keys = sorted(k for k in payload if k != "bench_meta")
    shown = ", ".join(keys[:6]) + (", …" if len(keys) > 6 else "")
    return [
        name,
        str(meta.get("schema_version", "-")),
        str(meta.get("git_sha", "-")),
        str(meta.get("cpu_count", payload.get("cpu_count", "-"))),
        headline(name, payload),
        shown or "(empty)",
    ]


def render(root: pathlib.Path) -> str:
    """The markdown trajectory table for every BENCH file under *root*."""
    paths = sorted(root.glob("BENCH_*.json"))
    rows = [_row(path) for path in paths]
    lines = [
        "# Benchmark trajectory",
        "",
        f"{len(rows)} benchmark file(s) under `{root}`.",
        "",
        "| " + " | ".join(COLUMNS) + " |",
        "|" + "|".join(" --- " for _ in COLUMNS) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    if not rows:
        lines.append("| (none found) |" + " |" * (len(COLUMNS) - 1))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=str(pathlib.Path(__file__).parent.parent),
        help="directory swept for BENCH_*.json (default: repo root)")
    parser.add_argument(
        "--out", default=None,
        help="also write the table to this file")
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    table = render(root)
    print(table, end="")
    if args.out:
        pathlib.Path(args.out).write_text(table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
