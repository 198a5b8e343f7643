"""MapReduce over the simulated HBase (monitoring & statistics, §4.2).

"The MapReduce computing model supported in the HBase system can apply
some statistical analyses to workflow processes or instances stored in
the DRA4WfMS cloud system."  The engine runs one map task per region
(that is how HBase scans parallelise), shuffles by key, and reduces.

Parallelism is simulated: every map task is charged the cluster
network's transfer time for the cell bytes its region scans, the reduce
step one network latency, and the job's *simulated makespan* is the
longest-task-first schedule of the map tasks over one slot per region
server plus the reduce charge.  No host timer is read, so same-input
jobs advance the simulated clock identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, TypeVar

from .hbase import SimHBase

__all__ = ["JobStats", "MapReduceEngine"]

K = TypeVar("K")
V = TypeVar("V")
R = TypeVar("R")

#: map(row_key, row_cells) -> iterable of (key, value)
MapFn = Callable[[str, dict[tuple[str, str], bytes]], Iterable[tuple[K, V]]]
#: reduce(key, values) -> result
ReduceFn = Callable[[K, list[V]], R]


@dataclass
class JobStats:
    """Accounting for one MapReduce job."""

    map_tasks: int = 0
    input_rows: int = 0
    shuffled_records: int = 0
    reduce_groups: int = 0
    #: Sum of simulated seconds across all map tasks and the reduce.
    total_compute_seconds: float = 0.0
    #: Simulated parallel completion time.
    simulated_makespan_seconds: float = 0.0
    map_task_seconds: list[float] = field(default_factory=list)


class MapReduceEngine:
    """Runs MapReduce jobs against one :class:`SimHBase` cluster."""

    def __init__(self, hbase: SimHBase) -> None:
        self.hbase = hbase

    def run(self, table: str, map_fn: MapFn, reduce_fn: ReduceFn,
            ) -> tuple[dict, JobStats]:
        """Execute a job over every row of *table*.

        Returns ``(results, stats)`` where ``results`` maps each
        distinct intermediate key to its reduced value.
        """
        stats = JobStats()
        intermediate: dict[object, list[object]] = {}

        regions = self.hbase.regions_of(table)
        slots = max(len(self.hbase.servers), 1)
        network = self.hbase.network
        for region in regions:
            scanned = 0
            for row_key in region.sorted_keys():
                row = {
                    cq: cell.value for cq, cell in region.rows[row_key].items()
                }
                scanned += sum(len(value) for value in row.values())
                stats.input_rows += 1
                for key, value in map_fn(row_key, row):
                    intermediate.setdefault(key, []).append(value)
                    stats.shuffled_records += 1
            task_seconds = network.transfer_seconds(scanned)
            stats.map_tasks += 1
            stats.map_task_seconds.append(task_seconds)
            stats.total_compute_seconds += task_seconds

        # Simulated makespan: greedy longest-processing-time schedule of
        # map tasks onto the region servers' slots.
        loads = [0.0] * slots
        for task in sorted(stats.map_task_seconds, reverse=True):
            loads[loads.index(min(loads))] += task
        map_makespan = max(loads) if loads else 0.0

        results = {
            key: reduce_fn(key, values)
            for key, values in intermediate.items()
        }
        reduce_seconds = network.latency_seconds
        stats.total_compute_seconds += reduce_seconds
        stats.reduce_groups = len(results)
        stats.simulated_makespan_seconds = map_makespan + reduce_seconds
        self.hbase.clock.advance(stats.simulated_makespan_seconds)
        return results, stats
