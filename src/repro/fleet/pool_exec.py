"""True-parallel fleet execution over a multiprocess worker pool.

The discrete-event :class:`~repro.fleet.fleet.Fleet` simulates
concurrency on one host thread; this module instead runs instances
*really* concurrently: a :class:`~concurrent.futures.ProcessPoolExecutor`
fans a population of independent process instances out over OS
processes, each doing the full cryptographic work end to end.

Design constraints that shape the code:

* **Picklable work units.**  Responder closures, key directories and
  live cloud components do not pickle, so nothing of that sort crosses
  the process boundary.  Each worker process rebuilds the world from
  :meth:`~repro.workloads.participants.World.to_dict` and the workload
  from its spec string once (pool initializer); per-instance work units
  are then just integers, and results come back as the plain
  :class:`InstanceResult` value object.
* **Placement-independent determinism.**  Every instance gets its
  *own* :class:`~repro.cloud.system.CloudSystem` (fresh HBase regions,
  fresh caches) and a process id derived from ``(seed, index)``, so an
  instance's documents, byte counts and simulated charges do not
  depend on which worker ran it or what ran before it on that worker.
  ``--workers 1`` and ``--workers N`` therefore produce identical
  deterministic aggregates (see ``RealFleetReport.deterministic_dict``
  and ``tests/fleet/test_real_mode.py``).
* **Nothing dropped at the boundary.**  Each instance runs inside
  ``clock.capture()``; its tagged simulated charges come back as plain
  ``(component, seconds)`` pairs and the parent merges them through
  :meth:`~repro.cloud.simclock.SimClock.absorb` into its own capture
  bucket, preserving per-component attribution across processes.

The audit hook cold-verifies every ``audit_every``-th instance *by
index* (the simulated fleet audits by completion order, which is not
stable under real concurrency) and counts the same rejections as the
simulated fleet's audit (:data:`~repro.fleet.fleet.AUDIT_REJECTIONS`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..cloud.simclock import SimClock
from ..cloud.system import CloudClient, CloudSystem
from ..document.builder import build_initial_document
from ..document.vcache import VerificationCache
from ..document.verify import verify_document
from ..errors import CloudError, JoinNotReady
from ..obs.tracer import Tracer
from ..workloads.participants import World, build_world
from .fleet import AUDIT_REJECTIONS, TFC_IDENTITY
from .report import RealFleetReport
from .workload import FleetWorkload, workload_from_spec

__all__ = ["RealFleetConfig", "InstanceResult", "run_real_fleet"]


@dataclass(frozen=True)
class RealFleetConfig:
    """Knobs of one true-parallel (``--real``) fleet run."""

    #: Workload spec string (``fig9``, ``chain:N[:P]``, …) — shipped to
    #: workers instead of the unpicklable responder closures.
    spec: str
    instances: int
    seed: int = 0
    #: OS worker processes (1 = run inline in this process, same code).
    workers: int = 1
    #: Extra loop iterations for loop-guarded workloads (``fig9``).
    loops: int = 0
    #: Cold-re-verify every Nth instance *by index* (0 disables).
    audit_every: int = 25
    #: Delta document routing inside each instance's cloud.
    delta_routing: bool = False
    #: RSA modulus for the generated world (when none is supplied).
    bits: int = 1024
    #: Portals / region servers per per-instance cloud.
    portals: int = 2
    region_servers: int = 2
    #: ``"ring"`` pins each instance to one portal by consistent hash
    #: (and reports instances-per-portal); default keeps round-robin.
    placement: str = "round-robin"
    #: Factor-R replication of the pool's chunks over the region
    #: servers (``None`` keeps the single store).
    chunk_replicas: int | None = None
    #: HBase region auto-split thresholds per per-instance cloud.
    split_threshold_rows: int = 256
    split_threshold_bytes: int | None = None


@dataclass
class InstanceResult:
    """Picklable per-instance outcome returned by a pool worker."""

    index: int
    process_id: str
    hops: int
    bytes_to_cloud: int
    bytes_from_cloud: int
    audited: bool
    audit_failed: bool
    #: Per-component simulated seconds, sorted by component name.
    charges: list[tuple[str, float]] = field(default_factory=list)
    #: Host wall-clock seconds this instance took inside its worker.
    host_seconds: float = 0.0
    #: Portal id that served this instance ("" unless ring placement).
    portal: str = ""
    #: HBase region splits inside this instance's cloud.
    region_splits: int = 0
    #: Serialized worker-side :meth:`repro.obs.Tracer.payload` (``None``
    #: unless the run was traced) — the parent re-bases and merges it.
    trace: dict[str, object] | None = None


# Worker-process state, rebuilt once per process by :func:`_init_worker`
# (responders and directories do not pickle; the spec + world dict do).
_WORKER: dict[str, object] = {}


def _init_worker(payload: dict[str, object]) -> None:
    """Pool initializer: rebuild world + workload inside this process."""
    world = World.from_dict(payload["world"])  # type: ignore[arg-type]
    workload = workload_from_spec(
        str(payload["spec"]), loops=int(payload["loops"]),  # type: ignore[arg-type]
    )
    _WORKER.clear()
    _WORKER.update(payload)
    _WORKER["world_obj"] = world
    _WORKER["workload_obj"] = workload


def _drive_instance(system: CloudSystem, workload: FleetWorkload,
                    world: World, process_id: str,
                    max_rounds: int = 10_000) -> tuple[int, list[CloudClient]]:
    """Run one instance start to finish; return (hops, clients).

    Adapted from :func:`~repro.cloud.system.run_process_in_cloud`, but
    keeps the clients so the caller can read their wire counters.
    """
    designer = workload.designer
    initial = build_initial_document(
        workload.definition, world.keypair(designer),
        process_id=process_id, backend=system.backend,
        # Simulated creation time, as in the event-driven fleet: host
        # wall clocks would leak varying float widths into byte counts.
        created_at=0.0,
    )
    clients = {
        identity: system.client(world.keypair(identity))
        for identity in workload.identities
    }
    clients[designer].upload_initial(initial)

    hops = 0
    for _ in range(max_rounds):
        progressed = False
        pending = False
        for identity, client in clients.items():
            if identity == designer:
                continue
            for entry in client.todo():
                if entry.process_id != process_id:
                    continue
                pending = True
                responder = workload.responders.get(entry.activity_id)
                if responder is None:
                    raise CloudError(
                        f"no responder for activity {entry.activity_id!r}"
                    )
                try:
                    client.execute(process_id, entry.activity_id, responder)
                    progressed = True
                    hops += 1
                except JoinNotReady:
                    continue
        if not pending:
            return hops, list(clients.values())
        if not progressed:
            raise CloudError(
                f"process {process_id!r} deadlocked: pending work exists "
                f"but nothing can execute"
            )
    raise CloudError(f"process {process_id!r} exceeded {max_rounds} rounds")


def _run_instance(index: int) -> InstanceResult:
    """One complete process instance inside a (possibly pooled) worker."""
    world: World = _WORKER["world_obj"]  # type: ignore[assignment]
    workload: FleetWorkload = _WORKER["workload_obj"]  # type: ignore[assignment]
    seed = int(_WORKER["seed"])  # type: ignore[arg-type]
    audit_every = int(_WORKER["audit_every"])  # type: ignore[arg-type]

    start = time.perf_counter()
    # Fresh per-INSTANCE cloud: determinism must not depend on which
    # worker process ran the instance or what ran there before.
    system = CloudSystem(
        world.directory,
        world.keypair(TFC_IDENTITY),
        portals=int(_WORKER["portals"]),  # type: ignore[arg-type]
        region_servers=int(_WORKER["region_servers"]),  # type: ignore[arg-type]
        backend=world.backend,
        verify_cache=VerificationCache(),
        delta_routing=bool(_WORKER["delta_routing"]),
        placement=str(_WORKER["placement"]),
        chunk_replicas=_WORKER["chunk_replicas"],  # type: ignore[arg-type]
        split_threshold_rows=int(_WORKER["split_threshold_rows"]),  # type: ignore[arg-type]
        split_threshold_bytes=_WORKER["split_threshold_bytes"],  # type: ignore[arg-type]
    )
    process_id = f"real{seed}-{index:06d}"
    # Per-instance tracer: each worker collects its own span tree (over
    # a fresh cursor) and ships it back as a picklable payload; the
    # parent re-bases and concatenates them in index order, mirroring
    # how the simulated charges merge through CostCapture/absorb.
    tracer = Tracer() if _WORKER.get("trace") else None
    if tracer is not None:
        system.attach_tracer(tracer)
    trace_span = (tracer.span("instance", component="fleet",
                              instance=process_id)
                  if tracer is not None else None)
    with system.clock.capture() as captured:
        if trace_span is not None:
            trace_span.__enter__()
        try:
            hops, clients = _drive_instance(system, workload, world,
                                            process_id)
            audited = bool(audit_every) and index % audit_every == 0
            audit_failed = False
            if audited:
                document = system.pool.latest(process_id)
                try:
                    verify_document(
                        document, system.directory, system.backend,
                        definition_reader=(system.tfc.identity,
                                           system.tfc.keypair.private_key),
                    )
                except AUDIT_REJECTIONS:
                    audit_failed = True
        finally:
            if trace_span is not None:
                trace_span.__exit__(None, None, None)
    return InstanceResult(
        index=index,
        process_id=process_id,
        hops=hops,
        bytes_to_cloud=sum(c.bytes_sent for c in clients),
        bytes_from_cloud=sum(c.bytes_received for c in clients),
        audited=audited,
        audit_failed=audit_failed,
        # Aggregate per component before pickling: the report only needs
        # sums, and the raw charge list grows with every simulated RPC.
        charges=sorted(captured.by_component().items()),
        host_seconds=time.perf_counter() - start,
        portal=(system.portal_for(process_id).portal_id
                if system.placement is not None else ""),
        region_splits=system.hbase.stats["splits"],
        trace=tracer.payload() if tracer is not None else None,
    )


def run_real_fleet(config: RealFleetConfig,
                   world: World | None = None,
                   tracer: Tracer | None = None) -> RealFleetReport:
    """Run *config.instances* instances over a real OS process pool.

    *world* lets callers reuse one generated PKI world across several
    runs (key generation is the expensive, non-deterministic part; the
    determinism test passes the same world to the ``workers=1`` and
    ``workers=N`` runs it compares).  When omitted, a fresh world is
    built for the workload's identities.

    *tracer* (optional) collects every instance's worker-side span tree:
    workers trace locally and the payloads merge back here in index
    order, so the assembled trace is identical for ``--workers 1`` and
    ``--workers N`` — the same guarantee the deterministic aggregates
    make.
    """
    if config.instances < 0:
        raise ValueError("instances must be non-negative")
    if config.workers < 1:
        raise ValueError("workers must be at least 1")
    workload = workload_from_spec(config.spec, loops=config.loops)
    if world is None:
        world = build_world([*workload.identities, TFC_IDENTITY],
                            bits=config.bits)
    payload: dict[str, object] = {
        "world": world.to_dict(),
        "spec": config.spec,
        "loops": config.loops,
        "seed": config.seed,
        "audit_every": config.audit_every,
        "delta_routing": config.delta_routing,
        "portals": config.portals,
        "region_servers": config.region_servers,
        "placement": config.placement,
        "chunk_replicas": config.chunk_replicas,
        "split_threshold_rows": config.split_threshold_rows,
        "split_threshold_bytes": config.split_threshold_bytes,
        "trace": tracer is not None,
    }

    wall_start = time.perf_counter()
    indices = range(config.instances)
    if config.workers == 1 or config.instances <= 1:
        # Same code path as the pool, minus the processes: initialize
        # this process as "the worker" and map inline.
        _init_worker(payload)
        results = [_run_instance(index) for index in indices]
    else:
        with ProcessPoolExecutor(
            max_workers=config.workers,
            initializer=_init_worker,
            initargs=(payload,),
        ) as pool:
            chunksize = max(1, config.instances // (config.workers * 4))
            results = list(pool.map(_run_instance, indices,
                                    chunksize=chunksize))
    wall_seconds = time.perf_counter() - wall_start

    # Results arrive in index order from pool.map, but sort defensively:
    # aggregate sums below must not depend on completion order.
    results.sort(key=lambda r: r.index)
    if tracer is not None:
        for result in results:
            if result.trace is not None:
                tracer.absorb(result.trace)
    clock = SimClock()
    with clock.capture() as merged:
        for result in results:
            clock.absorb(result.charges)
    sim_seconds = {component: round(seconds, 9)
                   for component, seconds in merged.by_component().items()}

    portal_counts: dict[str, int] = {}
    for result in results:
        if result.portal:
            portal_counts[result.portal] = (
                portal_counts.get(result.portal, 0) + 1)

    return RealFleetReport(
        workload=workload.name,
        routing="delta" if config.delta_routing else "full",
        seed=config.seed,
        workers=config.workers,
        instances=len(results),
        hops_executed=sum(r.hops for r in results),
        bytes_to_cloud=sum(r.bytes_to_cloud for r in results),
        bytes_from_cloud=sum(r.bytes_from_cloud for r in results),
        instances_audited=sum(1 for r in results if r.audited),
        audit_failures=sum(1 for r in results if r.audit_failed),
        sim_seconds=sim_seconds,
        portals=portal_counts,
        region_splits=sum(r.region_splits for r in results),
        host_seconds_per_instance=[r.host_seconds for r in results],
        wall_seconds=wall_seconds,
        cpu_count=os.cpu_count() or 1,
    )
