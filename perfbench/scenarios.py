"""The benchmark's workloads, driven through the public cloud API.

Every workload is a closed loop in one thread: a caller waits for each
reply before sending the next request.  All inputs (process ids,
response payloads, the audit read sequence, tampered copies) derive
from the workload seed; RSA keys are generated fresh in every set-up.

* ``long_chain`` — ``chain:50:5``, 2 instances in flight, full-document
  routing over 2 round-robin portals, a shared ``VerificationCache``.
* ``short_churn`` — ``diamond:4:6``, 8 instances in flight, ring
  placement over 4 portals, delta routing, a client chunk-cache budget
  below the per-client working set, and a lifecycle sweep (archive,
  compact, retire, gc, flush) every 8 completions.
* ``audit_read`` — set-up fills a delta-routed pool with completed
  ``chain:24:5`` instances; the timed phase is one auditor doing cold
  audits, archive round trips and a MapReduce census.

Every timed quantity is read from ``CLOCK``, this process's CPU time,
and scaled to a nominal host speed by reference task samples taken
between operations (``hostspeed.py``); the length of a run is elapsed
time.
"""

from __future__ import annotations

import random
import resource
import string
import time
from collections import Counter, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.cloud.hbase import CerChunkStore
from repro.cloud.pool import DOC_TABLE, MANIFEST_TABLE, TODO_TABLE
from repro.cloud.system import CloudSystem
from repro.document.archive import (
    build_archive,
    export_archive,
    verify_archive,
)
from repro.document.builder import build_initial_document
from repro.document.document import Dra4wfmsDocument
from repro.document.nonrepudiation import nonrepudiation_scope
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import (
    ArchiveError,
    CryptoError,
    JoinNotReady,
    VerificationError,
    XmlSecError,
)
from repro.workloads.generator import (
    chain_definition,
    diamond_definition,
    participant_pool,
)
from repro.workloads.participants import build_world

from hostspeed import SpeedTrace

DESIGNER = "designer@enterprise.example"
TFC = "tfc@cloud.example"
KEY_BITS = 1024

#: What a correct verifier raises for a tampered document.
REJECTIONS = (VerificationError, XmlSecError, CryptoError, ArchiveError)

HOT_TABLES = (DOC_TABLE, TODO_TABLE, MANIFEST_TABLE, CerChunkStore.TABLE)

#: HBase region size trigger.  Row-count splits never fire on the
#: document table (one fat row per instance), so without a size trigger
#: one region would hold every stored version and each memstore flush
#: would rewrite all of it: per-hop cost would grow with run length.
SPLIT_BYTES = 4 << 20

#: The clock of every timed quantity.  The program runs in one thread
#: and is CPU-bound (storage, network and cloud latency are simulated),
#: so on an idle host its CPU time equals elapsed time; on a host shared
#: with other tenants, CPU time leaves out the time the scheduler gives
#: to them, which elapsed time would count as the program's.
CLOCK = time.process_time


class WrongVerdict(Exception):
    """An output of the program disagrees with what the inputs imply."""


@dataclass(frozen=True)
class WriteSpec:
    """One write-path workload: a workflow shape and a cloud shape."""

    name: str
    shape: str                 # "chain" or "diamond"
    size: int                  # chain length / diamond width
    participants: int
    inflight: int              # instances in flight (closed loop)
    portals: int
    placement: str
    delta: bool
    shared_vcache: bool
    chunk_cache_bytes: int | None
    #: Lifecycle sweep every N completions (0: no sweep, no GC).
    sweep_every: int
    #: Warm-up hops between launching successive instances, so that in
    #: the timed phase the instances sit at evenly spread positions.
    stagger: int
    #: The timed phase ends on a multiple of this many hops (0: it ends
    #: right after a sweep), so every run covers whole cycles.
    pass_hops: int

    @property
    def label(self) -> str:
        return f"{self.shape}:{self.size}:{self.participants}"

    def definition(self):
        pool = participant_pool(self.participants)
        if self.shape == "chain":
            return chain_definition(self.size, participants=pool)
        return diamond_definition(self.size, participants=pool)


LONG_CHAIN = WriteSpec(
    name="long_chain", shape="chain", size=50, participants=5,
    inflight=2, portals=2, placement="round-robin", delta=False,
    shared_vcache=True, chunk_cache_bytes=None, sweep_every=0,
    stagger=25, pass_hops=50,
)
SHORT_CHURN = WriteSpec(
    name="short_churn", shape="diamond", size=4, participants=6,
    inflight=8, portals=4, placement="ring", delta=True,
    shared_vcache=False, chunk_cache_bytes=48 * 1024, sweep_every=8,
    stagger=0, pass_hops=0,
)
AUDIT_FILL = WriteSpec(
    name="audit_read", shape="chain", size=24, participants=5,
    inflight=4, portals=2, placement="round-robin", delta=True,
    shared_vcache=True, chunk_cache_bytes=None, sweep_every=0,
    stagger=0, pass_hops=0,
)


# -- seeded inputs -------------------------------------------------------------


class Payloads:
    """Seeded response values, checked again by the next reader.

    Each variable of each instance gets a printable value of seeded
    length; a responder that requests a variable asserts it decrypted
    exactly the value its producer wrote.
    """

    _ALPHABET = string.ascii_letters + string.digits + " .,-"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def value(self, process_id: str, name: str) -> str:
        rng = random.Random(f"{self.seed}/{process_id}/{name}")
        return "".join(rng.choices(self._ALPHABET,
                                   k=rng.randint(48, 160)))

    def responders(self, definition):
        def respond(context):
            for name, got in context.requests.items():
                if got != self.value(context.process_id, name):
                    raise WrongVerdict(
                        f"{context.activity_id} of {context.process_id} "
                        f"read a wrong value for {name!r}")
            return {name: self.value(context.process_id, name)
                    for name in context.expected_responses}

        return {activity: respond for activity in definition.activities}


def tamper(blob: bytes, rng: random.Random) -> bytes:
    """Flip one base64 character inside a signature, digest or ciphertext."""
    regions = []
    for tag in (b"SignatureValue", b"DigestValue", b"CipherValue"):
        open_tag, close_tag = b"<" + tag + b">", b"</" + tag + b">"
        start = blob.find(open_tag)
        while start >= 0:
            first = start + len(open_tag)
            end = blob.index(close_tag, first)
            # Keep clear of the final quantum, whose padding bits a
            # flip might not change.
            if end - first > 8:
                regions.append((first, end - 4))
            start = blob.find(open_tag, end)
    first, last = rng.choice(regions)
    position = rng.randrange(first, last)
    alphabet = (string.ascii_uppercase + string.ascii_lowercase
                + string.digits + "+/").encode()
    old = blob[position]
    new = alphabet[(alphabet.index(old) + 1 + rng.randrange(62)) % 64]
    return blob[:position] + bytes([new]) + blob[position + 1:]


# -- measurements ----------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured."""

    tracer: object = None
    #: ``CLOCK`` and elapsed time at the start of the phase.
    start: float = 0.0
    wall_start: float = 0.0
    #: ``CLOCK`` and elapsed seconds spent in paused checks.
    paused_s: float = 0.0
    paused_wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: op kind → latencies in ms (hop, audit, archive, census, sweep),
    #: as measured; the phase clock at each one's end; and the latencies
    #: at nominal host speed (set by ``finish``).
    latency_ms: dict[str, list[float]] = field(default_factory=dict)
    ended_at: dict[str, list[float]] = field(default_factory=dict)
    scaled_ms: dict[str, list[float]] = field(default_factory=dict)
    speed: SpeedTrace = field(default_factory=SpeedTrace)
    instance_s: list[float] = field(default_factory=list)
    ops: Counter = field(default_factory=Counter)
    join_retries: int = 0
    wire_bytes: int = 0
    #: op kind → sim component → sim seconds charged.
    sim_s: dict[str, Counter] = field(default_factory=dict)
    peak_hot_bytes: int = 0
    live_bytes_at_peak: int = 0
    checkpoint: dict | None = None
    #: Growth of the program's counters over the phase, and their end.
    counters_start: dict = field(default_factory=dict)
    counters_end: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: Timed ``CLOCK`` seconds of the phase minus paused checks, the
    #: same at nominal host speed, and elapsed seconds minus paused.
    busy_s: float = 0.0
    nominal_s: float = 0.0
    wall_s: float = 0.0

    def now(self) -> float:
        """Phase clock: ``CLOCK`` minus untimed (paused) intervals."""
        return CLOCK() - self.paused_s

    def elapsed(self) -> float:
        """Elapsed seconds since the start, minus paused intervals."""
        return time.perf_counter() - self.wall_start - self.paused_wall_s

    @contextmanager
    def paused(self):
        """Exclude a correctness check from every timed quantity."""
        began, wall_began = CLOCK(), time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += CLOCK() - began
            self.paused_wall_s += time.perf_counter() - wall_began

    def begin(self, system, clients) -> None:
        self.counters_start = counters(system, clients)
        self.start, self.wall_start = CLOCK(), time.perf_counter()

    def sample_speed(self, reference) -> None:
        """One untimed reference task sample, stamped with the phase clock."""
        at = self.now()
        with self.paused():
            self.speed.add(at, reference.sample(CLOCK))

    def finish(self, system, clients) -> None:
        end = self.now()
        self.busy_s = end - self.start
        self.nominal_s = self.speed.nominal(self.start, end)
        self.wall_s = self.elapsed()
        self.scaled_ms = {
            kind: [self.speed.scale(at, ms) for at, ms in zip(
                self.ended_at[kind], values)]
            for kind, values in self.latency_ms.items()}
        self.counters_end = counters(system, clients)
        self.counts = {key: value - self.counters_start.get(key, 0)
                       for key, value in self.counters_end.items()}

    @classmethod
    def merge(cls, phases: list["Phase"]) -> "Phase":
        """One phase measuring what several consecutive ones did."""
        out = cls(tracer=phases[0].tracer, checkpoint=phases[0].checkpoint,
                  counters_end=phases[-1].counters_end)
        for phase in phases:
            out.busy_s += phase.busy_s
            out.nominal_s += phase.nominal_s
            out.speed.ms += phase.speed.ms
            out.wall_s += phase.wall_s
            out.paused_s += phase.paused_s
            out.paused_wall_s += phase.paused_wall_s
            out.attempted += phase.attempted
            out.failed += phase.failed
            out.errors += phase.errors
            for kind, values in phase.latency_ms.items():
                out.latency_ms.setdefault(kind, []).extend(values)
            for kind, values in phase.scaled_ms.items():
                out.scaled_ms.setdefault(kind, []).extend(values)
            out.instance_s += phase.instance_s
            out.ops.update(phase.ops)
            out.join_retries += phase.join_retries
            out.wire_bytes += phase.wire_bytes
            for kind, sims in phase.sim_s.items():
                out.sim_s.setdefault(kind, Counter()).update(sims)
            if phase.peak_hot_bytes > out.peak_hot_bytes:
                out.peak_hot_bytes = phase.peak_hot_bytes
                out.live_bytes_at_peak = phase.live_bytes_at_peak
            for key, value in phase.counts.items():
                out.counts[key] = out.counts.get(key, 0) + value
        return out

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def record(self, kind: str, ms: float, capture) -> None:
        self.latency_ms.setdefault(kind, []).append(ms)
        self.ended_at.setdefault(kind, []).append(self.now())
        self.ops[kind] += 1
        sims = self.sim_s.setdefault(kind, Counter())
        for component, seconds in capture.by_component().items():
            sims[component] += seconds


def counters(system: CloudSystem, clients) -> dict[str, float]:
    """The program's own public counters, flattened."""
    out: Counter = Counter()
    for portal in system.portals:
        for key, value in portal.stats.items():
            out[f"portal.{key}"] += value
    for key, value in system.hbase.stats.items():
        out[f"hbase.{key}"] += value
    for key, value in system.hdfs.stats.items():
        out[f"hdfs.{key}"] += value
    store = system.pool.chunks
    if store is not None:
        for key, value in store.stats.items():
            out[f"chunkstore.{key}"] += value
        for key, value in store.lifecycle.items():
            out[f"chunkstore.{key}"] += value
    if system.verify_cache is not None:
        out["vcache.hits"] += system.verify_cache.stats.hits
        out["vcache.misses"] += system.verify_cache.stats.misses
    for client in clients:
        out["chunkcache.hits"] += client.chunks.hits
        out["chunkcache.misses"] += client.chunks.misses
        out["chunkcache.evictions"] += client.chunks.evictions
        out["client.bytes_sent"] += client.bytes_sent
        out["client.bytes_received"] += client.bytes_received
    return dict(out)


def rsa_calls(tracer) -> dict[str, int]:
    """RSA sign/verify calls recorded so far by a layer tracer."""
    calls = Counter(record[0] for record in tracer.spans)
    return {
        "rsa.signs": calls["crypto.sign"] + calls["crypto.sign_pss"],
        "rsa.verifies": calls["crypto.verify"] + calls["crypto.verify_pss"],
    }


def peak_rss_mb() -> float:
    """Maximum resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _root(tracer, kind: str):
    return tracer.root(kind) if tracer is not None else nullcontext()


# -- write-path workloads ----------------------------------------------------------


class Workload:
    """The timed loop shared by every workload."""

    #: Counters and peak RSS are snapshotted after this many timed
    #: operations: a fixed amount of work, for the same-seed
    #: repeatability check and a memory figure that does not grow with
    #: host speed.
    CHECKPOINT = 48

    def run(self, seconds: float, tracer=None) -> Phase:
        """Closed loop for at least *seconds* (elapsed) and CHECKPOINT
        operations, ending on a whole cycle.  A reference task sample
        sits between every two steps: sampling every 50 ms instead
        (every fourth audit) doubled the spread of audit_read's 90th
        percentile over parts of one run."""
        phase = self._new_phase(tracer)
        phase.begin(self.system, self.clients.values())
        while (phase.checkpoint is None or not self._aligned(phase)
               or phase.elapsed() < seconds):
            phase.sample_speed(self.reference)
            self._step(phase)
            if phase.checkpoint is None and \
                    self._done(phase) >= self.CHECKPOINT:
                with phase.paused():
                    phase.checkpoint = self._checkpoint(phase)
        phase.sample_speed(self.reference)
        phase.finish(self.system, self.clients.values())
        return phase

    def _new_phase(self, tracer) -> Phase:
        self.tracer = tracer
        phase = Phase(tracer=tracer)
        phase.start, phase.wall_start = CLOCK(), time.perf_counter()
        return phase

    def _checkpoint(self, phase: Phase) -> dict:
        snap = counters(self.system, self.clients.values())
        snap.update({f"ops.{kind}": n for kind, n in phase.ops.items()})
        snap.update(self._progress())
        snap["rss_mb"] = peak_rss_mb()
        if phase.tracer is not None:
            snap.update(rsa_calls(phase.tracer))
        return snap


class WriteWorkload(Workload):
    """Closed-loop process instances driven hop by hop through clients."""

    def __init__(self, spec: WriteSpec, seed: int, reference) -> None:
        self.spec = spec
        self.seed = seed
        self.reference = reference
        self.definition = spec.definition()
        self.payloads = Payloads(seed)
        self.responders = self.payloads.responders(self.definition)
        #: Advanced model: an intermediate and a TFC CER per activity,
        #: plus the definition CER.
        self.expected_cers = 2 * len(self.definition.activities) + 1

    # -- set-up --------------------------------------------------------------

    def stand_up(self) -> None:
        """Key world, cloud, logged-in clients."""
        spec = self.spec
        identities = sorted(
            {a.participant for a in self.definition.activities.values()}
            | {DESIGNER, TFC})
        self.world = build_world(identities, bits=KEY_BITS)
        self.system = CloudSystem(
            self.world.directory, self.world.keypair(TFC),
            portals=spec.portals,
            backend=self.world.backend,
            verify_cache=VerificationCache() if spec.shared_vcache else None,
            delta_routing=spec.delta,
            placement=spec.placement,
            chunk_cache_bytes=spec.chunk_cache_bytes,
            split_threshold_bytes=SPLIT_BYTES,
        )
        self.clients = {
            identity: self.system.client(self.world.keypair(identity))
            for identity in identities if identity != TFC
        }
        self.queue: deque[tuple[str, str]] = deque()
        self.pending: dict[str, set[str]] = {}
        self.started: dict[str, tuple[int, float]] = {}
        self.retirable: list[str] = []
        self.launched = 0
        self.completed = 0
        self.cers_checked = 0
        self.phase_id = 0
        self.tracer = None

    def setup(self) -> Phase:
        """Stand up and warm up; returns the (untimed) warm-up phase."""
        self.stand_up()
        warm = self._new_phase(None)
        spec = self.spec
        if spec.stagger:
            for index in range(spec.inflight):
                self._launch(warm)
                if index < spec.inflight - 1:
                    for _ in range(spec.stagger):
                        self._hop(warm)
        else:
            for _ in range(spec.inflight):
                self._launch(warm)
            target = spec.sweep_every or spec.inflight
            while self.completed < target:
                self._hop(warm)
        return warm

    def populate(self, instances: int) -> Phase:
        """Run *instances* to completion with no relaunch (pool fill)."""
        self.stand_up()
        fill = self._new_phase(None)
        self.relaunch = False
        for _ in range(instances):
            self._launch(fill)
        while self.queue:
            self._hop(fill)
        return fill

    # -- the loop ------------------------------------------------------------

    def _new_phase(self, tracer) -> Phase:
        self.phase_id += 1
        self.relaunch = True
        self.at_sweep = False
        return super()._new_phase(tracer)

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = super().run(seconds, tracer)
        phase.wire_bytes = (phase.counts["client.bytes_sent"]
                            + phase.counts["client.bytes_received"])
        return phase

    def _step(self, phase: Phase) -> None:
        self._hop(phase)

    def _done(self, phase: Phase) -> int:
        return phase.ops["hop"]

    def _aligned(self, phase: Phase) -> bool:
        if self.spec.pass_hops:
            return phase.ops["hop"] % self.spec.pass_hops == 0
        return self.at_sweep

    def _progress(self) -> dict:
        return {"completed": self.completed, "gate_cers": self.cers_checked}

    def _hop(self, phase: Phase) -> None:
        process_id, activity = self.queue.popleft()
        client = self.clients[self.definition.activity(activity).participant]
        clock = self.system.clock
        try:
            began = CLOCK()
            with _root(self.tracer, "hop"), clock.capture() as capture:
                entries = client.execute(process_id, activity,
                                         self.responders[activity])
            elapsed = CLOCK() - began
        except JoinNotReady:
            phase.join_retries += 1
            self.queue.append((process_id, activity))
            return
        except Exception as exc:  # a failed hop abandons its instance
            phase.attempted += 1
            phase.fail(f"hop {process_id}/{activity}", exc)
            self._abandon(process_id, phase)
            return
        phase.attempted += 1
        phase.record("hop", 1e3 * elapsed, capture)
        self.at_sweep = False
        pending = self.pending[process_id]
        pending.discard(activity)
        for entry in entries:
            if entry.activity_id not in pending:
                pending.add(entry.activity_id)
                self.queue.append((process_id, entry.activity_id))
        if not pending:
            self._complete(process_id, phase)

    def _launch(self, phase: Phase) -> None:
        index = self.launched
        self.launched += 1
        process_id = f"{self.spec.name}-s{self.seed}-{index:06d}"
        start = self.definition.start_activity
        began = phase.now()
        try:
            with _root(self.tracer, "launch"), \
                    self.system.clock.capture() as capture:
                initial = build_initial_document(
                    self.definition, self.world.keypair(DESIGNER),
                    process_id=process_id, backend=self.system.backend,
                    created_at=float(index),
                )
                self.clients[DESIGNER].upload_initial(initial)
        except Exception as exc:  # a failed launch is one failed op
            phase.attempted += 1
            phase.fail(f"launch {process_id}", exc)
            return
        phase.attempted += 1
        phase.record("launch", 1e3 * (phase.now() - began), capture)
        self.started[process_id] = (self.phase_id, began)
        self.pending[process_id] = {start}
        self.queue.append((process_id, start))

    def _abandon(self, process_id: str, phase: Phase) -> None:
        self.pending.pop(process_id, None)
        self.started.pop(process_id, None)
        self.queue = deque(item for item in self.queue
                           if item[0] != process_id)
        if self.relaunch:
            self._launch(phase)

    def _complete(self, process_id: str, phase: Phase) -> None:
        del self.pending[process_id]
        phase_id, began = self.started.pop(process_id)
        if phase_id == self.phase_id:
            phase.instance_s.append(phase.now() - began)
        with phase.paused(), _root(self.tracer, "gate"):
            self._gate(process_id, phase)
        self.completed += 1
        if self.spec.sweep_every:
            self.retirable.append(process_id)
            if self.completed % self.spec.sweep_every == 0:
                with phase.paused():
                    self._sample_storage(phase)
                self._sweep(phase)
        if self.relaunch:
            self._launch(phase)

    def _gate(self, process_id: str, phase: Phase) -> None:
        """The final pooled document must cold-verify, complete."""
        phase.attempted += 1
        tfc = self.system.tfc
        try:
            document = self.system.pool.latest(process_id)
            report = verify_document(
                document, self.system.directory, self.system.backend,
                definition_reader=(tfc.identity, tfc.keypair.private_key))
            if (report.cers_checked != self.expected_cers
                    or report.signatures_verified != self.expected_cers):
                raise WrongVerdict(
                    f"final document has {report.cers_checked} CERs and "
                    f"{report.signatures_verified} signatures, expected "
                    f"{self.expected_cers}")
        except Exception as exc:  # any miss is a failed operation
            phase.fail(f"gate {process_id}", exc)
            return
        self.cers_checked += report.cers_checked

    def _sample_storage(self, phase: Phase) -> None:
        """Hot bytes peak just before a sweep; compare with live bytes."""
        hbase, pool = self.system.hbase, self.system.pool
        hot = sum(hbase.total_bytes(table) for table in HOT_TABLES
                  if hbase.has_table(table))
        if hot > phase.peak_hot_bytes:
            live = [*self.pending, *self.retirable]
            phase.peak_hot_bytes = hot
            phase.live_bytes_at_peak = sum(
                pool.latest_manifest(p).doc_bytes for p in live)

    def _sweep(self, phase: Phase) -> None:
        pool = self.system.pool
        began = CLOCK()
        with _root(self.tracer, "sweep"), \
                self.system.clock.capture() as capture:
            for process_id in self.retirable:
                pool.archive(process_id)
                pool.compact(process_id)
                pool.retire(process_id)
            self.retirable.clear()
            pool.gc()
            pool.flush_hot_tables()
        phase.record("sweep", 1e3 * (CLOCK() - began), capture)
        self.at_sweep = True


# -- the read-only workload ---------------------------------------------------------


class AuditWorkload(Workload):
    """One auditor making seeded cold reads of a pre-filled pool."""

    INSTANCES = 4
    CENSUS_EVERY = 50
    ARCHIVE_SHARE = 0.25
    TAMPER_SHARE = 0.125
    WARMUP_OPS = 10

    def __init__(self, seed: int, reference) -> None:
        self.seed = seed
        self.reference = reference
        self.filler = WriteWorkload(AUDIT_FILL, seed, reference)
        definition = self.filler.definition
        self.expected_cers = self.filler.expected_cers
        self.expected_activity = {
            activity: self.INSTANCES for activity in definition.activities}
        self.expected_participants = {
            participant: count * self.INSTANCES
            for participant, count in Counter(
                a.participant for a in definition.activities.values()
            ).items()}

    def setup(self) -> Phase:
        fill = self.filler.populate(self.INSTANCES)
        self.system = self.filler.system
        self.clients = self.filler.clients
        self.process_ids = [f"{AUDIT_FILL.name}-s{self.seed}-{i:06d}"
                            for i in range(self.INSTANCES)]
        self.trust = self.filler.world.to_public_dict()
        self.tfc_ids = (self.system.tfc.identity,)
        rng = random.Random(f"{self.seed}/tamper")
        self.tampered = [
            tamper(self.system.pool.latest_bytes(pid), rng)
            for pid in self.process_ids]
        self.rng = random.Random(f"{self.seed}/reads")
        self.ops_done = 0
        self.tracer = None
        for _ in range(self.WARMUP_OPS):
            self._step(fill)
        return fill

    def _done(self, phase: Phase) -> int:
        return sum(phase.ops.values())

    def _aligned(self, phase: Phase) -> bool:
        return self.ops_done % self.CENSUS_EVERY == 0

    def _progress(self) -> dict:
        return {"reads": self.ops_done}

    def _step(self, phase: Phase) -> None:
        self.ops_done += 1
        rng = self.rng
        if self.ops_done % self.CENSUS_EVERY == 0:
            self._census(phase)
            return
        index = rng.randrange(len(self.process_ids))
        tampered = rng.random() < self.TAMPER_SHARE
        if rng.random() < self.ARCHIVE_SHARE:
            self._archive(phase, index, tampered)
        else:
            self._audit(phase, index, tampered, rng.random())

    def _audit(self, phase: Phase, index: int, tampered: bool,
               pick: float) -> None:
        phase.attempted += 1
        tfc = self.system.tfc
        rejected = None
        kind = "audit_tampered" if tampered else "audit"
        try:
            began = CLOCK()
            with _root(self.tracer, kind), \
                    self.system.clock.capture() as capture:
                if tampered:
                    document = Dra4wfmsDocument.from_bytes(
                        self.tampered[index])
                else:
                    document = self.system.pool.latest(
                        self.process_ids[index])
                try:
                    report = verify_document(
                        document, self.system.directory,
                        self.system.backend,
                        definition_reader=(tfc.identity,
                                           tfc.keypair.private_key))
                except REJECTIONS as exc:
                    rejected = exc
                else:
                    cers = document.cers()
                    position = int(pick * len(cers))
                    scope = nonrepudiation_scope(document, cers[position])
            elapsed = CLOCK() - began
            with phase.paused():
                if tampered:
                    if rejected is None:
                        raise WrongVerdict("tampered copy was accepted")
                else:
                    if rejected is not None:
                        raise WrongVerdict(f"genuine document rejected: "
                                           f"{rejected}")
                    if report.cers_checked != self.expected_cers:
                        raise WrongVerdict(
                            f"{report.cers_checked} CERs checked, "
                            f"expected {self.expected_cers}")
                    if [c.cer_id for c in scope] != \
                            [c.cer_id for c in cers[:position + 1]]:
                        raise WrongVerdict(
                            f"nonrepudiation scope of CER {position} is "
                            f"not the CERs before it")
        except Exception as exc:  # any miss is a failed operation
            phase.fail(f"audit {index}", exc)
            return
        phase.record(kind, 1e3 * elapsed, capture)

    def _archive(self, phase: Phase, index: int, tampered: bool) -> None:
        phase.attempted += 1
        rejected = None
        kind = "archive_tampered" if tampered else "archive"
        try:
            began = CLOCK()
            with _root(self.tracer, kind), \
                    self.system.clock.capture() as capture:
                if tampered:
                    bundle = build_archive(
                        Dra4wfmsDocument.from_bytes(self.tampered[index]),
                        self.trust, tfc_identities=self.tfc_ids)
                else:
                    bundle = export_archive(
                        self.system.pool, self.process_ids[index],
                        self.trust, tfc_identities=self.tfc_ids)
                try:
                    result = verify_archive(bundle.to_bytes())
                except REJECTIONS as exc:
                    rejected = exc
            elapsed = CLOCK() - began
            with phase.paused():
                if tampered and rejected is None:
                    raise WrongVerdict("tampered archive was accepted")
                if not tampered:
                    if rejected is not None:
                        raise WrongVerdict(f"genuine archive rejected: "
                                           f"{rejected}")
                    if result.cers_checked != self.expected_cers:
                        raise WrongVerdict(
                            f"archive checked {result.cers_checked} CERs, "
                            f"expected {self.expected_cers}")
        except Exception as exc:  # any miss is a failed operation
            phase.fail(f"archive {index}", exc)
            return
        phase.record(kind, 1e3 * elapsed, capture)

    def _census(self, phase: Phase) -> None:
        phase.attempted += 1
        try:
            began = CLOCK()
            with _root(self.tracer, "census"), \
                    self.system.clock.capture() as capture:
                activity, _ = self.system.activity_statistics()
                participants, _ = self.system.participant_workload()
            elapsed = CLOCK() - began
            if activity != self.expected_activity \
                    or participants != self.expected_participants:
                raise WrongVerdict("census counts differ from the pool")
        except Exception as exc:  # any miss is a failed operation
            phase.fail("census", exc)
            return
        phase.record("census", 1e3 * elapsed, capture)


def build(name: str, seed: int, reference):
    """The workload object for *name*; *reference* is the process's
    ``hostspeed.ReferenceTask``."""
    if name == "long_chain":
        return WriteWorkload(LONG_CHAIN, seed, reference)
    if name == "short_churn":
        return WriteWorkload(SHORT_CHURN, seed, reference)
    if name == "audit_read":
        return AuditWorkload(seed, reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("long_chain", "short_churn", "audit_read")
