"""The pool's held document: what it last stored for each live instance.

``DocumentPool.latest`` returns a copy of the held document only when
storage still holds exactly the manifest the pool wrote; every test
here checks that the shortcut changes no byte and no verdict: reads
equal cold parses, edited storage is served (and rejected) as before,
rollbacks are still caught, appends by callers do not leak into the
pool, and finished instances are not held.  Every test except the
corrupt-chunk one runs under both wire protocols (whole documents and
deltas), reading back what a portal of that routing serves.
"""

from __future__ import annotations

import copy

import pytest

from repro.cloud import CloudSystem
from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DOC_TABLE, DocumentPool
from repro.document import Dra4wfmsDocument, build_initial_document
from repro.document.cer import CER
from repro.document.delta import assemble, chunk_document
from repro.errors import DeltaError, PortalError
from repro.fleet import ClosedLoop, FleetConfig, build_fleet, workload_from_spec
from repro.security.attacks import rollback_dra_document
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders

TFC = "tfc@cloud.example"

ROUTINGS = pytest.mark.parametrize("delta", [False, True],
                                   ids=["full", "delta"])


@pytest.fixture()
def parses(monkeypatch):
    """Counts ``Dra4wfmsDocument.from_bytes`` calls."""
    calls = []
    original = Dra4wfmsDocument.from_bytes.__func__

    def counting(cls, data):
        calls.append(len(data))
        return original(cls, data)

    monkeypatch.setattr(Dra4wfmsDocument, "from_bytes",
                        classmethod(counting))
    return calls


def cold(data: bytes) -> bytes:
    return Dra4wfmsDocument.from_bytes(data).to_bytes()


def superuser_edit(pool: DocumentPool, edited: Dra4wfmsDocument) -> None:
    """Rewrite the instance's latest version behind the pool's back."""
    manifest, payloads = chunk_document(edited)
    pool.chunks.put_chunks(payloads)
    pool.hbase.put(DOC_TABLE, edited.process_id, "doc", "manifest",
                   manifest.to_bytes())


def served(pool: DocumentPool, process_id: str, delta: bool) -> bytes:
    """The latest version as a portal of that routing serves it.

    Whole-document routing sends the pool's reassembled bytes; delta
    routing sends the latest manifest and its chunks, which a client
    holding nothing reassembles itself.
    """
    if not delta:
        return pool.latest_bytes(process_id)
    manifest = pool.latest_manifest(process_id)
    return assemble(manifest, pool.chunks.get_chunks(manifest.chunk_digests))


def edit_a_cipher_value(document: Dra4wfmsDocument) -> Dra4wfmsDocument:
    """A deep copy with one CipherValue of its first CER altered."""
    edited = document.clone()
    node = edited.results_section.find(".//CipherValue")
    node.text = node.text[:-4] + ("AAAA" if not node.text.endswith("AAAA")
                                  else "BBBB")
    return edited


def system_for(world, backend, delta):
    return CloudSystem(world.directory, world.keypair(TFC),
                       portals=2, backend=backend,
                       delta_routing=delta)


def start(system, world, fig9b, backend):
    initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                     backend=backend)
    clients = {identity: system.client(world.keypair(identity))
               for identity in {DESIGNER, *PARTICIPANTS.values()}}
    clients[DESIGNER].upload_initial(initial)
    return initial.process_id, clients


class TestReads:
    @ROUTINGS
    def test_latest_equals_stored_and_cold_after_every_store(
            self, delta, fig9a_trace, parses):
        pool = DocumentPool(SimHBase(region_servers=2))
        pid = fig9a_trace.final_document.process_id
        pool.register_process(pid)
        stored_ids: set[str] = set()
        for step in fig9a_trace.steps:
            ids = {cer.cer_id for cer in step.document.cers()}
            if not ids >= stored_ids:
                continue  # a parallel branch: the pool only ever grows
            stored_ids = ids
            pool.store(step.document)
            stored = pool.latest_bytes(pid)
            before = len(parses)
            latest = pool.latest(pid)
            # The held copy answered: no parse.
            assert len(parses) == before
            assert latest.to_bytes() == stored == cold(stored)
            assert stored == step.document.to_bytes()
            assert served(pool, pid, delta) == stored

    @ROUTINGS
    def test_cloud_hops_read_held_copies(self, delta, world, fig9b,
                                         backend):
        system = system_for(world, backend, delta)
        pid, clients = start(system, world, fig9b, backend)
        responders = figure9_responders(1)
        for activity in ("A", "B1", "B2", "C", "D") * 2:
            stored = system.pool.latest_bytes(pid)
            assert system.pool.latest(pid).to_bytes() == stored \
                == cold(stored)
            participant = fig9b.activity(activity).participant
            clients[participant].execute(pid, activity,
                                         responders[activity])
        assert system.pool.todo_for(PARTICIPANTS["A"]) == []
        assert cold(system.pool.latest_bytes(pid)) == \
            system.pool.latest(pid).to_bytes()

    @ROUTINGS
    def test_edited_storage_is_served_and_merge_rejects_it(
            self, delta, world, fig9b, backend):
        system = system_for(world, backend, delta)
        pid, clients = start(system, world, fig9b, backend)
        responders = figure9_responders(1)
        a = clients[PARTICIPANTS["A"]]
        a.execute(pid, "A", responders["A"])
        # B1 checks out and executes the genuine document ...
        b1 = clients[PARTICIPANTS["B1"]]
        result = b1.agent.execute_activity(
            b1.retrieve_document(pid), "B1", responders["B1"],
            mode="advanced", tfc_identity=system.tfc.identity,
            tfc_public_key=system.tfc.public_key)
        # ... while a superuser edits the stored copy.
        edited = edit_a_cipher_value(system.pool.latest(pid))
        superuser_edit(system.pool, edited)
        assert system.pool.latest(pid).to_bytes() == edited.to_bytes()
        assert system.pool.latest_bytes(pid) == edited.to_bytes()
        portal = b1._route(pid)[0]
        with pytest.raises(PortalError, match="differs between branch"):
            b1.submit_document(result.document)
        assert portal.stats["rejected"] == 1
        assert system.pool.latest_bytes(pid) == edited.to_bytes()

    def test_corrupt_chunk_still_raises(self, fig9a_trace):
        pool = DocumentPool(SimHBase(region_servers=2))
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        manifest = pool.latest_manifest(final.process_id)
        digest = next(c.digest for c in manifest.chunks if c.is_cer)
        good = pool.chunks.get_chunks([digest])[digest]
        # Same length, one byte flipped, written behind the store's back.
        pool.hbase.put(CerChunkStore.TABLE, digest, "c", "b",
                       bytes([good[0] ^ 1]) + good[1:])
        with pytest.raises(DeltaError, match="content address"):
            pool.latest(final.process_id)


class TestWrites:
    @ROUTINGS
    def test_rollback_attack_detected_through_held_copy(
            self, delta, fig9a_trace, world, backend):
        pool = DocumentPool(SimHBase(region_servers=1))
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        outcome = rollback_dra_document(final, world.directory, pool=pool,
                                        backend=backend)
        assert outcome.detected and not outcome.succeeded
        assert "rollback" in outcome.detail
        assert pool.latest_bytes(final.process_id) == final.to_bytes()
        assert pool.latest(final.process_id).to_bytes() == final.to_bytes()
        assert served(pool, final.process_id, delta) == final.to_bytes()

    @ROUTINGS
    def test_appends_by_callers_do_not_reach_the_pool(self, delta,
                                                      fig9a_trace):
        pool = DocumentPool(SimHBase(region_servers=2))
        early = fig9a_trace.steps[0].document.clone()
        final = fig9a_trace.final_document
        pid = final.process_id
        pool.register_process(pid)
        pool.store(early)
        stored = pool.latest_bytes(pid)
        extra = final.cers(include_definition=False)[len(early.cers()) - 1:]

        def next_cer():
            return CER(copy.deepcopy(extra[0].element))

        early.append_cer(next_cer())
        assert pool.latest(pid).to_bytes() == stored
        pool.latest(pid).append_cer(next_cer())
        latest = pool.latest(pid)
        assert latest.to_bytes() == stored == cold(stored)
        assert served(pool, pid, delta) == stored
        assert len(latest.cers()) == len(Dra4wfmsDocument.from_bytes(
            stored).cers())


class TestRelease:
    @ROUTINGS
    def test_finished_and_managed_instances_are_not_held(
            self, delta, world, fig9b, backend):
        system = system_for(world, backend, delta)
        pool = system.pool
        responders = figure9_responders(0)
        pid, clients = start(system, world, fig9b, backend)
        assert set(pool._held) == {pid}
        for activity in ("A", "B1", "B2", "C", "D"):
            participant = fig9b.activity(activity).participant
            clients[participant].execute(pid, activity,
                                         responders[activity])
        # Routed to no next activity: finished, released.
        assert pool._held == {}
        other, _ = start(system, world, fig9b, backend)
        third, _ = start(system, world, fig9b, backend)
        assert set(pool._held) == {other, third}
        pool.archive(other)
        assert set(pool._held) == {third}
        pool.purge(third)
        assert pool._held == {}
        fourth, _ = start(system, world, fig9b, backend)
        pool.archive(fourth)
        # An archived instance may still be stored to, and held ...
        pool.store(pool.latest(fourth))
        assert set(pool._held) == {fourth}
        # ... until it is retired.
        pool.retire(fourth)
        assert pool._held == {}

    @ROUTINGS
    def test_no_entries_after_fleet_run(self, delta):
        config = FleetConfig(arrivals=ClosedLoop(instances=6, concurrency=3),
                             seed=3, audit_every=2, gc_interval=2)
        fleet = build_fleet(workload_from_spec("fig9"), config,
                            delta_routing=delta)
        report = fleet.run()
        assert report.instances_completed == 6
        assert fleet.system.pool._held == {}
