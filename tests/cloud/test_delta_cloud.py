"""Delta transfers through the cloud stack: pool, portal, client.

The pool stores manifests plus content-addressed chunks, and portals
serve one-round-trip delta retrieves from them.  Everything here checks
the two invariants the design hangs on: reassembled bytes are exactly
the bytes that were stored, and every failure mode
(missing chunk, over-assumed cache, rollback) either falls back to a
full transfer or raises — never silently corrupts.
"""

from __future__ import annotations

import pytest

from repro.cloud import CloudSystem, run_process_in_cloud
from repro.cloud.hbase import CerChunkStore, SimHBase
from repro.cloud.pool import DocumentPool
from repro.document import build_initial_document, verify_document
from repro.document.delta import assemble, chunk_document
from repro.errors import DeltaError, TamperDetected
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS, figure9_responders

TFC = "tfc@cloud.example"


@pytest.fixture()
def delta_system(world, backend):
    return CloudSystem(world.directory, world.keypair(TFC), portals=2,
                       backend=backend, delta_routing=True)


@pytest.fixture()
def full_system(world, backend):
    return CloudSystem(world.directory, world.keypair(TFC), portals=2,
                       backend=backend)


@pytest.fixture()
def initial(world, fig9b, backend):
    return build_initial_document(fig9b, world.keypair(DESIGNER),
                                  backend=backend)


# -- pool --------------------------------------------------------------------


class TestDeltaPool:
    @pytest.fixture()
    def pool(self):
        return DocumentPool(SimHBase(region_servers=2))

    def test_round_trips_byte_identical(self, pool, fig9a_trace):
        early = fig9a_trace.steps[0].document
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        assert pool.store(early) == 0
        assert pool.store(final) == 1
        assert pool.latest_bytes(final.process_id) == final.to_bytes()
        history = pool.history(final.process_id)
        assert [d.to_bytes() for d in history] == \
            [early.to_bytes(), final.to_bytes()]

    def test_versions_share_chunks(self, pool, fig9a_trace):
        # Parallel-branch snapshots are not mutually monotonic (each
        # branch lacks the sibling's CER until the join), so store the
        # growing subsequence a single submitting client would produce.
        documents = [s.document for s in fig9a_trace.steps]
        pool.register_process(documents[0].process_id)
        stored_cers: set[str] = set()
        stored = 0
        for document in documents:
            manifest, _ = chunk_document(document)
            if stored_cers <= set(manifest.cer_digests):
                pool.store(document)
                stored_cers = set(manifest.cer_digests)
                stored += 1
        assert stored >= 3
        stats = pool.chunks.stats
        assert stats["dedup_hits"] > 0
        # Shared CERs are stored once: unique storage is well under the
        # sum of all version sizes.
        assert stats["unique_bytes"] < stats["logical_bytes"] / 2

    def test_rollback_rejected(self, pool, fig9a_trace):
        early = fig9a_trace.steps[0].document
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        with pytest.raises(TamperDetected, match="rollback"):
            pool.store(early)

    def test_manifest_lookup_by_digest(self, pool, fig9a_trace):
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        manifest = pool.latest_manifest(final.process_id)
        assert pool.manifest_by_digest(manifest.doc_digest) == manifest
        assert pool.manifest_by_digest("0" * 64) is None

    def test_lost_chunk_raises_not_corrupts(self, pool, fig9a_trace):
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        victim = pool.latest_manifest(final.process_id).chunks[0]
        pool.hbase.delete_row(CerChunkStore.TABLE, victim.digest)
        with pytest.raises(DeltaError, match="missing"):
            pool.latest_bytes(final.process_id)

    def test_summarize_sees_full_size(self, pool, fig9a_trace):
        final = fig9a_trace.final_document
        pool.register_process(final.process_id)
        pool.store(final)
        summary = pool.summarize(final.process_id)
        assert summary.size_bytes == final.size_bytes
        assert summary.versions == 1


# -- portal + client protocol ------------------------------------------------


class TestDeltaProtocol:
    def _execute(self, system, world, backend, client, data, activity_id,
                 response):
        return client.agent.execute_activity(
            data, activity_id, response, mode="advanced",
            tfc_identity=system.tfc.identity,
            tfc_public_key=system.tfc.public_key,
        )

    def test_revisit_retrieve_is_a_delta(self, delta_system, world,
                                         backend, initial):
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))

        data = client.retrieve_bytes(pid)
        assert data == delta_system.pool.latest_bytes(pid)
        first_wire = client.bytes_received
        assert first_wire >= len(data)  # cold: manifest + every chunk

        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        client.submit_document(result.document)
        # The submit shipped only the new CER chunks, not the document.
        assert client.bytes_sent < result.document.size_bytes

        before = client.bytes_received
        again = client.retrieve_bytes(pid)
        assert again == delta_system.pool.latest_bytes(pid)
        # The revisit moves the TFC's finalisation delta, not the
        # document: a small fraction of the full size.
        assert client.bytes_received - before < len(again) / 2

        portal_stats = [p.stats for p in delta_system.portals]
        assert sum(s["delta_retrievals"] for s in portal_stats) >= 2
        assert sum(s["delta_submissions"] for s in portal_stats) >= 1
        assert sum(s["delta_fallbacks"] for s in portal_stats) == 0

    def test_full_cloud_serves_delta_retrieve(self, full_system, world,
                                              initial):
        """Routing picks the wire protocol only: a cloud whose clients
        move whole documents still stores chunks, so its portals serve
        a delta retrieve of the same bytes."""
        designer = full_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        delta = designer.portal.retrieve_delta(designer.session, pid)
        assert delta.manifest.doc_digest == \
            full_system.pool.latest_manifest(pid).doc_digest
        assert set(delta.chunks) == set(delta.manifest.chunk_digests)
        assert assemble(delta.manifest, delta.chunks) == \
            initial.to_bytes() == \
            designer.portal.retrieve(designer.session, pid)

    def test_over_assumed_submit_falls_back(self, delta_system, world,
                                            backend, initial):
        """A client whose cloud-known set is wrong (it assumes the cloud
        holds chunks it does not) triggers the fallback path: the portal
        demands a full submit, the client complies, the process keeps
        moving."""
        designer = delta_system.client(world.keypair(DESIGNER))
        pid = designer.upload_initial(initial)
        client = delta_system.client(world.keypair(PARTICIPANTS["A"]))
        data = client.retrieve_bytes(pid)
        result = self._execute(delta_system, world, backend, client, data,
                               "A", {"attachment": "x"})
        # Poison the cache model: claim the cloud holds everything,
        # including the brand-new CER chunks it has never seen.
        manifest, _ = chunk_document(result.document)
        client._cloud_known.update(manifest.chunk_digests)

        entries = client.submit_document(result.document)
        assert {e.activity_id for e in entries} == {"B1", "B2"}
        assert sum(p.stats["delta_fallbacks"]
                   for p in delta_system.portals) >= 1
        # The fallback stored the real document: bytes round-trip.
        assert delta_system.pool.latest(pid).cers()


# -- end to end --------------------------------------------------------------


class TestDeltaCloudRun:
    def _run(self, system, world, fig9b, backend):
        initial = build_initial_document(fig9b, world.keypair(DESIGNER),
                                         backend=backend)
        final = run_process_in_cloud(
            system, fig9b, initial, world.keypair(DESIGNER),
            world.keypairs, figure9_responders(1),
        )
        out = sum(p.stats["bytes_out"] for p in system.portals)
        into = sum(p.stats["bytes_in"] for p in system.portals)
        return final, into + out

    def test_delta_run_matches_full_run(self, delta_system, full_system,
                                        world, fig9b, backend):
        delta_final, delta_bytes = self._run(delta_system, world, fig9b,
                                             backend)
        full_final, full_bytes = self._run(full_system, world, fig9b,
                                           backend)
        # Same workflow, same responders → same executed history.
        assert len(delta_final.cers()) == len(full_final.cers())
        verify_document(delta_final, world.directory, backend,
                        tfc_identities={TFC})
        # The whole point: the delta cloud moved fewer bytes.
        assert delta_bytes < full_bytes
        assert delta_system.pool.chunks.stats["dedup_hits"] > 0
