"""Fleet runs under delta routing: determinism, accounting, the win.

Delta routing must not cost the fleet its core guarantee (same seed ⇒
byte-identical report), must keep the audit green (reassembled
documents still verify cold), and must actually reduce bytes on the
wire for revisit-heavy workloads — the acceptance bar of the routing
design.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    ClosedLoop,
    FleetConfig,
    build_fleet,
    workload_from_spec,
)


def run_once(spec: str, *, delta: bool, seed: int = 13, instances: int = 2):
    fleet = build_fleet(
        workload_from_spec(spec),
        FleetConfig(arrivals=ClosedLoop(instances=instances, concurrency=2),
                    seed=seed, audit_every=1),
        delta_routing=delta,
    )
    return fleet.run()


class TestDeltaDeterminism:
    @pytest.fixture(scope="class")
    def twin_reports(self):
        return (run_once("chain:8:3", delta=True),
                run_once("chain:8:3", delta=True))

    def test_same_seed_byte_identical(self, twin_reports):
        a, b = twin_reports
        assert a.to_json() == b.to_json()

    def test_report_declares_delta_routing(self, twin_reports):
        a, _ = twin_reports
        assert a.routing == "delta"
        assert a.chunk_store["unique_chunks"] > 0

    def test_audit_green(self, twin_reports):
        a, _ = twin_reports
        assert a.instances_completed == 2
        assert a.instances_audited == 2
        assert a.audit_failures == 0


class TestDeltaVsFull:
    @pytest.fixture(scope="class")
    def pair(self):
        return (run_once("chain:12:3", delta=False),
                run_once("chain:12:3", delta=True))

    def test_same_work_performed(self, pair):
        full, delta = pair
        assert delta.instances_completed == full.instances_completed
        assert delta.hops_executed == full.hops_executed
        assert full.routing == "full"

    def test_delta_moves_fewer_bytes(self, pair):
        full, delta = pair
        full_wire = full.bytes_to_cloud + full.bytes_from_cloud
        delta_wire = delta.bytes_to_cloud + delta.bytes_from_cloud
        assert delta_wire < full_wire / 2

    def test_chunk_store_dedups(self, pair):
        _, delta = pair
        stats = delta.chunk_store
        assert stats["dedup_hits"] > 0
        assert stats["unique_bytes"] < stats["logical_bytes"]

    def test_full_report_has_a_chunk_store(self, pair):
        # Routing picks the wire protocol only; the pool stores chunks
        # under either.
        full, _ = pair
        assert full.chunk_store["unique_chunks"] > 0
        assert full.chunk_store["dedup_hits"] > 0
        assert full.bytes_to_cloud > 0
