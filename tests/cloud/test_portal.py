"""Portal servers: authentication, §4.2 operations, rejection paths."""

from __future__ import annotations

import pytest

from repro.cloud import CloudSystem
from repro.document import build_initial_document
from repro.errors import PortalError
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS


@pytest.fixture()
def system(world, backend):
    return CloudSystem(world.directory,
                       world.keypair("tfc@cloud.example"),
                       portals=2, backend=backend)


@pytest.fixture()
def portal(system):
    return system.portals[0]


def login(portal, world, backend, identity):
    nonce = portal.challenge(identity)
    signature = backend.sign(world.keypair(identity).private_key,
                             b"dra4wfms-portal-login\x00" + nonce)
    return portal.login(identity, signature)


@pytest.fixture()
def designer_session(portal, world, backend):
    return login(portal, world, backend, DESIGNER)


@pytest.fixture()
def initial(world, fig9b, backend):
    return build_initial_document(fig9b, world.keypair(DESIGNER),
                                  backend=backend)


class TestAuthentication:
    def test_challenge_response(self, portal, world, backend):
        session = login(portal, world, backend, DESIGNER)
        assert session.identity == DESIGNER
        assert session.portal_id == portal.portal_id

    def test_unknown_identity(self, portal):
        with pytest.raises(PortalError, match="unknown identity"):
            portal.challenge("ghost@nowhere")

    def test_wrong_signature(self, portal, world, backend):
        portal.challenge(DESIGNER)
        wrong = backend.sign(
            world.keypair(PARTICIPANTS["A"]).private_key, b"whatever"
        )
        with pytest.raises(PortalError, match="authentication failed"):
            portal.login(DESIGNER, wrong)

    def test_nonce_single_use(self, portal, world, backend):
        nonce = portal.challenge(DESIGNER)
        signature = backend.sign(world.keypair(DESIGNER).private_key,
                                 b"dra4wfms-portal-login\x00" + nonce)
        portal.login(DESIGNER, signature)
        with pytest.raises(PortalError, match="no pending challenge"):
            portal.login(DESIGNER, signature)

    def test_invalid_session_rejected(self, portal, designer_session):
        from repro.cloud.portal import Session

        forged = Session(token="forged", identity=DESIGNER,
                         portal_id=portal.portal_id)
        with pytest.raises(PortalError, match="invalid or expired"):
            portal.search_todo(forged)


class TestUploadAndSubmit:
    def test_upload_initial(self, portal, designer_session, initial,
                            system):
        process_id = portal.upload_initial(designer_session,
                                           initial.to_bytes())
        assert process_id == initial.process_id
        first = PARTICIPANTS["A"]
        assert [e.activity_id for e in system.pool.todo_for(first)] == ["A"]
        assert system.notifier.inbox(first)

    def test_upload_replay_rejected(self, portal, designer_session,
                                    initial):
        portal.upload_initial(designer_session, initial.to_bytes())
        with pytest.raises(PortalError, match="rejected"):
            portal.upload_initial(designer_session, initial.to_bytes())

    def test_upload_tampered_rejected(self, portal, designer_session,
                                      initial):
        altered = initial.clone()
        altered.header.set("ProcessId", "forged")
        with pytest.raises(PortalError, match="rejected"):
            portal.upload_initial(designer_session, altered.to_bytes())
        assert portal.stats["rejected"] == 1

    def test_submit_unknown_process(self, portal, world, backend,
                                    designer_session, initial):
        # Never uploaded → submission refused.
        from repro.core import ActivityExecutionAgent

        agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                       world.directory, backend)
        result = agent.execute_activity(
            initial, "A", {"attachment": "x"}, mode="advanced",
            tfc_identity="tfc@cloud.example",
            tfc_public_key=world.directory.public_key_of(
                "tfc@cloud.example"),
        )
        with pytest.raises(PortalError, match="unknown to this cloud"):
            portal.submit(designer_session, result.document.to_bytes())

    def test_submit_basic_mode_document_rejected(self, portal, world,
                                                 backend, designer_session,
                                                 fig9a):
        # The cloud runs the advanced model; a basic-mode document has
        # no pending intermediate CER for the TFC.
        from repro.core import ActivityExecutionAgent

        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        portal.upload_initial(designer_session, initial.to_bytes())
        agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                       world.directory, backend)
        executed = agent.execute_activity(initial, "A",
                                          {"attachment": "x"})
        with pytest.raises(PortalError, match="advanced operational"):
            portal.submit(designer_session, executed.document.to_bytes())

    def test_full_step_through_portal(self, portal, world, backend,
                                      designer_session, initial, system):
        from repro.core import ActivityExecutionAgent

        portal.upload_initial(designer_session, initial.to_bytes())
        session = login(portal, world, backend, PARTICIPANTS["A"])
        data = portal.retrieve(session, initial.process_id)
        agent = ActivityExecutionAgent(world.keypair(PARTICIPANTS["A"]),
                                       world.directory, backend)
        result = agent.execute_activity(
            data, "A", {"attachment": "x"}, mode="advanced",
            tfc_identity=system.tfc.identity,
            tfc_public_key=system.tfc.public_key,
        )
        entries = portal.submit(session, result.document.to_bytes())
        assert {e.activity_id for e in entries} == {"B1", "B2"}
        # A's TO-DO entry is cleared, the reviewers' are set.
        assert system.pool.todo_for(PARTICIPANTS["A"]) == []
        assert system.pool.todo_for(PARTICIPANTS["B1"])
        # Monitoring sees one completed execution.
        status = portal.monitor(session, initial.process_id)
        assert status.completed == [("A", 0)]


class TestMergeAndRollbackRejections:
    """A submission the merge or the pool's rollback guard refuses is a
    counted rejection (``PortalError``), and leaves the pool as it was."""

    @pytest.fixture(params=[False, True], ids=["full", "delta"])
    def cloud(self, request, world, backend, initial):
        system = CloudSystem(world.directory,
                             world.keypair("tfc@cloud.example"),
                             portals=1, backend=backend,
                             delta_routing=request.param)
        system.client(world.keypair(DESIGNER)).upload_initial(initial)
        return system

    RESPONSES = {"A": {"attachment": "x"}, "B1": {"review1": "ok"},
                 "B2": {"review2": "ok"}}

    def execute(self, system, client, document, activity):
        return client.agent.execute_activity(
            document, activity, self.RESPONSES[activity],
            mode="advanced", tfc_identity=system.tfc.identity,
            tfc_public_key=system.tfc.public_key,
        ).document

    def test_second_execution_from_one_checkout(self, cloud, world,
                                                initial):
        pool, portal = cloud.pool, cloud.portals[0]
        client = cloud.client(world.keypair(PARTICIPANTS["A"]))
        document = client.retrieve_document(initial.process_id)
        first = self.execute(cloud, client, document, "A")
        second = self.execute(cloud, client, document, "A")
        client.submit_document(first)
        stored = pool.latest_bytes(initial.process_id)
        held = pool._held[initial.process_id]
        with pytest.raises(PortalError, match="differs between branch"):
            client.submit_document(second)
        assert portal.stats["rejected"] == 1
        assert portal.stats["submissions"] == 1
        assert pool.latest_bytes(initial.process_id) == stored
        assert pool._held[initial.process_id] is held
        assert pool.latest(initial.process_id).to_bytes() == stored

    def test_concurrent_store_caught_by_rollback_guard(self, cloud, world,
                                                       initial):
        # B1 and B2 run in parallel after A.  B2's submission is
        # stored between the moment the portal reads the pool copy for
        # B1's merge and the moment it stores that merge, so the merge
        # lacks B2's CERs: the pool's monotonicity guard refuses it.
        pool, portal = cloud.pool, cloud.portals[0]
        pid = initial.process_id
        a = cloud.client(world.keypair(PARTICIPANTS["A"]))
        a.submit_document(
            self.execute(cloud, a, a.retrieve_document(pid), "A"))
        b1 = cloud.client(world.keypair(PARTICIPANTS["B1"]))
        b2 = cloud.client(world.keypair(PARTICIPANTS["B2"]))
        branch1 = self.execute(cloud, b1, b1.retrieve_document(pid), "B1")
        branch2 = self.execute(cloud, b2, b2.retrieve_document(pid), "B2")
        read = pool.latest
        after_race = {}

        def racing_latest(process_id):
            document = read(process_id)
            if not after_race:
                pool.latest = read
                b2.submit_document(branch2)
                after_race["bytes"] = pool.latest_bytes(process_id)
                after_race["held"] = pool._held[process_id]
            return document

        pool.latest = racing_latest
        with pytest.raises(PortalError, match="rollback"):
            b1.submit_document(branch1)
        assert portal.stats["rejected"] == 1
        assert pool.latest_bytes(pid) == after_race["bytes"]
        assert pool._held[pid] is after_race["held"]
