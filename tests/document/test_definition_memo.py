"""The document's definition memo: one parse per lineage, no trust in it.

``Dra4wfmsDocument.definition()`` keeps the parsed base definition,
keyed by the ``WorkflowDefinitionSection`` element and, for an
encrypted section, the reader's credentials.  Verification parses the
definition itself and hands its parse over only when it accepts the
document.  These tests pin both halves: what may fill or reuse the
memo, and that nothing read through it differs from a cold parse.
"""

from __future__ import annotations

import pytest

import repro.document.document as document_module
from repro.core import ActivityExecutionAgent
from repro.document import (
    Dra4wfmsDocument,
    build_initial_document,
    verify_document,
)
from repro.document.amendments import DelegateActivity, effective_definition
from repro.errors import DocumentFormatError, TamperDetected, XmlEncryptionError
from repro.model.definition import WorkflowDefinition
from repro.workloads.figure9 import DESIGNER, PARTICIPANTS

TFC = "tfc@cloud.example"
OUTSIDER = "eve@evil.example"
DEPUTY = "deputy@megacorp.example"


@pytest.fixture()
def parses(monkeypatch):
    """Counts parses of XPDL definitions."""
    calls = []
    original = document_module.definition_from_xml

    def counting(node):
        calls.append(node)
        return original(node)

    monkeypatch.setattr(document_module, "definition_from_xml", counting)
    return calls


def fresh(document: Dra4wfmsDocument) -> Dra4wfmsDocument:
    """A cold copy, as a receiver parses it off the wire."""
    return Dra4wfmsDocument.from_bytes(document.to_bytes())


def same(a: WorkflowDefinition, b: WorkflowDefinition) -> bool:
    return a.to_dict() == b.to_dict()


@pytest.fixture()
def encrypted(world, fig9a, backend):
    """Initial Fig. 9A document whose definition only A and C may read."""
    readers = {identity: world.directory.public_key_of(identity)
               for identity in (PARTICIPANTS["A"], PARTICIPANTS["C"])}
    return build_initial_document(fig9a, world.keypair(DESIGNER),
                                  encrypt_definition_for=readers,
                                  backend=backend)


def reader(world, identity):
    return identity, world.keypair(identity).private_key


class TestHandover:
    def test_accepted_verify_hands_over_its_parse(self, fig9b_run, world,
                                                  backend, parses):
        trace, _ = fig9b_run
        document = fresh(trace.final_document)
        verify_document(document, world.directory, backend)
        assert len(parses) == 1
        definition = document.definition()
        assert len(parses) == 1
        assert same(definition, fresh(document).definition())

    def test_rejected_verify_hands_over_nothing(self, fig9b_run, world,
                                                backend):
        trace, _ = fig9b_run
        document = fresh(trace.final_document)
        node = document.results_section.find(".//SignatureValue")
        node.text = "AAAA" + node.text[4:]
        with pytest.raises(TamperDetected):
            verify_document(document, world.directory, backend)
        assert document._definition is None
        # An entry filled before the rejected pass stays as it was.
        document.definition()
        entry = document._definition
        with pytest.raises(TamperDetected):
            verify_document(document, world.directory, backend)
        assert document._definition is entry

    def test_verify_reads_no_memo(self, fig9b_run, world, backend):
        # Plant a definition that designates someone else for A: a
        # verifier that read the memo would reject the genuine document.
        trace, _ = fig9b_run
        document = fresh(trace.final_document)
        genuine = document.definition()
        forged = WorkflowDefinition.from_dict(genuine.to_dict())
        forged.activities["A"] = forged.activities["B1"]
        document._definition = document._definition._replace(
            definition=forged)
        report = verify_document(document, world.directory, backend)
        assert report.definition_checked
        assert same(document.definition(), genuine)

    def test_supplied_definition_is_not_handed_over(self, fig9b_run, world,
                                                    backend):
        trace, _ = fig9b_run
        document = fresh(trace.final_document)
        supplied = fresh(document).definition()
        verify_document(document, world.directory, backend,
                        definition=supplied)
        assert document._definition is None


class TestCredentials:
    def test_reader_parses_once(self, encrypted, world, backend, parses):
        a = reader(world, PARTICIPANTS["A"])
        first = encrypted.definition(*a, backend)
        assert encrypted.definition(*a, backend) is first
        assert len(parses) == 1

    def test_others_still_fail_after_a_reader_filled_it(self, encrypted,
                                                        world, backend):
        encrypted.definition(*reader(world, PARTICIPANTS["A"]), backend)
        with pytest.raises(XmlEncryptionError):
            encrypted.definition(*reader(world, OUTSIDER), backend)
        wrong_key = world.keypair(OUTSIDER).private_key
        with pytest.raises(XmlEncryptionError):
            encrypted.definition(PARTICIPANTS["A"], wrong_key, backend)
        with pytest.raises(DocumentFormatError, match="encrypted"):
            encrypted.definition()
        # A second authorised reader decrypts for itself.
        c = encrypted.definition(*reader(world, PARTICIPANTS["C"]), backend)
        assert same(c, fresh(encrypted).definition(
            *reader(world, PARTICIPANTS["A"]), backend))

    def test_plaintext_ignores_credentials(self, fig9a_trace, world,
                                           backend, parses):
        document = fresh(fig9a_trace.final_document)
        first = document.definition(*reader(world, PARTICIPANTS["A"]))
        assert document.definition() is first
        assert document.definition(*reader(world, OUTSIDER)) is first
        assert len(parses) == 1


class TestLineage:
    def test_clone_and_drop_start_cold(self, fig9a_trace, parses):
        document = fresh(fig9a_trace.final_document)
        definition = document.definition()
        clone = document.clone()
        assert clone._definition is None
        assert clone.definition() is not definition
        assert same(clone.definition(), definition)
        document.drop_canonical_cache()
        assert document._definition is None
        assert document.definition() is not definition
        assert len(parses) == 3

    def test_clone_for_append_and_merge_carry_it(self, fig9a_trace,
                                                 parses):
        document = fresh(fig9a_trace.final_document)
        definition = document.definition()
        assert document.clone_for_append().definition() is definition
        assert document.merge(fresh(document)).definition() is definition
        assert len(parses) == 1


class TestEffectiveDefinition:
    @pytest.fixture(scope="class")
    def amended(self, world, fig9a, backend):
        if DEPUTY not in world.directory:
            world.add_participant(DEPUTY)
        initial = build_initial_document(fig9a, world.keypair(DESIGNER),
                                         backend=backend)
        after_a = ActivityExecutionAgent(
            world.keypair(PARTICIPANTS["A"]), world.directory, backend,
        ).execute_activity(initial, "A", {"attachment": "form"}).document
        return ActivityExecutionAgent(
            world.keypair(PARTICIPANTS["D"]), world.directory, backend,
        ).amend(after_a, DelegateActivity("D", DEPUTY, reason="vacation"))

    def test_warm_equals_cold(self, fig9a_trace, fig9b_run, amended, world,
                              backend):
        trace_b, _ = fig9b_run
        for document in (fig9a_trace.final_document,
                         trace_b.final_document, amended):
            warm = fresh(document)
            verify_document(warm, world.directory, backend)
            for _ in range(2):
                assert same(
                    effective_definition(warm, *reader(world, TFC), backend),
                    effective_definition(document.clone(), backend=backend))

    def test_amendments_leave_the_memoised_base_alone(self, amended, world,
                                                      backend):
        document = fresh(amended)
        base = document.definition()
        before = base.to_dict()
        assert effective_definition(document, backend=backend) \
            .activity("D").participant == DEPUTY
        assert document.definition() is base
        assert base.to_dict() == before
        assert base.activity("D").participant == PARTICIPANTS["D"]
