"""Fixed-seed workflow fuzzing: incremental verification ≡ cold verification.

The central safety property of the shared signature cache is
*equivalence*: for any document a workflow can produce, at any hop, a
verification that reuses cached signature checks must return the exact
same report a cold (trust-nothing) verification returns.  This module
drives ~50 randomly shaped workflows — loops, AND-diamonds, XOR
choices, run-time amendments — through both operational models and
checks the equivalence at **every hop**, not just on the final
document.

Seeds are fixed so failures reproduce; the topologies come from
:func:`repro.workloads.generator.random_definition`, which composes
valid workflows by construction.  A Hypothesis property adds random
chain/diamond topologies: each verifies pristine and is rejected after
one flipped ``SignatureValue``.  Another checks that at every hop the
memo-warm serialization equals a cold canonicalization.
"""

from __future__ import annotations

import pytest

from repro.core import InMemoryRuntime, TfcServer
from repro.document import build_initial_document
from repro.document.amendments import DelegateActivity, GrantReader
from repro.document.document import Dra4wfmsDocument
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import TamperDetected, VerificationError
from repro.workloads import build_world
from repro.workloads.generator import (
    auto_responders,
    chain_definition,
    diamond_definition,
    loop_definition,
    participant_pool,
    random_definition,
)
from repro.xmlsec.canonical import canonicalize

from ..document.tamper_cases import flip_base64

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the image
    HAVE_HYPOTHESIS = False

DESIGNER = "designer@enterprise.example"
TFC_IDENTITY = "tfc@cloud.example"
POOL = participant_pool(6)
RANDOM_SEEDS = range(20)


@pytest.fixture(scope="module")
def fuzz_world(backend):
    return build_world([DESIGNER, TFC_IDENTITY, *POOL], bits=1024,
                       backend=backend)


def _run(fuzz_world, backend, definition, mode, loop_iterations=1):
    """Execute *definition* and return (trace, tfc or None)."""
    initial = build_initial_document(
        definition, fuzz_world.keypair(DESIGNER), backend=backend
    )
    tfc = None
    if mode == "advanced":
        tfc = TfcServer(fuzz_world.keypair(TFC_IDENTITY),
                        fuzz_world.directory, backend=backend)
    runtime = InMemoryRuntime(fuzz_world.directory, fuzz_world.keypairs,
                              tfc=tfc, backend=backend)
    trace = runtime.run(
        initial, definition,
        auto_responders(definition, loop_iterations=loop_iterations),
        mode=mode,
    )
    return initial, trace, tfc


def assert_incremental_equals_cold(documents, fuzz_world, backend,
                                   tfc=None):
    """Verify each hop document cold and warm; reports must be equal.

    *documents* is the hop sequence (initial document, then one per
    executed step).  One shared cache carries across hops, exactly as a
    portal or AEA would hold it across a process instance.
    """
    cache = VerificationCache()
    tfc_identities = {tfc.identity} if tfc is not None else None
    total_hits = 0
    for hop, document in enumerate(documents):
        cold = verify_document(document, fuzz_world.directory, backend,
                               tfc_identities=tfc_identities)
        warm = verify_document(document, fuzz_world.directory, backend,
                               tfc_identities=tfc_identities, cache=cache)
        assert warm == cold, f"hop {hop}: warm report diverged from cold"
        assert warm.cache_hits + warm.cache_misses == \
            warm.signatures_verified
        if hop > 0:
            # The previous hop's cascade prefix must be reused.
            assert warm.cache_hits > 0, f"hop {hop}: no cache reuse"
        total_hits += warm.cache_hits
    assert total_hits > 0
    return cache


def hop_documents(initial, trace):
    return [initial] + [step.document for step in trace.steps]


class TestRandomTopologies:
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_basic_model(self, fuzz_world, backend, seed):
        definition = random_definition(seed, blocks=3, designer=DESIGNER)
        initial, trace, _ = _run(fuzz_world, backend, definition, "basic")
        assert_incremental_equals_cold(hop_documents(initial, trace),
                                       fuzz_world, backend)

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_advanced_model(self, fuzz_world, backend, seed):
        definition = random_definition(seed, blocks=2, designer=DESIGNER)
        initial, trace, tfc = _run(fuzz_world, backend, definition,
                                   "advanced")
        assert_incremental_equals_cold(hop_documents(initial, trace),
                                       fuzz_world, backend, tfc=tfc)


class TestStructuredTopologies:
    @pytest.mark.parametrize("mode", ["basic", "advanced"])
    def test_loop(self, fuzz_world, backend, mode):
        definition = loop_definition(2, POOL, designer=DESIGNER)
        initial, trace, tfc = _run(fuzz_world, backend, definition, mode,
                                   loop_iterations=2)
        # Loops revisit activities: iterations must key separately.
        iterations = {s.iteration for s in trace.steps}
        assert len(iterations) > 1
        assert_incremental_equals_cold(hop_documents(initial, trace),
                                       fuzz_world, backend, tfc=tfc)

    @pytest.mark.parametrize("mode", ["basic", "advanced"])
    def test_diamond(self, fuzz_world, backend, mode):
        definition = diamond_definition(3, POOL, designer=DESIGNER)
        initial, trace, tfc = _run(fuzz_world, backend, definition, mode)
        assert_incremental_equals_cold(hop_documents(initial, trace),
                                       fuzz_world, backend, tfc=tfc)

    @pytest.mark.parametrize("mode", ["basic", "advanced"])
    def test_chain(self, fuzz_world, backend, mode):
        definition = chain_definition(6, POOL, designer=DESIGNER)
        initial, trace, tfc = _run(fuzz_world, backend, definition, mode)
        assert_incremental_equals_cold(hop_documents(initial, trace),
                                       fuzz_world, backend, tfc=tfc)


class TestAmendedWorkflows:
    """Run-time amendments append CERs mid-history; the cache must
    treat the amended document exactly like the cold verifier does."""

    def _amend(self, fuzz_world, backend, document, amendment):
        from repro.core.aea import ActivityExecutionAgent

        designer_agent = ActivityExecutionAgent(
            fuzz_world.keypair(DESIGNER), fuzz_world.directory, backend
        )
        return designer_agent.amend(document, amendment)

    @pytest.mark.parametrize("index", range(2))
    def test_grant_reader(self, fuzz_world, backend, index):
        definition = chain_definition(4, POOL, designer=DESIGNER)
        initial, trace, _ = _run(fuzz_world, backend, definition, "basic")
        amended = self._amend(
            fuzz_world, backend, trace.final_document,
            GrantReader(activity_id=f"A{index + 1}",
                        fieldname=f"v{index + 1}",
                        reader=POOL[5],
                        reason="fuzz: post-hoc audit grant"),
        )
        documents = hop_documents(initial, trace) + [amended]
        assert_incremental_equals_cold(documents, fuzz_world, backend)

    def test_delegation(self, fuzz_world, backend):
        definition = chain_definition(4, POOL, designer=DESIGNER)
        initial, trace, _ = _run(fuzz_world, backend, definition, "basic")
        amended = self._amend(
            fuzz_world, backend, trace.final_document,
            DelegateActivity(activity_id="A3", new_participant=POOL[4],
                             reason="fuzz: reassignment"),
        )
        documents = hop_documents(initial, trace) + [amended]
        assert_incremental_equals_cold(documents, fuzz_world, backend)

    def test_stacked_amendments(self, fuzz_world, backend):
        definition = diamond_definition(2, POOL, designer=DESIGNER)
        initial, trace, _ = _run(fuzz_world, backend, definition, "basic")
        once = self._amend(
            fuzz_world, backend, trace.final_document,
            GrantReader(activity_id="S", fieldname="subject",
                        reader=POOL[4], reason="fuzz: first grant"),
        )
        twice = self._amend(
            fuzz_world, backend, once,
            GrantReader(activity_id="J", fieldname="verdict",
                        reader=POOL[5], reason="fuzz: second grant"),
        )
        documents = hop_documents(initial, trace) + [once, twice]
        assert_incremental_equals_cold(documents, fuzz_world, backend)


class TestSharedCacheAcrossInstances:
    def test_one_cache_many_instances(self, fuzz_world, backend):
        """A portal-style cache serving several process instances at
        once never confuses them: every instance's report still equals
        its cold report."""
        cache = VerificationCache()
        definition = chain_definition(4, POOL, designer=DESIGNER)
        for _ in range(3):
            initial, trace, _ = _run(fuzz_world, backend, definition,
                                     "basic")
            for document in hop_documents(initial, trace):
                cold = verify_document(document, fuzz_world.directory,
                                       backend)
                warm = verify_document(document, fuzz_world.directory,
                                       backend, cache=cache)
                assert warm == cold


# -- random topologies, pristine vs one flipped signature (property) ---------

#: (kind, size, pool) → executed document; executions are the expensive
#: part, so repeated Hypothesis examples share one run per topology.
_executed: dict[tuple[str, int, int], object] = {}


def _executed_document(fuzz_world, backend, kind: str, size: int,
                       pool: int):
    key = (kind, size, pool)
    document = _executed.get(key)
    if document is None:
        maker = chain_definition if kind == "chain" else diamond_definition
        definition = maker(size, participant_pool(pool), designer=DESIGNER)
        _, trace, _ = _run(fuzz_world, backend, definition, "basic")
        document = _executed[key] = trace.final_document
    return document


if HAVE_HYPOTHESIS:

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["chain", "diamond"]),
        size=st.integers(min_value=2, max_value=5),
        pool=st.integers(min_value=1, max_value=4),
        tamper_at=st.one_of(st.none(), st.integers(min_value=0,
                                                   max_value=31)),
    )
    def test_random_topologies_verdict(fuzz_world, backend, kind, size,
                                       pool, tamper_at):
        """Pristine documents verify; one flipped signature is rejected."""
        pristine = _executed_document(fuzz_world, backend, kind, size, pool)
        document = pristine.clone()
        if tamper_at is None:
            verify_document(document, fuzz_world.directory, backend)
            return
        values = document.root.findall(".//CER/Signature/SignatureValue")
        flip_base64(values[tamper_at % len(values)])
        with pytest.raises((TamperDetected, VerificationError)):
            verify_document(document, fuzz_world.directory, backend)


# -- random topologies, memo-warm bytes ≡ cold bytes at every hop (property) --

#: (kind, size, pool, mode) → hop documents of one execution.
_hops: dict[tuple[str, int, int, str], list] = {}


def _hop_documents(fuzz_world, backend, kind: str, size: int, pool: int,
                   mode: str):
    key = (kind, size, pool, mode)
    documents = _hops.get(key)
    if documents is None:
        maker = chain_definition if kind == "chain" else diamond_definition
        definition = maker(size, participant_pool(pool), designer=DESIGNER)
        initial, trace, _ = _run(fuzz_world, backend, definition, mode)
        documents = _hops[key] = hop_documents(initial, trace)
    return documents


if HAVE_HYPOTHESIS:

    @settings(max_examples=16, deadline=None)
    @given(
        kind=st.sampled_from(["chain", "diamond"]),
        size=st.integers(min_value=2, max_value=5),
        pool=st.integers(min_value=1, max_value=4),
        mode=st.sampled_from(["basic", "advanced"]),
    )
    def test_random_topologies_warm_bytes(fuzz_world, backend, kind, size,
                                          pool, mode):
        """Every hop's memo-warm serialization is its cold one.

        Hop documents share CER subtrees with their predecessors and
        carry memo entries inherited through ``clone_for_append`` and
        handed over by verification; none of that may change a byte.
        """
        for hop, document in enumerate(
                _hop_documents(fuzz_world, backend, kind, size, pool, mode)):
            warm = document.to_bytes()
            assert warm == canonicalize(document.root), f"hop {hop}"
            received = Dra4wfmsDocument.from_bytes(warm)
            verify_document(received, fuzz_world.directory, backend)
            assert received.to_bytes() == warm, f"hop {hop}: after verify"
            assert received.clone_for_append().to_bytes() == warm
