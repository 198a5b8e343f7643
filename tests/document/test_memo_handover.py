"""Canonical memo hand-over and shared-subtree copies.

A verification pass canonicalizes every referenced element through a
memo of its own, and only a pass that accepted the document hands those
serializations to the document's memo.  Two rules keep that safe:

* **trust** — verification never reads a memo it did not build in the
  current pass, so no cache state can change a verdict, and a rejected
  document's memo is left exactly as it was;
* **sharing** — ``clone_for_append`` and ``merge`` share unchanged CER
  subtrees between documents instead of deep-copying them, so appending
  to one document must never show through in another.
"""

from __future__ import annotations

import copy

import pytest

from repro.document.cer import CER
from repro.document.document import Dra4wfmsDocument
from repro.document.vcache import VerificationCache
from repro.document.verify import verify_document
from repro.errors import TamperDetected
from repro.xmlsec.canonical import canonicalize


def _memo_snapshot(document):
    memo = document._memo
    return (dict(memo._entries), dict(memo._chunks), dict(memo._digests))


def _cer_ids(document):
    return [cer.cer_id for cer in document.cers()]


@pytest.fixture()
def parsed(fig9a_trace):
    """Freshly parsed copy of the executed Fig. 9A final document."""
    return Dra4wfmsDocument.from_bytes(fig9a_trace.final_document.to_bytes())


def _flip_result(document):
    """Alter the first CER's result behind the document's back."""
    cer = document.cers(include_definition=False)[0]
    node = next(n for n in cer.result_element.iter() if n.text)
    node.text = ("B" if node.text[0] == "A" else "A") + node.text[1:]


# -- trust rule ----------------------------------------------------------------


class TestTrustRule:
    def test_warm_stale_memo_cannot_hide_tampering(self, parsed, world,
                                                   backend):
        before = parsed.to_bytes()  # every subtree now memo-warm
        _flip_result(parsed)  # no drop_canonical_cache()
        # The document memo is stale: it still serves the old bytes ...
        assert parsed.to_bytes() == before
        # ... but verification reads only the memo it builds itself.
        with pytest.raises(TamperDetected):
            verify_document(parsed, world.directory, backend)
        with pytest.raises(TamperDetected):
            verify_document(parsed, world.directory, backend,
                            cache=VerificationCache())

    def test_rejected_document_memo_is_unchanged(self, parsed, world,
                                                 backend):
        parsed.to_bytes()
        _flip_result(parsed)
        before = _memo_snapshot(parsed)
        with pytest.raises(TamperDetected):
            verify_document(parsed, world.directory, backend)
        assert _memo_snapshot(parsed) == before

    def test_rejected_cold_document_adopts_nothing(self, parsed, world,
                                                   backend):
        _flip_result(parsed)
        with pytest.raises(TamperDetected):
            verify_document(parsed, world.directory, backend,
                            cache=VerificationCache())
        assert len(parsed._memo) == 0

    @pytest.mark.parametrize("cached", [False, True])
    def test_accepted_document_serializes_as_cold(self, parsed, world,
                                                  backend, cached):
        cache = VerificationCache() if cached else None
        verify_document(parsed, world.directory, backend, cache=cache)
        assert len(parsed._memo) > 0  # the pass handed its memo over
        assert parsed.to_bytes() == canonicalize(parsed.root)

    def test_second_pass_rebuilds_its_own_memo(self, parsed, world,
                                               backend):
        cache = VerificationCache()
        first = verify_document(parsed, world.directory, backend,
                                cache=cache)
        second = verify_document(parsed, world.directory, backend,
                                 cache=cache)
        assert first == second
        assert second.cache_hits == second.signatures_verified
        assert parsed.to_bytes() == canonicalize(parsed.root)


# -- shared-subtree copies -------------------------------------------------------


def _later_cers(fig9a_trace, base):
    """Deep copies of CERs a later hop added on top of *base*."""
    have = set(_cer_ids(base))
    final = fig9a_trace.final_document
    return [CER(copy.deepcopy(cer.element)) for cer in final.cers()
            if cer.cer_id not in have]


class TestSharedCopies:
    def _base(self, fig9a_trace, world, backend):
        step = fig9a_trace.steps[1].document
        base = Dra4wfmsDocument.from_bytes(step.to_bytes())
        verify_document(base, world.directory, backend)  # memo-warm
        return base

    def test_clone_for_append_shares_cers(self, fig9a_trace, world,
                                          backend):
        base = self._base(fig9a_trace, world, backend)
        expected = base.to_bytes()  # memoizes the root and results too
        twin = base.clone_for_append()
        assert twin.root is not base.root
        assert twin.results_section is not base.results_section
        assert twin.header is base.header
        for mine, theirs in zip(base.cers(), twin.cers()):
            assert mine.element is theirs.element
        # The copy's memo holds nothing of the nodes it replaced, so a
        # chain of clones never keeps earlier roots alive.
        replaced = {id(base.root), id(base.results_section)}
        assert not replaced & set(twin._memo._entries)
        assert twin.to_bytes() == expected

    def test_append_to_clone_leaves_source_unchanged(self, fig9a_trace,
                                                     world, backend):
        base = self._base(fig9a_trace, world, backend)
        before, before_ids = base.to_bytes(), _cer_ids(base)
        twin = base.clone_for_append()
        extra = _later_cers(fig9a_trace, base)[0]
        twin.append_cer(extra)
        assert _cer_ids(twin) == before_ids + [extra.cer_id]
        assert twin.to_bytes() == canonicalize(twin.root)
        assert base.to_bytes() == before == canonicalize(base.root)
        assert _cer_ids(base) == before_ids

    def test_merge_leaves_both_branches_unchanged(self, fig9a_trace,
                                                  world, backend):
        base = self._base(fig9a_trace, world, backend)
        left_cer, right_cer, later_cer = _later_cers(fig9a_trace, base)[:3]
        left = base.clone_for_append()
        left.append_cer(left_cer)
        right = base.clone_for_append()
        right.append_cer(right_cer)
        snapshots = [(doc.to_bytes(), _cer_ids(doc))
                     for doc in (base, left, right)]

        merged = left.merge(right)
        assert _cer_ids(merged) == (_cer_ids(base)
                                    + [left_cer.cer_id, right_cer.cer_id])
        assert merged.to_bytes() == canonicalize(merged.root)
        # The merged document shares the right branch's new CER; growing
        # it further must not show through in either branch.
        merged.append_cer(later_cer)
        assert merged.to_bytes() == canonicalize(merged.root)
        for doc, (data, ids) in zip((base, left, right), snapshots):
            assert doc.to_bytes() == data == canonicalize(doc.root)
            assert _cer_ids(doc) == ids

    def test_clone_is_still_a_deep_copy(self, fig9a_trace, world, backend):
        base = self._base(fig9a_trace, world, backend)
        twin = base.clone()
        assert len(twin._memo) == 0
        for mine, theirs in zip(base.cers(), twin.cers()):
            assert mine.element is not theirs.element
        assert twin.to_bytes() == base.to_bytes()
