"""Unit behaviour of the verification cache: bounds, stats, key hygiene."""

from __future__ import annotations

import threading

import pytest

from repro.document.vcache import CacheStats, VerificationCache
from repro.document.verify import verify_document
from repro.xmlsec.canonical import CanonicalMemo
from repro.xmlsec.xmldsig import index_by_id


class TestStats:
    def test_initial(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.snapshot() == {
            "hits": 0, "misses": 0, "stores": 0, "invalidations": 0,
            "hit_rate": 0.0,
        }

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75


class TestLruBounds:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            VerificationCache(max_entries=0)

    def test_eviction_counts_as_invalidation(self):
        cache = VerificationCache(max_entries=2)
        for byte in (b"a", b"b", b"c"):
            cache.record(byte * 32)
        assert len(cache) == 2
        assert cache.stats.stores == 3
        assert cache.stats.invalidations == 1
        # The oldest entry is gone, the newest two remain.
        assert not cache.seen(b"a" * 32)
        assert cache.seen(b"c" * 32)

    def test_probe_refreshes_recency(self):
        cache = VerificationCache(max_entries=2)
        cache.record(b"a" * 32)
        cache.record(b"b" * 32)
        assert cache.seen(b"a" * 32)   # refresh "a"
        cache.record(b"c" * 32)        # evicts "b", not "a"
        assert cache.seen(b"a" * 32)
        assert not cache.seen(b"b" * 32)

    def test_duplicate_record_is_idempotent(self):
        cache = VerificationCache()
        cache.record(b"a" * 32)
        cache.record(b"a" * 32)
        assert len(cache) == 1
        assert cache.stats.stores == 1

    def test_clear(self):
        cache = VerificationCache()
        cache.record(b"a" * 32)
        cache.record(b"b" * 32)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.invalidations == 2

    def test_thread_safety_smoke(self):
        cache = VerificationCache(max_entries=64)

        def worker(prefix: int) -> None:
            for i in range(200):
                key = f"{prefix}-{i}".encode().ljust(32, b"\0")
                cache.seen(key)
                cache.record(key)
                cache.seen(key)

        threads = [threading.Thread(target=worker, args=(p,))
                   for p in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) <= 64
        assert cache.stats.hits + cache.stats.misses == 4 * 200 * 2


class TestKeyDerivation:
    def test_key_is_deterministic(self, fig9a_trace, world):
        document = fig9a_trace.final_document
        index = index_by_id(document.root)
        cer = document.cers(include_definition=False)[0]
        signature = cer.signature
        public_key = world.directory.public_key_of(signature.signer)
        first = VerificationCache.key_for(signature, public_key, index)
        second = VerificationCache.key_for(signature, public_key, index)
        assert first == second
        assert len(first) == 32

    def test_key_depends_on_public_key(self, fig9a_trace, world,
                                       outsider_keypair):
        document = fig9a_trace.final_document
        index = index_by_id(document.root)
        signature = document.cers(include_definition=False)[0].signature
        honest = world.directory.public_key_of(signature.signer)
        outsider = outsider_keypair.public_key
        assert VerificationCache.key_for(signature, honest, index) != \
            VerificationCache.key_for(signature, outsider, index)

    def test_key_depends_on_referenced_content(self, fig9a_trace, world):
        document = fig9a_trace.final_document.clone()
        index = index_by_id(document.root)
        cer = document.cers(include_definition=False)[0]
        signature = cer.signature
        public_key = world.directory.public_key_of(signature.signer)
        before = VerificationCache.key_for(signature, public_key, index)
        # Mutate a referenced element WITHOUT touching the signature.
        node = cer.element.find("ExecutionResult/EncryptedData/CipherData/"
                                "CipherValue")
        node.text = "QUJD" + (node.text or "")[4:]
        after = VerificationCache.key_for(signature, public_key, index)
        assert before != after

    def test_missing_reference_target_keys_none(self, fig9a_trace, world):
        document = fig9a_trace.final_document
        index = index_by_id(document.root)
        signature = document.cers(include_definition=False)[-1].signature
        public_key = world.directory.public_key_of(signature.signer)
        # Drop one referenced id from the index: the signature cannot
        # be keyed and must take the full verification path.
        pruned = dict(index)
        del pruned[signature.referenced_ids[0]]
        assert VerificationCache.key_for(signature, public_key,
                                         pruned) is None

    def test_digest_memo_changes_nothing(self, fig9a_trace, world):
        document = fig9a_trace.final_document
        index = index_by_id(document.root)
        signature = document.cers(include_definition=False)[0].signature
        public_key = world.directory.public_key_of(signature.signer)
        memo = CanonicalMemo()
        with_memo = VerificationCache.key_for(signature, public_key, index,
                                              memo)
        without = VerificationCache.key_for(signature, public_key, index)
        assert with_memo == without
        assert memo  # the memo actually filled


class TestEndToEndCounters:
    def test_counters_across_two_verifies(self, fig9a_trace, world,
                                          backend):
        cache = VerificationCache()
        document = fig9a_trace.final_document
        first = verify_document(document, world.directory, backend,
                                cache=cache)
        second = verify_document(document, world.directory, backend,
                                 cache=cache)
        assert first.cache_misses == first.signatures_verified
        assert first.cache_hits == 0
        assert second.cache_hits == second.signatures_verified
        assert second.cache_misses == 0
        assert cache.stats.stores == first.signatures_verified
        assert cache.stats.hits == second.signatures_verified
