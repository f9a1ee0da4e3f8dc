"""Tests for the shared-memory slab transport (`repro.similarity.shm`).

Two contracts under test:

* **Transparency** — the transport is invisible in results: searches,
  streams and delta passes produce byte-identical results whether payloads
  travel through shared memory or through pickles, the automatic fallback
  when publishing a dataset or creating a slab ring fails.

* **Reclamation** — no segment outlives its lifecycle: published datasets
  are LRU-capped, rings die with their stream (even when a block faults
  mid-stream), and pool evict/rebuild (``reset_shared_pools``) leaves
  ``/dev/shm`` with zero entries owned by this process.  The leak oracle is
  the OS view of ``/dev/shm`` (see ``harness.own_shm_entries``), not our own
  bookkeeping.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import (force_pickle_fallback, own_shm_entries, replay_factory,
                     seeded_corpus)
from repro.similarity import ApssEngine, reset_shared_pools
from repro.similarity import shm
from repro.similarity.backends.sharded import (ShardExecutionError,
                                               iter_similarity_blocks_sharded)
from repro.similarity.streaming import iter_similarity_blocks

ENGINE = ApssEngine()


@pytest.fixture
def clean_transport():
    """A transport with no published segments before or after the test."""
    reset_shared_pools()
    assert own_shm_entries() == []
    yield
    reset_shared_pools()
    assert own_shm_entries() == [], "test leaked shared-memory segments"


@pytest.fixture(scope="module")
def dataset():
    return seeded_corpus(303, n_docs=60, vocabulary_size=220)


# --------------------------------------------------------------------- #
# Publish / attach round trip
# --------------------------------------------------------------------- #

def test_publish_attach_roundtrip_is_content_identical(clean_transport, dataset):
    descriptor = shm.publish_dataset(dataset)
    assert descriptor is not None
    assert descriptor.fingerprint == dataset.fingerprint()
    attached, segments = shm.attach_dataset(descriptor)
    assert attached.n_rows == dataset.n_rows
    assert attached.n_features == dataset.n_features
    assert np.array_equal(attached.indptr, dataset.indptr)
    assert np.array_equal(attached.indices, dataset.indices)
    assert np.array_equal(attached.data, dataset.data)
    assert attached.fingerprint() == dataset.fingerprint()
    del attached, segments


def test_publish_is_idempotent_per_fingerprint(clean_transport, dataset):
    first = shm.publish_dataset(dataset)
    before = own_shm_entries()
    again = shm.publish_dataset(dataset)
    assert again == first, "re-publishing must reuse the existing segments"
    assert own_shm_entries() == before


def test_published_datasets_are_lru_capped(clean_transport):
    datasets = [seeded_corpus(900 + i, n_docs=8, vocabulary_size=40)
                for i in range(shm.MAX_PUBLISHED_DATASETS + 2)]
    oldest = shm.publish_dataset(datasets[0])
    for extra in datasets[1:]:
        shm.publish_dataset(extra)
    fingerprints = shm.published_fingerprints()
    assert len(fingerprints) == shm.MAX_PUBLISHED_DATASETS
    assert datasets[0].fingerprint() not in fingerprints
    # The evicted dataset's segments are gone from the OS too.
    assert oldest.indptr.name not in own_shm_entries()
    # 3 segments per published dataset, nothing else.
    assert len(own_shm_entries()) == 3 * shm.MAX_PUBLISHED_DATASETS


def test_release_dataset_tolerates_unknown_fingerprints(clean_transport):
    shm.release_dataset("not-a-fingerprint")  # must not raise


def test_pinned_datasets_survive_lru_pressure_and_pool_evicts(clean_transport):
    """A dataset pinned by an active user must survive both LRU eviction by
    later publishes and the broken-pool cleanup (release_datasets); only
    the full release_all teardown overrides pins."""
    pinned = seeded_corpus(950, n_docs=8, vocabulary_size=40)
    fingerprint = pinned.fingerprint()
    shm.publish_dataset(pinned)
    shm.pin_dataset(fingerprint)
    try:
        for i in range(shm.MAX_PUBLISHED_DATASETS + 2):
            shm.publish_dataset(
                seeded_corpus(960 + i, n_docs=8, vocabulary_size=40))
        assert fingerprint in shm.published_fingerprints()
        shm.release_datasets()  # the broken-pool hook spares pinned datasets
        assert shm.published_fingerprints() == [fingerprint]
    finally:
        shm.unpin_dataset(fingerprint)
    shm.release_datasets()
    assert shm.published_fingerprints() == []


def test_mid_stream_pool_evict_does_not_kill_a_live_stream(clean_transport,
                                                           dataset):
    """Regression: a broken pool's cleanup (release_datasets) must not tear
    down a live stream's pinned dataset or its ring — the stream finishes
    and its slabs stay byte-identical to the plain generator's."""
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=7))
    stream = iter_similarity_blocks_sharded(dataset, "cosine", block_rows=7,
                                            n_workers=2)
    rows, slab = next(stream)
    got = [(rows, slab.copy())]  # borrowed views must be copied to retain
    shm.release_datasets()  # what _shared_pool runs when another pool breaks
    got.extend((r, b.copy()) for r, b in stream)
    assert [r for r, _ in got] == [r for r, _ in plain]
    for (_, expected), (_, actual) in zip(plain, got):
        assert np.array_equal(expected, actual)


def test_closed_ring_fails_loudly_not_with_zero_division(clean_transport):
    ring = shm.SlabRing(2, 64)
    ring.close()
    with pytest.raises(RuntimeError, match="ring is closed"):
        ring.slot_name(0)
    with pytest.raises(RuntimeError, match="ring is closed"):
        ring.borrow(0, (1, 1))


def test_slab_ring_roundtrip_and_slot_reuse(clean_transport):
    ring = shm.SlabRing(2, 4 * 5 * 8)
    try:
        first = np.arange(20, dtype=np.float64).reshape(4, 5)
        second = -first
        assert shm.write_slab(ring.slot_name(0), first) == (4, 5)
        assert np.array_equal(ring.borrow(0, (4, 5)), first)
        ring.release(0)
        # Slot 0 and slot 2 alias (ring of 2): reuse after consumption.
        assert shm.write_slab(ring.slot_name(2), second) == (4, 5)
        assert np.array_equal(ring.borrow(2, (4, 5)), second)
        ring.release(2)
    finally:
        ring.close()
    assert own_shm_entries() == []


# --------------------------------------------------------------------- #
# The transport is invisible in results
# --------------------------------------------------------------------- #

def test_search_parity_across_transports(clean_transport, dataset,
                                         monkeypatch):
    reference = ENGINE.search(dataset, 0.25, "cosine", backend="exact-blocked")
    via_shm = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                            n_workers=2, block_rows=6)
    force_pickle_fallback(monkeypatch)
    via_pickle = ENGINE.search(dataset, 0.25, "cosine",
                               backend="sharded-blocked", n_workers=2,
                               block_rows=6)
    assert via_shm.details["shared_memory"] is True
    assert via_pickle.details["shared_memory"] is False
    expected = [p.as_tuple() for p in reference.pairs]
    assert [p.as_tuple() for p in via_shm.pairs] == expected
    assert [p.as_tuple() for p in via_pickle.pairs] == expected


def test_streamed_slabs_through_the_ring_are_identical(clean_transport, dataset):
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=7))
    ringed = []
    for rows, slab in iter_similarity_blocks_sharded(
            dataset, "cosine", block_rows=7, n_workers=2):
        # The default stream hands out read-only borrowed ring views —
        # zero-copy, valid until the next iteration step, copy to retain.
        assert not slab.flags.writeable
        ringed.append((rows, slab.copy()))
    assert [r for r, _ in ringed] == [r for r, _ in plain]
    for (_, expected), (_, got) in zip(plain, ringed):
        assert np.array_equal(expected, got)
    # The ring itself is gone the moment the stream is exhausted; only the
    # published dataset segments remain (until pool evict / release).
    assert len(own_shm_entries()) == 3


def test_adversarial_completion_orders_through_shared_memory(
        clean_transport, dataset):
    """The replay harness drives the shm transport in-process: slabs land in
    ring slots out of submission order and must still stream in row order."""
    factory = replay_factory(order="lifo")
    ringed = [(r, b.copy()) for r, b in iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=7, n_workers=4,
        executor_factory=factory)]
    executor = factory.created[0]
    assert executor.completion_order != sorted(executor.completion_order)
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=7))
    for (_, expected), (_, got) in zip(plain, ringed):
        assert np.array_equal(expected, got)


def test_fallback_when_publishing_fails(clean_transport, dataset, monkeypatch):
    """A full /dev/shm (or unsupported platform) degrades to pickles, loudly
    nowhere and wrongly never."""
    monkeypatch.setattr(shm, "publish_dataset", lambda *a, **k: None)
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, block_rows=6)
    assert result.details["shared_memory"] is False
    reference = ENGINE.search(dataset, 0.25, "cosine", backend="exact-blocked")
    assert [p.as_tuple() for p in result.pairs] == \
        [p.as_tuple() for p in reference.pairs]
    assert own_shm_entries() == []


@pytest.mark.parametrize("n_workers", [2, 4])
def test_pickle_fallback_search_and_stream_match_exact_blocked(
        clean_transport, dataset, monkeypatch, n_workers):
    """With no shared memory at all — publishing returns ``None`` and ring
    creation raises — multi-worker searches and streams fall back to pickled
    payloads and slabs, bit-identical to ``exact-blocked``, and leave no
    segment or claim directory behind."""
    force_pickle_fallback(monkeypatch)
    reference = ENGINE.search(dataset, 0.25, "cosine", backend="exact-blocked")
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=n_workers, block_rows=6)
    assert result.details["shared_memory"] is False
    assert [p.as_tuple() for p in result.pairs] == \
        [p.as_tuple() for p in reference.pairs]
    assert own_shm_entries() == []  # no segments, no claim directory
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=7))
    streamed = list(iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=7, n_workers=n_workers))
    assert [r for r, _ in streamed] == [r for r, _ in plain]
    for (_, expected), (_, got) in zip(plain, streamed):
        assert np.array_equal(expected, got)
    assert own_shm_entries() == []


def test_ring_creation_failure_degrades_to_pickled_slabs(
        clean_transport, dataset, monkeypatch):
    def boom(*args, **kwargs):
        raise OSError("no space on /dev/shm")

    monkeypatch.setattr(shm, "SlabRing", boom)
    ringless = list(iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=7, n_workers=2))
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=7))
    for (_, expected), (_, got) in zip(plain, ringless):
        assert np.array_equal(expected, got)


# --------------------------------------------------------------------- #
# Borrow lifecycle: zero-copy views never alias an in-flight writer
# --------------------------------------------------------------------- #

def test_borrowed_slot_is_never_recycled_while_borrowed(clean_transport):
    ring = shm.SlabRing(2, 4 * 5 * 8)
    try:
        first = np.arange(20, dtype=np.float64).reshape(4, 5)
        shm.write_slab(ring.slot_name(0), first)
        view = ring.borrow(0, (4, 5))
        assert not view.flags.writeable
        assert np.array_equal(view, first)
        assert ring.is_borrowed(0) and ring.borrowed_slots() == [0]
        # Index 2 aliases slot 0 in a ring of 2: writers must be refused
        # until the borrow is returned, under either index.
        for index in (0, 2):
            with pytest.raises(RuntimeError, match="borrowed"):
                ring.slot_name(index)
        ring.slot_name(1)  # the other slot circulates freely
        ring.release(0)
        assert not ring.is_borrowed(0)
        shm.write_slab(ring.slot_name(2), -first)  # recycled after release
        assert np.array_equal(ring.borrow(2, (4, 5)), -first)
    finally:
        ring.close()
    assert own_shm_entries() == []


def test_borrowed_views_are_read_only(clean_transport):
    ring = shm.SlabRing(1, 6 * 8)
    try:
        shm.write_slab(ring.slot_name(0), np.zeros((2, 3)))
        view = ring.borrow(0, (2, 3))
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
    finally:
        ring.close()


def test_double_borrow_and_double_release_fail_loudly(clean_transport):
    ring = shm.SlabRing(2, 64)
    try:
        ring.borrow(0, (2, 2))
        with pytest.raises(RuntimeError, match="already borrowed"):
            ring.borrow(0, (2, 2))
        with pytest.raises(RuntimeError, match="already borrowed"):
            ring.borrow(2, (2, 2))  # same slot via an aliasing index
        ring.release(0)
        with pytest.raises(RuntimeError, match="not borrowed"):
            ring.release(0)
    finally:
        ring.close()


def test_borrow_and_release_refuse_a_closed_ring(clean_transport):
    ring = shm.SlabRing(1, 64)
    view = ring.borrow(0, (2, 2))
    ring.close()
    with pytest.raises(RuntimeError, match="ring is closed"):
        ring.borrow(0, (2, 2))
    with pytest.raises(RuntimeError, match="ring is closed"):
        ring.release(0)
    # The close dropped the outstanding borrow and unlinked the name...
    assert not ring.is_borrowed(0)
    assert own_shm_entries() == []
    # ...while a (contract-breaking) retained view degrades to stale reads,
    # never a crash: the guard keeps the mapping alive until the view dies.
    assert float(view.sum()) == view.sum()


def test_release_all_drains_borrows(clean_transport):
    ring = shm.SlabRing(2, 64)
    ring.borrow(1, (2, 2))
    assert ring.borrowed_slots() == [1]
    shm.release_all()
    assert ring.borrowed_slots() == []
    assert own_shm_entries() == []


def test_stream_yields_borrowed_views_and_releases_between_steps(
        clean_transport, dataset):
    stream = iter_similarity_blocks_sharded(dataset, "cosine", block_rows=7,
                                            n_workers=2)
    _, first_slab = next(stream)
    assert not first_slab.flags.writeable  # borrowed, not copied
    # By the next step the previous borrow has been released: every further
    # yield is again a fresh read-only view, and the stream drains cleanly.
    remaining = [(rows, slab) for rows, slab in stream]
    assert all(not slab.flags.writeable for _, slab in remaining)
    assert len(own_shm_entries()) == 3  # dataset segments only; ring gone


def test_consumer_crash_mid_stream_releases_the_borrow(clean_transport,
                                                       dataset):
    """A consumer that raises while holding a borrowed slab must not wedge
    the ring: generator cleanup releases the borrow and reclaims the ring."""
    with pytest.raises(RuntimeError, match="consumer crashed"):
        for _rows, slab in iter_similarity_blocks_sharded(
                dataset, "cosine", block_rows=7, n_workers=2):
            assert not slab.flags.writeable
            raise RuntimeError("consumer crashed")
    assert len(own_shm_entries()) == 3  # ring reclaimed, borrows drained


# --------------------------------------------------------------------- #
# Reclamation: faults, aborts and pool lifecycle leave /dev/shm clean
# --------------------------------------------------------------------- #

def test_pool_evict_reclaims_every_segment(clean_transport, dataset):
    """The acceptance check: after real multi-process work, resetting the
    shared pools leaves zero /dev/shm entries owned by this process."""
    ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                  n_workers=2, block_rows=6)
    assert len(own_shm_entries()) == 3  # the published dataset
    reset_shared_pools()
    assert own_shm_entries() == []
    # And the transport recovers transparently after the evict.
    again = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                          n_workers=2, block_rows=6)
    assert again.details["shared_memory"] is True


def test_mid_stream_fault_reclaims_the_ring(clean_transport, dataset):
    """A worker fault crossing a real process boundary must not leak the
    ring: the stream raises ShardExecutionError and closes its slots."""
    with pytest.raises(ShardExecutionError) as excinfo:
        for _ in iter_similarity_blocks_sharded(
                dataset, "cosine", block_rows=7, n_workers=2,
                inject_block_fault=3):
            pass
    assert excinfo.value.block == (21, 28)
    assert len(own_shm_entries()) == 3  # dataset segments only, ring gone


def test_search_fault_through_real_processes_leaves_no_ring(
        clean_transport, dataset):
    with pytest.raises(ShardExecutionError):
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, block_rows=6, inject_shard_fault=0)
    assert len(own_shm_entries()) == 3


def test_abandoned_stream_reclaims_the_ring(clean_transport, dataset):
    stream = iter_similarity_blocks_sharded(dataset, "cosine", block_rows=7,
                                            n_workers=2)
    next(stream)
    assert len(own_shm_entries()) > 3  # ring slots live while streaming
    stream.close()
    assert len(own_shm_entries()) == 3


def test_release_all_is_atexit_safe_when_idle(clean_transport):
    shm.release_all()  # nothing published: must be a clean no-op
    assert own_shm_entries() == []
