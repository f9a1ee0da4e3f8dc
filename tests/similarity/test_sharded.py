"""Tests for the sharded multi-process APSS backend.

Three layers, mirroring how the backend can fail:

* **Planning** — the partition module must cover every block exactly once,
  for every strategy, for any geometry.
* **Scheduling** — via the harness's ``StealOrderReplayExecutor``, shard
  claims are forced into adversarial (LIFO, shuffled, explicitly scripted)
  interleavings and injected failures, deterministically: merged output
  must be canonical and identical, and a failing shard must surface as
  ``ShardExecutionError`` — never a hang, never dropped pairs.  Streams,
  which submit one task per block, replay block completions through the
  ``ShardOrderReplayExecutor`` instead.
* **Real processes** — the same contracts through an actual
  ``ProcessPoolExecutor``, including the worker-side fault-injection hook
  (``inject_shard_fault``) crossing a genuine pickle/process boundary.

The ``slow``-marked stress test (deselected by default; ``pytest -m slow``)
pushes a 20k-row sparse dataset through the sharded backend under an 8 MB
per-worker budget and checks pair-set equality with the cached
single-process sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import (replay_factory, seeded_corpus, sparse_random_dataset,
                     steal_replay_factory)
from repro.similarity import (ApssEngine, BlockShard, CachedApssEngine,
                              InlineShardExecutor, ShardExecutionError,
                              iter_similarity_blocks,
                              iter_similarity_blocks_sharded, make_backend,
                              partition_blocks, resolve_worker_count)
from repro.similarity.backends.sharded import InjectedShardFault
from repro.similarity.partition import block_ranges

ENGINE = ApssEngine()


@pytest.fixture(scope="module")
def dataset():
    return seeded_corpus(101, n_docs=70, vocabulary_size=260)


@pytest.fixture(scope="module")
def reference(dataset):
    return ENGINE.search(dataset, 0.25, "cosine", backend="exact-blocked")


# --------------------------------------------------------------------- #
# Partition planning
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("strategy", ["striped", "contiguous", "balanced"])
@pytest.mark.parametrize("n_rows,block_rows,n_shards", [
    (1, 1, 1), (10, 3, 2), (10, 3, 7), (100, 7, 4), (64, 64, 4), (33, 1, 5),
])
def test_partition_covers_every_block_exactly_once(n_rows, block_rows,
                                                   n_shards, strategy):
    shards = partition_blocks(n_rows, block_rows, n_shards, strategy=strategy)
    covered = sorted(block for shard in shards for block in shard.blocks)
    assert covered == block_ranges(n_rows, block_rows)
    assert [s.shard_id for s in shards] == list(range(len(shards)))
    assert all(shard.blocks for shard in shards)
    assert len(shards) <= n_shards


def test_partition_balances_triangular_cost():
    """No strategy may concentrate the triangle's heavy top rows in one shard."""
    n_rows = 1000
    for strategy in ("striped", "balanced"):
        shards = partition_blocks(n_rows, 10, 4, strategy=strategy)
        costs = [shard.search_cost(n_rows) for shard in shards]
        assert max(costs) <= 1.25 * min(costs), (strategy, costs)


def test_partition_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown partition strategy"):
        partition_blocks(10, 2, 2, strategy="zigzag")
    with pytest.raises(ValueError, match="n_shards"):
        partition_blocks(10, 2, 0)
    with pytest.raises(ValueError, match="block_rows"):
        block_ranges(10, 0)


def test_resolve_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_APSS_WORKERS", "3")
    assert resolve_worker_count() == 3
    assert resolve_worker_count(2) == 2  # explicit beats env
    assert make_backend("sharded-blocked").n_workers == 3
    monkeypatch.setenv("REPRO_APSS_WORKERS", "zero")
    with pytest.raises(ValueError, match="REPRO_APSS_WORKERS"):
        resolve_worker_count()
    monkeypatch.setenv("REPRO_APSS_WORKERS", "0")
    with pytest.raises(ValueError, match="n_workers"):
        resolve_worker_count()


def test_backend_constructor_validation():
    with pytest.raises(ValueError, match="partition strategy"):
        make_backend("sharded-blocked", partition_strategy="nope")
    with pytest.raises(ValueError, match="shards_per_worker"):
        make_backend("sharded-blocked", shards_per_worker=0)
    with pytest.raises(ValueError, match="block_rows"):
        make_backend("sharded-blocked", block_rows=-1)


# --------------------------------------------------------------------- #
# Canonical merge under adversarial completion orders
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("order", ["lifo", ("random", 7), [1, 1, 0, 1],
                                   [1, 1, 1, 1, 1, 0]])
def test_adversarial_shard_claim_orders_merge_canonically(
        dataset, reference, order):
    factory = steal_replay_factory(order=order)
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=5,
                           executor_factory=factory)
    executor = factory.created[0]
    claimed = [item for _, item in executor.claim_order]
    # The replay really ran shards out of plan order...
    assert claimed != sorted(claimed)
    assert sorted(claimed) == list(range(result.details["n_shards"]))
    # ...yet the merged pair list is byte-identical to the single-process one.
    assert [p.as_tuple() for p in result.pairs] == \
        [p.as_tuple() for p in reference.pairs]


def test_claim_order_does_not_leak_into_pair_order(dataset):
    lifo_factory = steal_replay_factory("lifo")
    fifo_factory = steal_replay_factory("fifo")
    lifo = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                         n_workers=4, block_rows=3,
                         executor_factory=lifo_factory)
    fifo = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                         n_workers=4, block_rows=3,
                         executor_factory=fifo_factory)
    # Different runners ran different shards, so the runners' chunks reach
    # the merge in different orders...
    assert lifo_factory.created[0].claims != fifo_factory.created[0].claims
    # ...and the merged pair lists still cannot tell.
    assert [p.as_tuple() for p in lifo.pairs] == [p.as_tuple() for p in fifo.pairs]
    firsts = [(p.first, p.second) for p in lifo.pairs]
    assert firsts == sorted(firsts)


def test_inline_executor_matches_process_pool(dataset):
    inline = ENGINE.search(dataset, 0.3, "jaccard", backend="sharded-blocked",
                           n_workers=1, block_rows=6)
    pooled = ENGINE.search(dataset, 0.3, "jaccard", backend="sharded-blocked",
                           n_workers=2, block_rows=6)
    assert [p.as_tuple() for p in inline.pairs] == \
        [p.as_tuple() for p in pooled.pairs]
    assert inline.details["n_workers"] == 1
    assert pooled.details["n_workers"] == 2


def test_inline_executor_protocol():
    executor = InlineShardExecutor()
    future = executor.submit(lambda x: x + 1, 41)
    assert future.done() and future.result() == 42
    boom = executor.submit(lambda: 1 / 0)
    assert isinstance(boom.exception(), ZeroDivisionError)
    executor.shutdown(cancel_futures=True)  # no-op, must not raise


# --------------------------------------------------------------------- #
# Fault injection: shard failures surface, never hang, never drop pairs
# --------------------------------------------------------------------- #

def test_replayed_shard_failure_surfaces(dataset):
    factory = steal_replay_factory(order="lifo",
                                   failures={2: RuntimeError("disk on fire")})
    with pytest.raises(ShardExecutionError, match="shard 2 failed"):
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, shards_per_worker=2, block_rows=5,
                      executor_factory=factory)


def test_replayed_failure_in_last_claimed_shard_surfaces(dataset):
    # FIFO replay + failure in the shard claimed last: every other shard
    # already delivered pairs, which must all be discarded for the error.
    options = dict(backend="sharded-blocked", n_workers=2,
                   shards_per_worker=2, block_rows=5)
    dry_run = steal_replay_factory(order="fifo")
    ENGINE.search(dataset, 0.25, "cosine", executor_factory=dry_run, **options)
    last = dry_run.created[0].claim_order[-1][1]
    factory = steal_replay_factory(
        order="fifo", failures={last: RuntimeError("late casualty")})
    with pytest.raises(ShardExecutionError) as excinfo:
        ENGINE.search(dataset, 0.25, "cosine", executor_factory=factory,
                      **options)
    assert factory.created[0].claim_order == dry_run.created[0].claim_order
    assert excinfo.value.shard_id == last
    assert isinstance(excinfo.value.__cause__, RuntimeError)


def test_out_of_range_fault_target_fails_loudly(dataset):
    """A mistargeted fault hook must not make fault tests vacuously green."""
    with pytest.raises(ValueError, match="out of range"):
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=1, inject_shard_fault=99)


def test_worker_side_fault_injection_inline(dataset):
    with pytest.raises(ShardExecutionError, match="shard 1 failed"):
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=1, inject_shard_fault=1, block_rows=5)


def test_worker_side_fault_injection_through_real_processes(dataset):
    """The injected fault crosses a real pickle/process boundary and still
    surfaces as ShardExecutionError chained to the worker's exception."""
    with pytest.raises(ShardExecutionError) as excinfo:
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, inject_shard_fault=0, block_rows=5)
    assert excinfo.value.shard_id == 0
    assert isinstance(excinfo.value.__cause__, InjectedShardFault)


def test_failed_search_leaves_backend_reusable(dataset, reference):
    """After a failure the shared pool must still serve correct searches."""
    with pytest.raises(ShardExecutionError):
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, inject_shard_fault=0, block_rows=5)
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, block_rows=5)
    assert result.pair_set() == reference.pair_set()


def test_broken_shared_pool_is_evicted_and_rebuilt(dataset, reference):
    """A pool whose workers died abnormally must not poison later searches."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.similarity.backends import sharded as sharded_module

    ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                  n_workers=2, block_rows=5)
    pool = sharded_module._POOLS[(2, 1.0)]
    for process in pool._processes.values():
        process.kill()
    for process in pool._processes.values():
        process.join()
    # Depending on whether the pool has noticed the deaths yet, the next
    # search either fails once (surfaced, never a hang) or is already served
    # by a rebuilt pool; either way the one after that must succeed.
    try:
        result = ENGINE.search(dataset, 0.25, "cosine",
                               backend="sharded-blocked", n_workers=2,
                               block_rows=5)
    except (ShardExecutionError, BrokenProcessPool):
        result = ENGINE.search(dataset, 0.25, "cosine",
                               backend="sharded-blocked", n_workers=2,
                               block_rows=5)
    assert result.pair_set() == reference.pair_set()
    assert sharded_module._POOLS[(2, 1.0)] is not pool


def test_inject_shard_fault_is_cache_keyed_not_swallowed(dataset):
    """A warm cache must not serve pairs for a search asked to fault."""
    from repro.similarity import CachedApssEngine

    cached = CachedApssEngine()
    cached.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                  n_workers=1, block_rows=5)
    with pytest.raises(ShardExecutionError):
        cached.search(dataset, 0.4, "cosine", backend="sharded-blocked",
                      n_workers=1, block_rows=5, inject_shard_fault=1)


# --------------------------------------------------------------------- #
# Sharded slab streaming
# --------------------------------------------------------------------- #

def test_sharded_streaming_yields_identical_slabs_in_order(dataset):
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=9))
    for n_workers in (1, 2):
        # Copy at consume: multi-worker slabs are borrowed ring views,
        # valid only until the next iteration step.
        sharded = [(r, b.copy()) for r, b in iter_similarity_blocks_sharded(
            dataset, "cosine", block_rows=9, n_workers=n_workers)]
        assert [r for r, _ in sharded] == [r for r, _ in plain]
        for (_, expected), (_, got) in zip(plain, sharded):
            assert np.array_equal(expected, got)


def test_sharded_streaming_reorders_adversarial_completions(dataset):
    factory = replay_factory(order="lifo")
    sharded = [(r, b.copy()) for r, b in iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=9, n_workers=4,
        executor_factory=factory)]
    executor = factory.created[0]
    assert executor.completion_order != sorted(executor.completion_order)
    plain = list(iter_similarity_blocks(dataset, "cosine", block_rows=9))
    assert [r for r, _ in sharded] == [r for r, _ in plain]
    for (_, expected), (_, got) in zip(plain, sharded):
        assert np.array_equal(expected, got)


def test_sharded_streaming_respects_pending_window(dataset):
    factory = replay_factory(order="fifo")
    list(iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=9, n_workers=2, max_pending=2,
        executor_factory=factory))
    executor = factory.created[0]
    # With a window of 2, task k can only ever complete after task k-2 was
    # consumed: completion order stays within the window of submission order.
    for position, index in enumerate(executor.completion_order):
        assert abs(index - position) < 2


def test_sharded_streaming_fault_surfaces_after_earlier_blocks(dataset):
    yielded = []
    with pytest.raises(ShardExecutionError) as excinfo:
        for rows, slab in iter_similarity_blocks_sharded(
                dataset, "cosine", block_rows=9, n_workers=2,
                executor_factory=replay_factory("lifo"),
                inject_block_fault=3):
            yielded.append(rows)
    assert excinfo.value.block == (27, 36)
    assert yielded == [range(0, 9), range(9, 18), range(18, 27)]


def test_sharded_streaming_abandoned_generator_cancels_pending(dataset):
    factory = replay_factory(order="fifo")
    stream = iter_similarity_blocks_sharded(
        dataset, "cosine", block_rows=9, n_workers=2, max_pending=4,
        executor_factory=factory)
    next(stream)
    stream.close()
    executor = factory.created[0]
    pending = executor.submitted - len(executor.completion_order)
    assert pending >= 0  # nothing ran after close (lazy futures stay pending)


def test_engine_dispatches_streaming_to_sharded_backend(dataset):
    engine = ApssEngine("sharded-blocked", n_workers=2, block_rows=9)
    sharded = [(r, b.copy())
               for r, b in engine.iter_similarity_blocks(dataset, "cosine")]
    plain = list(ApssEngine().iter_similarity_blocks(dataset, "cosine",
                                                     block_rows=9))
    assert [r for r, _ in sharded] == [r for r, _ in plain]
    for (_, expected), (_, got) in zip(plain, sharded):
        assert np.array_equal(expected, got)


def test_streaming_consumers_work_through_sharded_engine(dataset):
    """A streaming reducer fed by the sharded engine matches the plain one."""
    from repro.similarity.streaming import streaming_similarity_histogram

    counts, edges = streaming_similarity_histogram(dataset, bins=16)
    engine = ApssEngine("sharded-blocked", n_workers=2)
    slabbed = np.zeros_like(counts)
    for rows, slab in engine.iter_similarity_blocks(dataset, "cosine"):
        row_ids = np.arange(rows.start, rows.stop)
        keep = np.arange(slab.shape[1])[None, :] > row_ids[:, None]
        slab_counts, _ = np.histogram(slab[keep], bins=edges)
        slabbed += slab_counts
    assert np.array_equal(slabbed, counts)


# --------------------------------------------------------------------- #
# Shard plan and edge cases
# --------------------------------------------------------------------- #

def test_plan_is_deterministic_and_budgeted():
    backend = make_backend("sharded-blocked", n_workers=4, memory_budget_mb=8.0)
    plan_a = backend.plan(5000)
    plan_b = backend.plan(5000)
    assert plan_a == plan_b
    assert all(isinstance(shard, BlockShard) for shard in plan_a)
    rows_per_block = max(stop - start
                         for shard in plan_a for start, stop in shard.blocks)
    # 8 MB budget at n=5000: the slab itself must fit well under the budget.
    assert rows_per_block * 5000 * 8 <= 8 * 1024 * 1024


def test_tiny_datasets_short_circuit():
    tiny = sparse_random_dataset(3, 1, 6, density=0.5)
    result = make_backend("sharded-blocked", n_workers=2).search(tiny, 0.5)
    assert result.pairs == []
    empty = sparse_random_dataset(4, 2, 6, density=0.5)
    out = make_backend("sharded-blocked", n_workers=2).search(empty, 2.0)
    assert out.pairs == []  # nothing clears an impossible threshold


def test_streaming_rejects_unknown_measure(dataset):
    with pytest.raises(ValueError, match="unsupported streaming measure"):
        list(iter_similarity_blocks_sharded(dataset, "hamming"))


def test_streaming_out_of_range_fault_target_fails_loudly(dataset):
    with pytest.raises(ValueError, match="out of range"):
        list(iter_similarity_blocks_sharded(dataset, "cosine", block_rows=9,
                                            n_workers=1,
                                            inject_block_fault=99))


# --------------------------------------------------------------------- #
# Stress: 20k rows, 8 MB per-worker budget, vs the cached sweep
# --------------------------------------------------------------------- #

@pytest.mark.slow
def test_stress_20k_rows_sharded_equals_cached_single_process_sweep():
    dataset = sparse_random_dataset(424242, 20_000, 4_000, density=0.002,
                                    n_clusters=40)
    cached = CachedApssEngine()  # single-process exact-blocked sweep
    sharded = ApssEngine("sharded-blocked", n_workers=2, memory_budget_mb=8.0)
    thresholds = (0.55, 0.7)  # ascending: the second is a pure cache hit
    for threshold in thresholds:
        expected = cached.search(dataset, threshold, "cosine")
        result = sharded.search(dataset, threshold, "cosine")
        assert result.pair_count() == expected.pair_count()
        assert result.pair_set() == expected.pair_set(), (
            f"sharded pair set diverged at t={threshold} on {dataset.name}")
    assert cached.hits == 1 and cached.misses == 1
