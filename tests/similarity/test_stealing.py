"""Tests for work-stealing shard execution.

Three layers, mirroring how stealing can fail:

* **The queue** — ``ShardQueue``'s ``O_CREAT | O_EXCL`` claim files must hand
  each shard to exactly one claimant under any interleaving, and the claim
  policy (own stripe first, then LIFO-steal from the most-loaded victim)
  must be deterministic given the set of already-claimed items.
* **Deterministic schedules** — via the harness's
  ``StealOrderReplayExecutor``, entire claim interleavings are forced
  (FIFO/LIFO/seeded-random/explicit turn scripts), stragglers simulated in
  virtual time, and claim-time faults injected — with bit-identical parity
  against the single-process sweep required throughout.
* **Real processes** — the same contracts through an actual
  ``ProcessPoolExecutor``: stealing/static-binding parity, the claims audit in
  ``details``, fault injection crossing the pickle boundary, the delta
  (ingest) path, the ``REPRO_APSS_STRAGGLER`` slowdown hook, and the
  ``/dev/shm`` leak oracle extended over claim directories.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from harness import (append_split, own_shm_entries, seeded_corpus,
                     steal_replay_factory)
from repro.similarity import (ApssEngine, HistogramReducer, ShardExecutionError,
                              ShardQueue, ShardQueueClient, TopKReducer,
                              shard_owner)
from repro.similarity.backends.sharded import (InjectedShardFault,
                                               reset_shared_pools,
                                               run_delta_shards)
from repro.store.delta import DeltaApssBackend

ENGINE = ApssEngine()


@pytest.fixture(scope="module")
def dataset():
    return seeded_corpus(31, n_docs=60)


@pytest.fixture(scope="module")
def reference(dataset):
    return ENGINE.search(dataset, 0.25, "cosine", backend="exact-blocked")


def pair_tuples(result):
    return [p.as_tuple() for p in result.pairs]


# --------------------------------------------------------------------- #
# The queue itself
# --------------------------------------------------------------------- #

def test_each_item_claimed_exactly_once_under_concurrency():
    queue = ShardQueue(24, 4)
    try:
        claimed: dict[int, list[int]] = {slot: [] for slot in range(4)}

        def worker(slot: int) -> None:
            client = ShardQueueClient(queue.descriptor(), slot)
            for item in client:
                claimed[slot].append(item)

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        everything = [item for items in claimed.values() for item in items]
        assert sorted(everything) == list(range(24))
        assert len(everything) == len(set(everything))
        # The audit views agree with what the clients saw.
        assert queue.claims() == {slot: len(claimed[slot]) for slot in range(4)}
        assert queue.unclaimed() == []
        for item, slot in queue.claimed_by().items():
            assert item in claimed[slot]
    finally:
        queue.close()


def test_single_client_claims_own_stripe_then_steals_lifo():
    # 7 items over 3 slots; slot 0 owns {0, 3, 6}.  Alone, it must drain its
    # own stripe ascending, then steal from the most-loaded victim (ties to
    # the lowest slot), always taking the victim's LAST unclaimed item.
    queue = ShardQueue(7, 3)
    try:
        client = ShardQueueClient(queue.descriptor(), 0)
        assert list(client) == [0, 3, 6, 4, 5, 1, 2]
    finally:
        queue.close()


def test_bound_client_executes_exactly_its_stripe():
    queue = ShardQueue(10, 3)
    try:
        stripe = [item for item in range(10) if shard_owner(item, 3) == 1]
        client = ShardQueueClient(queue.descriptor(), 1, steal=False)
        assert list(client) == stripe
        # Everything else is still up for grabs.
        assert queue.unclaimed() == [item for item in range(10)
                                     if item not in stripe]
    finally:
        queue.close()


def test_claims_audit_includes_zero_claim_workers():
    queue = ShardQueue(4, 8)
    try:
        list(ShardQueueClient(queue.descriptor(), 2))
        counts = queue.claims()
        assert set(counts) == set(range(8))
        assert counts[2] == 4
        assert sum(counts.values()) == 4
    finally:
        queue.close()


def test_closed_queue_reads_as_drained_not_as_an_error():
    queue = ShardQueue(6, 2)
    client = ShardQueueClient(queue.descriptor(), 0)
    assert client.claim() == 0
    queue.close()
    assert not os.path.exists(queue.path)
    # A client racing the close sees the queue as drained.
    assert client.claim() is None
    queue.close()  # idempotent


def test_queue_directory_is_visible_to_the_shm_leak_oracle():
    before = own_shm_entries()
    queue = ShardQueue(3, 2)
    during = own_shm_entries()
    queue.close()
    if os.path.isdir("/dev/shm"):
        # The claim dir lives under /dev/shm with the segment prefix, so a
        # leaked queue shows up in exactly the oracle every shm test runs.
        assert os.path.basename(queue.path) in during
    assert own_shm_entries() == before


def test_descriptor_round_trips_through_pickle():
    queue = ShardQueue(5, 2)
    try:
        descriptor = pickle.loads(pickle.dumps(queue.descriptor()))
        assert descriptor == queue.descriptor()
        assert ShardQueueClient(descriptor, 1).claim() == 1
    finally:
        queue.close()


def test_queue_and_client_validate_arguments():
    with pytest.raises(ValueError, match="n_items"):
        ShardQueue(-1, 2)
    with pytest.raises(ValueError, match="n_slots"):
        ShardQueue(4, 0)
    queue = ShardQueue(4, 2)
    try:
        with pytest.raises(ValueError, match="worker_slot"):
            ShardQueueClient(queue.descriptor(), 2)
    finally:
        queue.close()


# --------------------------------------------------------------------- #
# Deterministic claim schedules (StealOrderReplayExecutor)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("order", ["fifo", "lifo", ("random", 7),
                                   ("random", 23), [1, 0, 1, 1, 0, 0]])
def test_adversarial_claim_orders_preserve_parity(dataset, reference, order):
    factory = steal_replay_factory(order=order)
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=5,
                           steal=True, executor_factory=factory)
    executor = factory.created[0]
    total = sum(len(items) for items in executor.claims.values())
    assert total == len(executor.claim_order) == result.details["n_shards"]
    # Exactly-once, whatever the interleaving.
    everything = [item for _, item in executor.claim_order]
    assert sorted(everything) == list(range(total))
    # ...and the merged pairs are bit-identical to the single-process sweep.
    assert pair_tuples(result) == pair_tuples(reference)


def test_explicit_turn_script_forces_the_claim_interleaving(dataset):
    script = [1, 0, 0, 1, 0, 1]
    factory = steal_replay_factory(order=script)
    ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                  n_workers=2, shards_per_worker=3, block_rows=5,
                  steal=True, executor_factory=factory)
    executor = factory.created[0]
    assert [slot for slot, _ in executor.claim_order] == script


def test_steal_matches_the_static_plan_bit_for_bit(dataset):
    stolen = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=5,
                           steal=True,
                           executor_factory=steal_replay_factory("lifo"))
    static = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=5,
                           steal=False)
    assert pair_tuples(stolen) == pair_tuples(static)


def test_virtual_straggler_redistributes_claims(dataset, reference):
    # Worker 0 is 10x slower in the executor's virtual clock: by the time it
    # finishes a shard, worker 1 has claimed several — so the straggler must
    # end the search with strictly fewer claims, with parity intact.
    factory = steal_replay_factory(delays={0: 10.0})
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=5,
                           steal=True, executor_factory=factory)
    executor = factory.created[0]
    assert len(executor.claims.get(0, [])) < len(executor.claims.get(1, []))
    assert pair_tuples(result) == pair_tuples(reference)


def test_claim_time_failure_surfaces_with_shard_and_cause(dataset):
    marker = RuntimeError("disk fell off")
    factory = steal_replay_factory(order="fifo", failures={2: marker})
    with pytest.raises(ShardExecutionError) as excinfo:
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, shards_per_worker=3, block_rows=5,
                      steal=True, executor_factory=factory)
    assert excinfo.value.shard_id == 2
    assert isinstance(excinfo.value.__cause__, RuntimeError)
    assert "disk fell off" in str(excinfo.value)


def test_failure_in_a_stolen_shard_still_names_the_shard(dataset):
    # Force worker 1 to do all the claiming (fifo would pick 0; an explicit
    # all-ones script hands every turn to slot 1), then fail a shard slot 1
    # does NOT own — the error must name the shard, not the thief.
    stolen_shard = 0
    assert shard_owner(stolen_shard, 2) == 0
    factory = steal_replay_factory(order=[1] * 12,
                                   failures={stolen_shard: OSError("yanked")})
    with pytest.raises(ShardExecutionError) as excinfo:
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, shards_per_worker=3, block_rows=5,
                      steal=True, executor_factory=factory)
    assert excinfo.value.shard_id == stolen_shard
    assert isinstance(excinfo.value.__cause__, OSError)


# --------------------------------------------------------------------- #
# Real processes
# --------------------------------------------------------------------- #

def test_steal_parity_and_claims_audit_over_real_processes(dataset, reference):
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=2, shards_per_worker=3, block_rows=8,
                           steal=True)
    assert pair_tuples(result) == pair_tuples(reference)
    assert result.details["steal"] == "steal"
    claims = result.details["claims"]
    assert set(claims) == {0, 1}
    assert sum(claims.values()) == result.details["n_shards"]


@pytest.mark.parametrize("n_workers", [2, 3, 4])
def test_static_binding_claims_exactly_the_stripes(dataset, reference,
                                                    n_workers):
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=n_workers, shards_per_worker=3,
                           block_rows=4, steal=False)
    assert pair_tuples(result) == pair_tuples(reference)
    assert result.details["steal"] == "bound"
    n_shards = result.details["n_shards"]
    stripes = {slot: len([s for s in range(n_shards)
                          if shard_owner(s, n_workers) == slot])
               for slot in range(n_workers)}
    assert result.details["claims"] == stripes


def test_single_worker_search_claims_every_shard(dataset, reference):
    # One worker runs one in-process runner that claims the whole plan.
    result = ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                           n_workers=1, block_rows=8)
    assert pair_tuples(result) == pair_tuples(reference)
    assert result.details["n_shards"] > 1
    assert result.details["claims"] == {0: result.details["n_shards"]}


@pytest.mark.parametrize("entry", ["search", "delta-shards", "delta-backend"])
@pytest.mark.parametrize("steal", [None, "bound", "steal", 1])
def test_steal_accepts_only_a_bool(dataset, steal, entry):
    # The retired values (None, "bound"), the details label and a truthy
    # int are all refused at every entry point, not silently coerced.
    parent, child = append_split(dataset, 9)
    with pytest.raises(ValueError, match="steal must be True"):
        if entry == "search":
            ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                          n_workers=2, steal=steal)
        elif entry == "delta-shards":
            run_delta_shards(child, child.parent_delta, 0.25, "cosine",
                             n_workers=2, steal=steal)
        else:
            DeltaApssBackend(n_workers=2, steal=steal)


def test_injected_fault_crosses_the_steal_process_boundary(dataset):
    with pytest.raises(ShardExecutionError) as excinfo:
        ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                      n_workers=2, shards_per_worker=3, block_rows=8,
                      steal=True, inject_shard_fault=3)
    assert excinfo.value.shard_id == 3
    assert isinstance(excinfo.value.__cause__, InjectedShardFault)


def test_steal_search_leaks_no_shm_segments(dataset):
    before = own_shm_entries()
    ENGINE.search(dataset, 0.25, "cosine", backend="sharded-blocked",
                  n_workers=2, shards_per_worker=3, block_rows=8, steal=True)
    assert own_shm_entries() == before


@pytest.mark.parametrize("n_workers", [2, 4])
def test_delta_scheduling_agrees_pairs_and_folded_reducers(dataset, n_workers):
    parent, child = append_split(dataset, 9)
    delta = child.parent_delta
    specs = {"histogram": [0.0, 0.25, 0.5, 0.75, 1.0], "top_k": 7}

    def run(**kwargs):
        return run_delta_shards(child, delta, 0.25, "cosine",
                                reducer_specs=specs, shards_per_worker=3,
                                **kwargs)

    def fold(states):
        histogram = HistogramReducer(specs["histogram"])
        for state in states["histogram"]:
            histogram.merge(HistogramReducer.from_state(state))
        top = TopKReducer(specs["top_k"])
        for state in states["top_k"]:
            top.merge(TopKReducer.from_state(state))
        return (histogram.counts.tolist(),
                [p.as_tuple() for p in top.pairs()])

    # The in-process single runner is the reference for both disciplines.
    reference_pairs, reference_states = run(n_workers=1)
    reference_pairs = [p.as_tuple() for p in reference_pairs]
    reference_fold = fold(reference_states)
    assert reference_pairs, "delta split must produce pairs to compare"
    for steal in (True, False):
        pairs, states = run(n_workers=n_workers, steal=steal)
        assert [p.as_tuple() for p in pairs] == reference_pairs, steal
        # Shard counts (hence state-list lengths) legitimately differ per
        # worker count; the *folded* reducer values may not.
        assert fold(states) == reference_fold, steal


def test_straggler_env_slowdown_keeps_parity(dataset, reference, monkeypatch):
    from repro.similarity.backends import sharded
    monkeypatch.setenv(sharded.STRAGGLER_ENV_VAR, "3")
    reset_shared_pools()
    try:
        result = ENGINE.search(dataset, 0.25, "cosine",
                               backend="sharded-blocked", n_workers=2,
                               shards_per_worker=3, block_rows=8, steal=True)
        assert pair_tuples(result) == pair_tuples(reference)
        assert sum(result.details["claims"].values()) == \
            result.details["n_shards"]
    finally:
        monkeypatch.delenv(sharded.STRAGGLER_ENV_VAR)
        reset_shared_pools()
