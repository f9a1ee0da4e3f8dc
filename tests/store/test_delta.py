"""Parity and correctness of the incremental (append-delta) APSS path.

The headline property: for every *exact* backend in the registry, searching
a parent dataset, appending rows, and delta-extending the parent result
yields pair sets **identical** to a from-scratch search on the concatenated
dataset — across seeds, measures, thresholds and split sizes.  The
approximate ``bayeslsh`` backend is excluded by construction (its pair sets
are estimates; the delta path refuses to splice exact pairs into them, and
that refusal is itself tested).

Reducer delta-maintenance is checked the same way: feeding only the delta
values into reducer state restored from the parent pass must equal a
from-scratch streaming pass over the child.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harness import (append_split, force_pickle_fallback, seeded_clustered,
                     seeded_corpus)
from repro.similarity import (
    ApssEngine,
    HistogramReducer,
    SelectionSketch,
    TopKReducer,
    available_backends,
    get_backend_class,
    shm,
    top_k_pairs,
)
from repro.similarity.backends.sharded import ShardedBlockedBackend
from repro.similarity.streaming import (
    iter_similarity_blocks,
    streaming_similarity_histogram,
    thresholds_for_edge_counts,
)
from repro.store import DeltaApssBackend, delta_pairs

ENGINE = ApssEngine()

EXACT_BACKENDS = [name for name in available_backends()
                  if get_backend_class(name).exact]

#: Keep multi-process backends in-process for the property sweep.
_FAST_OPTIONS = {"sharded-blocked": {"n_workers": 1}}


def _options(backend: str) -> dict:
    return dict(_FAST_OPTIONS.get(backend, {}))


# --------------------------------------------------------------------- #
# The parity property
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 40),
       measure=st.sampled_from(["cosine", "jaccard", "dot"]),
       threshold=st.floats(0.05, 0.9),
       k=st.integers(1, 10))
def test_append_plus_delta_merge_equals_from_scratch(backend, seed, measure,
                                                     threshold, k):
    impl = get_backend_class(backend)(**_options(backend))
    assume(impl.supports(measure))
    dataset = seeded_clustered(seed, n_rows=26, n_features=8)
    parent, child = append_split(dataset, k)

    base = ENGINE.search(parent, threshold, measure, backend=backend,
                         **_options(backend))
    extended = DeltaApssBackend().extend(base, child)
    scratch = ENGINE.search(dataset, threshold, measure, backend=backend,
                            **_options(backend))

    assert extended.pair_set() == scratch.pair_set(), \
        f"{backend} delta merge diverged on {dataset.name}"
    merged = extended.similarities()
    for pair, similarity in scratch.similarities().items():
        assert merged[pair] == pytest.approx(similarity, abs=1e-9)
    # Canonical order survives the merge.
    keys = [(p.first, p.second) for p in extended.pairs]
    assert keys == sorted(keys)
    assert extended.n_rows == dataset.n_rows
    assert extended.exact


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
def test_sparse_append_parity(backend):
    """Same property on a sparse jaccard corpus, one spot check per backend."""
    dataset = seeded_corpus(77, n_docs=40)
    parent, child = append_split(dataset, 6)
    base = ENGINE.search(parent, 0.2, "jaccard", backend=backend,
                         **_options(backend))
    extended = DeltaApssBackend().extend(base, child)
    scratch = ENGINE.search(dataset, 0.2, "jaccard", backend=backend,
                            **_options(backend))
    assert extended.pair_set() == scratch.pair_set()


def test_delta_pairs_only_touch_new_rows():
    dataset = seeded_clustered(11, n_rows=24)
    parent, child = append_split(dataset, 5)
    pairs = delta_pairs(child, child.parent_delta, 0.0, "cosine")
    boundary = child.parent_delta.parent_rows
    assert pairs, "threshold 0 must admit cross pairs"
    assert all(p.second >= boundary for p in pairs), \
        "every delta pair involves an appended row"
    assert all(p.first < p.second for p in pairs)
    # Exactly (old x new) + (new x new) pairs at threshold <= min similarity.
    pairs_all = delta_pairs(child, child.parent_delta, -2.0, "cosine")
    d = child.parent_delta.n_new
    assert len(pairs_all) == boundary * d + d * (d - 1) // 2


# --------------------------------------------------------------------- #
# Guard rails: stale or mismatched state must be refused
# --------------------------------------------------------------------- #

def test_extend_refuses_approximate_parents():
    dataset = seeded_clustered(13, n_rows=24)
    parent, child = append_split(dataset, 4)
    base = ENGINE.search(parent, 0.5, "cosine", backend="bayeslsh")
    with pytest.raises(ValueError, match="approximate"):
        DeltaApssBackend().extend(base, child)


def test_extend_refuses_mismatched_parent_rows():
    dataset = seeded_clustered(14, n_rows=24)
    parent, child = append_split(dataset, 4)
    shrunk = parent.subset(range(parent.n_rows - 1))
    base = ENGINE.search(shrunk, 0.5)
    with pytest.raises(ValueError, match="rows"):
        DeltaApssBackend().extend(base, child)


def test_extend_refuses_content_drift():
    """A dataset mutated after the append must not be merged silently."""
    dataset = seeded_clustered(15, n_rows=24)
    parent, child = append_split(dataset, 4)
    base = ENGINE.search(parent, 0.5)
    child.data[0] += 1.0  # drift: content no longer matches the delta
    with pytest.raises(ValueError, match="fingerprint"):
        DeltaApssBackend().extend(base, child)


def test_extend_requires_a_delta():
    dataset = seeded_clustered(16, n_rows=24)
    base = ENGINE.search(dataset, 0.5)
    with pytest.raises(ValueError, match="delta"):
        DeltaApssBackend().extend(base, dataset)


# --------------------------------------------------------------------- #
# Reducer delta-maintenance: stored state + delta pass == from scratch
# --------------------------------------------------------------------- #

def _upper_values(dataset, measure):
    values = []
    for rows, slab in iter_similarity_blocks(dataset, measure):
        row_ids = np.arange(rows.start, rows.stop)
        keep = np.arange(slab.shape[1])[None, :] > row_ids[:, None]
        values.append(slab[keep])
    return np.concatenate(values) if values else np.empty(0)


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_histogram_delta_maintenance(measure):
    dataset = seeded_clustered(21, n_rows=30)
    parent, child = append_split(dataset, 6)
    edges = np.linspace(-1.0, 1.0, 41)

    reducer = HistogramReducer(edges)
    reducer.update(_upper_values(parent, measure))
    # Round-trip through state() like the store does, then delta-update.
    restored = HistogramReducer.from_state(reducer.state())
    DeltaApssBackend().extend_reducers(child, measure=measure,
                                       histogram=restored)

    full_counts, _ = streaming_similarity_histogram(dataset, bins=edges,
                                                    measure=measure)
    assert np.array_equal(restored.counts, full_counts)


def test_top_k_delta_maintenance():
    dataset = seeded_clustered(22, n_rows=30)
    parent, child = append_split(dataset, 6)

    reducer = TopKReducer(15)
    for rows, slab in iter_similarity_blocks(parent, "cosine"):
        reducer.update_slab(rows, slab)
    restored = TopKReducer.from_state(reducer.state())
    DeltaApssBackend().extend_reducers(child, measure="cosine",
                                      top_k=restored)

    assert [p.as_tuple() for p in restored.pairs()] == \
        [p.as_tuple() for p in top_k_pairs(dataset, 15)]


def test_selection_sketch_delta_maintenance():
    dataset = seeded_clustered(23, n_rows=30)
    parent, child = append_split(dataset, 6)

    sketch = SelectionSketch.for_measure(parent, "cosine", n_bins=256)
    sketch.update(_upper_values(parent, "cosine"))
    restored = SelectionSketch.from_state(sketch.state())
    DeltaApssBackend().extend_reducers(child, measure="cosine",
                                       selection=restored)

    fresh = SelectionSketch.for_measure(dataset, "cosine", n_bins=256)
    fresh.update(_upper_values(dataset, "cosine"))
    assert np.array_equal(restored.counts, fresh.counts)
    assert restored.lowest == fresh.lowest
    assert restored.highest == fresh.highest
    n = dataset.n_rows
    assert restored.total == n * (n - 1) // 2
    # The sketch's bounded answer brackets the exact order statistic.
    target = 40
    exact = thresholds_for_edge_counts(dataset, [target], n_bins=256)[0]
    approx = restored.approx_threshold_for_edge_count(target)
    width = restored.edges[1] - restored.edges[0]
    assert approx <= exact <= approx + width


# --------------------------------------------------------------------- #
# Store-aware sharded ingest: the delta pass over the worker pool
# --------------------------------------------------------------------- #

SHARDED_VARIANTS = [
    pytest.param(options, id="-".join(
        f"{key}={value}" for key, value in sorted(options.items())))
    for options in ShardedBlockedBackend.parity_variants()
]


@pytest.mark.parametrize("variant", SHARDED_VARIANTS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 30),
       measure=st.sampled_from(["cosine", "jaccard", "dot"]),
       threshold=st.floats(0.05, 0.9),
       k=st.integers(1, 10))
def test_sharded_delta_ingest_matches_single_process_extend(
        variant, seed, measure, threshold, k):
    """The headline ingest property: fanning the Δn x n cross block over the
    worker pool (any worker count, either transport) produces a merged floor
    byte-identical to the single-process DeltaApssBackend.extend."""
    dataset = seeded_clustered(seed, n_rows=26, n_features=8)
    parent, child = append_split(dataset, k)
    base = ENGINE.search(parent, threshold, measure)

    single = DeltaApssBackend().extend(base, child)
    sharded = DeltaApssBackend(block_rows=3, **variant).extend(base, child)

    assert [p.as_tuple() for p in sharded.pairs] == \
        [p.as_tuple() for p in single.pairs], \
        f"sharded ingest diverged on {dataset.name} with {variant}"
    assert sharded.details["delta"]["new_pairs"] == \
        single.details["delta"]["new_pairs"]


@pytest.mark.parametrize("variant", [
    param for param in SHARDED_VARIANTS if param.values[0]["n_workers"] > 1])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 30),
       measure=st.sampled_from(["cosine", "jaccard", "dot"]),
       threshold=st.floats(0.05, 0.9),
       k=st.integers(1, 10))
def test_sharded_delta_ingest_under_pickle_fallback_matches_extend(
        variant, seed, measure, threshold, k):
    """Without shared memory the multi-worker ingest pass ships the child
    dataset pickled; the merged floor must not notice."""
    dataset = seeded_clustered(seed, n_rows=26, n_features=8)
    parent, child = append_split(dataset, k)
    base = ENGINE.search(parent, threshold, measure)

    single = DeltaApssBackend().extend(base, child)
    publishes = []
    with pytest.MonkeyPatch.context() as patch:
        force_pickle_fallback(patch)
        patch.setattr(shm, "publish_dataset",
                      lambda *args, **kwargs: publishes.append(args) or None)
        sharded = DeltaApssBackend(block_rows=3, **variant).extend(base, child)

    assert publishes, "the multi-worker pass never tried shared memory"

    assert [p.as_tuple() for p in sharded.pairs] == \
        [p.as_tuple() for p in single.pairs], \
        f"pickled ingest diverged on {dataset.name} with {variant}"


def test_sharded_ingest_under_adversarial_shard_orders():
    """Replayed out-of-order shard claims cannot perturb the merged floor."""
    from harness import steal_replay_factory

    dataset = seeded_clustered(31, n_rows=40)
    parent, child = append_split(dataset, 12)
    base = ENGINE.search(parent, 0.2)
    expected = DeltaApssBackend().extend(base, child)

    for order in ("lifo", ("random", 5), [1, 1, 0, 1]):
        factory = steal_replay_factory(order=order)
        got = DeltaApssBackend(block_rows=2, n_workers=2,
                               executor_factory=factory).extend(base, child)
        claimed = [item for _, item in factory.created[0].claim_order]
        assert len(claimed) > 1
        assert claimed != sorted(claimed)
        assert sorted(claimed) == list(range(len(claimed)))
        assert [p.as_tuple() for p in got.pairs] == \
            [p.as_tuple() for p in expected.pairs]


@pytest.mark.parametrize("n_workers", [2, 4])
def test_sharded_reducer_extension_matches_single_process(n_workers):
    """Shard-local reducer states fold through merge() into exactly the
    state a single-process delta pass produces."""
    dataset = seeded_clustered(33, n_rows=34)
    parent, child = append_split(dataset, 9)
    edges = np.linspace(-1.0, 1.0, 33)

    def warmed():
        histogram = HistogramReducer(edges)
        selection = SelectionSketch.for_measure(parent, "cosine", n_bins=128)
        top_k = TopKReducer(12)
        histogram.update(_upper_values(parent, "cosine"))
        selection.update(_upper_values(parent, "cosine"))
        for rows, slab in iter_similarity_blocks(parent, "cosine"):
            top_k.update_slab(rows, slab)
        return histogram, selection, top_k

    single_h, single_s, single_t = warmed()
    DeltaApssBackend().extend_reducers(
        child, measure="cosine", histogram=single_h, selection=single_s,
        top_k=single_t)

    sharded_h, sharded_s, sharded_t = warmed()
    DeltaApssBackend(block_rows=3, n_workers=n_workers).extend_reducers(
        child, measure="cosine", histogram=sharded_h, selection=sharded_s,
        top_k=sharded_t)

    assert np.array_equal(sharded_h.counts, single_h.counts)
    assert np.array_equal(sharded_s.counts, single_s.counts)
    assert sharded_s.lowest == single_s.lowest
    assert sharded_s.highest == single_s.highest
    assert [p.as_tuple() for p in sharded_t.pairs()] == \
        [p.as_tuple() for p in single_t.pairs()]


def test_sharded_ingest_fault_surfaces_and_spares_the_parent_floor(tmp_path):
    """A worker fault mid-ingest (through a real process boundary) surfaces
    as ShardExecutionError — and because ingest never mutates parent state,
    the parent's persisted floor survives byte-identical and no child entry
    appears: the crash-mid-ingest atomicity contract."""
    from repro.similarity.backends.sharded import ShardExecutionError
    from repro.store import SimilarityStore

    dataset = seeded_clustered(35, n_rows=40)
    parent, child = append_split(dataset, 10)
    base = ENGINE.search(parent, 0.2)

    store = SimilarityStore(tmp_path / "ingest-store")
    parent_key = (parent.fingerprint(), "cosine", "exact-blocked", ())
    child_key = (child.fingerprint(), "cosine", "exact-blocked", ())
    store.save_result(parent_key, base)

    faulty = DeltaApssBackend(block_rows=2, n_workers=2,
                              inject_shard_fault=0)
    with pytest.raises(ShardExecutionError):
        extended = faulty.extend(base, child)
        store.save_result(child_key, extended)  # never reached

    restored = store.load_result(parent_key)
    assert restored is not None
    assert restored.pair_set() == base.pair_set()
    assert store.load_result(child_key) is None

    # A healthy retry lands the complete child floor in one atomic write.
    good = DeltaApssBackend(n_workers=2).extend(base, child)
    store.save_result(child_key, good)
    landed = store.load_result(child_key)
    assert landed.pair_set() == ENGINE.search(dataset, 0.2).pair_set()


def test_sharded_ingest_rejects_out_of_range_fault_targets():
    dataset = seeded_clustered(36, n_rows=24)
    parent, child = append_split(dataset, 4)
    base = ENGINE.search(parent, 0.3)
    with pytest.raises(ValueError, match="out of range"):
        DeltaApssBackend(n_workers=1, inject_shard_fault=99).extend(base, child)


def test_empty_append_sharded_extension_is_a_no_op():
    dataset = seeded_clustered(37, n_rows=20)
    child = dataset.append_rows([])
    base = ENGINE.search(dataset, 0.3)
    extended = DeltaApssBackend(n_workers=2).extend(base, child)
    assert extended.pair_set() == base.pair_set()


def test_reducer_merge_is_order_insensitive():
    """merge() folds shard-local reducers in any order to the same result."""
    dataset = seeded_clustered(24, n_rows=28)
    values = _upper_values(dataset, "cosine")
    chunks = np.array_split(values, 4)
    edges = np.linspace(-1.0, 1.0, 21)

    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        merged = HistogramReducer(edges)
        for index in order:
            part = HistogramReducer(edges)
            part.update(chunks[index])
            merged.merge(part)
        whole = HistogramReducer(edges)
        whole.update(values)
        assert np.array_equal(merged.counts, whole.counts)

    top_expected = [p.as_tuple() for p in top_k_pairs(dataset, 10)]
    for order in ([0, 1], [1, 0]):
        halves = []
        boundary = dataset.n_rows // 2
        for which in (0, 1):
            part = TopKReducer(10)
            for rows, slab in iter_similarity_blocks(dataset, "cosine"):
                if (rows.start < boundary) == (which == 0):
                    part.update_slab(rows, slab)
            halves.append(part)
        merged = TopKReducer(10)
        for index in order:
            merged.merge(halves[index])
        assert [p.as_tuple() for p in merged.pairs()] == top_expected
