"""Cross-backend parity harness for the APSS engine.

Every registered backend must agree with the ``exact-loop`` reference:

* exact backends return the *identical* pair set, with similarities within
  1e-9;
* the approximate ``bayeslsh`` backend must retain (essentially) every pair
  comfortably above the threshold and nothing comfortably below it.

The roster is introspected from the backend registry: each backend
contributes every option set from its ``parity_variants()`` (the sharded
backend declares 1-, 2- and 4-worker variants), so a newly registered
backend — and each of its declared configuration seams — is parity-checked
automatically, with zero edits here.

The properties run under hypothesis over random dense and sparse datasets,
thresholds and measures; ``derandomize=True`` keeps the suite deterministic
in CI, and every generated dataset embeds its seed in its name so a failure
message alone is enough to rebuild the offending input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from harness import force_pickle_fallback, sparse_random_dataset
from repro.datasets import VectorDataset, make_clustered_vectors, make_sparse_corpus
from repro.similarity import (ApssEngine, available_backends,
                              get_backend_class, make_backend)
from repro.similarity.backends import ApssBackend

ENGINE = ApssEngine()


def _variant_params(exact: bool) -> list:
    """(backend, options) pytest params from registry introspection."""
    params = []
    for name in available_backends():
        cls = get_backend_class(name)
        if cls.exact != exact or name == "exact-loop":
            continue
        for options in cls.parity_variants():
            suffix = ",".join(f"{k}={v}" for k, v in sorted(options.items()))
            params.append(pytest.param(
                name, options, id=f"{name}[{suffix}]" if suffix else name))
    return params


EXACT_VARIANTS = _variant_params(exact=True)
APPROX_VARIANTS = _variant_params(exact=False)
#: The roster's multi-worker sharded variants: the ones whose dataset
#: payload travels between processes, through shared memory or pickled.
PICKLED_VARIANTS = [param for param in EXACT_VARIANTS
                    if param.values[0] == "sharded-blocked"
                    and param.values[1].get("n_workers", 1) > 1]

#: Pair similarities this close to the threshold are allowed to land on
#: either side (the test nudges thresholds away from them instead).
BOUNDARY = 1e-6


def _random_dataset(seed: int, n_rows: int, n_features: int,
                    density: float) -> VectorDataset:
    rng = np.random.default_rng(seed)
    dense = rng.random((n_rows, n_features))
    dense[rng.random((n_rows, n_features)) > density] = 0.0
    return VectorDataset.from_dense(dense, name=f"random[seed={seed}]")


def _clear_threshold(dataset: VectorDataset, threshold: float,
                     measure: str) -> float:
    """Nudge *threshold* so no exact similarity sits within BOUNDARY of it."""
    loop = ENGINE.search(dataset, -2.0, measure, backend="exact-loop")
    sims = np.array([p.similarity for p in loop.pairs])
    while len(sims) and np.min(np.abs(sims - threshold)) <= BOUNDARY:
        threshold += 3.0 * BOUNDARY
    return threshold


def _assert_exact_parity(dataset: VectorDataset, threshold: float,
                         measure: str, backend: str, options: dict):
    reference = ENGINE.search(dataset, threshold, measure, backend="exact-loop")
    result = ENGINE.search(dataset, threshold, measure, backend=backend,
                           **options)
    assert result.exact
    assert result.pair_set() == reference.pair_set(), (
        f"{backend} ({options}) disagrees with exact-loop at t={threshold} "
        f"({measure}) on {dataset.name}")
    expected = reference.similarities()
    for pair, similarity in result.similarities().items():
        assert similarity == pytest.approx(expected[pair], abs=1e-9)
    return result


def _exact_variants_for(measure: str):
    for param in EXACT_VARIANTS:
        backend, options = param.values
        if make_backend(backend, **options).supports(measure):
            yield backend, options


# --------------------------------------------------------------------- #
# Registry sanity
# --------------------------------------------------------------------- #

def test_all_expected_backends_registered():
    assert {"exact-loop", "exact-blocked", "prefix-filter",
            "bayeslsh", "sharded-blocked"} <= set(available_backends())


def test_backends_are_apss_backend_instances():
    for name in available_backends():
        backend = make_backend(name)
        assert isinstance(backend, ApssBackend)
        assert backend.name == name


def test_parity_roster_covers_sharded_worker_counts():
    """Registry introspection must produce the sharded worker-count and
    scheduling variants: the in-process single runner, stealing and static
    binding at 2 workers, and stealing at 4."""
    sharded = [options for param in EXACT_VARIANTS
               for name, options in [param.values] if name == "sharded-blocked"]
    assert sharded == [{"n_workers": 1},
                       {"n_workers": 2, "steal": True},
                       {"n_workers": 2, "steal": False},
                       {"n_workers": 4, "steal": True}]


def test_every_parity_variant_instantiates():
    for param in EXACT_VARIANTS:
        backend, options = param.values
        assert make_backend(backend, **options).exact
    for param in APPROX_VARIANTS:
        backend, options = param.values
        assert not make_backend(backend, **options).exact


def test_parity_roster_covers_bayeslsh_candidate_strategies():
    """Registry introspection must exercise both candidate generators."""
    variants = [options for param in APPROX_VARIANTS
                for name, options in [param.values] if name == "bayeslsh"]
    assert [v["candidate_strategy"] for v in variants] == ["all", "banded"]


def test_unknown_backend_raises():
    with pytest.raises(KeyError, match="unknown APSS backend"):
        ENGINE.search(make_clustered_vectors(5, 3, 2, seed=0), 0.5,
                      backend="no-such-backend")


def test_unsupported_measure_raises():
    with pytest.raises(ValueError, match="does not support measure"):
        ENGINE.search(make_clustered_vectors(5, 3, 2, seed=0), 0.5,
                      measure="dot", backend="prefix-filter")


# --------------------------------------------------------------------- #
# Hypothesis properties: exact backends == exact-loop
# --------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       n_rows=st.integers(2, 24),
       n_features=st.integers(2, 16),
       density=st.floats(0.2, 1.0),
       threshold=st.floats(0.05, 0.95),
       measure=st.sampled_from(["cosine", "jaccard", "dot"]))
def test_exact_backends_match_reference_random_data(seed, n_rows, n_features,
                                                    density, threshold, measure):
    dataset = _random_dataset(seed, n_rows, n_features, density)
    threshold = _clear_threshold(dataset, threshold, measure)
    for backend, options in _exact_variants_for(measure):
        _assert_exact_parity(dataset, threshold, measure, backend, options)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       threshold=st.floats(-0.8, 0.8),
       measure=st.sampled_from(["cosine", "jaccard"]))
def test_exact_backends_match_reference_znormed_negative_thresholds(
        seed, threshold, measure):
    """z-normed data produces negative cosines; parity must survive t <= 0."""
    base = _random_dataset(seed, 12, 5, 0.9).z_normalized()
    threshold = _clear_threshold(base, threshold, measure)
    for backend, options in _exact_variants_for(measure):
        _assert_exact_parity(base, threshold, measure, backend, options)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       n_rows=st.integers(10, 60),
       threshold=st.floats(0.1, 0.7),
       measure=st.sampled_from(["cosine", "jaccard"]))
def test_exact_backends_match_reference_csr_sparse_data(seed, n_rows,
                                                        threshold, measure):
    """Direct-CSR sparse data (empty-ish rows, banded clusters) parity."""
    dataset = sparse_random_dataset(seed, n_rows, 40, density=0.2, n_clusters=3)
    threshold = _clear_threshold(dataset, threshold, measure)
    for backend, options in _exact_variants_for(measure):
        _assert_exact_parity(dataset, threshold, measure, backend, options)


@pytest.mark.parametrize("backend,options", EXACT_VARIANTS)
@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
@pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
def test_exact_backends_match_reference_fixture_datasets(
        clustered_dataset, sparse_corpus, measure, threshold, backend, options):
    if not make_backend(backend, **options).supports(measure):
        pytest.skip(f"{backend} does not support {measure}")
    for dataset in (clustered_dataset, sparse_corpus):
        threshold = _clear_threshold(dataset, threshold, measure)
        _assert_exact_parity(dataset, threshold, measure, backend, options)


@pytest.mark.parametrize("backend,options", PICKLED_VARIANTS)
@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
@pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
def test_sharded_pickle_fallback_matches_reference_fixture_datasets(
        clustered_dataset, sparse_corpus, measure, threshold, backend, options,
        monkeypatch):
    """Without shared memory every multi-worker scheduler falls back to
    pickled payloads and must still match the reference exactly."""
    force_pickle_fallback(monkeypatch)
    for dataset in (clustered_dataset, sparse_corpus):
        threshold = _clear_threshold(dataset, threshold, measure)
        result = _assert_exact_parity(dataset, threshold, measure, backend,
                                      options)
        assert result.details["shared_memory"] is False


def test_blocked_backend_parity_across_block_sizes():
    """Block boundaries must not change the result (off-by-one hunting)."""
    dataset = make_sparse_corpus(40, 150, avg_doc_length=12, n_topics=4, seed=21)
    reference = ENGINE.search(dataset, 0.2, "cosine", backend="exact-loop")
    for block_rows in (1, 3, 7, 39, 40, 64):
        result = ENGINE.search(dataset, 0.2, "cosine",
                               backend="exact-blocked", block_rows=block_rows)
        assert result.pair_set() == reference.pair_set()


def test_sharded_backend_parity_across_block_and_shard_geometry():
    """Shard/block geometry must not change the result either."""
    dataset = make_sparse_corpus(40, 150, avg_doc_length=12, n_topics=4, seed=21)
    reference = ENGINE.search(dataset, 0.2, "cosine", backend="exact-loop")
    for block_rows in (1, 7, 40):
        for strategy in ("striped", "contiguous", "balanced"):
            result = ENGINE.search(
                dataset, 0.2, "cosine", backend="sharded-blocked",
                block_rows=block_rows, n_workers=2, shards_per_worker=3,
                partition_strategy=strategy)
            assert result.pair_set() == reference.pair_set(), (
                f"block_rows={block_rows} strategy={strategy}")


# --------------------------------------------------------------------- #
# Approximate backends: recall envelope instead of equality
# --------------------------------------------------------------------- #

@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       threshold=st.floats(0.3, 0.8),
       measure=st.sampled_from(["cosine", "jaccard"]))
def test_bayeslsh_recall_envelope(seed, threshold, measure):
    """BayesLSH must cover the comfortably-above set and stay inside the
    comfortably-below complement (its errors concentrate at the boundary)."""
    dataset = _random_dataset(seed, 20, 8, 0.7)
    exact = ENGINE.search(dataset, -2.0, measure, backend="exact-loop")
    sims = exact.similarities()
    retained = ENGINE.search(dataset, threshold, measure, backend="bayeslsh",
                             n_hashes=256, seed=0).pair_set()

    margin = 0.2
    clearly_above = {p for p, s in sims.items() if s >= threshold + margin}
    clearly_below = {p for p, s in sims.items() if s <= threshold - margin}
    if clearly_above:
        recall = len(clearly_above & retained) / len(clearly_above)
        assert recall >= 0.9, (
            f"bayeslsh recall {recall:.2f} on pairs >= t+{margin}")
    leaked = clearly_below & retained
    assert len(leaked) <= max(1, len(clearly_below)) * 0.1, (
        f"bayeslsh retained {len(leaked)} pairs <= t-{margin}")


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       threshold=st.floats(0.3, 0.8),
       measure=st.sampled_from(["cosine", "jaccard"]))
def test_bayeslsh_banded_retained_subset_of_all_pairs(seed, threshold, measure):
    """With identical sketches (same seed), per-pair verification is
    deterministic, so the banded strategy — whose candidate set is a subset
    of all pairs — must retain a subset of the all-pairs run's retained set."""
    dataset = _random_dataset(seed, 30, 8, 0.6)
    runs = {}
    for options in get_backend_class("bayeslsh").parity_variants():
        result = ENGINE.search(dataset, threshold, measure, backend="bayeslsh",
                               n_hashes=64, seed=0, **options)
        assert not result.exact
        assert result.details["candidate_strategy"] == options["candidate_strategy"]
        runs[options["candidate_strategy"]] = result
    assert runs["banded"].pair_set() <= runs["all"].pair_set()
    all_sims = runs["all"].similarities()
    for pair, similarity in runs["banded"].similarities().items():
        assert similarity == pytest.approx(all_sims[pair], abs=1e-12)


def test_bayeslsh_auto_strategy_resolves_by_row_count():
    backend = make_backend("bayeslsh", banded_min_rows=16)
    assert backend.resolve_strategy(15) == "all"
    assert backend.resolve_strategy(16) == "banded"
    pinned = make_backend("bayeslsh", candidate_strategy="banded")
    assert pinned.resolve_strategy(2) == "banded"
    dataset = make_clustered_vectors(20, 8, 3, seed=5)
    result = ENGINE.search(dataset, 0.8, "cosine", backend="bayeslsh",
                           n_hashes=64, seed=0, banded_min_rows=8)
    assert result.details["candidate_strategy"] == "banded"


def test_bayeslsh_reports_pruning_stats():
    dataset = make_clustered_vectors(40, 8, 3, seed=5)
    result = ENGINE.search(dataset, 0.8, "cosine", backend="bayeslsh",
                           n_hashes=128, seed=0)
    assert not result.exact
    assert result.n_candidates == 40 * 39 // 2
    assert result.n_pruned > 0
    assert result.details["hash_comparisons"] > 0
