"""The unified all-pairs similarity search engine.

``ApssEngine`` is the single entry point every caller — the exact baselines,
the thresholded-graph builders, the interactive session and the benchmark
harnesses — goes through to answer "which pairs meet this threshold?".  The
actual strategy is a pluggable backend chosen by name from the registry in
:mod:`repro.similarity.backends`, so scaling work (sharding, caching, async
dispatch) has exactly one seam to extend.

    >>> from repro.similarity.engine import ApssEngine
    >>> engine = ApssEngine()                       # exact-blocked default
    >>> result = engine.search(dataset, 0.8)
    >>> result.pair_count(), result.backend
    (42, 'exact-blocked')
    >>> engine.search(dataset, 0.8, backend="bayeslsh").exact
    False
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datasets.vectors import VectorDataset
from repro.similarity.backends import available_backends, make_backend
from repro.similarity.types import SimilarPair
from repro.utils.timers import Stopwatch

__all__ = ["EngineResult", "ApssEngine", "apss_search", "DEFAULT_BACKEND"]

#: Backend used when callers do not ask for one explicitly.  Exact and fast.
DEFAULT_BACKEND = "exact-blocked"


@dataclass
class EngineResult:
    """Outcome of one engine search.

    ``n_candidates``/``n_pruned`` describe how much work the backend did
    (scored pairs vs. pairs discarded without a full similarity
    computation); ``details`` carries backend-specific extras such as the
    raw :class:`~repro.lsh.bayeslsh.ApssResult`.
    """

    backend: str
    measure: str
    threshold: float
    n_rows: int
    pairs: list[SimilarPair]
    exact: bool
    seconds: float
    n_candidates: int = 0
    n_pruned: int = 0
    details: dict = field(default_factory=dict)

    def pair_count(self) -> int:
        """How many pairs met the threshold."""
        return len(self.pairs)

    def pair_set(self) -> set[tuple[int, int]]:
        """The unordered pair ids, for set comparisons across backends."""
        return {(p.first, p.second) for p in self.pairs}

    def similarities(self) -> dict[tuple[int, int], float]:
        """Mapping ``(i, j) -> similarity`` for parity checks."""
        return {(p.first, p.second): p.similarity for p in self.pairs}

    def count_at(self, threshold: float) -> int:
        """Pairs at or above a (higher) threshold, reusing this search."""
        return sum(1 for p in self.pairs if p.similarity >= threshold)


class ApssEngine:
    """Backend-pluggable all-pairs similarity search.

    Parameters
    ----------
    backend:
        Default backend name (see :func:`available_backends`).
    **backend_options:
        Constructor options for the default backend (e.g. ``block_rows`` for
        ``exact-blocked`` or ``n_hashes`` for ``bayeslsh``).  They apply only
        when a search actually uses the default backend.
    """

    def __init__(self, backend: str = DEFAULT_BACKEND, **backend_options) -> None:
        self.backend = backend
        self.backend_options = dict(backend_options)
        #: How many kernel searches this engine has dispatched.  Cache layers
        #: (sweep cache, persistent store) are audited against this counter:
        #: a probe served from memory, store or delta must not bump it.
        self.search_calls = 0
        # Fail fast on typos: instantiating validates name and options.
        make_backend(backend, **self.backend_options)

    @staticmethod
    def available_backends() -> list[str]:
        """Sorted names of every registered backend."""
        return available_backends()

    def make_backend(self, backend: str | None = None, **options):
        """Instantiate a backend, merging engine defaults when applicable."""
        name = backend or self.backend
        merged = dict(self.backend_options) if name == self.backend else {}
        merged.update(options)
        return make_backend(name, **merged)

    def search(self, dataset: VectorDataset, threshold: float,
               measure: str = "cosine", backend: str | None = None,
               **options) -> EngineResult:
        """Find every pair of *dataset* rows with similarity >= *threshold*.

        Per-call ``options`` are forwarded to the backend constructor and
        override the engine-level defaults.
        """
        impl = self.make_backend(backend, **options)
        impl.check_measure(measure)
        self.search_calls += 1
        watch = Stopwatch()
        watch.start()
        output = impl.search(dataset, float(threshold), measure)
        seconds = watch.stop()
        return EngineResult(
            backend=impl.name, measure=measure, threshold=float(threshold),
            n_rows=dataset.n_rows, pairs=output.pairs, exact=impl.exact,
            seconds=seconds, n_candidates=output.n_candidates,
            n_pruned=output.n_pruned, details=output.details)

    def iter_similarity_blocks(self, dataset: VectorDataset,
                               measure: str = "cosine", *,
                               block_rows: int | None = None,
                               memory_budget_mb: float | None = None):
        """Stream ``(row_range, block)`` dense similarity slabs of *dataset*.

        The streaming substrate behind the ``exact-blocked`` kernel (see
        :func:`repro.similarity.streaming.iter_similarity_blocks`): each slab
        holds the block's similarities against every dataset row, and at most
        one slab is alive at a time.  When this engine's default backend is
        ``exact-blocked`` or ``sharded-blocked``, its ``block_rows``/
        ``memory_budget_mb`` options seed the defaults here, so consumers
        inherit the engine's budget — and a ``sharded-blocked`` engine streams
        its slabs through the multi-process merge path
        (:func:`repro.similarity.backends.sharded.iter_similarity_blocks_sharded`),
        which yields the identical slabs in the identical row order.
        """
        from repro.similarity.streaming import (
            DEFAULT_MEMORY_BUDGET_MB, iter_similarity_blocks)

        defaults = (self.backend_options
                    if self.backend in ("exact-blocked", "sharded-blocked")
                    else {})
        if block_rows is None:
            block_rows = defaults.get("block_rows")
        if memory_budget_mb is None:
            memory_budget_mb = defaults.get("memory_budget_mb",
                                            DEFAULT_MEMORY_BUDGET_MB)
        if self.backend == "sharded-blocked":
            from repro.similarity.backends.sharded import (
                iter_similarity_blocks_sharded)
            return iter_similarity_blocks_sharded(
                dataset, measure, block_rows=block_rows,
                memory_budget_mb=memory_budget_mb,
                n_workers=defaults.get("n_workers"),
                executor_factory=defaults.get("executor_factory"))
        return iter_similarity_blocks(dataset, measure, block_rows=block_rows,
                                      memory_budget_mb=memory_budget_mb)


def apss_search(dataset: VectorDataset, threshold: float,
                measure: str = "cosine", backend: str = DEFAULT_BACKEND,
                **options) -> EngineResult:
    """One-shot convenience wrapper around :meth:`ApssEngine.search`."""
    return ApssEngine(backend, **options).search(dataset, threshold, measure)
