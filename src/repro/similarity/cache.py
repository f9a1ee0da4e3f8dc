"""Cross-threshold memoisation for the APSS engine, with optional persistence.

Interactive probing and densifying-series construction repeatedly ask the
same dataset "which pairs meet threshold t?" for a sweep of thresholds.
Because the pair set at a higher threshold is a subset of the pair set at any
lower one, a single quadratic search at the loosest threshold answers every
tighter probe by filtering — ``CachedApssEngine`` implements exactly that,
memoising one :class:`~repro.similarity.engine.EngineResult` per
``(dataset fingerprint, measure, backend, options)`` and serving any
threshold at or above its cached floor without touching the kernel again.

    >>> engine = CachedApssEngine()
    >>> engine.search(dataset, 0.2)      # one quadratic pass (miss)
    >>> engine.search(dataset, 0.5)      # filtered from cache (hit)
    >>> engine.search(dataset, 0.1)      # below the floor: new pass, new floor

Two further layers sit behind the in-memory sweep cache:

* **Persistent spill/restore** — with a :class:`~repro.store.SimilarityStore`
  attached (pass ``store=`` or set ``REPRO_APSS_STORE``), every kernel floor
  is persisted, an LRU-evicted entry can be restored without recomputing,
  and a *new process* opening the same store serves previously-swept
  thresholds with zero kernel invocations.
* **Delta extension** — a dataset produced by
  :meth:`~repro.datasets.vectors.VectorDataset.append_rows` whose *parent*
  floor is cached (in memory or in the store) is answered by extending that
  floor over the appended rows only (O(new x total), exact backends only)
  instead of a from-scratch O(total^2) search.
"""

from __future__ import annotations

from repro.datasets.vectors import VectorDataset
from repro.similarity.backends import get_backend_class
from repro.similarity.engine import DEFAULT_BACKEND, ApssEngine, EngineResult

__all__ = ["CachedApssEngine"]


class CachedApssEngine:
    """An :class:`ApssEngine` wrapper memoising pair sets across thresholds.

    Parameters
    ----------
    engine:
        The engine to wrap; a fresh default :class:`ApssEngine` if omitted.
    max_entries:
        How many memoised results to keep in memory (least-recently-used
        eviction).  One entry per (dataset fingerprint, measure, backend,
        options) key, each holding the pair list of its loosest searched
        threshold.  Entries spilled to an attached store outlive eviction.
    store:
        A :class:`~repro.store.SimilarityStore` to spill floors to and
        restore them from.  Defaults to the store named by the
        ``REPRO_APSS_STORE`` environment variable (when set); pass
        ``store=False`` to force a purely in-memory cache.
    snapshot:
        A :class:`~repro.store.StoreSnapshot` pinning this engine's reads
        to one manifest version.  With a snapshot attached, store lookups
        resolve through the pinned manifest only — concurrent ingest,
        compaction and GC are invisible — and kernel floors are *published*
        to the store's versioned lineage (:meth:`SimilarityStore.publish_floor`)
        rather than merely spilled, so other sessions' future snapshots see
        them.  The engine still serves its own fresh floors from memory.
    delta_workers:
        Worker processes for automatic delta extensions of appended
        datasets (see :class:`~repro.store.delta.DeltaApssBackend`).  The
        default ``1`` runs the cross-block pass in-process; larger values
        shard it over the same worker pool as ``sharded-blocked``.  Purely
        an execution choice — extended floors are byte-identical either
        way.
    backend, **backend_options:
        Convenience constructor arguments for the wrapped engine (mutually
        exclusive with passing *engine*).

    Notes
    -----
    Cache entries are keyed by the dataset's content fingerprint, so mutating
    a dataset in place yields a fresh entry rather than stale pairs — and the
    stale entry ages out of the LRU bound instead of lingering forever.
    ``hits``/``misses`` count the in-memory sweep cache only; a probe served
    by the persistent store or the delta path still counts as a miss there
    and is tallied separately (``store_restores``, ``delta_extensions``).
    """

    def __init__(self, engine: ApssEngine | None = None,
                 backend: str | None = None, max_entries: int = 8,
                 store=None, delta_workers: int = 1, snapshot=None,
                 **backend_options) -> None:
        if engine is not None and (backend is not None or backend_options):
            raise ValueError("pass either an engine or backend options, not both")
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if engine is None:
            engine = ApssEngine(backend or DEFAULT_BACKEND, **backend_options)
        self.engine = engine
        self.max_entries = int(max_entries)
        self.delta_workers = int(delta_workers)
        if store is None and snapshot is not None:
            # A snapshot names its own store; never fall through to the
            # environment one, which may be a different directory entirely.
            store = snapshot.store
        elif store is None:
            from repro.store import SimilarityStore

            store = SimilarityStore.from_env()
        elif store is False:
            store = None
        self.store = store
        self.snapshot = snapshot
        self._cache: dict[tuple, EngineResult] = {}
        self.hits = 0
        self.misses = 0
        self.store_restores = 0
        self.delta_extensions = 0

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """The wrapped engine's default backend name."""
        return self.engine.backend

    def clear(self) -> None:
        """Drop every in-memory memoised result (the store is untouched)."""
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    def _key(self, fingerprint: str, measure: str, backend: str | None,
             options: dict) -> tuple:
        name = backend or self.engine.backend
        # Execution-only options (worker counts, injected executors, ...)
        # change scheduling, never results: strip them so a sweep cached by a
        # single-worker pass serves a 4-worker probe and vice versa.  The
        # declared options are resolved from the registry *at lookup time* —
        # never captured at construction — so a backend registered after
        # this cache was built still gets its options stripped, and a name
        # the registry cannot resolve fails loudly here instead of silently
        # fragmenting the key space (the search would fail on it anyway).
        keyed = options
        if options:
            execution_only = get_backend_class(name).execution_options
            keyed = {k: v for k, v in options.items()
                     if k not in execution_only}
        return (fingerprint, measure, name, tuple(sorted(keyed.items())))

    def cache_key(self, fingerprint: str, measure: str = "cosine",
                  backend: str | None = None, **options) -> tuple:
        """The canonical floor key for (*fingerprint*, *measure*, backend).

        The public face of the keying rule every layer above shares: the
        tiered engine parks estimates under it, the store lands floors by
        it, and the service scheduler coalesces concurrent sweeps on it.
        Execution-only options are stripped exactly as :meth:`search` does,
        so callers deriving keys can never fragment the key space.
        """
        return self._key(fingerprint, measure, backend, options)

    def _install(self, key: tuple, result: EngineResult) -> None:
        """Insert *result* under *key*, refreshing recency and bounding size."""
        # pop with a default: a concurrent searcher may have evicted the key
        # between lookup and here — races may cost recency bookkeeping,
        # never a KeyError.
        self._cache.pop(key, None)
        self._cache[key] = result
        while len(self._cache) > self.max_entries:
            try:
                self._cache.pop(next(iter(self._cache)), None)
            except (StopIteration, RuntimeError):
                break  # emptied or resized by a concurrent searcher

    def _serve(self, cached: EngineResult, threshold: float, measure: str,
               source: str) -> EngineResult:
        """Filter a cached floor result down to *threshold*."""
        pairs = [p for p in cached.pairs if p.similarity >= threshold]
        details = dict(cached.details)
        details["cache"] = {"hit": True, "floor_threshold": cached.threshold,
                            "source": source}
        return EngineResult(
            backend=cached.backend, measure=measure, threshold=threshold,
            n_rows=cached.n_rows, pairs=pairs, exact=cached.exact,
            seconds=0.0, n_candidates=len(cached.pairs), n_pruned=0,
            details=details)

    # ------------------------------------------------------------------ #
    def _accepts(self, key: tuple, floor: EngineResult) -> bool:
        """Exactness discipline: may *floor* serve searches keyed by *key*?

        An exact floor serves anything.  An *approximate* floor is only
        acceptable when the key's backend is itself approximate — the
        two-tier landing path parks estimate floors under exact-backend
        keys while refinement runs, and serving one of those to a plain
        exact search would silently violate its exactness contract.
        """
        if floor.exact:
            return True
        try:
            return not get_backend_class(key[2]).exact
        except KeyError:
            return False

    def _lookup_floor(self, key: tuple, threshold: float, install: bool = True,
                      accept_approximate: bool = False,
                      ) -> tuple[EngineResult | None, str]:
        """A floor result at or below *threshold*, from memory or the store.

        The single home of the floor-acceptance rule: a candidate floor
        must be at or below *threshold* **and** pass the exactness
        discipline of :meth:`_accepts` (overridable with
        *accept_approximate*, the tiered engine's peek mode).  Returns
        ``(floor, source)`` where *source* is ``"memory"``, ``"store"``,
        ``"snapshot"`` or ``"none"``.

        With a snapshot attached, the pinned manifest is the *only*
        persistent source consulted: falling back to the live store would
        let a concurrent ingest leak through the isolation boundary.
        """
        def acceptable(floor: EngineResult) -> bool:
            return floor.threshold <= threshold and (
                accept_approximate or self._accepts(key, floor))

        cached = self._cache.get(key)
        if cached is not None and acceptable(cached):
            return cached, "memory"
        if self.snapshot is not None:
            pinned = self.snapshot.load_result(key)
            if pinned is not None and acceptable(pinned):
                if install and self._accepts(key, pinned):
                    self._install(key, pinned)
                return pinned, "snapshot"
            return None, "none"
        if self.store is not None:
            stored = self.store.load_result(key)
            if stored is not None and acceptable(stored):
                if install and self._accepts(key, stored):
                    self._install(key, stored)
                return stored, "store"
        return None, "none"

    def peek(self, dataset: VectorDataset, threshold: float,
             measure: str = "cosine", backend: str | None = None, *,
             accept_approximate: bool = False,
             **options) -> EngineResult | None:
        """Serve *threshold* from existing floors only — never the kernel.

        Lookup order and filtering match :meth:`search`, but a miss returns
        ``None`` instead of searching, and the hit/miss counters are left
        untouched (a peek is a question about cache state, not a probe).
        With ``accept_approximate=True`` an estimate floor parked under
        this key is served too (tagged ``exact=False`` with its ``epsilon``
        in ``details``) — the tiered engine's fast path for checking
        whether refinement already landed.
        """
        threshold = float(threshold)
        key = self._key(dataset.fingerprint(), measure, backend, options)
        floor, source = self._lookup_floor(
            key, threshold, accept_approximate=accept_approximate)
        if floor is None:
            return None
        return self._serve(floor, threshold, measure, source)

    def _try_delta_extend(self, dataset: VectorDataset, threshold: float,
                          measure: str, backend: str | None,
                          options: dict, key: tuple) -> EngineResult | None:
        """Extend the parent dataset's cached floor over an append, if possible.

        Requires: the dataset carries a parent delta whose child fingerprint
        matches this search's key and the parent's floor (memory or store)
        is at or below the requested threshold.  Exact backends extend
        through :class:`~repro.store.delta.DeltaApssBackend`; approximate
        backends that expose their own ``extend`` seam (``bayeslsh``)
        extend an approximate parent floor by sketching and verifying only
        new-vs-all pairs — both O(Δn·n) instead of a fresh O(n²) search.
        """
        delta = getattr(dataset, "parent_delta", None)
        if delta is None or delta.child_fingerprint != key[0]:
            return None
        name = backend or self.engine.backend
        try:
            backend_cls = get_backend_class(name)
        except KeyError:
            return None
        parent_key = self._key(delta.parent_fingerprint, measure, backend,
                               options)
        parent, _ = self._lookup_floor(parent_key, threshold, install=False)
        if parent is None or parent.n_rows != delta.parent_rows:
            return None
        # The key fingerprint equals the dataset's content hash (computed by
        # the caller), which already proves the delta matches the content.
        if backend_cls.exact:
            from repro.store.delta import DeltaApssBackend

            extended = DeltaApssBackend(n_workers=self.delta_workers).extend(
                parent, dataset, delta, verify_fingerprint=False)
        else:
            extender = getattr(backend_cls, "extend", None)
            if extender is None or parent.exact:
                return None
            from repro.similarity.backends import make_backend

            # A memory-cached parent carries its live sketch store; extend a
            # copy of it so only the Δn new rows are sketched and the parent
            # can still seed other children.  (Store-restored parents have no
            # details and fall back to a seed-identical full resketch.)
            extend_kwargs = {}
            parent_store = parent.details.get("sketch_store")
            if getattr(parent_store, "n_rows", None) == delta.parent_rows:
                extend_kwargs["sketch_store"] = parent_store.copy()
            extended = make_backend(name, **options).extend(
                parent, dataset, delta, verify_fingerprint=False,
                **extend_kwargs)
        self.delta_extensions += 1
        return extended

    # ------------------------------------------------------------------ #
    def search(self, dataset: VectorDataset, threshold: float,
               measure: str = "cosine", backend: str | None = None,
               **options) -> EngineResult:
        """Like :meth:`ApssEngine.search`, reusing any looser cached search.

        Lookup order: in-memory sweep cache, then the persistent store, then
        delta extension of the parent dataset's floor (for appended
        datasets), then a full kernel search (whose floor is memoised and,
        when a store is attached, persisted).
        """
        threshold = float(threshold)
        key = self._key(dataset.fingerprint(), measure, backend, options)
        floor, source = self._lookup_floor(key, threshold)
        if floor is not None:
            if source == "memory":
                self.hits += 1
                self._install(key, floor)  # refresh recency
            else:
                self.misses += 1           # the in-memory sweep cache missed
                self.store_restores += 1
            return self._serve(floor, threshold, measure, source)
        self.misses += 1
        extended = self._try_delta_extend(dataset, threshold, measure,
                                          backend, options, key)
        if extended is not None:
            self._install(key, extended)
            self._persist(key, extended, dataset)
            return self._serve(extended, threshold, measure, "delta")
        result = self.engine.search(dataset, threshold, measure,
                                    backend=backend, **options)
        self._install(key, result)
        self._persist(key, result, dataset)
        return result

    def _persist(self, key: tuple, result: EngineResult,
                 dataset: VectorDataset | None = None) -> None:
        """Spill a floor result to the store unless a looser floor is held.

        With a snapshot attached the result is published to the versioned
        lineage (carrying the dataset's append delta, when present)
        instead of merely spilled.  Either way the write goes through the
        store's upgrade-only landing rule
        (:meth:`SimilarityStore.land_result`), decided against the *live*
        entry's header: an exact result replaces an estimate parked under
        the same key regardless of threshold, an estimate never replaces
        an exact floor, and a same-flavour write needs a strictly looser
        threshold.
        """
        if self.store is None:
            return
        if self.snapshot is not None:
            self.store.publish_floor(
                key, result, delta=getattr(dataset, "parent_delta", None))
        else:
            self.store.land_result(key, result)

    def iter_similarity_blocks(self, dataset: VectorDataset,
                               measure: str = "cosine", **kwargs):
        """Delegate raw slab access to the wrapped engine (never cached)."""
        return self.engine.iter_similarity_blocks(dataset, measure, **kwargs)
