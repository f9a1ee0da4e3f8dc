"""Two-tier HTAP serving: approximate answers now, exact refinement behind.

The paper's interactivity thesis is that an analyst should get a
bounded-error answer *immediately* and an exact one *eventually* — without
managing two systems.  :class:`TieredApssEngine` implements that over the
existing cache/store substrate:

* **Sketch tier (fast path)** — a probe is answered from LSH sketches via
  the ``bayeslsh`` backend, tagged with its recall bound ``1 − ε`` (the
  backend's false-negative budget).  Appended datasets extend the tier's
  floors in O(Δn·n) through :meth:`BayesLshBackend.extend`, and the
  resulting estimate floor is *parked* in the store under the exact tier's
  cache key so any process sharing the store can serve it.
* **Exact tier (slow path)** — each sketch answer schedules a background
  exact sweep of the same probe on the wrapped engine's exact backend.
  When it lands, :meth:`SimilarityStore.land_result` upgrades the parked
  estimate entry in place — the same upgrade-only lattice as
  :class:`~repro.core.knowledge_cache.KnowledgeCache` (exact replaces
  estimate regardless of threshold; estimate never replaces exact) — and
  subsequent probes transparently re-serve exact.

One store, one entry per key, monotone quality: the entry under the exact
key only ever moves estimate → exact, proven by the hypothesis interleaving
suite in ``tests/store/test_tier_upgrade.py``.

Snapshot interplay: the exact tier honours a pinned
:class:`~repro.store.StoreSnapshot` when the wrapped cache carries one, but
parked estimates and freshly-landed refinements are read from the *live*
entry dir — the sketch tier is freshness-first by design (estimates never
enter the MVCC lineage, so there is no version to pin them to).  A session
that wants its pinned view to advance past an upgrade steps its pin
(:meth:`PlasmaSession.await_refinement` does exactly that).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.datasets.vectors import VectorDataset
from repro.similarity.cache import CachedApssEngine
from repro.similarity.engine import EngineResult

__all__ = ["TieredAnswer", "TieredApssEngine", "DEFAULT_MAX_PENDING"]

_REFINE_MODES = ("background", "sync", "off")

#: Default bound on distinct refinement keys in flight at once.  A server
#: probing many datasets schedules one refinement per key; past this bound
#: :meth:`TieredApssEngine._schedule` blocks on the oldest in-flight
#: refinement (backpressure) instead of letting the queue — and the dict
#: tracking it — grow without limit.
DEFAULT_MAX_PENDING = 64


@dataclass
class TieredAnswer:
    """One tiered probe answer: a result, which tier served it, and how good.

    Attributes
    ----------
    result:
        The served :class:`~repro.similarity.engine.EngineResult`.
    tier:
        ``"exact"`` or ``"sketch"``.
    bound:
        Recall lower bound for the served pair set: ``1.0`` for the exact
        tier, ``1 − ε`` for the sketch tier.
    refinement:
        The pending exact-refinement future for this probe's key, or
        ``None`` when nothing is (or needs to be) in flight.
    """

    result: EngineResult
    tier: str
    bound: float
    refinement: Future | None = field(default=None, repr=False)

    @property
    def exact(self) -> bool:
        """Whether the served result is exact."""
        return self.tier == "exact"

    def __iter__(self):
        """Unpack as ``(result, tier, bound)`` — the session probe contract."""
        yield self.result
        yield self.tier
        yield self.bound


class TieredApssEngine:
    """Serve probes from sketches immediately; refine to exact behind.

    Parameters
    ----------
    cache:
        The exact-tier :class:`CachedApssEngine` (possibly snapshot-pinned).
        Built from *engine*/*store*/*snapshot* when omitted.
    engine, store, snapshot:
        Convenience constructor arguments for the exact-tier cache
        (mutually exclusive with passing *cache*).
    exact_backend, exact_options:
        Backend name/options for the refinement sweeps; defaults to the
        wrapped engine's default backend.
    sketch_options:
        Options for the sketch tier's ``bayeslsh`` backend (``n_hashes``,
        ``seed``, ``config``, ``candidate_strategy``, …), merged over
        ``{"n_hashes": 128, "seed": 0, "candidate_strategy": "auto"}``.
        They key the tier's own floors, so two tiered engines sharing a
        store reuse each other's sketch work only when their options agree.
    refine:
        ``"background"`` (default: schedule the exact sweep on a worker
        thread), ``"sync"`` (run it inline before returning — the sketch
        answer is still what the probe reports, but the store is upgraded
        by the time it returns), or ``"off"`` (never refine).
    max_pending:
        Bound on distinct refinement keys in flight at once
        (:data:`DEFAULT_MAX_PENDING`).  Scheduling past the bound blocks
        on the oldest in-flight refinement first, so a long-lived server
        probing many datasets holds at most this many queued sweeps.

    Notes
    -----
    Both tiers run on the *same* underlying :class:`ApssEngine`, so its
    ``search_calls`` counter audits every kernel invocation across tiers —
    the acceptance tests count it to prove serve paths stay kernel-free.

    Lifecycle: :meth:`close` drains the refinement worker and leaves the
    queue empty (``pending_refinements == 0``); a closed engine refuses
    :meth:`probe` rather than silently respawning its worker thread.
    """

    def __init__(self, cache: CachedApssEngine | None = None, *,
                 engine=None, store=None, snapshot=None,
                 exact_backend: str | None = None,
                 exact_options: dict | None = None,
                 sketch_options: dict | None = None,
                 refine: str = "background",
                 max_pending: int = DEFAULT_MAX_PENDING) -> None:
        if refine not in _REFINE_MODES:
            raise ValueError(f"refine must be one of {_REFINE_MODES}")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if cache is not None and (engine is not None or store is not None
                                  or snapshot is not None):
            raise ValueError("pass either a cache or engine/store/snapshot, "
                             "not both")
        if cache is None:
            cache = CachedApssEngine(engine=engine, store=store,
                                     snapshot=snapshot)
        self.cache = cache
        # The sketch tier shares the cache's engine (one search_calls audit
        # stream) and live store, but never its snapshot: estimates live
        # outside the MVCC lineage, so the pinned manifest cannot serve them.
        self.sketch_cache = CachedApssEngine(
            engine=cache.engine,
            store=cache.store if cache.store is not None else False)
        self.exact_backend = exact_backend
        self.exact_options = dict(exact_options or {})
        self.sketch_options = {"n_hashes": 128, "seed": 0,
                               "candidate_strategy": "auto"}
        self.sketch_options.update(sketch_options or {})
        self.refine = refine
        self.max_pending = int(max_pending)
        self.sketch_answers = 0
        self.exact_answers = 0
        self.refinements = 0
        self._pending: dict[tuple, Future] = {}
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def store(self):
        """The shared :class:`~repro.store.SimilarityStore` (or ``None``)."""
        return self.cache.store

    @property
    def epsilon(self) -> float:
        """The sketch tier's false-negative budget ε."""
        config = self.sketch_options.get("config")
        if config is not None:
            return float(config.epsilon)
        from repro.lsh.bayeslsh import BayesLSHConfig

        return float(BayesLSHConfig().epsilon)

    @property
    def recall_bound(self) -> float:
        """The sketch tier's recall contract, ``1 − ε``."""
        return 1.0 - self.epsilon

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed engine refuses probes)."""
        return self._closed

    @property
    def pending_refinements(self) -> int:
        """Refinements genuinely in flight right now.

        Settled futures are pruned before counting, so a long-serving
        engine's health check reads the true queue depth — not every
        refinement it ever scheduled.  A drained (closed) engine reports 0.
        """
        with self._lock:
            self._prune_pending()
            return len(self._pending)

    def _exact_key(self, fingerprint: str, measure: str) -> tuple:
        return self.cache.cache_key(fingerprint, measure, self.exact_backend,
                                    **self.exact_options)

    # ------------------------------------------------------------------ #
    def probe(self, dataset: VectorDataset, threshold: float,
              measure: str = "cosine") -> TieredAnswer:
        """Answer *threshold* now; make it exact eventually.

        Serving order:

        1. the exact tier's floors (memory, pinned snapshot, or store) —
           kernel-free, ``tier="exact"``;
        2. the entry parked under the exact key in the *live* store — a
           freshly-landed refinement (``tier="exact"``, even when the
           pinned snapshot predates it) or a previously parked estimate
           (``tier="sketch"``);
        3. a sketch-tier answer: the ``bayeslsh`` floor for this dataset
           (cached/stored/delta-extended, else freshly computed), parked
           under the exact key and returned with ``bound = 1 − ε``.

        Every sketch answer schedules exact refinement per the *refine*
        mode; the returned :class:`TieredAnswer` carries the pending
        future so callers can await exactness explicitly.

        A closed engine raises ``RuntimeError``: serving again would have
        to respawn the refinement worker behind the caller's back, and a
        server-managed lifecycle cannot tolerate zombie worker threads.
        Build a fresh engine (over the same cache/store) to resume.
        """
        if self._closed:
            raise RuntimeError(
                "TieredApssEngine is closed; probe() after close() would "
                "respawn the refinement worker — build a fresh engine over "
                "the same store to resume serving")
        threshold = float(threshold)
        served = self.cache.peek(dataset, threshold, measure,
                                 self.exact_backend, **self.exact_options)
        if served is None and self.store is not None:
            # The live view of the same key: refinements landed after the
            # pinned snapshot, or a parked estimate from any process.
            served = self.sketch_cache.peek(
                dataset, threshold, measure, self.exact_backend,
                accept_approximate=True, **self.exact_options)
        if served is not None and served.exact:
            self.exact_answers += 1
            return TieredAnswer(served, "exact", 1.0, None)
        if served is None:
            served = self._sketch_search(dataset, threshold, measure)
        self.sketch_answers += 1
        bound = float(served.details.get("recall_bound", self.recall_bound))
        refinement = self._schedule(dataset, threshold, measure)
        return TieredAnswer(served, "sketch", bound, refinement)

    def _sketch_search(self, dataset: VectorDataset, threshold: float,
                       measure: str) -> EngineResult:
        """Compute (or reuse) the sketch tier's floor and park it."""
        served = self.sketch_cache.search(dataset, threshold, measure,
                                          backend="bayeslsh",
                                          **self.sketch_options)
        if self.store is not None:
            bayes_key = self.sketch_cache.cache_key(
                dataset.fingerprint(), measure, "bayeslsh",
                **self.sketch_options)
            floor, _ = self.sketch_cache._lookup_floor(
                bayes_key, threshold, install=False)
            # Park the loosest known estimate floor under the exact key so
            # sibling processes answer from it too; land_result refuses the
            # write if an exact floor already landed there (benign race).
            self.store.land_result(self._exact_key(dataset.fingerprint(),
                                                   measure),
                                   floor if floor is not None else served)
        return served

    # ------------------------------------------------------------------ #
    def _prune_pending(self) -> None:
        """Drop settled futures from the pending map (caller holds the lock).

        Settled refinements already surfaced through their own futures (the
        :class:`TieredAnswer` carries them) or a :meth:`wait` that overlapped
        them; keeping them would grow the map one entry per dataset ever
        probed and re-raise long-settled failures forever.
        """
        for key in [k for k, f in self._pending.items() if f.done()]:
            del self._pending[key]

    def _schedule(self, dataset: VectorDataset, threshold: float,
                  measure: str) -> Future | None:
        """Ensure one exact refinement is in flight for this probe's key.

        The pending map is pruned of settled futures on every call and
        bounded by ``max_pending``: once that many keys are in flight, the
        scheduler blocks on the oldest one (backpressure) before admitting
        a new sweep, so sustained serving over rotating datasets holds a
        bounded queue instead of leaking one future per dataset.
        """
        if self.refine == "off":
            return None
        key = self._exact_key(dataset.fingerprint(), measure)
        if self.refine == "sync":
            self._refine(dataset, threshold, measure)
            return None
        while True:
            with self._lock:
                if self._closed:
                    raise RuntimeError(
                        "TieredApssEngine is closed; cannot schedule "
                        "refinements")
                self._prune_pending()
                pending = self._pending.get(key)
                if pending is not None:
                    return pending
                if len(self._pending) < self.max_pending:
                    if self._executor is None:
                        self._executor = ThreadPoolExecutor(
                            max_workers=1, thread_name_prefix="apss-refine")
                    future = self._executor.submit(self._refine, dataset,
                                                   threshold, measure)
                    self._pending[key] = future
                    return future
                oldest = next(iter(self._pending.values()))
            # Backpressure, outside the lock so in-flight work can settle:
            # failures are not this probe's to raise — they surface through
            # the failed probe's own future (and any wait() that covers it).
            try:
                oldest.result()
            except Exception:
                pass

    def _refine(self, dataset: VectorDataset, threshold: float,
                measure: str) -> EngineResult:
        """The exact sweep whose landing upgrades the parked estimate."""
        result = self.cache.search(dataset, threshold, measure,
                                   backend=self.exact_backend,
                                   **self.exact_options)
        self.refinements += 1
        return result

    def wait(self, timeout: float | None = None) -> list[EngineResult]:
        """Block until this call's in-flight refinements finish.

        Returns the results of exactly the refinements pending when the
        call was made — later probes' sweeps are not waited for — and
        *consumes* them from the queue: a refinement is reported by at most
        one ``wait``, so a failure raises here once (the caller asked for
        exactness) and never again from ``wait``\\ s of probes long past.
        Futures still running at *timeout* stay queued for the next call.
        """
        from concurrent.futures import wait as wait_futures

        with self._lock:
            snapshot = dict(self._pending)
        wait_futures(list(snapshot.values()), timeout=timeout)
        with self._lock:
            for key, future in snapshot.items():
                if future.done() and self._pending.get(key) is future:
                    del self._pending[key]
        return [f.result() for f in snapshot.values() if f.done()]

    def close(self) -> None:
        """Drain pending refinements, stop the worker, leave a clean queue.

        Idempotent.  Every queued refinement still runs to completion (its
        store landing is not lost); once drained the pending map is cleared
        so a server health check reads ``pending_refinements == 0``.  After
        close, :meth:`probe` raises instead of respawning the worker.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        with self._lock:
            # Everything settled during shutdown(wait=True); failures have
            # already surfaced through their futures or an earlier wait().
            self._pending.clear()

    def __enter__(self) -> "TieredApssEngine":
        """Context-manager entry: the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: drain refinements."""
        self.close()
