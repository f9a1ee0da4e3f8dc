"""Spans recorded from outside: wrappers around the layers' public callables.

The traced run replaces a fixed table of public functions and methods
(:data:`TARGETS`) with wrappers that record ``{name, start, end, parent,
op_id, op, thread}`` spans in memory; nothing under ``src/`` is edited.  Span
names are ``<layer>.<function>`` with the layer named after its module.
A span's *self time* is its duration minus the durations of its child spans
(children run on the parent's thread, strictly inside it, so they never
overlap each other).  Generator functions get one span per resumption, so
time the consumer spends between two ``next()`` calls is never charged to
the generator.

The refinement worker of ``TieredApssEngine`` runs on its own thread; its
spans have no parent and carry ``thread != 0``.  Coverage is computed on
the client thread only (thread 0), where ``tiered.wait`` is the span that
waits for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (module, class or None, attribute, span name).  A ``None`` class names a
#: module-level function, which is replaced in every ``repro`` module that
#: imported it by name.
TARGETS = [
    ("repro.service.server", "ServiceSession", "sweep", "service.sweep"),
    ("repro.service.server", "ServiceSession", "top_k_join",
     "service.top_k_join"),
    ("repro.service.server", "ServiceSession", "probe", "service.probe"),
    ("repro.service.server", "ServiceSession", "ingest", "service.ingest"),
    ("repro.service.server", "ServiceSession", "open_plasma",
     "service.open_plasma"),
    ("repro.service.admission", "LaneGate", "acquire", "admission.acquire"),
    ("repro.service.scheduler", "CoalescingScheduler", "search",
     "scheduler.search"),
    ("repro.service.scheduler", "CoalescingScheduler", "coalesce",
     "scheduler.coalesce"),
    ("repro.service.namespaces", "StoreNamespace", "land_result",
     "namespaces.land_result"),
    ("repro.service.namespaces", "StoreNamespace", "load_result",
     "namespaces.load_result"),
    ("repro.service.namespaces", "StoreNamespace", "load_pairset",
     "namespaces.load_pairset"),
    ("repro.service.namespaces", "StoreNamespace", "publish_floor",
     "namespaces.publish_floor"),
    ("repro.service.namespaces", "StoreNamespace", "publish_generation",
     "namespaces.publish_generation"),
    ("repro.service.namespaces", "StoreNamespace", "save_session",
     "namespaces.save_session"),
    ("repro.service.namespaces", "StoreNamespace", "load_session",
     "namespaces.load_session"),
    ("repro.service.namespaces", "StoreNamespace", "save_sketches",
     "namespaces.save_sketches"),
    ("repro.service.namespaces", "StoreNamespace", "load_sketches",
     "namespaces.load_sketches"),
    ("repro.service.namespaces", "StoreNamespace", "open_snapshot",
     "namespaces.open_snapshot"),
    ("repro.similarity.cache", "CachedApssEngine", "search", "cache.search"),
    ("repro.similarity.cache", "CachedApssEngine", "peek", "cache.peek"),
    ("repro.similarity.tiered", "TieredApssEngine", "probe", "tiered.probe"),
    ("repro.similarity.tiered", "TieredApssEngine", "wait", "tiered.wait"),
    ("repro.similarity.engine", "ApssEngine", "search", "engine.search"),
    ("repro.similarity.backends.exact_blocked", "ExactBlockedBackend",
     "search", "backends.exact_blocked"),
    ("repro.similarity.backends.exact_loop", "ExactLoopBackend", "search",
     "backends.exact_loop"),
    ("repro.similarity.backends.prefix_filter", "PrefixFilterBackend",
     "search", "backends.prefix_filter"),
    ("repro.similarity.backends.sharded", "ShardedBlockedBackend", "search",
     "backends.sharded"),
    ("repro.similarity.backends.bayeslsh", "BayesLshBackend", "search",
     "backends.bayeslsh"),
    ("repro.similarity.backends.bayeslsh", "BayesLshBackend", "extend",
     "backends.bayeslsh"),
    ("repro.similarity.backends.bayeslsh", "BayesLshBackend", "verify",
     "backends.bayeslsh"),
    ("repro.store.delta", "DeltaApssBackend", "extend", "delta.extend"),
    ("repro.store.similarity_store", "SimilarityStore", "land_result",
     "store.land_result"),
    ("repro.store.similarity_store", "SimilarityStore", "load_result",
     "store.load_result"),
    ("repro.store.similarity_store", "SimilarityStore", "load_pairset",
     "store.load_pairset"),
    ("repro.store.similarity_store", "SimilarityStore", "put", "store.put"),
    ("repro.store.similarity_store", "SimilarityStore", "get", "store.get"),
    ("repro.store.similarity_store", "SimilarityStore", "publish_floor",
     "store.publish_floor"),
    ("repro.store.similarity_store", "SimilarityStore", "publish_generation",
     "store.publish_generation"),
    ("repro.store.similarity_store", "SimilarityStore", "open_snapshot",
     "store.open_snapshot"),
    ("repro.store.similarity_store", "SimilarityStore", "compact",
     "store.compact"),
    ("repro.store.similarity_store", "SimilarityStore", "gc", "store.gc"),
    ("repro.store.similarity_store", "SimilarityStore", "save_session",
     "session.persist"),
    ("repro.store.similarity_store", "SimilarityStore", "save_sketches",
     "session.persist"),
    ("repro.store.similarity_store", "SimilarityStore", "load_session",
     "session.restore"),
    ("repro.store.similarity_store", "SimilarityStore", "load_sketches",
     "session.restore"),
    ("repro.store.pairsets.factorized", "FactorizedPairSet", "pairs",
     "pairsets.decode"),
    ("repro.store.pairsets.factorized", "FactorizedPairSet", "iter_pairs",
     "pairsets.decode"),
    ("repro.store.pairsets.factorized", "FactorizedPairSet", "iter_chunks",
     "pairsets.iter_chunks"),
    ("repro.store.pairsets.factorized", None, "factorize_result",
     "pairsets.factorize_result"),
    ("repro.store.pairsets.factorized", None, "maybe_factorize",
     "pairsets.factorize"),
    ("repro.similarity.streaming", "TopKReducer", "update",
     "streaming.topk_update"),
    ("repro.core.session", "PlasmaSession", "probe", "session.probe"),
    ("repro.core.session", "PlasmaSession", "extend_dataset",
     "session.extend_dataset"),
    ("repro.core.session", "PlasmaSession", "close", "session.close"),
    ("repro.core.knowledge_cache", "KnowledgeCache", "state",
     "knowledge_cache.state"),
    ("repro.core.knowledge_cache", "KnowledgeCache", "from_state",
     "knowledge_cache.from_state"),
    ("repro.lsh.sketches", None, "build_sketch_store",
     "lsh.build_sketch_store"),
    ("repro.datasets.vectors", "VectorDataset", "append_rows",
     "datasets.append_rows"),
    ("repro.datasets.vectors", "VectorDataset", "fingerprint",
     "datasets.fingerprint"),
]


def _count_put(counters, path) -> None:
    counters["store.put.bytes"] += os.path.getsize(path)


def _count_get(counters, loaded) -> None:
    if loaded is not None:
        counters["store.get.bytes"] += sum(
            int(array.nbytes) for array in loaded[0].values())


def _count_decoded(counters, pairs) -> None:
    counters["pairsets.pairs_decoded"] += len(pairs)


def _count_factorized(counters, pairset) -> None:
    if pairset is not None:
        counters["pairsets.factorized_bytes"] += pairset.nbytes()
        counters["pairsets.raw_bytes"] += pairset.raw_nbytes()


#: (class or None, attribute) -> a count taken from the call's result.  It
#: runs after the span closes, so its cost is charged to the caller.
RESULT_COUNTS = {
    ("SimilarityStore", "put"): _count_put,
    ("SimilarityStore", "get"): _count_get,
    ("FactorizedPairSet", "pairs"): _count_decoded,
    (None, "maybe_factorize"): _count_factorized,
}


class Tracer:
    """In-memory span recorder; install once, switch recording on and off."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.recording = False
        #: The scripted op that is current, set by the harness.
        self.op_id = -1
        self.op_kind = ""
        self._local = threading.local()
        self._threads: dict[int, int] = {threading.get_ident(): 0}

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._local.thread = self._threads.setdefault(
                threading.get_ident(), len(self._threads))
            return self._local.stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op_id,
                self._local.thread, self.op_kind]
        stack.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, function, count=None):
        """A wrapper recording one span per call of *function*.

        *count*, when given, is called with the counters and the call's
        result after the span has closed.
        """
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(name, function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            span = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counters, result)
            return result

        return traced

    def _wrap_generator(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                if not self.recording:
                    yield from generator
                    return
                span = self._open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Replace every callable in :data:`TARGETS` with its wrapper."""
        for module_name, class_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            count = RESULT_COUNTS.get((class_name, attribute))
            if class_name is not None:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(span_name, raw.__func__))
                else:
                    wrapped = self.wrap(span_name, raw, count)
                setattr(owner, attribute, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(span_name, original, count)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("repro")
                        and getattr(other, attribute, None) is original):
                    setattr(other, attribute, wrapped)

    # ------------------------------------------------------------------ #
    def self_times(self) -> dict[int, float]:
        """``id(span) -> self seconds`` for every recorded span."""
        own = {id(span): span[2] - span[1] for span in self.spans}
        for span in self.spans:
            parent = span[3]
            if parent is not None and id(parent) in own:
                own[id(parent)] -= span[2] - span[1]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``self_ms`` and ``total_ms``."""
        own = self.self_times()
        totals: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        for span in self.spans:
            row = totals[span[0]]
            row["calls"] += 1
            row["self_ms"] += own[id(span)] * 1e3
            row["total_ms"] += (span[2] - span[1]) * 1e3
        return dict(totals)

    def client_self_s(self) -> float:
        """Summed self time of the client thread's spans (for coverage)."""
        own = self.self_times()
        return sum(own[id(span)] for span in self.spans if span[5] == 0)

    def self_ms_by_kind(self, kind: str) -> dict[str, float]:
        """Self ms per span name over the client-thread spans of *kind* ops.

        The attribution of one op kind: which layers the time of, say,
        every ``sweep`` op went to.
        """
        own = self.self_times()
        shares: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[6] == kind and span[5] == 0:
                shares[span[0]] += own[id(span)] * 1e3
        return dict(shares)

    def write_jsonl(self, path) -> None:
        """One span per line, parents referenced by line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op_id, thread,
                    kind) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": None if parent is None else index.get(
                        id(parent)),
                    "op_id": op_id, "op": kind, "thread": thread}) + "\n")
