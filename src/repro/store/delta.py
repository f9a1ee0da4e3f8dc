"""Incremental APSS: extend similarity state over appended rows only.

An append of ``d`` rows to an ``n``-row dataset changes exactly the pairs
that touch a new row: the ``d x n`` new-vs-old cross block plus the
``d x d / 2`` new-vs-new triangle.  Everything previously computed — pair
sets, reducer state, per-pair session knowledge — remains valid, because
similarity is a pure function of the two rows involved.

:class:`DeltaApssBackend` exploits that: it runs the same blocked Gram
kernel as ``exact-blocked`` (:func:`repro.similarity.streaming.compute_block_slab`)
restricted to the appended row range, extracts the new pairs at the parent
result's threshold floor, and merges them into the parent's pair list in
canonical ``(first, second)`` order.  The cost is O(d * n) instead of the
O(n^2) of a from-scratch search, which is what keeps the interactive loop
interactive on append-only datasets.

With ``n_workers > 1`` the delta pass itself is *sharded*: the cross block
is partitioned by :func:`~repro.similarity.partition.partition_delta_blocks`
and fanned over the same shared worker pool (and shared-memory transport) as
the ``sharded-blocked`` search backend, with shard-local reducer state merged
back through the commutative ``merge()`` seam.  Results are byte-identical
to the single-process pass for every worker count — ingest is just another
workload on the execution substrate.

Every extension is fingerprint-checked: the parent result must describe
exactly ``delta.parent_rows`` rows and the child dataset must hash to
``delta.child_fingerprint``, so stale or mismatched state is rejected
loudly rather than merged silently.  And because extension only *reads* the
parent state and every store write is one atomic entry replace, a crash (or
injected fault) mid-ingest leaves the parent floor intact.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.vectors import DatasetDelta, VectorDataset
from repro.similarity.engine import EngineResult
from repro.similarity.streaming import (
    DEFAULT_MEMORY_BUDGET_MB,
    STREAMING_MEASURES,
    HistogramReducer,
    SelectionSketch,
    TopKReducer,
    compute_block_slab,
    prepared_csr,
    resolve_block_rows,
)
from repro.similarity.types import SimilarPair

__all__ = ["DeltaApssBackend", "iter_delta_blocks", "delta_pairs"]


def _check_delta(child: VectorDataset, delta: DatasetDelta,
                 verify_fingerprint: bool = True) -> None:
    if child.n_rows != delta.child_rows:
        raise ValueError(
            f"delta describes {delta.child_rows} rows, dataset has "
            f"{child.n_rows}")
    if not 0 <= delta.parent_rows <= delta.child_rows:
        raise ValueError("delta parent_rows out of range")
    if verify_fingerprint and child.fingerprint() != delta.child_fingerprint:
        raise ValueError(
            "dataset content does not match the delta's child fingerprint; "
            "refusing to extend stale similarity state")


def iter_delta_blocks(child: VectorDataset, delta: DatasetDelta,
                      measure: str = "cosine", *,
                      block_rows: int | None = None,
                      memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
                      verify_fingerprint: bool = True):
    """Yield ``(row_range, slab)`` similarity slabs for the appended rows only.

    Slabs are full-width (every child column), computed by the shared blocked
    kernel, and cover exactly the rows ``delta.new_rows`` — so feeding the
    strict-upper-triangle cells ``column < row`` of each slab into a reducer
    visits every *new* pair exactly once and no old pair ever.
    """
    if measure not in STREAMING_MEASURES:
        raise ValueError(f"unsupported streaming measure {measure!r}; "
                         f"supported: {list(STREAMING_MEASURES)}")
    _check_delta(child, delta, verify_fingerprint)
    if delta.n_new == 0:
        return
    n = child.n_rows
    matrix = prepared_csr(child, measure)
    transposed = matrix.T.tocsc()
    sizes = np.diff(child.indptr).astype(np.float64)
    rows_per_block = resolve_block_rows(n, block_rows, memory_budget_mb)
    for start in range(delta.parent_rows, n, rows_per_block):
        stop = min(start + rows_per_block, n)
        yield range(start, stop), compute_block_slab(
            matrix, transposed, sizes, start, stop, measure)


def delta_pairs(child: VectorDataset, delta: DatasetDelta, threshold: float,
                measure: str = "cosine", *, block_rows: int | None = None,
                memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
                verify_fingerprint: bool = True) -> list[SimilarPair]:
    """Every pair involving an appended row with similarity >= *threshold*.

    Pairs are returned in canonical ``(first, second)`` order with
    ``first < second``; old-vs-old pairs are never touched.
    """
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for rows, slab in iter_delta_blocks(
            child, delta, measure, block_rows=block_rows,
            memory_budget_mb=memory_budget_mb,
            verify_fingerprint=verify_fingerprint):
        row_ids = np.arange(rows.start, rows.stop)
        # column < row: each new pair (old x new and new x new) exactly once,
        # with the *smaller* id as the column.
        keep = (slab >= threshold) & (
            np.arange(slab.shape[1])[None, :] < row_ids[:, None])
        local_i, local_j = np.nonzero(keep)
        out_i.append(local_j)                    # first = smaller id
        out_j.append(row_ids[local_i])           # second = appended row
        out_v.append(slab[local_i, local_j])
    if not out_i:
        return []
    all_i = np.concatenate(out_i)
    all_j = np.concatenate(out_j)
    all_v = np.concatenate(out_v)
    order = np.lexsort((all_j, all_i))
    return [SimilarPair(int(i), int(j), float(v))
            for i, j, v in zip(all_i[order].tolist(), all_j[order].tolist(),
                               all_v[order].tolist())]


class DeltaApssBackend:
    """Extend an exact parent :class:`EngineResult` across an append.

    Parameters
    ----------
    block_rows, memory_budget_mb:
        Per-slab sizing for the delta pass, with ``exact-blocked`` semantics
        (per *worker* when the pass is sharded).
    n_workers:
        Worker processes for the delta pass.  The default ``1`` runs
        in-process — right for small interactive appends, where pool
        dispatch would dominate.  ``> 1`` shards the cross block over the
        same shared pool (and shared-memory transport) as the
        ``sharded-blocked`` backend; ``None`` resolves like the sharded
        backend (``REPRO_APSS_WORKERS``, else CPU count).
    shards_per_worker, partition_strategy, executor_factory, steal:
        Sharded-pass scheduling knobs with
        :class:`~repro.similarity.backends.sharded.ShardedBlockedBackend`
        semantics — ingest runners claim shards from the same work-stealing
        queue as search (``steal=False`` for static binding).  None of them
        change results — parity across worker counts and both scheduling
        disciplines is property-tested.
    inject_shard_fault:
        Fault-injection hook for the sharded pass (tests): the chosen shard
        raises mid-stream, the extension fails loudly, and — because
        extension never mutates parent state — the parent floor survives.

    Notes
    -----
    The delta pass is exact (blocked Gram kernel), so extending an *exact*
    parent result yields pair sets identical to a from-scratch search on the
    concatenated dataset — the parity the property suite in
    ``tests/store/test_delta.py`` checks for every exact backend in the
    registry and every sharded worker count.  Approximate parents
    (``bayeslsh``) are refused: splicing exact delta pairs into an estimated
    pair set would produce a result matching neither contract.
    """

    def __init__(self, block_rows: int | None = None,
                 memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB, *,
                 n_workers: int | None = 1,
                 shards_per_worker: int = 2,
                 partition_strategy: str = "striped",
                 executor_factory=None,
                 steal: bool = True,
                 inject_shard_fault: int | None = None) -> None:
        if block_rows is not None and block_rows <= 0:
            raise ValueError("block_rows must be positive")
        if memory_budget_mb <= 0:
            raise ValueError("memory_budget_mb must be positive")
        if shards_per_worker < 1:
            raise ValueError("shards_per_worker must be at least 1")
        from repro.similarity.backends.sharded import _check_steal
        from repro.similarity.partition import resolve_worker_count

        self.block_rows = block_rows
        self.memory_budget_mb = float(memory_budget_mb)
        self.n_workers = resolve_worker_count(n_workers)
        self.shards_per_worker = int(shards_per_worker)
        self.partition_strategy = partition_strategy
        self.executor_factory = executor_factory
        self.steal = _check_steal(steal)
        self.inject_shard_fault = inject_shard_fault

    def _sharded(self) -> bool:
        """Whether the delta pass fans over an executor instead of running inline."""
        return (self.n_workers > 1 or self.executor_factory is not None
                or self.inject_shard_fault is not None)

    def _run_sharded(self, child: VectorDataset, delta: DatasetDelta,
                     threshold: float | None, measure: str,
                     reducer_specs: dict | None = None):
        from repro.similarity.backends.sharded import run_delta_shards

        return run_delta_shards(
            child, delta, threshold, measure, reducer_specs=reducer_specs,
            n_workers=self.n_workers, block_rows=self.block_rows,
            memory_budget_mb=self.memory_budget_mb,
            shards_per_worker=self.shards_per_worker,
            partition_strategy=self.partition_strategy,
            executor_factory=self.executor_factory, steal=self.steal,
            inject_shard_fault=self.inject_shard_fault)

    def extend(self, parent: EngineResult, child: VectorDataset,
               delta: DatasetDelta | None = None,
               *, verify_fingerprint: bool = True) -> EngineResult:
        """Merge the append's new pairs into *parent*, at the parent's floor.

        Returns a new :class:`EngineResult` for the child dataset at the
        parent's threshold (the floor a sweep cache filters from); the
        parent result is not mutated, so a failure anywhere in the pass —
        a worker fault, a crash before the store write — leaves the parent
        floor exactly as it was.
        """
        if delta is None:
            delta = child.parent_delta
        if delta is None:
            raise ValueError("child dataset carries no parent delta; pass one "
                             "explicitly or use VectorDataset.append_rows")
        if not parent.exact:
            raise ValueError(
                f"cannot delta-extend approximate backend "
                f"{parent.backend!r} results; recompute instead")
        if parent.n_rows != delta.parent_rows:
            raise ValueError(
                f"parent result covers {parent.n_rows} rows, delta expects "
                f"{delta.parent_rows}")
        _check_delta(child, delta, verify_fingerprint)
        if self._sharded():
            new_pairs, _ = self._run_sharded(child, delta, parent.threshold,
                                             parent.measure)
        else:
            new_pairs = delta_pairs(
                child, delta, parent.threshold, parent.measure,
                block_rows=self.block_rows,
                memory_budget_mb=self.memory_budget_mb,
                verify_fingerprint=False)  # already checked above
        # Parent pairs all precede or interleave with new ones; one stable
        # sort restores canonical (first, second) order for the merged list.
        merged = sorted(parent.pairs + new_pairs,
                        key=lambda p: (p.first, p.second))
        n = child.n_rows
        d = delta.n_new
        return EngineResult(
            backend=parent.backend, measure=parent.measure,
            threshold=parent.threshold, n_rows=n, pairs=merged,
            exact=True, seconds=0.0,
            n_candidates=d * delta.parent_rows + d * (d - 1) // 2,
            n_pruned=0,
            details={"delta": {"parent_rows": delta.parent_rows,
                               "new_rows": d,
                               "new_pairs": len(new_pairs),
                               "n_workers": self.n_workers}})

    def extend_reducers(self, child: VectorDataset,
                        delta: DatasetDelta | None = None,
                        measure: str = "cosine", *,
                        histogram=None, top_k=None, selection=None,
                        verify_fingerprint: bool = True) -> None:
        """Feed the append's new similarity values into mergeable reducers.

        Each reducer (``HistogramReducer``, ``TopKReducer``,
        ``SelectionSketch`` — any subset) is updated in place with every
        new pair's value exactly once, so reducer state restored from the
        store stays equal to a from-scratch pass over the child dataset.
        When the backend is sharded, each shard accumulates local reducers
        and their states fold into the caller's through ``merge()`` — the
        commutativity of the merge seam is what makes the result identical
        for every worker count and completion order.
        """
        if delta is None:
            delta = child.parent_delta
        if delta is None:
            raise ValueError("child dataset carries no parent delta")
        if self._sharded():
            _check_delta(child, delta, verify_fingerprint)
            specs: dict = {}
            if histogram is not None:
                specs["histogram"] = histogram.edges
            if selection is not None:
                specs["selection"] = selection.edges
            if top_k is not None:
                specs["top_k"] = top_k.k
            _, states = self._run_sharded(child, delta, None, measure,
                                          reducer_specs=specs)
            for state in states.get("histogram", ()):
                histogram.merge(HistogramReducer.from_state(state))
            for state in states.get("selection", ()):
                selection.merge(SelectionSketch.from_state(state))
            for state in states.get("top_k", ()):
                top_k.merge(TopKReducer.from_state(state))
            return
        for rows, slab in iter_delta_blocks(
                child, delta, measure, block_rows=self.block_rows,
                memory_budget_mb=self.memory_budget_mb,
                verify_fingerprint=verify_fingerprint):
            row_ids = np.arange(rows.start, rows.stop)
            keep = np.arange(slab.shape[1])[None, :] < row_ids[:, None]
            local_i, local_j = np.nonzero(keep)
            values = slab[local_i, local_j]
            if histogram is not None:
                histogram.update(values)
            if selection is not None:
                selection.update(values)
            if top_k is not None:
                top_k.update(local_j, row_ids[local_i], values)
