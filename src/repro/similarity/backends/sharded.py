"""Sharded multi-process APSS backend over the blocked Gram kernel.

``sharded-blocked`` partitions the upper-triangular block grid (see
:mod:`repro.similarity.partition`) and runs one *runner* per worker slot;
each runner claims shards from a work-stealing
:class:`~repro.similarity.stealing.ShardQueue` until it drains.  Runners go
to a ``concurrent.futures`` executor — a ``ProcessPoolExecutor`` by default,
an in-process :class:`InlineShardExecutor` when ``n_workers=1`` (or for
debugging), or anything a test injects via ``executor_factory``.  Each shard
runs the same slab kernel as ``exact-blocked``
(:func:`repro.similarity.streaming.compute_block_slab`) restricted to the
columns its shard actually extracts pairs from, so a 4-worker pass does about
half the scalar work of the full-width kernel on top of the parallelism.

Transport: multi-worker passes move data through
:mod:`repro.similarity.shm` — the prepared CSR arrays are published to
shared-memory segments keyed by dataset fingerprint (workers attach instead
of unpickling a per-task payload) and streamed slabs come back through a
shared-memory ring instead of the result pipe.  The pickle payload remains
as the in-process fast path (``n_workers=1``) and the automatic fallback
when shared memory is unavailable; segment lifecycle is tied to the shared
pools (evicting or rebuilding a pool releases every published segment, as
does interpreter exit).

Correctness under nondeterministic scheduling is the contract:

* results are **order-canonical** — merged pairs are sorted by
  ``(first, second)``, so the pair list is byte-identical no matter which
  shard finishes first, and sweep caches keyed on the output stay coherent;
* a shard that raises mid-stream **surfaces** as
  :class:`ShardExecutionError` (outstanding shards are cancelled) — never a
  hang, never silently dropped pairs;
* everything a worker needs travels in a picklable payload (shared-memory
  descriptor or raw CSR arrays) and the worker functions are module-level,
  so spawn-start platforms (Windows, macOS) work identically to fork.

The streamed-slab contract is sharded too: :func:`iter_similarity_blocks_sharded`
computes full-width slabs in worker processes and yields them in row order
behind a bounded reorder window, so ``CachedApssEngine``, the streaming
reducers and every graph/growth/LAM consumer work unchanged.  The same
worker pool also serves *ingest*: :func:`run_delta_shards` fans the
``Δn x n`` append cross block of a :class:`~repro.datasets.vectors.DatasetDelta`
over the pool and merges shard-local pair chunks and reducer state (see
:class:`repro.store.delta.DeltaApssBackend`).
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from typing import Iterator

import numpy as np

from repro.datasets.vectors import DatasetDelta, VectorDataset
from repro.similarity import shm, stealing
from repro.similarity.backends.base import (ApssBackend, BackendOutput,
                                            register_backend)
from repro.similarity.partition import (BlockShard, block_ranges,
                                        partition_blocks,
                                        partition_delta_blocks,
                                        resolve_worker_count)
from repro.similarity.streaming import (DEFAULT_MEMORY_BUDGET_MB,
                                        STREAMING_MEASURES, HistogramReducer,
                                        SelectionSketch, TopKReducer,
                                        compute_block_slab, prepared_csr,
                                        resolve_block_rows)
from repro.similarity.types import SimilarPair

__all__ = [
    "STRAGGLER_ENV_VAR",
    "ShardExecutionError",
    "InjectedShardFault",
    "InlineShardExecutor",
    "ShardedBlockedBackend",
    "iter_similarity_blocks_sharded",
    "run_delta_shards",
    "reset_shared_pools",
]

#: Environment variable simulating a straggler: when set to a factor > 1,
#: the worker claiming pool slot 0 runs its block kernel that many times
#: slower (it sleeps ``(factor - 1) x`` each block's measured compute time).
#: The CI straggler lane and the scheduling benchmark use this to prove the
#: work-stealing queue redistributes load; it is exact at any machine speed
#: because the slowdown scales with the real kernel time.
STRAGGLER_ENV_VAR = "REPRO_APSS_STRAGGLER"


class ShardExecutionError(RuntimeError):
    """A shard (or streamed block) failed; carries which unit died and why."""

    def __init__(self, message: str, shard_id: int | None = None,
                 block: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.block = block


class InjectedShardFault(RuntimeError):
    """Raised inside a worker by the fault-injection hook (test harness)."""


class _StolenShardFailure(Exception):
    """Picklable carrier of a shard failure through a shard runner.

    A runner executes *many* shards per task, so a raw exception from
    the pool would lose which shard died.  ``args`` carry both fields (the
    default ``Exception`` pickling round-trips them across the process
    boundary — exception ``__cause__`` chains do not survive pickling), and
    the parent re-raises :class:`ShardExecutionError` *from* ``cause`` so
    callers still see the original fault as the cause.
    """

    def __init__(self, shard_id: int, cause: BaseException) -> None:
        super().__init__(shard_id, cause)
        self.shard_id = shard_id
        self.cause = cause


class InlineShardExecutor:
    """Executor running every task synchronously at ``submit`` time.

    The ``n_workers=1`` fast path and the debugging escape hatch: no
    processes, no pickling, exceptions carry full in-process tracebacks.
    Implements the subset of the ``concurrent.futures.Executor`` protocol the
    backend uses (``submit``/``shutdown``).
    """

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run *fn* immediately and return an already-resolved future."""
        future: Future = Future()
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - relayed via future
                future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """No-op (nothing runs after ``submit`` returns)."""


# --------------------------------------------------------------------- #
# Worker side: module-level, picklable, spawn-safe
# --------------------------------------------------------------------- #

#: Per-process kernel slowdown factor, set by :func:`_worker_init` in the
#: worker that claims pool slot 0 when the straggler lane is active.
_SLOWDOWN = 1.0


def _compute_block(matrix, transposed, sizes, start: int, stop: int,
                   measure: str, columns_from: int = 0) -> np.ndarray:
    """The block kernel plus the straggler throttle.

    Every worker-side kernel invocation goes through here so the simulated
    straggler (:data:`STRAGGLER_ENV_VAR`) slows *all* paths — search, stream
    and delta — proportionally to their real compute time.
    """
    began = time.perf_counter()
    slab = compute_block_slab(matrix, transposed, sizes, start, stop, measure,
                              columns_from=columns_from)
    if _SLOWDOWN > 1.0:
        time.sleep((_SLOWDOWN - 1.0) * (time.perf_counter() - began))
    return slab


def _claim_pool_slot(token_dir: str, n_workers: int) -> int:
    """Claim this worker's pool slot: first free ``O_EXCL`` token wins."""
    for slot in range(n_workers):
        try:
            fd = os.open(os.path.join(token_dir, f"w-{slot}"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return slot
    return 0  # pragma: no cover - a restarted worker beyond the slot count


def _worker_init(token_dir: str, n_workers: int, slowdown: float) -> None:
    """Pool initializer for the straggler lane.

    Each worker claims a distinct slot token; the worker holding slot 0
    becomes the straggler, its kernel running *slowdown* times slower.
    """
    global _SLOWDOWN
    if _claim_pool_slot(token_dir, n_workers) == 0:
        _SLOWDOWN = float(slowdown)


def _shard_payload(dataset: VectorDataset, measure: str,
                   shared: bool) -> tuple:
    """The per-task dataset payload: a shared-memory descriptor when possible.

    With *shared* (every multi-worker pass) the CSR arrays are published
    once (keyed by the dataset fingerprint, LRU-capped) and the payload
    shrinks to a descriptor of segment names.  Otherwise — the in-process
    single-worker pass — and whenever publishing fails (an unsupported
    platform, a full ``/dev/shm``), the arrays ride along pickled.  The
    fingerprint is computed once here, parent-side, and doubles as the
    workers' preparation-memo key.
    """
    fingerprint = dataset.fingerprint()
    if shared:
        descriptor = shm.publish_dataset(dataset, fingerprint)
        if descriptor is not None:
            return ("shm", descriptor, measure)
    return ("raw", fingerprint, dataset.indptr, dataset.indices,
            dataset.data, dataset.n_features, measure)


#: Per-process memo of the last prepared (scaled CSR, CSC transpose, sizes):
#: a stream submits one task per block, so without this every block would
#: re-run the O(nnz) scaling + transpose.  One entry is enough — a worker
#: serves one (dataset, measure) at a time — and keeps memory bounded.  For
#: shared-memory payloads the attached segments are kept in the entry so the
#: mappings outlive the attach call; they are dropped (and reclaimed by the
#: OS once unmapped) when the memo moves to the next dataset.
_PREP_MEMO: dict[tuple, tuple] = {}


def _prepare(payload: tuple):
    """Worker-side: resolve a payload into ``(csr, cscT, sizes, measure)``."""
    if payload[0] == "shm":
        _, descriptor, measure = payload
        key = (descriptor.fingerprint, measure)
        prepared = _PREP_MEMO.get(key)
        if prepared is None:
            dataset, segments = shm.attach_dataset(descriptor)
            matrix = prepared_csr(dataset, measure)
            prepared = (matrix, matrix.T.tocsc(),
                        np.diff(dataset.indptr).astype(np.float64), measure,
                        segments)
            _PREP_MEMO.clear()
            _PREP_MEMO[key] = prepared
    else:
        _, fingerprint, indptr, indices, data, n_features, measure = payload
        key = (fingerprint, measure)
        prepared = _PREP_MEMO.get(key)
        if prepared is None:
            dataset = VectorDataset(indptr, indices, data, n_features)
            matrix = prepared_csr(dataset, measure)
            prepared = (matrix, matrix.T.tocsc(),
                        np.diff(indptr).astype(np.float64), measure, None)
            _PREP_MEMO.clear()
            _PREP_MEMO[key] = prepared
    return prepared[:4]


def _search_shard(payload: tuple, shard: BlockShard, threshold: float,
                  fail: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score one shard's blocks; return ``(i, j, similarity)`` arrays.

    Only columns ``j >= start`` are computed per block (the strict upper
    triangle is all the search keeps), which halves the average scalar work
    versus the full-width kernel.  With ``fail=True`` the worker raises
    :class:`InjectedShardFault` before its final block — mid-stream, after
    real work happened — so fault tests exercise the genuine error path
    through real process boundaries.
    """
    matrix, transposed, sizes, measure = _prepare(payload)
    n = len(sizes)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for index, (start, stop) in enumerate(shard.blocks):
        if fail and index == len(shard.blocks) - 1:
            raise InjectedShardFault(
                f"injected fault in shard {shard.shard_id} at block "
                f"[{start}, {stop})")
        slab = _compute_block(matrix, transposed, sizes, start, stop,
                              measure, columns_from=start)
        row_ids = np.arange(start, stop)
        col_ids = np.arange(start, n)
        keep = (slab >= threshold) & (col_ids[None, :] > row_ids[:, None])
        local_i, local_j = np.nonzero(keep)
        out_i.append(row_ids[local_i])
        out_j.append(col_ids[local_j])
        out_v.append(slab[local_i, local_j])
    if not out_i:
        empty = np.empty(0)
        return empty.astype(np.int64), empty.astype(np.int64), empty
    return (np.concatenate(out_i), np.concatenate(out_j),
            np.concatenate(out_v))


def _stream_block(payload: tuple, start: int, stop: int,
                  fail: bool = False, slot_name: str | None = None):
    """Compute one full-width similarity slab (the streaming contract).

    With *slot_name* the slab is written into that shared-memory ring slot
    and only its shape is returned through the result pipe; without it the
    slab itself is returned (pickled — the in-process and fallback path).
    """
    if fail:
        raise InjectedShardFault(
            f"injected fault streaming block [{start}, {stop})")
    matrix, transposed, sizes, measure = _prepare(payload)
    slab = _compute_block(matrix, transposed, sizes, start, stop, measure)
    if slot_name is not None:
        return shm.write_slab(slot_name, slab)
    return slab


def _make_local_reducers(reducer_specs: dict | None) -> dict:
    """Build fresh shard-local reducers from a picklable spec dict.

    Specs: ``histogram``/``selection`` map to their bin-edge arrays,
    ``top_k`` to ``k``.  Workers update these local reducers and ship their
    ``state()`` back; the parent folds the states into the caller's reducers
    through the commutative ``merge()`` seam.
    """
    reducers: dict = {}
    if not reducer_specs:
        return reducers
    if "histogram" in reducer_specs:
        reducers["histogram"] = HistogramReducer(reducer_specs["histogram"])
    if "selection" in reducer_specs:
        reducers["selection"] = SelectionSketch(reducer_specs["selection"])
    if "top_k" in reducer_specs:
        reducers["top_k"] = TopKReducer(int(reducer_specs["top_k"]))
    return reducers


def _delta_shard(payload: tuple, shard: BlockShard, threshold: float | None,
                 reducer_specs: dict | None = None, fail: bool = False):
    """Score one delta-ingest shard: appended rows vs every column ``j < row``.

    Returns ``(first, second, similarity, reducer_states)`` where the pair
    arrays hold every new pair at or above *threshold* (empty when
    *threshold* is ``None`` — the reducers-only mode) and *reducer_states*
    maps reducer kinds to their shard-local ``state()`` payloads.  Each new
    pair is visited exactly once with the smaller id first, matching
    :func:`repro.store.delta.delta_pairs`.  ``fail=True`` raises
    :class:`InjectedShardFault` before the final block, mid-stream.
    """
    matrix, transposed, sizes, measure = _prepare(payload)
    reducers = _make_local_reducers(reducer_specs)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_v: list[np.ndarray] = []
    for index, (start, stop) in enumerate(shard.blocks):
        if fail and index == len(shard.blocks) - 1:
            raise InjectedShardFault(
                f"injected fault in delta shard {shard.shard_id} at block "
                f"[{start}, {stop})")
        slab = _compute_block(matrix, transposed, sizes, start, stop, measure)
        row_ids = np.arange(start, stop)
        col_ids = np.arange(slab.shape[1])
        new_pair = col_ids[None, :] < row_ids[:, None]
        if reducers:
            local_i, local_j = np.nonzero(new_pair)
            values = slab[local_i, local_j]
            if "histogram" in reducers:
                reducers["histogram"].update(values)
            if "selection" in reducers:
                reducers["selection"].update(values)
            if "top_k" in reducers:
                reducers["top_k"].update(local_j, row_ids[local_i], values)
        if threshold is not None:
            keep = new_pair & (slab >= threshold)
            local_i, local_j = np.nonzero(keep)
            out_i.append(local_j)                   # first = smaller id
            out_j.append(row_ids[local_i])          # second = appended row
            out_v.append(slab[local_i, local_j])
    states = {kind: reducer.state() for kind, reducer in reducers.items()}
    if not out_i:
        empty = np.empty(0)
        return (empty.astype(np.int64), empty.astype(np.int64), empty, states)
    return (np.concatenate(out_i), np.concatenate(out_j),
            np.concatenate(out_v), states)


def _shard_runner(kernel, kernel_args: tuple, payload: tuple, descriptor,
                  shards: tuple, worker_slot: int, allow_steal: bool,
                  inject_shard_fault: int | None = None, claim_gate=None):
    """One runner per worker slot: claim shards from the queue until it drains.

    Every claimed shard runs ``kernel(payload, shard, *kernel_args, fail=...)``
    (:func:`_search_shard` or :func:`_delta_shard`).  Returns ``(worker_slot,
    claimed_shard_ids, outputs)`` with one kernel output per claimed shard —
    the claim list is the audit trail the parent cross-checks for
    exactly-once coverage and publishes as per-worker claim counters.  A
    shard that fails (kernel error or injected fault) surfaces as
    :class:`_StolenShardFailure` so the parent can attribute the failure even
    though this task ran many shards.
    """
    client = stealing.ShardQueueClient(descriptor, worker_slot,
                                       steal=allow_steal,
                                       claim_gate=claim_gate)
    claimed: list[int] = []
    outputs: list[tuple] = []
    while True:
        try:
            item = client.claim()
        except stealing.ClaimFault as fault:
            raise _StolenShardFailure(shards[fault.item].shard_id, fault.cause)
        if item is None:
            return worker_slot, claimed, outputs
        shard = shards[item]
        try:
            outputs.append(kernel(payload, shard, *kernel_args,
                                  fail=shard.shard_id == inject_shard_fault))
        except BaseException as exc:  # noqa: BLE001 - attributed to the shard
            raise _StolenShardFailure(shard.shard_id, exc)
        claimed.append(shard.shard_id)


# --------------------------------------------------------------------- #
# Shared process pools (amortise pool start-up across searches)
# --------------------------------------------------------------------- #

#: Keyed by ``(n_workers, straggler_factor)``: a pool whose slot-0 worker was
#: slowed by :data:`STRAGGLER_ENV_VAR` must never serve a search run without
#: it (or vice versa), so the straggler setting is part of the key.
_POOLS: dict[tuple, ProcessPoolExecutor] = {}

#: Slot-token directories owned by live pools, removed on pool reset.
_POOL_TOKEN_DIRS: list[str] = []


def _resolve_straggler() -> float:
    """The straggler slowdown factor from :data:`STRAGGLER_ENV_VAR` (>= 1)."""
    env = os.environ.get(STRAGGLER_ENV_VAR, "").strip()
    if not env:
        return 1.0
    try:
        factor = float(env)
    except ValueError:
        raise ValueError(
            f"{STRAGGLER_ENV_VAR} must be a number, got {env!r}") from None
    if factor < 1.0:
        raise ValueError(
            f"{STRAGGLER_ENV_VAR} must be >= 1, got {factor}")
    return factor


def _disown_pools_after_fork() -> None:  # pragma: no cover - via children
    """Drop inherited pool handles in a forked child.

    An inherited ``ProcessPoolExecutor`` is unusable (its manager thread did
    not survive the fork) but looks healthy, so a child reusing it would
    enqueue tasks that are never dispatched — a silent hang.  Children start
    poolless and build their own on first use.
    """
    _POOLS.clear()
    _POOL_TOKEN_DIRS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_disown_pools_after_fork)


def _shared_pool(n_workers: int) -> ProcessPoolExecutor:
    slowdown = _resolve_straggler()
    key = (n_workers, slowdown)
    pool = _POOLS.get(key)
    if pool is not None and getattr(pool, "_broken", False):
        # A worker died abnormally (OOM kill, segfault): the pool is
        # permanently broken.  Evict and rebuild so one transient fault
        # doesn't condemn every later search at this worker count — and
        # release the published dataset segments its workers were attached
        # to, so a rebuilt pool starts from a clean /dev/shm.  Rings are
        # deliberately spared: they belong to live streams (possibly on
        # other, healthy pools), not to this one.
        pool.shutdown(wait=False, cancel_futures=True)
        shm.release_datasets()
        pool = None
    if pool is None:
        if slowdown > 1.0:
            token_dir = tempfile.mkdtemp(prefix="repro-pool-")
            _POOL_TOKEN_DIRS.append(token_dir)
            pool = ProcessPoolExecutor(
                max_workers=n_workers, initializer=_worker_init,
                initargs=(token_dir, n_workers, slowdown))
        else:
            pool = ProcessPoolExecutor(max_workers=n_workers)
        _POOLS[key] = pool
    return pool


def reset_shared_pools(wait: bool = False) -> None:
    """Shut down every shared pool and release all shared-memory segments.

    The explicit lifecycle hook: deployments (and tests) call this to prove
    nothing leaks — after it returns, no ``/dev/shm`` entry created by this
    process remains.  The next sharded search transparently builds a fresh
    pool and republishes what it needs.

    ``wait=True`` additionally guarantees quiescence: every worker process
    is joined, and one that outlives a grace period is killed.  That kill
    matters — executor shutdown can leave a worker stuck on the call-queue
    wakeup race (observed upstream in CPython), and such a worker would
    otherwise block this process's exit joins forever.  Use ``wait=True``
    before ``fork()``-ing or handing the process to code that must not
    inherit executor threads.
    """
    pools = list(_POOLS.values())
    _POOLS.clear()
    # Snapshot worker handles before shutdown mutates the executor's
    # internals (the _processes mapping does not survive shutdown intact).
    workers = []
    for pool in pools:
        processes = getattr(pool, "_processes", None)
        if processes:
            workers.extend(list(processes.values()))
        pool.shutdown(wait=False, cancel_futures=True)
    if wait:
        deadline = time.monotonic() + 10.0
        for process in workers:
            process.join(max(0.1, deadline - time.monotonic()))
        for process in workers:
            if process.is_alive():
                process.kill()
                process.join(5.0)
    while _POOL_TOKEN_DIRS:
        shutil.rmtree(_POOL_TOKEN_DIRS.pop(), ignore_errors=True)
    stealing.release_queues()
    shm.release_all()


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter teardown
    # wait=True: when shutdown leaves a worker stuck on the call-queue race,
    # killing it here is what lets the interpreter's later exit joins
    # (multiprocessing and concurrent.futures run after atexit) complete.
    reset_shared_pools(wait=True)


def _resolve_executor(n_workers: int, executor_factory):
    """Return ``(executor, owned)``; *owned* executors are shut down per call."""
    if executor_factory is not None:
        return executor_factory(n_workers), True
    if n_workers == 1:
        return InlineShardExecutor(), False
    return _shared_pool(n_workers), False


def _block_result(block: tuple[int, int], future: Future):
    """A streamed block's result; a failure raises :class:`ShardExecutionError`."""
    try:
        return future.result()
    except Exception as exc:
        raise ShardExecutionError(
            f"streamed block [{block[0]}, {block[1]}) failed: {exc}",
            block=tuple(block)) from exc


def _gather_runners(slot_futures, *, owned_executor=None) -> list:
    """Collect shard-runner results; attribute failures to shards.

    One future per worker slot, each covering every shard its runner
    claimed.  Blocking on the slots in order cannot hang: a failed future's
    ``result()`` raises as soon as it is done, and the rest are cancelled.  A
    :class:`_StolenShardFailure` re-raises as :class:`ShardExecutionError`
    *from the original cause*, so callers see the shard id and the worker's
    own exception; any other runner death is reported against the slot.
    """
    results = []
    pending = list(slot_futures)
    for position, (slot, future) in enumerate(pending):
        try:
            results.append(future.result())
        except Exception as exc:
            for _, leftover in pending[position + 1:]:
                leftover.cancel()
            if owned_executor is not None:
                owned_executor.shutdown(wait=False, cancel_futures=True)
            if isinstance(exc, _StolenShardFailure):
                raise ShardExecutionError(
                    f"shard {exc.shard_id} failed: {exc.cause}",
                    shard_id=exc.shard_id) from exc.cause
            raise ShardExecutionError(
                f"shard runner {slot} failed: {exc}") from exc
    return results


def _check_claim_coverage(results, shards) -> dict[int, int]:
    """Cross-check exactly-once claim coverage; return per-slot claim counts.

    The queue's ``O_EXCL`` protocol makes double claims impossible and the
    drain loop makes missed claims impossible — but a scheduling bug here
    would silently drop or duplicate pairs, so the parent re-derives coverage
    from the runners' own claim lists and fails loudly on any mismatch.
    """
    claimed = sorted(shard_id for _, ids, *_ in results for shard_id in ids)
    expected = sorted(shard.shard_id for shard in shards)
    if claimed != expected:
        raise ShardExecutionError(
            f"work-stealing queue covered shards {claimed}, expected "
            f"{expected}")
    return {slot: len(ids) for slot, ids, *_ in results}


def _check_steal(steal) -> bool:
    """Validate the scheduling switch: ``True`` steals, ``False`` binds."""
    if not isinstance(steal, bool):
        raise ValueError(f"steal must be True (work stealing) or False "
                         f"(static binding), got {steal!r}")
    return steal


def _run_shards(dataset: VectorDataset, measure: str, shards: list,
                n_workers: int, executor_factory, steal: bool,
                inject_shard_fault: int | None, kernel, kernel_args: tuple):
    """Run *kernel* over *shards*: one queue runner per worker slot.

    The one execution path of both the sharded search and the sharded delta
    pass.  With ``n_workers=1`` the single runner runs in-process and claims
    every shard itself.  Returns ``(outputs, claims, shared_memory)``: every
    shard's kernel output (in no particular order — callers merge
    canonically), the per-slot claim counters, and whether the dataset
    travelled through shared memory.
    """
    payload = _shard_payload(dataset, measure, n_workers > 1)
    executor, owned = _resolve_executor(n_workers, executor_factory)
    pinned = payload[0] == "shm" and payload[1].fingerprint
    if pinned:
        shm.pin_dataset(pinned)
    queue = None
    try:
        queue = stealing.ShardQueue(len(shards), n_workers)
        futures = [
            (slot, executor.submit(
                _shard_runner, kernel, kernel_args, payload,
                queue.descriptor(), tuple(shards), slot, steal,
                inject_shard_fault, claim_gate=None))
            for slot in range(n_workers)]
        results = _gather_runners(
            futures, owned_executor=executor if owned else None)
    finally:
        if queue is not None:
            queue.close()
        if pinned:
            shm.unpin_dataset(pinned)
        if owned:
            executor.shutdown(wait=False, cancel_futures=True)
    claims = _check_claim_coverage(results, shards)
    outputs = [output for _, _, runner_outputs in results
               for output in runner_outputs]
    return outputs, claims, payload[0] == "shm"


def _canonical_pair_list(chunks) -> list[SimilarPair]:
    """Merge per-shard ``(i, j, v)`` chunks into one ``(first, second)``-sorted list."""
    all_i = np.concatenate([c[0] for c in chunks])
    all_j = np.concatenate([c[1] for c in chunks])
    all_v = np.concatenate([c[2] for c in chunks])
    order = np.lexsort((all_j, all_i))
    return [SimilarPair(int(i), int(j), float(v))
            for i, j, v in zip(all_i[order].tolist(), all_j[order].tolist(),
                               all_v[order].tolist())]


@register_backend
class ShardedBlockedBackend(ApssBackend):
    """Multi-process sharding of the exact blocked kernel.

    Parameters
    ----------
    n_workers:
        Worker processes.  Defaults to ``REPRO_APSS_WORKERS`` when set, else
        the CPU count (capped at 8).  ``1`` runs in-process — no pool, no
        pickling.
    block_rows, memory_budget_mb:
        Per-worker block sizing, with the same semantics as ``exact-blocked``:
        the budget caps the scratch memory of one slab *in each worker*, so
        total peak memory is roughly ``n_workers * memory_budget_mb``.
    shards_per_worker:
        Shards per worker (default 2): mild oversubscription so a slow shard
        does not leave the rest of the pool idle.
    partition_strategy:
        ``striped`` (default), ``contiguous`` or ``balanced``; see
        :mod:`repro.similarity.partition`.
    executor_factory:
        ``callable(n_workers) -> executor`` override used by the test harness
        (deterministic claim-order replay) and available for custom pools.
        Factory-made executors are shut down after each search.
    steal:
        Shard scheduling.  Every search runs one runner per worker slot that
        claims shards from a :class:`~repro.similarity.stealing.ShardQueue`,
        own stripe first.  ``True`` (default) is work stealing: a runner
        whose stripe is drained steals from the most-loaded peer, so a slow
        worker straggles at most its in-flight shard.  ``False`` is static
        binding: each runner executes exactly its stripe — the comparator the
        straggler benchmark measures stealing against.  Both produce
        bit-identical results.
    inject_shard_fault:
        Fault-injection hook: the shard with this id raises
        :class:`InjectedShardFault` mid-stream.  Exists so the failure path
        is testable through real process boundaries.
    """

    name = "sharded-blocked"
    exact = True
    measures = ("cosine", "jaccard", "dot")
    #: These change how the search executes, never what it returns, so sweep
    #: caches must not fragment on them (see ``CachedApssEngine._key``).
    #: ``inject_shard_fault`` is deliberately NOT here: it changes the
    #: outcome (the search raises), so a cached sweep must not swallow it.
    execution_options = ("n_workers", "shards_per_worker", "partition_strategy",
                         "executor_factory", "steal")

    def __init__(self, n_workers: int | None = None,
                 block_rows: int | None = None,
                 memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
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
        self.n_workers = resolve_worker_count(n_workers)
        self.block_rows = block_rows
        self.memory_budget_mb = float(memory_budget_mb)
        self.shards_per_worker = int(shards_per_worker)
        self.partition_strategy = partition_strategy
        self.executor_factory = executor_factory
        self.steal = _check_steal(steal)
        self.inject_shard_fault = inject_shard_fault
        # Validate eagerly so typos fail at construction, not mid-search.
        partition_blocks(2, 1, 1, strategy=partition_strategy)

    @classmethod
    def parity_variants(cls) -> list[dict]:
        """Parity-check the scheduling seams: worker counts and scheduling.

        The in-process single runner, both scheduling disciplines at 2
        workers, and stealing at 4 workers — every one must produce
        byte-identical pair lists.
        """
        return [{"n_workers": 1},
                {"n_workers": 2, "steal": True},
                {"n_workers": 2, "steal": False},
                {"n_workers": 4, "steal": True}]

    def plan(self, n_rows: int) -> list[BlockShard]:
        """The deterministic shard plan for an *n_rows* dataset."""
        rows_per_block = resolve_block_rows(n_rows, self.block_rows,
                                            self.memory_budget_mb)
        return partition_blocks(n_rows, rows_per_block,
                                self.n_workers * self.shards_per_worker,
                                strategy=self.partition_strategy)

    # ------------------------------------------------------------------ #
    def search(self, dataset: VectorDataset, threshold: float,
               measure: str = "cosine") -> BackendOutput:
        """Find pairs at or above *threshold*; runners claim the shards."""
        self.check_measure(measure)
        n = dataset.n_rows
        if n < 2:
            return BackendOutput(pairs=[], n_candidates=0)
        shards = self.plan(n)
        if self.inject_shard_fault is not None and not (
                0 <= self.inject_shard_fault < len(shards)):
            # A fault-injection hook that silently misses its target would
            # make fault tests vacuously green; fail loudly instead.
            raise ValueError(
                f"inject_shard_fault={self.inject_shard_fault} is out of "
                f"range: the plan for {n} rows has {len(shards)} shard(s)")
        chunks, claims, shared = _run_shards(
            dataset, measure, shards, self.n_workers, self.executor_factory,
            self.steal, self.inject_shard_fault, _search_shard,
            (float(threshold),))
        # Canonical (first, second) order: the merged pair list is identical
        # regardless of shard layout, scheduling discipline or completion
        # order, so parity checks and cache fingerprints cannot observe the
        # scheduler.
        pairs = _canonical_pair_list(chunks)
        return BackendOutput(
            pairs=pairs, n_candidates=n * (n - 1) // 2,
            details={"n_workers": self.n_workers, "n_shards": len(shards),
                     "partition_strategy": self.partition_strategy,
                     "shared_memory": shared,
                     "steal": "steal" if self.steal else "bound",
                     "claims": claims,
                     "block_rows": resolve_block_rows(
                         n, self.block_rows, self.memory_budget_mb)})


def _quiesce_futures(futures, timeout: float = 10.0) -> None:
    """Cancel what can be cancelled; wait (bounded) for what cannot.

    The close-quiesce step of an abandoned stream: a worker may be mid-write
    into a ring slot, and unlinking the segment under it would rip the
    mapping out from under ``write_slab``.  Cancellation removes queued
    tasks; already-running writers are waited for (with a generous timeout
    so a wedged pool cannot hang generator cleanup forever) before the
    caller unlinks the ring.
    """
    live = [future for future in futures
            if not future.cancel() and not future.cancelled()]
    if live:
        _wait_futures(live, timeout=timeout)


def iter_similarity_blocks_sharded(
        dataset: VectorDataset, measure: str = "cosine", *,
        n_workers: int | None = None, block_rows: int | None = None,
        memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
        executor_factory=None, max_pending: int | None = None,
        inject_block_fault: int | None = None,
) -> Iterator[tuple[range, np.ndarray]]:
    """Sharded drop-in for :func:`repro.similarity.streaming.iter_similarity_blocks`.

    Full-width slabs are computed in worker processes but yielded strictly in
    row order: a bounded window (``max_pending``, default ``2 * n_workers``)
    of block tasks is kept in flight and the generator blocks on the
    next-in-order future, so out-of-order completions are absorbed by the
    window rather than reordering the stream.  Multi-worker streams return
    their slabs through a shared-memory ring of ``max_pending`` slots (one
    per in-flight task) unless segment creation fails, in which case slabs
    fall back to pickled returns.

    Through the ring, the yielded slab is a **read-only borrowed view** of
    its slot — zero-copy from the worker's Gram kernel to the consumer —
    valid until the next iteration step (the generator releases the borrow
    when resumed, and the slot is then rewritten by a later block).  A
    consumer that keeps a slab past the next step must ``.copy()`` it.

    A failed block raises :class:`ShardExecutionError` after every earlier
    block was yielded; blocks after the failure are cancelled, and in-flight
    writers are quiesced before the ring is unlinked — an abandoned stream
    never tears a slot out from under a mid-write worker.  With one worker
    and no injected executor this degrades to the plain in-process generator.
    """
    if measure not in STREAMING_MEASURES:
        raise ValueError(f"unsupported streaming measure {measure!r}; "
                         f"supported: {list(STREAMING_MEASURES)}")
    n = dataset.n_rows
    if n == 0:
        return
    n_workers = resolve_worker_count(n_workers)
    rows_per_block = resolve_block_rows(n, block_rows, memory_budget_mb)
    ranges = block_ranges(n, rows_per_block)
    if inject_block_fault is not None and not (
            0 <= inject_block_fault < len(ranges)):
        # Same loud failure as the search path: a fault hook that silently
        # misses its target makes fault tests vacuously green.
        raise ValueError(
            f"inject_block_fault={inject_block_fault} is out of range: the "
            f"stream for {n} rows has {len(ranges)} block(s)")
    if n_workers == 1 and executor_factory is None and inject_block_fault is None:
        from repro.similarity.streaming import iter_similarity_blocks
        yield from iter_similarity_blocks(dataset, measure,
                                          block_rows=rows_per_block)
        return
    window = (max_pending if max_pending is not None
              else shm.default_ring_slots(n_workers))
    window = max(1, int(window))
    payload = _shard_payload(dataset, measure, n_workers > 1)
    ring = None
    if payload[0] == "shm":
        try:
            ring = shm.SlabRing(window, rows_per_block * n * 8)
        except OSError:
            ring = None  # fall back to pickled slab returns
    executor, owned = _resolve_executor(n_workers, executor_factory)
    # Pin for the stream's whole lifetime: other datasets published while
    # this generator is suspended must not LRU-evict its segments.
    pinned = payload[0] == "shm" and payload[1].fingerprint
    if pinned:
        shm.pin_dataset(pinned)
    pending: deque[tuple[tuple[int, int], Future]] = deque()
    next_to_submit = 0
    try:
        while next_to_submit < len(ranges) or pending:
            while (next_to_submit < len(ranges) and len(pending) < window
                   and not (ring is not None
                            and ring.is_borrowed(next_to_submit))):
                # The borrow check is belt-and-braces: the window guarantees
                # the slot was consumed, and a consumed-but-still-borrowed
                # slot (possible only if this loop moved) must never be
                # handed to a writer.
                start, stop = ranges[next_to_submit]
                slot = (ring.slot_name(next_to_submit)
                        if ring is not None else None)
                pending.append(((start, stop), executor.submit(
                    _stream_block, payload, start, stop,
                    next_to_submit == inject_block_fault, slot)))
                next_to_submit += 1
            (start, stop), future = pending.popleft()
            result = _block_result((start, stop), future)
            if ring is None:
                yield range(start, stop), result
                continue
            shape = (stop - start, n)
            if tuple(result) != shape:
                raise ShardExecutionError(
                    f"streamed block [{start}, {stop}) returned shape "
                    f"{tuple(result)}, expected {shape}",
                    block=(start, stop))
            task_index = start // rows_per_block
            # Zero-copy: the consumer reads the slot in place; the borrow is
            # released when the consumer asks for the next block, at which
            # point the slot may be rewritten.
            slab = ring.borrow(task_index, shape)
            try:
                yield range(start, stop), slab
            finally:
                # Runs on normal resume AND on generator close / consumer
                # crash, so an abandoned stream cannot leave a slot borrowed
                # forever.
                ring.release(task_index)
    finally:
        if ring is not None:
            # Quiesce before unlink: a cancelled future stays cancelled, but
            # a worker already writing its slab must finish (bounded) before
            # the segment under it disappears.
            _quiesce_futures([future for _, future in pending])
            ring.close()
        else:
            for _, future in pending:
                future.cancel()
        if pinned:
            shm.unpin_dataset(pinned)
        if owned:
            executor.shutdown(wait=False, cancel_futures=True)


def run_delta_shards(child: VectorDataset, delta: DatasetDelta,
                     threshold: float | None, measure: str, *,
                     reducer_specs: dict | None = None,
                     n_workers: int | None = None,
                     block_rows: int | None = None,
                     memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
                     shards_per_worker: int = 2,
                     partition_strategy: str = "striped",
                     executor_factory=None,
                     steal: bool = True,
                     inject_shard_fault: int | None = None,
                     ) -> tuple[list[SimilarPair], dict[str, list]]:
    """Run the ``Δn x n`` append cross block over the shared worker pool.

    The ingest twin of :meth:`ShardedBlockedBackend.search`: the appended
    row range of *delta* is partitioned by
    :func:`~repro.similarity.partition.partition_delta_blocks`, each shard
    scores its blocks against every column ``j < row`` (exactly the new
    pairs), and the shard results merge canonically.  Scheduling is the
    search's: one runner per worker slot claims shards from a
    :class:`~repro.similarity.stealing.ShardQueue`, stealing unless
    ``steal=False``.  Returns
    ``(pairs, states)`` — the new pairs at or above *threshold* in
    ``(first, second)`` order (empty when *threshold* is ``None``) and, per
    reducer kind in *reducer_specs*, the list of shard-local ``state()``
    payloads for the caller to fold in through ``merge()`` (commutative, so
    claim order is invisible in the folded result).  Callers are expected to
    have validated the delta against the child dataset already (see
    :class:`repro.store.delta.DeltaApssBackend`).
    """
    steal = _check_steal(steal)
    n_workers = resolve_worker_count(n_workers)
    rows_per_block = resolve_block_rows(child.n_rows, block_rows,
                                        memory_budget_mb)
    shards = partition_delta_blocks(delta.parent_rows, child.n_rows,
                                    rows_per_block,
                                    n_workers * shards_per_worker,
                                    strategy=partition_strategy)
    states: dict[str, list] = {kind: [] for kind in (reducer_specs or ())}
    if not shards:
        return [], states
    if inject_shard_fault is not None and not (
            0 <= inject_shard_fault < len(shards)):
        raise ValueError(
            f"inject_shard_fault={inject_shard_fault} is out of range: the "
            f"delta plan has {len(shards)} shard(s)")
    outputs, _, _ = _run_shards(
        child, measure, shards, n_workers, executor_factory, steal,
        inject_shard_fault, _delta_shard,
        (None if threshold is None else float(threshold), reducer_specs))
    for *_, shard_states in outputs:
        for kind, state in shard_states.items():
            states[kind].append(state)
    pairs = ([] if threshold is None
             else _canonical_pair_list([output[:3] for output in outputs]))
    return pairs, states
