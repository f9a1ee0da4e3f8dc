"""Deterministic test harness for the similarity engine suites.

Three things live here, shared by the parity, sharding and cache tests:

* **Seeded dataset factories** — every dataset is built from an explicit
  integer seed and carries that seed in its name, so any failure message or
  hypothesis falsifying example contains everything needed to rebuild the
  exact input.  ``sparse_random_dataset`` builds large sparse datasets
  directly in CSR form (one cheap index-draw per row, no topic model), which
  lets the 20k-row stress test construct its input in well under a second —
  versus tens of seconds through the corpus generator.

* **`ShardOrderReplayExecutor`** — an in-process stand-in for a process pool
  that *replays task completions in adversarial orders*; sharded streams,
  which submit one task per block, are its subject.  Futures are lazy:
  nothing runs at ``submit``; when the stream blocks on a future's
  ``result()``, the executor runs the still-pending tasks in the configured
  order (LIFO by default, an explicit permutation, or a seeded shuffle) until
  that future is done.  The recorded ``completion_order`` proves tasks really
  completed out of submission order, making block-order bugs deterministic
  instead of once-in-a-blue-moon scheduler accidents.

* **`StealOrderReplayExecutor`** — the work-stealing twin: a thread-backed
  executor that injects itself as the ``claim_gate`` of every shard runner it
  runs and *fully serialises claims* — at any instant exactly one worker is
  between "granted a claim turn" and "parked waiting for the next one", so
  the interleaving of claims (and therefore who steals what from whom) is a
  deterministic function of the configured policy: LIFO/FIFO/seeded-random/
  explicit slot orders, *virtual-time* stragglers (``delays`` — no real
  sleeping), and per-shard claim-time failures.
"""

from __future__ import annotations

import glob
import os
import threading
from concurrent.futures import Future

import numpy as np

from repro.datasets import VectorDataset, make_clustered_vectors, make_sparse_corpus

__all__ = [
    "seeded_clustered",
    "seeded_corpus",
    "sparse_random_dataset",
    "append_split",
    "own_shm_entries",
    "force_pickle_fallback",
    "ShardOrderReplayExecutor",
    "replay_factory",
    "StealOrderReplayExecutor",
    "steal_replay_factory",
]


def own_shm_entries() -> list[str]:
    """Shared-memory segments this process currently owns, by name.

    The leak oracle for the shared-memory transport tests: on Linux it lists
    ``/dev/shm`` entries carrying this process's segment prefix (so a leak is
    visible to the OS, not just to our bookkeeping); elsewhere it falls back
    to the transport module's own registry.
    """
    from repro.similarity import shm

    if os.path.isdir("/dev/shm"):
        pattern = os.path.join("/dev/shm", shm.SEGMENT_PREFIX + "*")
        return sorted(os.path.basename(path) for path in glob.glob(pattern))
    return sorted(shm.active_segment_names())


def force_pickle_fallback(monkeypatch) -> None:
    """Take shared memory away: publishing returns ``None`` and ring
    creation raises ``OSError``, as on a platform without ``/dev/shm`` or
    with it full.  Sharded passes must then fall back to pickled payloads
    and slabs.  *monkeypatch* is a pytest ``MonkeyPatch`` (the fixture or a
    ``MonkeyPatch.context()``), which undoes both patches.
    """
    from repro.similarity import shm

    def no_ring(*args, **kwargs):
        raise OSError("no space on /dev/shm")

    monkeypatch.setattr(shm, "publish_dataset", lambda *a, **k: None)
    monkeypatch.setattr(shm, "SlabRing", no_ring)


# --------------------------------------------------------------------- #
# Seeded dataset factories
# --------------------------------------------------------------------- #

def seeded_clustered(seed: int, n_rows: int = 24, n_features: int = 8,
                     n_clusters: int = 3, **kwargs) -> VectorDataset:
    """A clustered dense dataset whose name carries its seed."""
    return make_clustered_vectors(n_rows, n_features, n_clusters,
                                  seed=int(seed), **kwargs)


def seeded_corpus(seed: int, n_docs: int = 60, vocabulary_size: int = 240,
                  **kwargs) -> VectorDataset:
    """A sparse topic corpus whose name carries its seed."""
    kwargs.setdefault("avg_doc_length", 14)
    kwargs.setdefault("n_topics", 4)
    return make_sparse_corpus(n_docs, vocabulary_size, seed=int(seed), **kwargs)


def sparse_random_dataset(seed: int, n_rows: int, n_features: int,
                          density: float, n_clusters: int = 0) -> VectorDataset:
    """A seed-named sparse dataset built directly in CSR form.

    One ``rng.choice`` index draw per row — cheap enough for 20k rows in
    well under a second.  With ``n_clusters > 0`` rows are biased toward
    per-cluster feature bands so realistic numbers of pairs clear
    interesting thresholds even at 20k rows; with ``n_clusters = 0``
    features are uniform.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    lengths = np.maximum(1, rng.binomial(n_features, density, size=n_rows))
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.empty(indptr[-1], dtype=np.int64)
    if n_clusters > 0:
        band = max(1, n_features // n_clusters)
        clusters = rng.integers(0, n_clusters, size=n_rows)
    for i in range(n_rows):
        if n_clusters > 0 and rng.random() < 0.8:
            start = int(clusters[i]) * band
            pool = min(band, n_features - start)
            chosen = start + rng.choice(pool, size=min(lengths[i], pool),
                                        replace=False)
            if len(chosen) < lengths[i]:
                lengths[i] = len(chosen)
        else:
            chosen = rng.choice(n_features, size=lengths[i], replace=False)
        indices[indptr[i]:indptr[i] + len(chosen)] = np.sort(chosen)
    # Re-pack in case cluster bands shortened any row.
    packed = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate(
        [indices[indptr[i]:indptr[i] + lengths[i]] for i in range(n_rows)])
    data = rng.random(packed[-1]) + 0.1
    return VectorDataset(packed, indices, data, n_features,
                         name=f"sparse-random[seed={int(seed)},rows={n_rows}]")


def append_split(dataset: VectorDataset, k: int) -> tuple[VectorDataset, VectorDataset]:
    """Split *dataset* into a parent and an appended child for delta tests.

    Returns ``(parent, child)`` where *parent* holds all but the last *k*
    rows and *child* is ``parent.append_rows(<last k rows>)`` — so *child*
    is **content-identical** to *dataset* (same fingerprint, so any failure
    replays from the factory seed embedded in the dataset name) but carries
    the ``parent_delta`` provenance the incremental-ingest path consumes.
    """
    n = dataset.n_rows
    if not 0 < k < n:
        raise ValueError(f"k must be in (0, {n}) to split {n} rows")
    parent = dataset.subset(range(n - k), name=f"{dataset.name}[:-{k}]")
    tail = dataset.subset(range(n - k, n), name=f"{dataset.name}[-{k}:]")
    child = parent.append_rows(tail, name=dataset.name)
    assert child.fingerprint() == dataset.fingerprint(), \
        "append_split must reproduce the dataset content exactly"
    return parent, child


# --------------------------------------------------------------------- #
# Adversarial shard-order replay executor
# --------------------------------------------------------------------- #

class _LazyFuture(Future):
    """A future that drives its executor's replay loop when waited on."""

    def __init__(self, executor: "ShardOrderReplayExecutor", index: int) -> None:
        super().__init__()
        self._replay_executor = executor
        self._replay_index = index

    def result(self, timeout=None):
        self._replay_executor._run_until(self._replay_index)
        return super().result(timeout)

    def exception(self, timeout=None):
        self._replay_executor._run_until(self._replay_index)
        return super().exception(timeout)


class ShardOrderReplayExecutor:
    """Deterministic executor replaying task completions adversarially.

    Parameters
    ----------
    order:
        ``"lifo"`` (default — the most adversarial simple order: the *last*
        submitted pending task completes first), ``"fifo"``, an explicit
        sequence of submission indices (tasks listed earlier complete
        earlier; unlisted tasks fall back to FIFO), or ``("random", seed)``
        for a seeded shuffle.
    Attributes
    ----------
    completion_order:
        Submission indices in the order tasks actually completed — assert on
        this to prove the replay really was out of order.
    """

    def __init__(self, order="lifo") -> None:
        self._tasks: list[tuple[_LazyFuture, object, tuple, dict]] = []
        self.completion_order: list[int] = []
        self._rng = None
        if isinstance(order, tuple) and len(order) == 2 and order[0] == "random":
            self._rng = np.random.default_rng(order[1])
            self._order = "random"
        else:
            self._order = order

    @property
    def submitted(self) -> int:
        return len(self._tasks)

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = _LazyFuture(self, len(self._tasks))
        self._tasks.append((future, fn, args, kwargs))
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        if cancel_futures:
            for future, *_ in self._tasks:
                future.cancel()

    # -- replay machinery ---------------------------------------------- #
    def _pending(self) -> list[int]:
        return [i for i, (future, *_rest) in enumerate(self._tasks)
                if not future.done()]

    def _pick(self, pending: list[int]) -> int:
        if self._order == "lifo":
            return pending[-1]
        if self._order == "fifo":
            return pending[0]
        if self._order == "random":
            return int(self._rng.choice(pending))
        for index in self._order:
            if index in pending:
                return index
        return pending[0]

    def _run_one(self, index: int) -> None:
        future, fn, args, kwargs = self._tasks[index]
        if not future.set_running_or_notify_cancel():
            return  # cancelled counts as done; nothing to run
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 - relayed via future
            future.set_exception(exc)
        self.completion_order.append(index)

    def _run_until(self, index: int) -> None:
        while not self._tasks[index][0].done():
            self._run_one(self._pick(self._pending()))


def replay_factory(order="lifo"):
    """An ``executor_factory`` for sharded streams, recording instances.

    The factory ignores the worker count (everything runs in-process) and
    exposes every executor it built on ``factory.created`` so tests can
    assert on the recorded ``completion_order`` after the search returns.
    """
    created: list[ShardOrderReplayExecutor] = []

    def factory(n_workers: int) -> ShardOrderReplayExecutor:
        executor = ShardOrderReplayExecutor(order=order)
        created.append(executor)
        return executor

    factory.created = created
    return factory


# --------------------------------------------------------------------- #
# Adversarial steal-order replay executor
# --------------------------------------------------------------------- #

class StealOrderReplayExecutor:
    """Thread-backed executor that serialises work-stealing claim turns.

    The sharded backend submits one shard *runner* per worker slot, each with
    a ``claim_gate=None`` keyword.  This executor replaces that keyword with
    itself, so every runner calls back into ``acquire(worker_slot)`` before
    each claim attempt and ``claimed(worker_slot, item)`` after each
    successful claim.  ``acquire`` parks the worker until the arbiter grants
    it a turn; a turn lasts from the grant until the worker parks again (or
    its runner finishes), so claims — and the shard computations between
    them — are *fully serialised*: the claim interleaving is a deterministic
    function of the policy, never of OS scheduling.

    Parameters
    ----------
    order:
        Which parked worker gets the next turn: ``"fifo"`` (lowest slot,
        default), ``"lifo"`` (highest slot), ``("random", seed)`` for a
        seeded choice, or an explicit slot sequence (earlier entries win;
        unlisted slots fall back to lowest-first).
    delays:
        ``{worker_slot: cost_factor}`` virtual-time stragglers: each turn
        advances the granted worker's virtual clock by its factor (default
        ``1.0``) and the next turn goes to the worker with the *smallest*
        clock — a factor-10 worker therefore gets roughly a tenth of the
        claim turns, with zero real sleeping.  When given, ``delays``
        selection overrides *order*.
    failures:
        ``{shard_item: exception}`` raised from ``claimed`` right after that
        shard's claim file is created — the claim-time fault path
        (``ClaimFault`` → ``_StolenShardFailure`` → ``ShardExecutionError``).

    Attributes
    ----------
    claims:
        ``{worker_slot: [shard_items]}`` in claim order, per worker.
    claim_order:
        ``[(worker_slot, shard_item), ...]`` across all workers — assert on
        this to prove the replay forced the interleaving you asked for.
    """

    def __init__(self, order="fifo", delays: dict | None = None,
                 failures: dict | None = None,
                 expected_runners: int | None = None) -> None:
        self.delays = dict(delays or {})
        self.failures = dict(failures or {})
        #: Grants are held until this many gated runners were submitted, so
        #: an early-starting runner cannot drain the queue before its peers
        #: are even submitted (the factory wires this to ``n_workers``).
        self.expected_runners = expected_runners
        self.claims: dict[int, list[int]] = {}
        self.claim_order: list[tuple[int, int]] = []
        self._rng = None
        if isinstance(order, tuple) and len(order) == 2 and order[0] == "random":
            self._rng = np.random.default_rng(order[1])
            self._order = "random"
        else:
            self._order = order
        self._cond = threading.Condition()
        self._participants = 0        # live gate-using runner threads
        self._parked: set[int] = set()
        self._granted: int | None = None
        self._clock: dict[int, float] = {}
        self._closed = False
        self._slot_of: dict[int, int] = {}  # thread ident -> worker slot
        self._threads: list[threading.Thread] = []
        self._gated_seen = 0          # total gated runners ever submitted
        self._turn = 0                # cursor into an explicit order list
        self.submitted = 0

    # -- executor protocol --------------------------------------------- #
    def submit(self, fn, /, *args, **kwargs) -> Future:
        future: Future = Future()
        self.submitted += 1
        gated = "claim_gate" in kwargs
        if gated:
            kwargs = dict(kwargs, claim_gate=self)
            with self._cond:
                self._participants += 1
                self._gated_seen += 1
                self._maybe_grant()
        thread = threading.Thread(
            target=self._run, args=(future, fn, args, kwargs, gated),
            daemon=True)
        self._threads.append(thread)
        thread.start()
        return future

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=10.0)

    def _run(self, future: Future, fn, args, kwargs, gated: bool) -> None:
        if not future.set_running_or_notify_cancel():
            if gated:
                self._retire()
            return
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - relayed via future
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            if gated:
                self._retire()

    def _retire(self) -> None:
        with self._cond:
            self._participants -= 1
            slot = self._slot_of.pop(threading.get_ident(), None)
            if slot is not None:
                self._parked.discard(slot)
                if self._granted == slot:
                    self._granted = None
            self._maybe_grant()
            self._cond.notify_all()

    # -- claim-gate protocol ------------------------------------------- #
    def acquire(self, worker_slot: int) -> None:
        """Park until the arbiter grants *worker_slot* the next claim turn."""
        with self._cond:
            self._slot_of[threading.get_ident()] = worker_slot
            if self._granted == worker_slot:
                self._granted = None  # the previous turn ends here
            self._parked.add(worker_slot)
            self._maybe_grant()
            while not self._closed and self._granted != worker_slot:
                self._cond.wait(timeout=5.0)
                self._maybe_grant()
            self._parked.discard(worker_slot)

    def claimed(self, worker_slot: int, item: int) -> None:
        """Record a successful claim; raise the configured failure, if any."""
        with self._cond:
            self.claims.setdefault(worker_slot, []).append(item)
            self.claim_order.append((worker_slot, item))
        failure = self.failures.get(item)
        if failure is not None:
            raise failure

    # -- arbiter ------------------------------------------------------- #
    def _maybe_grant(self) -> None:
        """Grant the next turn once every live worker is parked (serialised)."""
        if self._granted is not None or self._closed:
            return
        if (self.expected_runners is not None
                and self._gated_seen < self.expected_runners):
            return  # a peer runner has not even been submitted yet
        if not self._parked or len(self._parked) < self._participants:
            return
        slot = self._pick(sorted(self._parked))
        self._clock[slot] = (self._clock.get(slot, 0.0)
                             + float(self.delays.get(slot, 1.0)))
        self._granted = slot
        self._cond.notify_all()

    def _pick(self, parked: list[int]) -> int:
        if self.delays:
            return min(parked,
                       key=lambda slot: (self._clock.get(slot, 0.0), slot))
        if self._order == "fifo":
            return parked[0]
        if self._order == "lifo":
            return parked[-1]
        if self._order == "random":
            return int(self._rng.choice(parked))
        # Explicit slot list: a turn *sequence*, consumed one entry per
        # grant; entries naming retired/absent slots are skipped, and the
        # tail past the script falls back to first-parked.
        while self._turn < len(self._order):
            slot = self._order[self._turn]
            self._turn += 1
            if slot in parked:
                return slot
        return parked[0]


def steal_replay_factory(order="fifo", delays: dict | None = None,
                         failures: dict | None = None):
    """An ``executor_factory`` building :class:`StealOrderReplayExecutor`s.

    Mirrors :func:`replay_factory`: ignores the worker count (runners are
    in-process threads) and records every executor on ``factory.created`` so
    tests can assert on ``claims``/``claim_order`` after the search returns.
    """
    created: list[StealOrderReplayExecutor] = []

    def factory(n_workers: int) -> StealOrderReplayExecutor:
        executor = StealOrderReplayExecutor(order=order, delays=delays,
                                            failures=failures,
                                            expected_runners=n_workers)
        created.append(executor)
        return executor

    factory.created = created
    return factory
