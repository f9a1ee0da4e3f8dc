"""Shared-memory transport for the sharded APSS backend.

The sharded backend's two remaining IPC costs were both pickle: every task
carried the prepared CSR arrays in its payload (re-unpickled per task until a
worker's memo warmed up), and every streamed slab travelled back through the
process pool's result pipe as a pickled ndarray.  This module removes both:

* **Dataset segments** — :func:`publish_dataset` copies a dataset's CSR
  arrays (``indptr``/``indices``/``data``) into
  ``multiprocessing.shared_memory`` segments once, keyed by the dataset's
  content fingerprint.  Task payloads then carry only a tiny
  :class:`SharedDatasetDescriptor` (segment names + shapes); workers
  :func:`attach_dataset` and build a zero-copy ``VectorDataset`` over the
  mapped buffers.  Published datasets are LRU-capped
  (:data:`MAX_PUBLISHED_DATASETS`) and their lifecycle is tied to the shared
  worker pools: :func:`release_all` runs on pool evict/rebuild and at
  interpreter exit, so ``/dev/shm`` is left clean.

* **Slab ring** — :class:`SlabRing` is a bounded ring of slab-sized segments
  the streaming path hands to workers as return slots.  A worker writes its
  dense slab straight into its slot (:func:`write_slab`) and returns only the
  shape; the parent *borrows* the slot (:meth:`SlabRing.borrow`): a
  read-only, zero-copy ndarray view of the mapped buffer, handed to the
  consumer in place.  A borrowed slot cannot be handed to a writer again
  (:meth:`SlabRing.slot_name` refuses) until :meth:`SlabRing.release` returns
  it.  Slot reuse is safe by construction: slot ``k % size`` is only
  resubmitted after task ``k - size`` was consumed (released),
  which the streaming generator's bounded in-flight window guarantees.

Every entry point degrades gracefully: :func:`publish_dataset` and
:class:`SlabRing` return ``None`` / raise ``OSError`` when shared memory is
unavailable (exotic platforms, a full ``/dev/shm``), and the sharded backend
falls back to the original pickle transport.  On Python < 3.13 the transport
is only enabled under the ``fork`` start method, where attach-side
registrations collapse into the parent's resource tracker; 3.13+ attaches
with ``track=False`` and supports any start method.
"""

from __future__ import annotations

import atexit
import itertools
import os
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from repro.datasets.vectors import VectorDataset

__all__ = [
    "MAX_PUBLISHED_DATASETS",
    "SEGMENT_PREFIX",
    "SharedArraySpec",
    "SharedDatasetDescriptor",
    "SlabRing",
    "active_segment_names",
    "attach_dataset",
    "attach_segment",
    "default_ring_slots",
    "pin_dataset",
    "publish_dataset",
    "published_fingerprints",
    "release_all",
    "release_dataset",
    "release_datasets",
    "transport_supported",
    "unpin_dataset",
    "write_slab",
]

#: Every segment this process creates is named ``<prefix>-<generation>-<tag>``
#: so tests (and operators) can audit ``/dev/shm`` for leaks by prefix alone.
SEGMENT_PREFIX = f"ra{os.getpid():x}"


def _reset_after_fork() -> None:  # pragma: no cover - exercised via children
    """Disown inherited parent-side state in a forked child.

    The registries hold handles the *parent* owns: a child unlinking them
    (explicitly or at exit) would tear segments out from under the parent,
    and reusing the parent's name prefix could collide with its generation
    counter.  Children start with a clean, pid-distinct transport instead.
    """
    global SEGMENT_PREFIX
    SEGMENT_PREFIX = f"ra{os.getpid():x}"
    _PUBLISHED.clear()
    _PINS.clear()
    _RINGS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)

#: How many datasets may stay published at once.  Publishing one more unlinks
#: the least recently used — workers still holding a mapping keep it alive
#: (POSIX unlink semantics) until their per-process memo moves on.
MAX_PUBLISHED_DATASETS = 4

_generation = itertools.count()


def default_ring_slots(n_workers: int) -> int:
    """The slab-ring slot budget for a pool of *n_workers*.

    One slot per in-flight streamed block, with 2x oversubscription so a
    slow shard never idles the pool.  This is the single home of the
    in-flight bound: the sharded streaming path sizes its reorder window
    (and hence its :class:`SlabRing`) from it, and the service layer's
    admission gate ties its probe-lane concurrency to the same number —
    admitting more concurrent sweeps than the ring can return slabs for
    would only queue them inside the kernel.
    """
    return max(1, 2 * int(n_workers))


def transport_supported() -> bool:
    """Whether the shared-memory transport is safe to use on this platform.

    Python 3.13+ can attach segments untracked (``track=False``) under any
    start method.  Earlier versions register attachments with the resource
    tracker, which is only benign when workers are forked (they share the
    parent's tracker, so duplicate registrations collapse); under ``spawn``
    each worker's own tracker would unlink live segments at worker exit.
    """
    if sys.version_info >= (3, 13):
        return True
    try:
        import multiprocessing

        method = multiprocessing.get_start_method(allow_none=True)
    except Exception:  # pragma: no cover - defensive
        return False
    return method in (None, "fork")


def attach_segment(name: str):
    """Attach an existing shared-memory segment without tracking it.

    Workers use this; the parent (which created the segment) keeps the
    authoritative handle and is responsible for unlinking.
    """
    from multiprocessing import shared_memory

    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


def _create_segment(tag: str, size: int):
    from multiprocessing import shared_memory

    name = f"{SEGMENT_PREFIX}-{next(_generation):x}-{tag}"
    return shared_memory.SharedMemory(name=name, create=True,
                                      size=max(1, int(size)))


@dataclass(frozen=True)
class SharedArraySpec:
    """One numpy array published as a shared-memory segment."""

    name: str
    shape: tuple
    dtype: str

    def read(self, buffer) -> np.ndarray:
        """A zero-copy ndarray view of *buffer* with this spec's layout."""
        return np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                          buffer=buffer)


@dataclass(frozen=True)
class SharedDatasetDescriptor:
    """Everything a worker needs to attach a published dataset.

    Picklable and tiny — this is the whole per-task payload once a dataset
    is published, replacing the CSR arrays themselves.
    """

    fingerprint: str
    n_features: int
    indptr: SharedArraySpec
    indices: SharedArraySpec
    data: SharedArraySpec


class _PublishedDataset:
    """Parent-side handle owning one published dataset's segments."""

    def __init__(self, dataset: VectorDataset, fingerprint: str) -> None:
        self._segments = []
        specs = {}
        try:
            for tag, array in (("p", dataset.indptr), ("i", dataset.indices),
                               ("d", dataset.data)):
                segment = _create_segment(tag, array.nbytes)
                self._segments.append(segment)
                spec = SharedArraySpec(segment.name, array.shape,
                                       array.dtype.str)
                spec.read(segment.buf)[...] = array
                specs[tag] = spec
        except BaseException:
            self.unlink()
            raise
        self.descriptor = SharedDatasetDescriptor(
            fingerprint=fingerprint, n_features=dataset.n_features,
            indptr=specs["p"], indices=specs["i"], data=specs["d"])

    def segment_names(self) -> list[str]:
        """Names of the live segments this handle owns."""
        return [segment.name for segment in self._segments]

    def unlink(self) -> None:
        """Close and unlink every segment (idempotent, error-tolerant)."""
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views linger
                pass
            try:
                segment.unlink()
            except OSError:
                pass  # a previous release (or the OS) already removed it
        self._segments = []


#: Fingerprint -> handle, in LRU order (oldest first).
_PUBLISHED: dict[str, _PublishedDataset] = {}

#: Fingerprint -> active-use count.  A pinned dataset is skipped by the LRU
#: eviction in :func:`publish_dataset`, so a long-lived stream (or an
#: in-flight search) cannot have its segments unlinked from under it by
#: other datasets being published concurrently.
_PINS: dict[str, int] = {}

#: Live parent-side slab rings, so interpreter exit can reclaim them even if
#: a streaming generator was abandoned without running its ``finally``.
_RINGS: list["SlabRing"] = []


def publish_dataset(dataset: VectorDataset,
                    fingerprint: str | None = None
                    ) -> SharedDatasetDescriptor | None:
    """Publish *dataset*'s CSR arrays to shared memory; return a descriptor.

    Idempotent per content fingerprint: a dataset already published is
    re-served (and refreshed in the LRU order) without copying again.
    Returns ``None`` when the transport is unsupported or segment creation
    fails — callers fall back to the pickle payload.
    """
    if not transport_supported():
        return None
    fingerprint = fingerprint or dataset.fingerprint()
    handle = _PUBLISHED.pop(fingerprint, None)
    if handle is not None:
        _PUBLISHED[fingerprint] = handle  # refresh recency
        return handle.descriptor
    try:
        handle = _PublishedDataset(dataset, fingerprint)
    except OSError:
        return None
    _PUBLISHED[fingerprint] = handle
    if len(_PUBLISHED) > MAX_PUBLISHED_DATASETS:
        # Evict oldest-first, but never a pinned dataset (one an active
        # stream or fan-out is still using) — the cap may be exceeded
        # temporarily rather than unlink segments out from under a user.
        for candidate in list(_PUBLISHED):
            if len(_PUBLISHED) <= MAX_PUBLISHED_DATASETS:
                break
            if _PINS.get(candidate) or candidate == fingerprint:
                continue  # in use, or the descriptor being returned right now
            _PUBLISHED.pop(candidate).unlink()
    return handle.descriptor


def pin_dataset(fingerprint: str) -> None:
    """Protect a published dataset from LRU eviction while in use."""
    _PINS[fingerprint] = _PINS.get(fingerprint, 0) + 1


def unpin_dataset(fingerprint: str) -> None:
    """Release one :func:`pin_dataset` hold (unknown fingerprints are fine)."""
    count = _PINS.get(fingerprint, 0) - 1
    if count > 0:
        _PINS[fingerprint] = count
    else:
        _PINS.pop(fingerprint, None)


def release_dataset(fingerprint: str) -> None:
    """Unlink one published dataset (missing fingerprints are fine)."""
    handle = _PUBLISHED.pop(fingerprint, None)
    if handle is not None:
        handle.unlink()


def release_datasets() -> None:
    """Unlink every *idle* published dataset (pinned ones and rings survive).

    The hook the sharded backend runs when a broken pool is evicted and
    rebuilt: idle dataset segments are republishable on demand, whereas a
    pinned dataset or a live stream's ring belongs to an active user —
    possibly on a different, healthy pool — and must survive an unrelated
    pool's death.
    """
    for fingerprint in list(_PUBLISHED):
        if not _PINS.get(fingerprint):
            _PUBLISHED.pop(fingerprint).unlink()


def release_all() -> None:
    """Unlink every published dataset and any live slab ring, drop all pins.

    The full teardown, wired to ``reset_shared_pools()`` and to interpreter
    exit: no segment outlives the process that created it.  A stream still
    running across this call fails loudly on its next ring access (see
    :class:`SlabRing`) rather than computing on unlinked memory.
    """
    _PINS.clear()  # before releasing: the full teardown overrides pins
    release_datasets()
    while _RINGS:
        _RINGS.pop().close()


def published_fingerprints() -> list[str]:
    """Fingerprints currently published, oldest first."""
    return list(_PUBLISHED)


def active_segment_names() -> list[str]:
    """Names of every live segment this process owns (datasets + rings)."""
    names = [name for handle in _PUBLISHED.values()
             for name in handle.segment_names()]
    for ring in _RINGS:
        names.extend(ring.segment_names())
    return names


atexit.register(release_all)


# --------------------------------------------------------------------- #
# Slab-return ring
# --------------------------------------------------------------------- #

class _SlotGuard:
    """Keeps one ring slot's mapping alive while borrowed views reference it.

    numpy does not hold a buffer export on ``segment.buf`` (it copies the
    pointer and releases the ``Py_buffer`` immediately), so neither
    ``SharedMemory.close()`` nor the object's ``__del__`` knows a view is
    still reading the mapping — an eager close would unmap under the view
    and turn a stale read into a segfault.  The guard counts live views via
    ``weakref.finalize`` and defers the actual ``close()`` until the ring
    has retired the slot *and* the last view has been garbage-collected.
    """

    def __init__(self, segment) -> None:
        self.segment = segment
        self.live_views = 0
        self.retired = False

    def track(self, view: np.ndarray) -> None:
        """Register *view* as a live reader of this slot's mapping."""
        self.live_views += 1
        weakref.finalize(view, self.view_dropped)

    def view_dropped(self) -> None:
        """Finalizer hook: a tracked view was garbage-collected."""
        self.live_views -= 1
        self._maybe_close()

    def retire(self) -> None:
        """Ring-side teardown: close the mapping once no view needs it."""
        self.retired = True
        self._maybe_close()

    def _maybe_close(self) -> None:
        if self.retired and self.live_views <= 0:
            try:
                self.segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass


class SlabRing:
    """A bounded ring of slab-sized segments used as worker return slots.

    One slot per in-flight streamed block: the streaming generator keeps at
    most ``n_slots`` tasks pending and consumes them in submission order, so
    slot ``k % n_slots`` is free by the time task ``k`` is submitted.
    Construction raises ``OSError`` when the segments cannot be created
    (callers fall back to pickled slab returns).
    """

    def __init__(self, n_slots: int, slot_bytes: int) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        self._segments = []
        self._borrowed: set[int] = set()
        self._guards: dict[int, _SlotGuard] = {}
        try:
            for _ in range(n_slots):
                self._segments.append(_create_segment("s", slot_bytes))
        except BaseException:
            self.close()
            raise
        _RINGS.append(self)

    def _slot(self, index: int):
        if not self._segments:
            raise RuntimeError(
                "slab ring is closed (released by reset_shared_pools() or "
                "interpreter teardown while the stream was still running)")
        return self._segments[index % len(self._segments)]

    def slot_name(self, index: int) -> str:
        """The segment name task *index* must write its slab into.

        Refuses while the slot is borrowed: handing a writer a slot whose
        read-only view a consumer still holds would mutate data under the
        consumer, the exact bug the borrow protocol exists to prevent.
        """
        segment = self._slot(index)
        if index % len(self._segments) in self._borrowed:
            raise RuntimeError(
                f"ring slot {index % len(self._segments)} is still borrowed; "
                f"release() it before it can be written again")
        return segment.name

    def borrow(self, index: int, shape: tuple) -> np.ndarray:
        """A read-only, zero-copy view of task *index*'s slab.

        The slot stays out of circulation — :meth:`slot_name` refuses it and
        a second :meth:`borrow` raises — until :meth:`release` returns it.
        The view is marked non-writable: borrowers are readers by contract,
        and an accidental in-place update raises instead of corrupting a
        buffer another task may rewrite later.
        """
        segment = self._slot(index)
        slot = index % len(self._segments)
        if slot in self._borrowed:
            raise RuntimeError(f"ring slot {slot} is already borrowed")
        view = np.ndarray(shape, dtype=np.float64, buffer=segment.buf)
        view.flags.writeable = False
        self._borrowed.add(slot)
        guard = self._guards.get(slot)
        if guard is None:
            guard = self._guards[slot] = _SlotGuard(segment)
        guard.track(view)
        return view

    def release(self, index: int) -> None:
        """Return a borrowed slot to circulation.

        Raises on a slot that is not borrowed — a double release is a
        lifecycle bug upstream (the view may already be aliased by a new
        writer) and must fail loudly, not late.
        """
        if not self._segments:
            raise RuntimeError(
                "slab ring is closed (released by reset_shared_pools() or "
                "interpreter teardown while the stream was still running)")
        slot = index % len(self._segments)
        if slot not in self._borrowed:
            raise RuntimeError(f"ring slot {slot} is not borrowed")
        self._borrowed.discard(slot)

    def is_borrowed(self, index: int) -> bool:
        """Whether task *index*'s slot is currently borrowed."""
        if not self._segments:
            return False
        return index % len(self._segments) in self._borrowed

    def borrowed_slots(self) -> list[int]:
        """Currently borrowed slot numbers, ascending (audit/test hook)."""
        return sorted(self._borrowed)

    def release_borrows(self) -> None:
        """Drop every outstanding borrow (abandoned-stream cleanup path)."""
        self._borrowed.clear()

    def segment_names(self) -> list[str]:
        """Names of the ring's live segments."""
        return [segment.name for segment in self._segments]

    def close(self) -> None:
        """Close and unlink every slot (idempotent).

        Outstanding borrows are dropped first: no new borrow or write can
        target the ring after this.  Slots that were ever borrowed are
        *unlinked but not eagerly unmapped* — their :class:`_SlotGuard`
        closes the mapping only after the last borrowed view is
        garbage-collected, so a consumer that (against the contract)
        retained a view past the stream sees stale data, never a segfault.
        Unlinking removes the ``/dev/shm`` name immediately either way, so
        the leak oracle stays clean.  Callers streaming through worker
        processes must quiesce in-flight writers before closing — see
        ``iter_similarity_blocks_sharded`` — or a worker may find its slot
        unlinked mid-write.
        """
        self.release_borrows()
        if self in _RINGS:
            _RINGS.remove(self)
        for slot, segment in enumerate(self._segments):
            guard = self._guards.get(slot)
            if guard is None:
                try:
                    segment.close()
                except BufferError:  # pragma: no cover - exported views linger
                    pass
            else:
                guard.retire()
            try:
                segment.unlink()
            except OSError:
                pass
        self._segments = []
        self._guards = {}


def write_slab(slot_name: str, slab: np.ndarray) -> tuple:
    """Worker-side: write *slab* into the ring slot *slot_name*.

    Returns the slab's shape — the only thing that still travels back
    through the result pipe (the parent validates it before reading).
    """
    segment = attach_segment(slot_name)
    view = None
    try:
        view = np.ndarray(slab.shape, dtype=np.float64, buffer=segment.buf)
        view[...] = slab
    finally:
        view = None  # release the exported buffer before closing the mapping
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views linger
            pass
    return tuple(slab.shape)


def attach_dataset(descriptor: SharedDatasetDescriptor
                   ) -> tuple[VectorDataset, list]:
    """Worker-side: rebuild a zero-copy ``VectorDataset`` from a descriptor.

    Returns ``(dataset, segments)``; the caller must keep *segments*
    referenced for as long as the dataset (or anything sliced from it) is
    used — the arrays are views into the mapped buffers.
    """
    segments = []
    arrays = []
    try:
        for spec in (descriptor.indptr, descriptor.indices, descriptor.data):
            segment = attach_segment(spec.name)
            segments.append(segment)
            arrays.append(spec.read(segment.buf))
    except BaseException:
        for segment in segments:
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass
        raise
    dataset = VectorDataset(arrays[0], arrays[1], arrays[2],
                            descriptor.n_features)
    return dataset, segments
