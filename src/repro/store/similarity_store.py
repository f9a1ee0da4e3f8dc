"""The persistent similarity store: disk-backed, versioned APSS knowledge.

PLASMA-HD's interactive loop feels instant because nothing a previous probe
paid for is recomputed — but process-lifetime caches forget everything on
exit.  ``SimilarityStore`` is the disk-backed layer underneath them: a
directory of self-validating entries holding

* **pair sets** — :class:`~repro.similarity.engine.EngineResult` floors, the
  unit :class:`~repro.similarity.cache.CachedApssEngine` spills and restores
  (large clustered floors are stored *factorised* — clique summaries +
  bipartite blocks + residual, :mod:`repro.store.pairsets` — and
  decompressed bit-identically on load);
* **reducer state** — the mergeable ``state()`` payloads of the streaming
  reducers (histogram, top-k, rank-selection sketch);
* **sketch matrices** — per-row LSH sketches, so a reopened session skips
  the sketch-generation phase entirely;
* **session state** — serialized :class:`~repro.core.knowledge_cache.KnowledgeCache`
  contents, so interactive sessions resume across processes.

Entries are keyed by content: every key embeds the dataset *fingerprint*
(plus measure/backend/options), so a mutated dataset can never be served
stale state — it simply hashes to a different entry.

Durability contract
-------------------
* **Atomic writes**: entries are written to a temp file in the same
  directory and ``os.replace``-d into place, so concurrent readers (or a
  crash mid-write) can never observe a half-written entry.
* **Self-validation**: each entry carries a magic string, a schema version,
  its full key and a SHA-256 checksum of the payload.  A corrupt, truncated,
  schema-incompatible or key-colliding entry is *evicted on read* — deleted
  and treated as a miss, never trusted — and every eviction emits a
  structured ``repro.store`` warning naming the key and the failure kind.
* **Multi-process safety**: two processes may open the same store directory;
  writes race benignly (last atomic replace wins, both contents valid) and
  eviction races are tolerated.

MVCC lineage layer
------------------
Entry-level atomicity is not lineage-level consistency: a reader sweeping a
fingerprint lineage (parent → append → append …) still races ingest between
lookups.  The versioned manifest (:mod:`repro.store.manifest`) closes that
gap: :meth:`SimilarityStore.publish_floor` lands floors as immutable
``lineage/`` entries recorded in an atomically-published manifest, and
:meth:`SimilarityStore.open_snapshot` returns a :class:`StoreSnapshot`
pinned to one manifest version — immune to concurrent ingest,
:meth:`~SimilarityStore.compact` and :meth:`~SimilarityStore.gc`.  The
manifest doubles as the cross-host replication unit
(:meth:`~SimilarityStore.export_snapshot` /
:meth:`~SimilarityStore.attach_snapshot`).
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.similarity.engine import EngineResult
from repro.similarity.types import SimilarPair
from repro.store.pairsets import (
    FactorizedPairSet,
    StoredPairSet,
    maybe_factorize,
)
from repro.store.manifest import (
    FloorRef,
    GenerationRecord,
    LineageLog,
    Manifest,
    floor_axis,
    lineage_entry_key,
)

__all__ = ["SimilarityStore", "StoreSnapshot", "StoreAttachError",
           "STORE_ENV_VAR", "SCHEMA_VERSION"]

#: Environment variable naming a store directory; when set, the similarity
#: caches attach a persistent store automatically (the CI persistence lane
#: exercises the whole suite this way: ``REPRO_APSS_STORE=$(mktemp -d)``).
STORE_ENV_VAR = "REPRO_APSS_STORE"

#: Bump when the on-disk entry layout changes; older entries are evicted.
SCHEMA_VERSION = 1

_MAGIC = b"REPRO-SIMSTORE\n"

_LOGGER = logging.getLogger("repro.store")

#: Entry kinds enumerated by :meth:`SimilarityStore.entry_count` by default.
_ENTRY_KINDS = ("pairs", "pairs-factorized", "reducers", "sketches",
                "sessions", "lineage")

#: The two entry kinds a floor may live under; checked in this order
#: (factorised entries supersede raw ones for the same key).
_FLOOR_KINDS = ("pairs-factorized", "pairs")


class StoreAttachError(RuntimeError):
    """A store directory could not be attached (missing, unwritable, or —
    for :meth:`SimilarityStore.attach_snapshot` — failing validation)."""


def _key_digest(key: tuple) -> str:
    return hashlib.sha1(repr(key).encode()).hexdigest()


def _read_header(handle, kind: str, key: tuple | None) -> dict:
    """Parse and check the header of the entry open in *handle*.

    Checks magic, header parse, schema version and the recorded kind and
    key (*key* ``None`` skips the key check, for audits that only know the
    kind), raising ``ValueError`` on any failure.  Leaves *handle* at the
    first payload byte.
    """
    if handle.read(len(_MAGIC)) != _MAGIC:
        raise ValueError("bad magic")
    try:
        header = json.loads(handle.readline())
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparsable header: {exc}") from exc
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"schema {header.get('schema')!r} != "
                         f"{SCHEMA_VERSION}")
    if header.get("kind") != kind or (key is not None
                                      and header.get("key") != repr(key)):
        raise ValueError("entry kind/key does not match lookup")
    return header


def _pairs_arrays(pairs) -> dict:
    """CSR-style arrays for a pair list, the payload of a floor entry."""
    return {
        "first": np.array([p.first for p in pairs], dtype=np.int64),
        "second": np.array([p.second for p in pairs], dtype=np.int64),
        "similarity": np.array([p.similarity for p in pairs]),
    }


def _arrays_pairs(arrays) -> list[SimilarPair]:
    """Inverse of :func:`_pairs_arrays`."""
    return [SimilarPair(int(i), int(j), float(v))
            for i, j, v in zip(arrays["first"].tolist(),
                               arrays["second"].tolist(),
                               arrays["similarity"].tolist())]


def _floor_entry_pairs(arrays: dict, meta: dict) -> list[SimilarPair]:
    """Decode a floor entry payload — raw or factorised — to a pair list.

    The one decode seam shared by entry loads and lineage resolution: a
    payload whose meta carries ``encoding == "factorized"`` is run through
    the full structural validation of
    :meth:`~repro.store.pairsets.FactorizedPairSet.from_arrays` (raising
    ``ValueError`` on any inconsistency, which callers turn into
    evict-and-miss), everything else is the raw parallel-array layout.
    """
    if meta.get("encoding") == "factorized":
        pairset = FactorizedPairSet.from_arrays(
            arrays, threshold=float(meta.get("threshold", 0.0)))
        return pairset.pairs()
    return _arrays_pairs(arrays)


class SimilarityStore:
    """A directory of checksummed, schema-versioned similarity-state entries.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Entries live in
        per-kind subdirectories (``pairs/``, ``pairs-factorized/``,
        ``reducers/``, ``sketches/``, ``sessions/``, plus the
        manifest-managed ``lineage/``), one file per key.  A floor lives
        under exactly one of ``pairs``/``pairs-factorized`` depending on
        whether clique-based compression paid for it (see
        :mod:`repro.store.pairsets`).

    Attributes
    ----------
    hits, misses:
        Entry-level lookup counters.
    evictions:
        Entries deleted because they failed validation (corruption, schema
        mismatch, key mismatch) — each one was refused, never trusted.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lineage: LineageLog | None = None

    @classmethod
    def from_env(cls) -> "SimilarityStore | None":
        """The store named by ``REPRO_APSS_STORE``, or ``None`` when unset.

        Validates eagerly: a path that cannot be created, or that is not a
        writable directory, raises :class:`StoreAttachError` here — at
        attach time, naming the environment variable — instead of failing
        opaquely on the first spill deep inside a search.
        """
        root = os.environ.get(STORE_ENV_VAR, "").strip()
        if not root:
            return None
        try:
            store = cls(root)
            # Probe writability now: the first real write happens much
            # later, inside a search, where the failure would be opaque.
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=store.root)
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise StoreAttachError(
                f"{STORE_ENV_VAR} names {root!r}, which is not a usable "
                f"store directory: {exc}") from exc
        return store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityStore(root={str(self.root)!r})"

    # ------------------------------------------------------------------ #
    # Raw entry machinery
    # ------------------------------------------------------------------ #
    def _path(self, kind: str, key: tuple) -> Path:
        return self.root / kind / f"{_key_digest(key)}.entry"

    def put(self, kind: str, key: tuple, arrays: dict, meta: dict) -> Path:
        """Atomically write one entry of numpy *arrays* plus JSON *meta*."""
        buffer = io.BytesIO()
        np.savez(buffer, **{name: np.asarray(value)
                            for name, value in arrays.items()})
        payload = buffer.getvalue()
        header = json.dumps({
            "schema": SCHEMA_VERSION,
            "kind": kind,
            "key": repr(key),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "meta": meta,
        }, default=float).encode()
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_MAGIC + header + b"\n" + payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def read_entry_file(self, path: Path, kind: str,
                        key: tuple | None) -> tuple[dict, dict]:
        """Load and fully validate the entry at *path*; raises on failure.

        The validation core shared by :meth:`get`, the snapshot resolver
        and the ``fsck`` auditor (which passes ``key=None``: it knows only
        the kind): checks magic, header parse, schema version, recorded
        kind/key, payload length, SHA-256 checksum and payload decode,
        raising ``ValueError`` (or propagating ``OSError`` for an
        unreadable file) instead of evicting — eviction policy is the
        caller's.
        """
        with open(path, "rb") as handle:
            header = _read_header(handle, kind, key)
            payload = handle.read()
        if len(payload) != header.get("payload_bytes"):
            raise ValueError("payload truncated")
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            raise ValueError("payload checksum mismatch")
        try:
            with np.load(io.BytesIO(payload)) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception as exc:
            raise ValueError(f"undecodable payload: {exc}") from exc
        return arrays, header.get("meta", {})

    def get(self, kind: str, key: tuple) -> tuple[dict, dict] | None:
        """Load and validate an entry; returns ``(arrays, meta)`` or ``None``.

        Any validation failure — bad magic, unparsable header, schema or key
        mismatch, checksum mismatch, undecodable payload — evicts the entry
        and reports a miss, with a structured warning on the
        ``repro.store`` logger naming the key and the failure kind.  Stale
        state is deleted, never served.
        """
        path = self._path(kind, key)
        try:
            return self.read_entry_file(path, kind, key)
        except OSError:
            self.misses += 1
            return None
        except ValueError as exc:
            # Corrupt or incompatible: evict so the next write starts clean.
            self._evict(path, kind=kind, key=key, failure=str(exc))
            self.misses += 1
            return None

    def _evict(self, path: Path, *, kind: str = "?", key: tuple = (),
               failure: str = "validation failure") -> None:
        _LOGGER.warning(
            "evicting store entry that failed validation: kind=%s key=%s "
            "failure=%r path=%s", kind, key, failure, path)
        try:
            path.unlink()
        except OSError:
            pass  # a concurrent process already evicted or replaced it
        self.evictions += 1

    def delete(self, kind: str, key: tuple) -> None:
        """Drop one entry (missing entries are fine)."""
        try:
            self._path(kind, key).unlink()
        except OSError:
            pass

    def entry_count(self, kind: str | None = None) -> int:
        """Number of entries on disk (of one *kind*, or overall)."""
        kinds = [kind] if kind else list(_ENTRY_KINDS)
        return sum(len(list((self.root / k).glob("*.entry")))
                   for k in kinds if (self.root / k).is_dir())

    def stats(self) -> dict:
        """Entry counts and on-disk bytes per kind, plus lineage bytes.

        The observability face of the store: ``kinds`` maps each entry
        kind to ``{"entries", "bytes"}`` (so the raw-vs-factorised split —
        and therefore the compression win — is visible in serving, not
        just in benchmarks), ``entries``/``bytes`` are the totals,
        ``lineage_bytes`` additionally counts the manifest files, and
        ``evictions`` is the lifetime validation-failure count.
        Surfaced through :meth:`SimilarityService.health`.
        """
        kinds: dict[str, dict] = {}
        total_entries = 0
        total_bytes = 0
        for kind in _ENTRY_KINDS:
            directory = self.root / kind
            entries = 0
            n_bytes = 0
            if directory.is_dir():
                for path in directory.glob("*.entry"):
                    try:
                        size = path.stat().st_size
                    except OSError:
                        continue  # concurrently evicted or replaced
                    entries += 1
                    n_bytes += size
            kinds[kind] = {"entries": entries, "bytes": n_bytes}
            total_entries += entries
            total_bytes += n_bytes
        return {
            "kinds": kinds,
            "entries": total_entries,
            "bytes": total_bytes,
            "lineage_bytes": self.lineage_bytes(),
            "evictions": self.evictions,
        }

    # ------------------------------------------------------------------ #
    # Pair-set entries (EngineResult floors)
    # ------------------------------------------------------------------ #
    def save_result(self, key: tuple, result: EngineResult) -> None:
        """Persist an engine-result floor under *key*.

        Only the pair arrays and the scalar result fields are stored;
        ``details`` carries live backend objects and is deliberately not
        persisted — except the *approximate flavour* header: a non-exact
        floor records its ``epsilon`` false-negative budget so readers can
        reconstruct the recall bound (1 − ε) the entry was served under.

        Large clustered floors land as a ``pairs-factorized`` entry
        (clique + block + residual compression, see
        :mod:`repro.store.pairsets`) when
        :func:`~repro.store.pairsets.maybe_factorize`'s size heuristic
        says it pays, and as a raw ``pairs`` entry otherwise; the sibling
        kind under the same key is dropped either way, so at most one
        representation of a floor exists.  Loading is transparent in both
        directions.
        """
        meta = {
            "backend": result.backend,
            "measure": result.measure,
            "threshold": result.threshold,
            "n_rows": result.n_rows,
            "exact": result.exact,
            "n_candidates": result.n_candidates,
            "n_pruned": result.n_pruned,
        }
        if not result.exact:
            epsilon = result.details.get("epsilon")
            if epsilon is not None:
                meta["epsilon"] = float(epsilon)
        arrays = _pairs_arrays(result.pairs)
        pairset = None
        try:
            pairset = maybe_factorize(
                arrays["first"], arrays["second"], arrays["similarity"],
                n_rows=result.n_rows, threshold=result.threshold)
        except ValueError:
            # Factorisation is an optimisation: a floor it cannot encode
            # (unsorted, duplicated, out-of-range pairs) stays raw.
            pairset = None
        if pairset is not None:
            meta["encoding"] = "factorized"
            self.put("pairs-factorized", key, pairset.to_arrays(), meta)
            self.delete("pairs", key)
        else:
            self.put("pairs", key, arrays, meta)
            self.delete("pairs-factorized", key)

    def _floor_location(self, key: tuple) -> str | None:
        """Which entry kind holds the floor for *key* on disk, if any."""
        for kind in _FLOOR_KINDS:
            if self._path(kind, key).is_file():
                return kind
        return None

    def load_result(self, key: tuple) -> EngineResult | None:
        """Restore an engine-result floor, or ``None`` on miss/invalid.

        Serves raw and factorised entries alike: a ``pairs-factorized``
        entry is structurally validated and decompressed to the identical
        canonical pair list — zero kernel work, and callers cannot tell
        the representations apart.
        """
        kind = self._floor_location(key)
        if kind is None:
            self.misses += 1
            return None
        loaded = self.get(kind, key)
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            details: dict = {}
            if not meta["exact"] and meta.get("epsilon") is not None:
                epsilon = float(meta["epsilon"])
                details = {"epsilon": epsilon,
                           "recall_bound": 1.0 - epsilon}
            result = EngineResult(
                backend=str(meta["backend"]), measure=str(meta["measure"]),
                threshold=float(meta["threshold"]), n_rows=int(meta["n_rows"]),
                pairs=_floor_entry_pairs(arrays, meta),
                exact=bool(meta["exact"]),
                seconds=0.0,
                n_candidates=int(meta.get("n_candidates", 0)),
                n_pruned=int(meta.get("n_pruned", 0)),
                details=details)
        except (KeyError, TypeError, ValueError) as exc:
            self._evict(self._path(kind, key), kind=kind, key=key,
                        failure=f"malformed floor entry: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return result

    def load_pairset(self, key: tuple) -> StoredPairSet | None:
        """The floor for *key* in streamable (factorised) form, or ``None``.

        Unlike :meth:`load_result` this never materialises the pair list:
        a ``pairs-factorized`` entry hands back its compressed parts
        directly, and a raw ``pairs`` entry is wrapped residual-only —
        either way the caller streams
        :meth:`~repro.store.pairsets.FactorizedPairSet.iter_pairs` /
        ``iter_chunks`` at any threshold at or above the stored floor's.
        Malformed entries are evicted and reported as a miss, exactly as
        :meth:`load_result` does.
        """
        kind = self._floor_location(key)
        if kind is None:
            self.misses += 1
            return None
        loaded = self.get(kind, key)
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            threshold = float(meta["threshold"])
            n_rows = int(meta["n_rows"])
            if kind == "pairs-factorized":
                pairset = FactorizedPairSet.from_arrays(
                    arrays, threshold=threshold)
                if pairset.n_rows != n_rows:
                    raise ValueError("factorized floor row count disagrees "
                                     "with entry meta")
                encoding = "factorized"
            else:
                pairset = FactorizedPairSet.from_raw_arrays(
                    arrays["first"], arrays["second"], arrays["similarity"],
                    n_rows=n_rows, threshold=threshold)
                encoding = "raw"
            stored = StoredPairSet(
                pairset=pairset, threshold=threshold, n_rows=n_rows,
                exact=bool(meta["exact"]), backend=str(meta["backend"]),
                measure=str(meta["measure"]), encoding=encoding)
        except (KeyError, TypeError, ValueError) as exc:
            self._evict(self._path(kind, key), kind=kind, key=key,
                        failure=f"malformed floor entry: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return stored

    def _held_floor(self, key: tuple) -> tuple[bool, float] | None:
        """``(exact, threshold)`` of the floor under *key*, from its header.

        ``None`` — so a landing overwrites, and thereby repairs, the
        entry — when there is no file, the header fails
        :func:`_read_header`, or the file size is not magic + header + the
        recorded ``payload_bytes``.  The payload is never read.
        """
        kind = self._floor_location(key)
        if kind is None:
            return None
        try:
            with open(self._path(kind, key), "rb") as handle:
                header = _read_header(handle, kind, key)
                if (os.fstat(handle.fileno()).st_size
                        != handle.tell() + header["payload_bytes"]):
                    return None
            meta = header["meta"]
            return bool(meta["exact"]), float(meta["threshold"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def land_result(self, key: tuple, result: EngineResult) -> bool:
        """Write a floor under *key* iff it never downgrades the entry.

        The store-boundary mirror of :class:`~repro.core.knowledge_cache.
        KnowledgeCache`'s upgrade-only contract, and the seam the two-tier
        serving path lands through.  The entry under one key only ever
        moves *up* the lattice:

        * no entry → anything lands;
        * **approximate → exact lands unconditionally** (the refinement
          upgrade, regardless of threshold — exactness outranks floor
          looseness, exactly as an exact knowledge-cache entry outranks
          any estimate);
        * **exact → approximate is refused** (the downgrade direction);
        * same flavour → only a strictly looser floor lands (the
          long-standing sweep-cache rule).

        The decision reads only the held entry's header (its ``exact``
        and ``threshold``), never its payload, so a refused landing costs
        one small read.  A file whose size disagrees with its header's
        ``payload_bytes`` (truncated or padded) counts as no entry and is
        overwritten at once.  Payload bit flips that keep the size are
        left to the checksum: the next :meth:`load_result` evicts the
        entry, and the landing after that writes.  Returns whether the
        entry was written.
        """
        held = self._held_floor(key)
        if held is not None:
            exact, threshold = held
            if exact and not result.exact:
                return False
            if exact == result.exact and threshold <= result.threshold:
                return False
        self.save_result(key, result)
        return True

    # ------------------------------------------------------------------ #
    # Reducer-state entries (mergeable state() dicts)
    # ------------------------------------------------------------------ #
    def save_reducer(self, key: tuple, state: dict) -> None:
        """Persist one mergeable reducer ``state()`` dict under *key*."""
        arrays = {name: value for name, value in state.items()
                  if isinstance(value, np.ndarray)}
        scalars = {name: value for name, value in state.items()
                   if not isinstance(value, np.ndarray)}
        self.put("reducers", key, arrays, {"scalars": scalars})

    def load_reducer(self, key: tuple) -> dict | None:
        """Restore a reducer ``state()`` dict, or ``None`` on miss/invalid."""
        loaded = self.get("reducers", key)
        if loaded is None:
            return None
        arrays, meta = loaded
        state = dict(arrays)
        state.update(meta.get("scalars", {}))
        self.hits += 1
        return state

    # ------------------------------------------------------------------ #
    # Sketch entries
    # ------------------------------------------------------------------ #
    def save_sketches(self, key: tuple, sketches: np.ndarray) -> None:
        """Persist a per-row LSH sketch matrix under *key*."""
        self.put("sketches", key, {"sketches": np.asarray(sketches)}, {})

    def load_sketches(self, key: tuple) -> np.ndarray | None:
        """Restore a sketch matrix, or ``None`` on miss/invalid."""
        loaded = self.get("sketches", key)
        if loaded is None:
            return None
        self.hits += 1
        return loaded[0]["sketches"]

    # ------------------------------------------------------------------ #
    # Session entries (serialized knowledge caches)
    # ------------------------------------------------------------------ #
    def save_session(self, key: tuple, state: dict) -> None:
        """Persist a :meth:`KnowledgeCache.state` payload under *key*."""
        arrays = {name: value for name, value in state.items()
                  if isinstance(value, np.ndarray)}
        scalars = {name: value for name, value in state.items()
                   if not isinstance(value, np.ndarray)}
        self.put("sessions", key, arrays, {"scalars": scalars})

    def load_session(self, key: tuple) -> dict | None:
        """Restore a session's knowledge-cache state, or ``None`` on miss."""
        loaded = self.get("sessions", key)
        if loaded is None:
            return None
        arrays, meta = loaded
        state = dict(arrays)
        state.update(meta.get("scalars", {}))
        self.hits += 1
        return state

    # ------------------------------------------------------------------ #
    # MVCC lineage: manifest, snapshots, compaction, GC
    # ------------------------------------------------------------------ #
    @property
    def lineage(self) -> LineageLog:
        """The store's manifest log (created lazily on first use)."""
        if self._lineage is None:
            self._lineage = LineageLog(self.root)
        return self._lineage

    def manifest(self) -> Manifest:
        """The current (unpinned) manifest; version 0 when no lineage."""
        return self.lineage.current()

    def open_snapshot(self, *, pin: bool = True) -> "StoreSnapshot":
        """An immutable read view pinned to the current manifest version.

        The snapshot's floors are immune to concurrent ingest, compaction
        and GC for as long as it is open: its pin is a lease
        (flock-backed, released automatically on process death — SIGKILL
        included) that :meth:`gc` honours.  Pass ``pin=False`` (or open on
        a read-only directory, where pinning degrades automatically) for an
        unpinned view — consistent, but not protected from a concurrent
        GC.
        """
        if pin:
            try:
                lease, manifest = self.lineage.pin()
                return StoreSnapshot(self, manifest, lease)
            except OSError:
                _LOGGER.debug("store %s is not writable; opening an "
                              "unpinned snapshot", self.root)
        return StoreSnapshot(self, self.lineage.current(), None)

    def _write_lineage_floor(self, entry_key: tuple, result: EngineResult,
                             *, kind: str, sequence: int,
                             parent_rows: int | None = None) -> FloorRef:
        """Write one immutable lineage floor entry; returns its reference."""
        pairs = result.pairs
        meta = {
            "floor": kind, "backend": result.backend,
            "measure": result.measure, "threshold": result.threshold,
            "n_rows": result.n_rows, "exact": result.exact,
        }
        if kind == "delta":
            pairs = [p for p in pairs if p.second >= parent_rows]
            meta["parent_rows"] = int(parent_rows)
        arrays = _pairs_arrays(pairs)
        pairset = None
        try:
            pairset = maybe_factorize(
                arrays["first"], arrays["second"], arrays["similarity"],
                n_rows=result.n_rows, threshold=result.threshold)
        except ValueError:
            pairset = None  # unencodable floors stay raw (see save_result)
        if pairset is not None:
            meta["encoding"] = "factorized"
            arrays = pairset.to_arrays()
        path = self.put("lineage", entry_key, arrays, meta)
        return FloorRef(file=str(path.relative_to(self.root)), kind=kind,
                        threshold=float(result.threshold),
                        sequence=int(sequence))

    def publish_floor(self, key: tuple, result: EngineResult,
                      delta=None) -> Manifest:
        """Land a floor in the versioned lineage (and the legacy entry dir).

        *key* is the sweep-cache floor key ``(fingerprint, measure,
        backend, options)``.  With *delta* (a
        :class:`~repro.datasets.vectors.DatasetDelta` tying this result to
        its append parent) and the parent generation already carrying a
        floor at or below this threshold on the same axis, only the pairs
        the append introduced are written (a ``delta`` entry); otherwise
        the full pair set lands.  Either way the successor manifest is
        published atomically, so concurrent snapshot readers keep seeing
        exactly their pinned version.

        The legacy ("latest floor") entry goes through
        :meth:`land_result`'s upgrade-only contract.  **Approximate
        results never enter the lineage**: a delta chain of estimates has
        no coherent merge semantics (each link drops a different ε-budget
        of pairs), so the sketch tier lives entirely in the mutable entry
        dir and the MVCC manifest stays a record of exact floors only.
        """
        landed = self.land_result(key, result)
        if not result.exact or not landed:
            return self.lineage.current()
        fingerprint = str(key[0])
        axis = floor_axis(key)
        if delta is not None and (not result.exact
                                  or delta.child_fingerprint != fingerprint):
            delta = None
        with self.lineage.lock():
            current = self.lineage.current()
            sequence = current.version + 1
            record = current.generation(fingerprint)
            parent_link = record.parent if record is not None else None
            as_delta = False
            if delta is not None:
                parent_rec = current.generation(delta.parent_fingerprint)
                parent_ref = (parent_rec.floors.get(axis)
                              if parent_rec is not None else None)
                if (parent_ref is not None
                        and parent_ref.threshold <= result.threshold
                        and parent_rec.n_rows == delta.parent_rows
                        and parent_link in (None, delta.parent_fingerprint)):
                    as_delta = True
                    parent_link = delta.parent_fingerprint
            entry_key = lineage_entry_key(sequence, fingerprint, axis)
            if as_delta:
                ref = self._write_lineage_floor(
                    entry_key, result, kind="delta", sequence=sequence,
                    parent_rows=delta.parent_rows)
            else:
                ref = self._write_lineage_floor(
                    entry_key, result, kind="full", sequence=sequence)
            floors = dict(record.floors) if record is not None else {}
            floors[axis] = ref
            updated = GenerationRecord(
                fingerprint=fingerprint, parent=parent_link,
                n_rows=int(result.n_rows),
                sequence=record.sequence if record is not None else sequence,
                floors=floors)
            generations = [g for g in current.generations
                           if g.fingerprint != fingerprint] + [updated]
            successor = current.replace(generations)
            self.lineage._write_manifest(successor)
            self.lineage._point_current(successor.version)
            return successor

    def publish_generation(self, fingerprint: str, *, parent: str | None,
                           n_rows: int,
                           parent_rows: int | None = None) -> Manifest:
        """Record a (possibly floor-less) generation in the lineage.

        The ingest-side half of the snapshot seam:
        :meth:`~repro.core.session.PlasmaSession.extend_dataset` publishes
        the appended dataset here the moment it exists, so snapshots
        opened afterwards see the new generation even before its first
        floor lands.  A missing *parent* generation is created floor-less
        (with *parent_rows* rows) so the chain is never dangling.
        """
        with self.lineage.lock():
            current = self.lineage.current()
            sequence = current.version + 1
            generations = list(current.generations)
            if parent is not None and current.generation(parent) is None:
                generations.append(GenerationRecord(
                    fingerprint=str(parent), parent=None,
                    n_rows=int(parent_rows or 0), sequence=sequence,
                    floors={}))
            record = current.generation(fingerprint)
            if record is not None:
                if record.parent == parent:
                    return current  # already recorded: no-op publish
                updated = GenerationRecord(
                    fingerprint=record.fingerprint,
                    parent=parent if record.parent is None else record.parent,
                    n_rows=record.n_rows, sequence=record.sequence,
                    floors=record.floors)
                generations = [g for g in generations
                               if g.fingerprint != fingerprint] + [updated]
            else:
                generations.append(GenerationRecord(
                    fingerprint=str(fingerprint), parent=parent,
                    n_rows=int(n_rows), sequence=sequence, floors={}))
            successor = current.replace(generations)
            self.lineage._write_manifest(successor)
            self.lineage._point_current(successor.version)
            return successor

    def _resolve_manifest_floor(self, manifest: Manifest, fingerprint: str,
                                axis: str) -> EngineResult | None:
        """Reconstruct the floor for (*fingerprint*, *axis*) in *manifest*.

        Walks the delta chain child-ward to the nearest ``full`` floor and
        merges by pure pair arithmetic — no kernel work.  The merged floor
        is served at the tightest threshold along the chain (each chain
        entry is complete at its own threshold, so the union filtered to
        the max is exact there).  Returns ``None`` when the chain is
        broken, an entry is missing/corrupt, or the axis was never landed.
        """
        record = manifest.generation(fingerprint)
        if record is None:
            return None
        refs: list[tuple[GenerationRecord, FloorRef]] = []
        cursor = record
        while True:
            ref = cursor.floors.get(axis)
            if ref is None:
                return None
            refs.append((cursor, ref))
            if ref.kind == "full":
                break
            if cursor.parent is None:
                return None
            cursor = manifest.generation(cursor.parent)
            if cursor is None:
                return None
        threshold = max(ref.threshold for _, ref in refs)
        pairs: list[SimilarPair] = []
        base_meta: dict = {}
        for gen, ref in refs:
            entry_key = lineage_entry_key(ref.sequence, gen.fingerprint,
                                          axis)
            try:
                arrays, meta = self.read_entry_file(
                    self.root / ref.file, "lineage", entry_key)
            except (OSError, ValueError) as exc:
                _LOGGER.warning(
                    "lineage entry %s for fingerprint %s failed to load: "
                    "%s", ref.file, gen.fingerprint, exc)
                return None
            if ref.kind == "full":
                base_meta = meta
            try:
                pairs.extend(_floor_entry_pairs(arrays, meta))
            except ValueError as exc:
                _LOGGER.warning(
                    "lineage entry %s for fingerprint %s failed structural "
                    "decode: %s", ref.file, gen.fingerprint, exc)
                return None
        pairs = [p for p in pairs if p.similarity >= threshold]
        pairs.sort(key=lambda p: (p.first, p.second))
        return EngineResult(
            backend=str(base_meta.get("backend", "exact-blocked")),
            measure=str(base_meta.get("measure", "cosine")),
            threshold=float(threshold), n_rows=int(record.n_rows),
            pairs=pairs, exact=bool(base_meta.get("exact", True)),
            seconds=0.0, n_candidates=len(pairs), n_pruned=0,
            details={"lineage": {"chain_length": len(refs),
                                 "manifest_version": manifest.version}})

    def compact(self, **kwargs):
        """Fold delta chains into consolidated floors; see
        :func:`repro.store.gc.compact`."""
        from repro.store.gc import compact

        return compact(self, **kwargs)

    def gc(self, **kwargs):
        """Collect unpinned manifests and entries; see
        :func:`repro.store.gc.collect_garbage`."""
        from repro.store.gc import collect_garbage

        return collect_garbage(self, **kwargs)

    def lineage_bytes(self) -> int:
        """On-disk bytes held by the lineage (entries + manifests)."""
        from repro.store.gc import lineage_bytes

        return lineage_bytes(self)

    # ------------------------------------------------------------------ #
    # Cross-host replication: export / attach
    # ------------------------------------------------------------------ #
    def export_snapshot(self, dest: str | os.PathLike,
                        snapshot: "StoreSnapshot | None" = None) -> Path:
        """Materialise one snapshot as a self-contained store directory.

        Copies the snapshot's manifest and every lineage entry it
        references into *dest*, which then serves read-only sweeps on any
        host (rsync/object-store it and :meth:`attach_snapshot` there).
        Pins the current version for the duration when no *snapshot* is
        passed.
        """
        own = snapshot is None
        snap = snapshot if snapshot is not None else self.open_snapshot()
        try:
            dest = Path(dest)
            (dest / "lineage").mkdir(parents=True, exist_ok=True)
            for rel in sorted(snap.manifest.files()):
                source = self.root / rel
                target = dest / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                tmp = target.with_name(f".tmp-{os.getpid()}-{target.name}")
                tmp.write_bytes(source.read_bytes())
                os.replace(tmp, target)
            log = LineageLog(dest)
            log.dir.mkdir(parents=True, exist_ok=True)
            log._write_manifest(snap.manifest)
            log._point_current(snap.manifest.version)
        finally:
            if own:
                snap.close()
        return dest

    @classmethod
    def attach_snapshot(cls, path: str | os.PathLike) -> "SimilarityStore":
        """Open an exported snapshot directory, validating it eagerly.

        Raises :class:`StoreAttachError` when the directory is missing, has
        no manifest, or references entries that were not copied — the
        replication failure modes — instead of serving misses later.
        Returns a store whose :meth:`open_snapshot` view serves the
        exported floors.
        """
        root = Path(path)
        if not root.is_dir():
            raise StoreAttachError(
                f"cannot attach snapshot: {root} is not a directory")
        store = cls(root)
        manifest = store.manifest()
        if manifest.version == 0:
            raise StoreAttachError(
                f"cannot attach snapshot: {root} holds no manifest")
        missing = sorted(rel for rel in manifest.files()
                         if not (root / rel).is_file())
        if missing:
            raise StoreAttachError(
                f"cannot attach snapshot: {root} manifest references "
                f"missing entries {missing[:3]}"
                + (" …" if len(missing) > 3 else ""))
        return store


class StoreSnapshot:
    """A read view of one store pinned to one manifest version.

    Every :meth:`load_result` resolves through the pinned manifest's
    immutable entries, so the view is bit-stable under concurrent ingest,
    compaction and GC — the snapshot-isolation contract the
    ``tests/store/test_snapshot_isolation.py`` battery proves.  Close (or
    use as a context manager) to release the pin lease; a killed process
    releases it automatically.
    """

    def __init__(self, store: SimilarityStore, manifest: Manifest,
                 pin=None) -> None:
        self.store = store
        self.manifest = manifest
        self._pin = pin
        self.closed = False

    @property
    def version(self) -> int:
        """The pinned manifest version."""
        return self.manifest.version

    @property
    def pinned(self) -> bool:
        """Whether this view holds a live pin lease protecting it from GC."""
        return self._pin is not None and not self.closed

    def fingerprints(self) -> list[str]:
        """Every dataset fingerprint this snapshot knows about."""
        return [record.fingerprint for record in self.manifest.generations]

    def generation(self, fingerprint: str):
        """The pinned generation record for *fingerprint*, or ``None``."""
        return self.manifest.generation(fingerprint)

    def load_result(self, key: tuple) -> EngineResult | None:
        """The pinned floor for *key* (sweep-cache key form), or ``None``.

        A delta chain is merged by pure pair arithmetic at read time; no
        kernel work, and no observation of any manifest version but this
        snapshot's.
        """
        if self.closed:
            raise ValueError("snapshot is closed")
        return self.store._resolve_manifest_floor(
            self.manifest, str(key[0]), floor_axis(key))

    def close(self) -> None:
        """Release the pin lease (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._pin is not None:
            self._pin.release()

    def __enter__(self) -> "StoreSnapshot":
        """Context-manager entry: the snapshot itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: release the pin."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StoreSnapshot(version={self.version}, "
                f"pinned={self.pinned})")
