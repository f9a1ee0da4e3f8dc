"""Delta-chain compaction and garbage collection for the versioned store.

Two maintenance passes keep a lineage-bearing
:class:`~repro.store.similarity_store.SimilarityStore` from growing without
bound, both crash-safe by construction:

* :func:`compact` folds every delta chain (parent → append → append …) into
  a consolidated *full* floor on the chain's tip: the chain's entries are
  merged by pure pair arithmetic — the inverse of
  :meth:`~repro.store.delta.DeltaApssBackend.extend`, zero kernel
  invocations — written as new immutable entries, and a successor manifest
  is published in which the folded ancestors no longer appear.  Ordering
  guarantees recovery: consolidated entries land *before* the manifest
  pointer flips, so a crash in between leaves only unreferenced
  (collectable) files and the store reopens on the pre-compaction manifest.

* :func:`collect_garbage` unlinks everything no snapshot pins: manifest
  versions other than ``CURRENT`` with no live lease, then every
  ``lineage/`` entry referenced by no retained manifest.  Manifests are
  condemned *before* entries, so a crash mid-GC can orphan entry files
  (reclaimed by the next pass) but can never leave a retained manifest
  pointing at a deleted entry.

Both passes run under the exclusive lineage lock
(:meth:`~repro.store.manifest.LineageLog.lock`), which also serialises them
against publishes and snapshot pinning; the ``pause_*`` arguments are
fault-injection seams (in the spirit of ``inject_shard_fault``) that hold
the pass inside its crash window so the SIGKILL tests can hit it
deterministically.

:func:`fsck` is the invariant checker behind ``tools/fsck_store.py``: it
audits the manifest/entry graph (dangling references, unresolvable floors,
corrupt entries, orphans, stale pins) and is the on-disk leak oracle the
crash battery asserts with.  Factorised entries (the ``pairs-factorized``
kind and ``encoding: factorized`` lineage floors, see
:mod:`repro.store.pairsets`) get an extra *structural* decode on top of
the checksum: an entry whose bytes are intact but whose part arrays are
inconsistent is reported too, because the read path will evict it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.store.manifest import (
    GenerationRecord,
    LineageLog,
    Manifest,
    lineage_entry_key,
)

__all__ = ["CompactionStats", "GcStats", "FsckReport", "compact",
           "collect_garbage", "lineage_bytes", "fsck"]


@dataclass(frozen=True)
class CompactionStats:
    """Outcome of one :func:`compact` pass."""

    manifest_version: int
    chains_folded: int
    floors_consolidated: int
    generations_dropped: int

    @property
    def unchanged(self) -> bool:
        """Whether the pass found nothing to fold."""
        return self.chains_folded == 0


@dataclass(frozen=True)
class GcStats:
    """Outcome of one :func:`collect_garbage` pass."""

    current_version: int
    retained_versions: tuple[int, ...]
    manifests_removed: int
    files_removed: int
    bytes_reclaimed: int
    compacted: bool = False


def lineage_bytes(store) -> int:
    """On-disk bytes held by the lineage: entries plus manifest files."""
    total = 0
    for directory in (Path(store.root) / "lineage", store.lineage.dir):
        if directory.is_dir():
            total += sum(path.stat().st_size for path in directory.iterdir()
                         if path.is_file())
    return total


def compact(store, *, pause_before_publish: float = 0.0) -> CompactionStats:
    """Fold every resolvable delta chain into a consolidated tip floor.

    Pure merge work: chain floors are read, merged in canonical order and
    written as new ``full`` entries for each tip — no similarity kernel
    runs.  The successor manifest retains only the tips (plus any chain
    whose floors could not be resolved, which is left untouched); folded
    ancestors stay readable through previously pinned manifest versions
    until :func:`collect_garbage` reclaims them.

    ``pause_before_publish`` (seconds) is a fault-injection seam: it sleeps
    between writing the consolidated entries and publishing the successor
    manifest, the window in which a crash must recover to the
    pre-compaction manifest.
    """
    log: LineageLog = store.lineage
    with log.lock():
        current = log.current()
        if not current.generations:
            return CompactionStats(current.version, 0, 0, 0)
        keep: dict[str, GenerationRecord] = {}
        folds: list[tuple[GenerationRecord, dict, list[str]]] = []
        for tip in current.tips():
            chain = current.chain(tip.fingerprint)
            if len(chain) <= 1:
                keep[tip.fingerprint] = tip
                continue
            consolidated: dict = {}
            resolvable = True
            for axis, ref in tip.floors.items():
                if ref.kind == "full":
                    consolidated[axis] = ref
                    continue
                merged = store._resolve_manifest_floor(
                    current, tip.fingerprint, axis)
                if merged is None:
                    resolvable = False
                    break
                consolidated[axis] = merged  # EngineResult: write at publish
            if not resolvable:
                # A broken or unreadable chain is fsck's business, not
                # compaction's: leave it exactly as it is.
                for record in chain:
                    keep[record.fingerprint] = record
                continue
            folds.append((tip, consolidated,
                          [r.fingerprint for r in chain[:-1]]))
        if not folds:
            return CompactionStats(current.version, 0, 0, 0)
        # Ancestors of kept chains must survive even when another (folded)
        # chain shared them.
        needed = set(keep)
        for record in list(keep.values()):
            needed.update(r.fingerprint
                          for r in current.chain(record.fingerprint))
        successor_version = current.version + 1
        floors_written = 0
        new_records: list[GenerationRecord] = [
            record for record in current.generations
            if record.fingerprint in needed]
        for tip, consolidated, _ancestors in folds:
            floors = {}
            for axis, ref_or_result in consolidated.items():
                if not hasattr(ref_or_result, "pairs"):
                    floors[axis] = ref_or_result  # already a full FloorRef
                    continue
                floors[axis] = store._write_lineage_floor(
                    lineage_entry_key(successor_version, tip.fingerprint,
                                      axis),
                    ref_or_result, kind="full", sequence=successor_version)
                floors_written += 1
            new_records.append(GenerationRecord(
                fingerprint=tip.fingerprint, parent=None,
                n_rows=tip.n_rows, sequence=successor_version,
                floors=floors))
        if pause_before_publish:
            time.sleep(pause_before_publish)
        dropped = len(current.generations) - len(new_records)
        successor = current.replace(new_records)
        log._write_manifest(successor)
        log._point_current(successor.version)
        return CompactionStats(successor.version, len(folds),
                               floors_written, dropped)


def collect_garbage(store, *, pause_between_phases: float = 0.0,
                    max_lineage_bytes: int | None = None) -> GcStats:
    """Unlink manifests and lineage entries no snapshot pins.

    Retains ``CURRENT`` plus every version with a live pin lease (stale
    leases from killed processes are pruned first).  Condemned manifest
    files are removed *before* the entries they referenced, so a crash
    mid-pass can only orphan entry files — reclaimed by the next pass —
    never dangle a retained manifest.

    ``max_lineage_bytes`` makes the pass size-bounded: when the lineage
    exceeds the budget, :func:`compact` runs first so superseded delta
    chains become collectable in the same call.  ``pause_between_phases``
    (seconds) is the crash-window fault-injection seam.
    """
    compacted = False
    if (max_lineage_bytes is not None
            and lineage_bytes(store) > max_lineage_bytes):
        compact(store)
        compacted = True
    log: LineageLog = store.lineage
    with log.lock():
        current_version = log.current_version()
        pinned = log.live_pins()
        retained = {v for v in pinned if log.manifest_path(v).is_file()}
        if current_version:
            retained.add(current_version)
        referenced: set[str] = set()
        for version in sorted(retained):
            try:
                referenced |= log.read(version).files()
            except (OSError, ValueError):
                if version == current_version:
                    raise  # a corrupt CURRENT manifest is never silently GC'd
                retained.discard(version)
        manifests_removed = 0
        bytes_reclaimed = 0
        for version in log.versions():
            if version in retained:
                continue
            path = log.manifest_path(version)
            bytes_reclaimed += _size(path)
            if _unlink(path):
                manifests_removed += 1
        if pause_between_phases:
            time.sleep(pause_between_phases)
        files_removed = 0
        lineage_dir = Path(store.root) / "lineage"
        if lineage_dir.is_dir():
            for path in sorted(lineage_dir.iterdir()):
                stray_tmp = path.name.startswith(".tmp-")
                unreferenced = (path.suffix == ".entry"
                                and f"lineage/{path.name}" not in referenced)
                if stray_tmp or unreferenced:
                    bytes_reclaimed += _size(path)
                    if _unlink(path):
                        files_removed += 1
        return GcStats(current_version=current_version,
                       retained_versions=tuple(sorted(retained)),
                       manifests_removed=manifests_removed,
                       files_removed=files_removed,
                       bytes_reclaimed=bytes_reclaimed,
                       compacted=compacted)


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _unlink(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


# --------------------------------------------------------------------- #
# Invariant checking (the on-disk leak oracle)
# --------------------------------------------------------------------- #

@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` audit.

    ``errors`` are broken invariants (dangling references, corrupt or
    unresolvable state); ``warnings`` are collectable debris (orphaned
    entries, stray temp files, stale pins) that the next
    :func:`collect_garbage` pass reclaims.
    """

    root: str
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every hard invariant held."""
        return not self.errors


def _audit_floor_entries(store, report: FsckReport) -> None:
    """Audit the mutable floor dirs (``pairs``/``pairs-factorized``).

    These entries are keyed by digest (the key itself is unrecoverable
    from the file name), so the audit checks everything *but* the lookup
    key: magic, header, schema, payload length, checksum, npz decode —
    and, for factorised entries, the structural part-array validation the
    read path applies.  Failures are warnings: the store evicts such an
    entry on first read and recomputes, so they are self-healing debris,
    not broken invariants.
    """
    from repro.store.pairsets import FactorizedPairSet

    checked = 0
    invalid = 0
    for kind in ("pairs", "pairs-factorized"):
        directory = store.root / kind
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("*.entry")):
            checked += 1
            try:
                arrays, meta = store.read_entry_file(path, kind, None)
                if kind == "pairs-factorized":
                    FactorizedPairSet.from_arrays(
                        arrays, threshold=float(meta.get("threshold", 0.0)))
            except (OSError, TypeError, ValueError) as exc:
                invalid += 1
                report.warnings.append(
                    f"{kind} entry {path.name} fails validation ({exc}); "
                    f"it will be evicted and recomputed on next read")
    report.stats["floor_entries_checked"] = checked
    report.stats["floor_entries_invalid"] = invalid


def fsck(root, *, strict_orphans: bool = False) -> FsckReport:
    """Audit the manifest/entry graph of the store at *root*.

    Invariants checked (violations land in ``report.errors``):

    * ``CURRENT`` points at a manifest file that exists and parses;
    * every entry file referenced by any on-disk manifest exists and
      validates (magic, schema, checksum, recorded key);
    * every delta floor in the current manifest resolves through its parent
      chain to a full floor.

    Collectable debris lands in ``report.warnings`` (promoted to errors
    with ``strict_orphans=True``, the post-GC contract): orphaned lineage
    entries no manifest references, stray temp files, stale pin leases —
    plus corrupt/truncated/structurally-invalid floor entries in the
    mutable ``pairs``/``pairs-factorized`` dirs, which are warnings (not
    errors) because the read path self-heals them: evict and recompute,
    never serve wrong answers.
    """
    from repro.store.similarity_store import SimilarityStore

    report = FsckReport(root=str(root))
    root = Path(root)
    if not root.is_dir():
        report.errors.append(f"store root {root} does not exist")
        return report
    store = SimilarityStore(root)
    _audit_floor_entries(store, report)
    log = store.lineage
    versions = log.versions()
    current_version = log.current_version()
    report.stats.update(manifest_versions=versions,
                        current_version=current_version)
    if not versions and current_version == 0:
        return report  # no lineage: nothing to audit
    if current_version == 0:
        report.errors.append("manifest files exist but CURRENT is missing "
                             "or unreadable")
        return report
    manifests: dict[int, Manifest] = {}
    for version in versions:
        try:
            manifests[version] = log.read(version)
        except (OSError, ValueError) as exc:
            report.errors.append(f"manifest version {version} is "
                                 f"unreadable: {exc}")
    if current_version not in manifests:
        report.errors.append(f"CURRENT points at version {current_version}, "
                             f"which is missing or unreadable")
        return report
    referenced: set[str] = set()
    for version, manifest in sorted(manifests.items()):
        for record in manifest.generations:
            for axis, ref in record.floors.items():
                referenced.add(ref.file)
                path = root / ref.file
                if not path.is_file():
                    report.errors.append(
                        f"manifest v{version} references missing entry "
                        f"{ref.file} (fingerprint {record.fingerprint[:12]})")
                    continue
                key = lineage_entry_key(ref.sequence, record.fingerprint,
                                        axis)
                try:
                    arrays, meta = store.read_entry_file(path, "lineage",
                                                         key)
                except ValueError as exc:
                    report.errors.append(
                        f"entry {ref.file} referenced by manifest "
                        f"v{version} fails validation: {exc}")
                    continue
                if meta.get("encoding") == "factorized":
                    from repro.store.pairsets import FactorizedPairSet

                    try:
                        FactorizedPairSet.from_arrays(
                            arrays,
                            threshold=float(meta.get("threshold", 0.0)))
                    except (TypeError, ValueError) as exc:
                        report.errors.append(
                            f"factorized entry {ref.file} referenced by "
                            f"manifest v{version} fails structural decode: "
                            f"{exc}")
    current = manifests[current_version]
    resolved = 0
    for record in current.generations:
        for axis, ref in record.floors.items():
            if ref.kind != "delta":
                continue
            if store._resolve_manifest_floor(current, record.fingerprint,
                                             axis) is None:
                report.errors.append(
                    f"delta floor for fingerprint "
                    f"{record.fingerprint[:12]} axis {axis} does not "
                    f"resolve to a full floor in the current manifest")
            else:
                resolved += 1
    report.stats["resolved_delta_floors"] = resolved
    orphans: list[str] = []
    strays: list[str] = []
    lineage_dir = root / "lineage"
    if lineage_dir.is_dir():
        for path in sorted(lineage_dir.iterdir()):
            if path.name.startswith(".tmp-"):
                strays.append(path.name)
            elif (path.suffix == ".entry"
                    and f"lineage/{path.name}" not in referenced):
                orphans.append(path.name)
    sink = report.errors if strict_orphans else report.warnings
    for name in orphans:
        sink.append(f"orphaned lineage entry {name} (no manifest "
                    f"references it)")
    for name in strays:
        sink.append(f"stray temp file lineage/{name}")
    with log.lock():
        live = log.live_pins(prune_stale=False)
    report.stats.update(orphans=len(orphans), strays=len(strays),
                        live_pins=sorted(live),
                        referenced_entries=len(referenced))
    return report
