"""Per-tenant store namespaces layered on the MVCC manifest.

One :class:`~repro.store.SimilarityStore` serves every tenant of a
:class:`~repro.service.SimilarityService`; isolation is by *key rewriting*,
not by separate stores.  A :class:`StoreNamespace` prefixes the leading key
component — the fingerprint for pair/sketch/lineage entries, the literal
kind tag for session entries — with ``"{tenant}::"``, so each tenant owns a
disjoint slice of the entry directories *and* of the versioned manifest
(generations are keyed by the namespaced fingerprint, so one tenant's
append lineage never collides with another's, even over identical data).

The namespace quacks like the store: every persistence method the engine
layer calls (``load_result``/``land_result``/``publish_floor``/…) exists
here with the same signature, so a namespace can be handed to
:class:`~repro.similarity.cache.CachedApssEngine`,
:class:`~repro.similarity.tiered.TieredApssEngine` or
:class:`~repro.core.session.PlasmaSession` wherever a store is expected.
Snapshots work the same way: :meth:`StoreNamespace.open_snapshot` pins the
*shared* manifest version (one lease, store-wide consistency) but reads
through a :class:`NamespacedSnapshot` that rewrites keys, so a pinned
reader still only sees its own tenant's floors.
"""

from __future__ import annotations

from repro.store.similarity_store import SimilarityStore, StoreSnapshot

__all__ = ["NamespacedSnapshot", "StoreNamespace"]

#: Separator between tenant id and the wrapped key head.  Tenant ids must
#: not contain it — ``"a::b"`` would alias tenant ``"a"``'s key space.
NAMESPACE_SEP = "::"


def _valid_tenant(tenant: str) -> str:
    if not isinstance(tenant, str) or not tenant:
        raise ValueError("tenant id must be a non-empty string")
    if NAMESPACE_SEP in tenant:
        raise ValueError(
            f"tenant id may not contain {NAMESPACE_SEP!r}: {tenant!r}")
    return tenant


class StoreNamespace:
    """A tenant's view of a shared :class:`SimilarityStore`.

    Every key passed in has its head rewritten to
    ``f"{tenant}::{key[0]}"`` before it reaches the store, and every
    fingerprint likewise.  The wrapped store is shared and unaware; two
    namespaces over the same store with different tenants are fully
    disjoint, and the bare store (no namespace) is a third, also-disjoint
    tenant — handy for service-internal bookkeeping.
    """

    def __init__(self, store: SimilarityStore, tenant: str) -> None:
        self.store = store
        self.tenant = _valid_tenant(tenant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoreNamespace({self.tenant!r} @ {self.store.root})"

    # ------------------------------------------------------------------ #
    # Key rewriting
    # ------------------------------------------------------------------ #
    def namespaced(self, key: tuple) -> tuple:
        """*key* with its head moved into this tenant's namespace."""
        if not key:
            raise ValueError("store keys must be non-empty tuples")
        return (self.namespaced_fingerprint(str(key[0])),) + tuple(key[1:])

    def namespaced_fingerprint(self, fingerprint: str) -> str:
        """A fingerprint (or key head) moved into this tenant's namespace."""
        return f"{self.tenant}{NAMESPACE_SEP}{fingerprint}"

    # ------------------------------------------------------------------ #
    # Store facade (same signatures as SimilarityStore)
    # ------------------------------------------------------------------ #
    def save_result(self, key, result):
        """Persist a floor under the tenant-rewritten *key*."""
        return self.store.save_result(self.namespaced(key), result)

    def load_result(self, key):
        """Restore the tenant's floor for *key*, or ``None`` on miss."""
        return self.store.load_result(self.namespaced(key))

    def load_pairset(self, key):
        """The tenant's floor for *key* in streamable (factorised) form.

        The zero-materialisation read behind
        :meth:`~repro.service.server.ServiceSession.top_k_join`; see
        :meth:`SimilarityStore.load_pairset`.
        """
        return self.store.load_pairset(self.namespaced(key))

    def land_result(self, key, result):
        """Upgrade-only landing of a floor in the tenant's key space."""
        return self.store.land_result(self.namespaced(key), result)

    def publish_floor(self, key, result, delta=None):
        """Land a floor in the tenant's slice of the versioned lineage.

        The delta's fingerprints are the tenant's un-namespaced ones and
        would no longer match the rewritten key head; dropping it only
        costs the delta-encoding optimisation, never correctness
        (publish_floor falls back to a full floor entry).
        """
        return self.store.publish_floor(self.namespaced(key), result, None)

    def publish_generation(self, fingerprint, *, parent, n_rows,
                           parent_rows=None):
        """Record a (possibly floor-less) tenant generation in the lineage."""
        return self.store.publish_generation(
            self.namespaced_fingerprint(str(fingerprint)),
            parent=(None if parent is None
                    else self.namespaced_fingerprint(str(parent))),
            n_rows=n_rows, parent_rows=parent_rows)

    def save_reducer(self, key, state):
        """Persist a mergeable reducer state under the tenant's key."""
        return self.store.save_reducer(self.namespaced(key), state)

    def load_reducer(self, key):
        """Restore the tenant's reducer state, or ``None`` on miss."""
        return self.store.load_reducer(self.namespaced(key))

    def save_sketches(self, key, sketches):
        """Persist an LSH sketch matrix under the tenant's key."""
        return self.store.save_sketches(self.namespaced(key), sketches)

    def load_sketches(self, key):
        """Restore the tenant's sketch matrix, or ``None`` on miss."""
        return self.store.load_sketches(self.namespaced(key))

    def save_session(self, key, state):
        """Persist a knowledge-cache payload under the tenant's key."""
        return self.store.save_session(self.namespaced(key), state)

    def load_session(self, key):
        """Restore the tenant's session state, or ``None`` on miss."""
        return self.store.load_session(self.namespaced(key))

    def delete(self, kind, key):
        """Drop one tenant entry (missing entries are fine)."""
        return self.store.delete(kind, self.namespaced(key))

    def open_snapshot(self, *, pin: bool = True) -> "NamespacedSnapshot":
        """A pinned read view of the shared manifest, scoped to the tenant.

        The pin lease is store-wide (snapshot consistency is a property of
        the one shared manifest), but every read through the returned
        snapshot is key-rewritten, so the tenant only ever sees its own
        floors and generations.
        """
        return NamespacedSnapshot(self, self.store.open_snapshot(pin=pin))


class NamespacedSnapshot:
    """A :class:`StoreSnapshot` read through a tenant's namespace.

    Duck-compatible with :class:`StoreSnapshot` where the engine layer
    needs it (``load_result``/``version``/``pinned``/``close``/context
    manager); ``store`` points back at the *namespace*, so code that
    follows ``snapshot.store`` for writes stays inside the tenant.
    """

    def __init__(self, namespace: StoreNamespace,
                 snapshot: StoreSnapshot) -> None:
        self.store = namespace
        self._snapshot = snapshot

    @property
    def version(self) -> int:
        """The pinned (store-wide) manifest version."""
        return self._snapshot.version

    @property
    def pinned(self) -> bool:
        """Whether the underlying snapshot holds a live pin lease."""
        return self._snapshot.pinned

    def fingerprints(self) -> list[str]:
        """The tenant's fingerprints in the pinned manifest, un-namespaced."""
        prefix = self.store.tenant + NAMESPACE_SEP
        return [f[len(prefix):] for f in self._snapshot.fingerprints()
                if f.startswith(prefix)]

    def generation(self, fingerprint: str):
        """The tenant's pinned generation record, or ``None``."""
        return self._snapshot.generation(
            self.store.namespaced_fingerprint(str(fingerprint)))

    def load_result(self, key):
        """The tenant's pinned floor for *key*, or ``None``."""
        return self._snapshot.load_result(self.store.namespaced(key))

    def close(self) -> None:
        """Release the underlying pin lease (idempotent)."""
        self._snapshot.close()

    def __enter__(self) -> "NamespacedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NamespacedSnapshot({self.store.tenant!r}, {self._snapshot!r})"
