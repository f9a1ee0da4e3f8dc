"""Upgrade-only landing lattice for two-tier store entries.

The store-boundary rule behind two-tier serving
(:meth:`SimilarityStore.land_result`): entries only ever move *up* the
quality lattice ``rank = (exact, -threshold)`` — an exact result replaces a
parked estimate regardless of threshold, an estimate never replaces an
exact floor, and a same-flavour write needs a strictly looser threshold.

A hypothesis suite interleaves approximate landings, exact upgrades,
process restarts (a fresh :class:`SimilarityStore` over the same root) and
open snapshot pins, asserting after every step that the entry's rank is
monotone non-decreasing, that a refused landing leaves the entry
byte-identical, and that no open snapshot's view ever moves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity import EngineResult, SimilarPair
from repro.store import SimilarityStore, fsck
from repro.store.similarity_store import _MAGIC

KEY = ("fp-tier-upgrade", "cosine", "exact-blocked", ())
LOOSE, TIGHT = 0.3, 0.6
_SIMS = [(0, 1, 0.9), (0, 2, 0.7), (1, 2, 0.5), (2, 3, 0.35)]


def _result(threshold: float, exact: bool) -> EngineResult:
    pairs = [SimilarPair(i, j, s) for i, j, s in _SIMS if s >= threshold]
    details = {}
    if not exact:
        pairs = pairs[:-1]  # the estimate misses its boundary pair
        details = {"epsilon": 0.03, "recall_bound": 0.97}
    return EngineResult(
        backend="exact-blocked" if exact else "bayeslsh", measure="cosine",
        threshold=threshold, n_rows=4, pairs=pairs, exact=exact,
        seconds=0.0, n_candidates=6, n_pruned=6 - len(pairs),
        details=details)


def _rank(entry: EngineResult) -> tuple:
    return (entry.exact, -entry.threshold)


def _canonical(entry: EngineResult | None):
    if entry is None:
        return None
    return (entry.exact, entry.threshold,
            sorted(p.as_tuple() for p in entry.pairs))


_OPS = st.lists(
    st.sampled_from(["approx_loose", "approx_tight", "exact_loose",
                     "exact_tight", "reopen", "snapshot"]),
    min_size=4, max_size=14)

_CANDIDATES = {
    "approx_loose": _result(LOOSE, exact=False),
    "approx_tight": _result(TIGHT, exact=False),
    "exact_loose": _result(LOOSE, exact=True),
    "exact_tight": _result(TIGHT, exact=True),
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_OPS)
def test_interleaved_landings_never_downgrade(tmp_path_factory, ops):
    root = tmp_path_factory.mktemp("upgrade") / "store"
    store = SimilarityStore(root)
    snapshots = []  # [(snapshot, view-at-open)]
    try:
        for op in ops:
            before = store.load_result(KEY)
            if op == "reopen":
                # Process restart: a fresh store over the same root must
                # see the identical entry.
                store = SimilarityStore(root)
                assert _canonical(store.load_result(KEY)) == \
                    _canonical(before)
                continue
            if op == "snapshot":
                snapshot = store.open_snapshot()
                snapshots.append((snapshot, _canonical(
                    snapshot.load_result(KEY))))
                continue
            candidate = _CANDIDATES[op]
            entry_path = store._path("pairs", KEY)
            before_bytes = (entry_path.read_bytes()
                            if entry_path.exists() else None)
            landed = store.land_result(KEY, candidate)
            after = store.load_result(KEY)
            assert after is not None
            if before is not None:
                # THE invariant: rank is monotone, strictly so on a landing.
                if landed:
                    assert _rank(after) > _rank(before)
                else:
                    assert _rank(after) == _rank(before)
                    assert entry_path.read_bytes() == before_bytes, \
                        f"refused landing {op!r} still mutated the entry"
                assert after.exact >= before.exact, "exact entry downgraded"
            if landed:
                assert _canonical(after) == _canonical(candidate)
            # Open pins never observe the churn in the live pairs dir.
            for snapshot, opened_view in snapshots:
                assert _canonical(snapshot.load_result(KEY)) == opened_view, \
                    f"pinned snapshot v{snapshot.version} moved after {op!r}"
        assert fsck(store.root).ok
    finally:
        for snapshot, _ in snapshots:
            snapshot.close()


# --------------------------------------------------------------------- #
# The full deterministic transition matrix
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("first,second,lands", [
    # estimate -> exact: lands regardless of threshold direction
    ("approx_loose", "exact_tight", True),
    ("approx_tight", "exact_loose", True),
    ("approx_loose", "exact_loose", True),
    # exact -> estimate: refused regardless of threshold direction
    ("exact_tight", "approx_loose", False),
    ("exact_loose", "approx_tight", False),
    # same flavour: strictly looser lands, tighter-or-equal refused
    ("approx_tight", "approx_loose", True),
    ("approx_loose", "approx_tight", False),
    ("approx_loose", "approx_loose", False),
    ("exact_tight", "exact_loose", True),
    ("exact_loose", "exact_tight", False),
    ("exact_loose", "exact_loose", False),
])
def test_landing_transition_matrix(tmp_path, first, second, lands):
    store = SimilarityStore(tmp_path / "store")
    assert store.land_result(KEY, _CANDIDATES[first])
    assert store.land_result(KEY, _CANDIDATES[second]) is lands
    final = store.load_result(KEY)
    expected = _CANDIDATES[second if lands else first]
    assert _canonical(final) == _canonical(expected)


def test_upgrade_survives_process_restarts(tmp_path):
    root = tmp_path / "store"
    SimilarityStore(root).land_result(KEY, _CANDIDATES["approx_loose"])
    # restart, upgrade to exact
    assert SimilarityStore(root).land_result(KEY, _CANDIDATES["exact_tight"])
    # restart again: the exact entry holds, estimates bounce off it forever
    revived = SimilarityStore(root)
    assert revived.land_result(KEY, _CANDIDATES["approx_loose"]) is False
    assert revived.load_result(KEY).exact


def test_estimates_never_enter_lineage(tmp_path):
    """publish_floor routes estimates through land_result but never records
    them in the MVCC lineage — there is no version to pin an estimate to."""
    store = SimilarityStore(tmp_path / "store")
    version_before = store.lineage.current().version
    store.publish_floor(KEY, _CANDIDATES["approx_loose"])
    assert store.lineage.current().version == version_before
    assert not store.load_result(KEY).exact          # ...but it is parked
    store.publish_floor(KEY, _CANDIDATES["exact_loose"])
    assert store.lineage.current().version > version_before


# --------------------------------------------------------------------- #
# Header-only landing: refusals never read the payload
# --------------------------------------------------------------------- #

def test_flipped_payload_byte_is_repaired_through_eviction(tmp_path):
    """A bit flip keeps the header and the size, so landings decided on
    the header still see the damaged floor; the checksum on the next full
    read evicts it, and the landing after that writes a clean entry."""
    store = SimilarityStore(tmp_path / "store")
    assert store.land_result(KEY, _result(0.5, exact=True))
    path = store._path("pairs", KEY)
    raw = bytearray(path.read_bytes())
    start = raw.index(b"\n", len(_MAGIC)) + 1  # first payload byte
    raw[start + (len(raw) - start) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))

    assert store.land_result(KEY, _result(0.6, exact=True)) is False
    assert path.read_bytes() == bytes(raw), "refusal touched the entry"
    report = fsck(store.root)
    assert report.ok
    assert any(path.name in warning for warning in report.warnings)
    assert store.load_result(KEY) is None
    assert store.evictions == 1 and not path.exists()

    landed = _result(0.6, exact=True)
    assert store.land_result(KEY, landed)
    reloaded = store.load_result(KEY)
    assert (reloaded.exact, reloaded.threshold) == (True, 0.6)
    assert [p.as_tuple() for p in reloaded.pairs] == \
        [p.as_tuple() for p in landed.pairs]


@pytest.mark.parametrize("resize", [
    lambda raw: raw[:-7],
    lambda raw: raw + b"\0" * 7,
], ids=["truncated", "padded"])
def test_missized_entry_is_overwritten_without_a_read(tmp_path, resize,
                                                      monkeypatch):
    """A file whose size disagrees with its header counts as no entry:
    even a tighter floor lands over it straight away, with no full read
    and no eviction in between."""
    store = SimilarityStore(tmp_path / "store")
    assert store.land_result(KEY, _result(0.3, exact=True))
    path = store._path("pairs", KEY)
    path.write_bytes(resize(path.read_bytes()))

    def no_read(*args, **kwargs):
        raise AssertionError("landing read the entry payload")

    with monkeypatch.context() as patch:
        patch.setattr(store, "read_entry_file", no_read)
        assert store.land_result(KEY, _result(0.6, exact=True))
    reloaded = store.load_result(KEY)
    assert (reloaded.exact, reloaded.threshold) == (True, 0.6)
    assert store.evictions == 0


def test_refused_landing_never_decodes_a_factorized_floor(tmp_path,
                                                          monkeypatch):
    """Refusing a write over a large factorised floor costs a header read:
    no checksum, no npz load, no factorised decode."""
    import hashlib

    import numpy as np

    from repro.store import FactorizedPairSet

    n_rows = 150  # one clique: 11 175 pairs, well past the factorise floor
    first, second = np.triu_indices(n_rows, k=1)
    values = np.random.default_rng(7).uniform(0.5, 1.0, size=len(first))
    pairs = [SimilarPair(int(i), int(j), float(v))
             for i, j, v in zip(first, second, values)]
    floor = EngineResult(
        backend="exact-blocked", measure="cosine", threshold=0.5,
        n_rows=n_rows, pairs=pairs, exact=True, seconds=0.0,
        n_candidates=len(pairs), n_pruned=0)
    store = SimilarityStore(tmp_path / "store")
    assert store.land_result(KEY, floor)
    assert store._path("pairs-factorized", KEY).is_file()
    assert len(pairs) >= 10_000

    calls = {"from_arrays": 0, "load": 0, "sha256": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(FactorizedPairSet, "from_arrays", staticmethod(
        counting("from_arrays", FactorizedPairSet.from_arrays)))
    monkeypatch.setattr(np, "load", counting("load", np.load))
    monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))

    tighter = EngineResult(
        backend="exact-blocked", measure="cosine", threshold=0.9,
        n_rows=n_rows, pairs=[p for p in pairs if p.similarity >= 0.9],
        exact=True, seconds=0.0, n_candidates=0, n_pruned=0)
    assert store.land_result(KEY, tighter) is False
    assert store.land_result(KEY, _result(0.3, exact=False)) is False
    assert calls == {"from_arrays": 0, "load": 0, "sha256": 0}
    # The wrappers are live: a full read goes through all three.
    assert len(store.load_result(KEY).pairs) == len(pairs)
    assert min(calls.values()) >= 1
