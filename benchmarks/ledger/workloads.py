"""The four ledger workloads: set-up plus a deterministic op script each.

Every workload issues the same four op kinds through one client thread
(closed loop, one client):

``sweep``   ``ServiceSession.sweep`` — an exact answer at a threshold.
``topk``    ``ServiceSession.top_k_join(dataset, 50, t)``.
``append``  ``ServiceSession.ingest`` then ``sweep(child, 0.5)`` — time to a
            fresh exact answer after an append (``explore``:
            ``PlasmaSession.extend_dataset`` then ``probe(0.7)``).
``probe``   the approximate-first answer: ``ServiceSession.probe`` (two-tier
            first answer; ``explore``: ``PlasmaSession.probe``).

A workload runs as two passes, each in a fresh process with a fresh store;
``steps`` below are *per pass* at the full scale (``--seconds 20``) and are
scaled linearly with ``--seconds``.  Op counts are fixed by the scale, never
by the clock, so every count repeats exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import data

FULL_SECONDS = 20.0
SWEEP_THRESHOLDS = (0.5, 0.6, 0.7, 0.8)
PROBE_THRESHOLD = 0.7
TOP_K = 50
#: The paper's Figure 2.1 walk, 0.9 down to 0.5 and back up to 0.8.  The way
#: down runs in a fresh session, the way back up in a session reopened on
#: the grown dataset: 2 of the 8 probes (the first two of a fresh session,
#: which have no knowledge to reuse) are slow, a 25 % mode.  Walking all 8
#: in both sessions made that mode 12.5 % — on the p90.
WALK_DOWN = (0.9, 0.8, 0.7, 0.6, 0.5)
WALK_UP = (0.6, 0.7, 0.8)
KINDS = ("sweep", "topk", "append", "probe")


@dataclass
class Op:
    """One scripted op: a timed call and its untimed follow-ups.

    ``call`` is the user-facing call the clock runs around.  ``after``
    runs inside the measured wall but outside the op's own timing (state
    hand-over, maintenance).  ``expect_pairs`` is the answer size the data
    regime fixes, compared as soon as the op returns — on every op, since
    a length costs nothing.  ``verify`` is an output check run after the
    pass, on sampled ops only (the answer is kept until then); it returns
    violation messages.
    """

    kind: str
    call: Callable[[], object]
    after: Callable[[object], None] | None = None
    verify: Callable[[object], list] | None = None
    expect_pairs: int | None = None


class Context:
    """What a workload may touch: the service, two tenants, its generator."""

    def __init__(self, service, rng: np.random.Generator,
                 checker: checks.Checker) -> None:
        self.service = service
        self.rng = rng
        self.checker = checker
        self.sessions = [service.open_session("tenant-a"),
                         service.open_session("tenant-b")]
        self.user_bytes = 0
        #: (found, planted) twin pairs over every sketch-tier answer.
        self.recall = [0, 0]
        #: (reused, total) hashes over every ``PlasmaSession`` probe.
        self.hash_reuse = [0, 0]
        #: Pass-level violations a workload found outside any op's check.
        self.violations: list[str] = []

    def hand(self, dataset):
        """Account one dataset generation handed to the service."""
        self.user_bytes += data.csr_bytes(dataset)
        return dataset


def scaled(steps: int, seconds: float) -> int:
    """*steps* (per pass at the full scale) scaled to ``--seconds``."""
    return max(1, round(steps * seconds / FULL_SECONDS))


class Workload:
    """Base: subclasses define ``name``, ``why``, ``setup`` and ``ops``."""

    name = ""
    why = ""
    full_steps = 0

    def __init__(self, seconds: float) -> None:
        self.steps = scaled(self.full_steps, seconds)

    def expected_counts(self) -> dict[str, int]:
        """Ops of each kind the script holds at this scale."""
        raise NotImplementedError

    # -- shared op builders ------------------------------------------- #
    def sweep_op(self, ctx, session, dataset, threshold, measure="cosine",
                 *, check=False, expect_pairs=None) -> Op:

        def verify(result):
            return ctx.checker.exact_answer(dataset, threshold, measure,
                                            result.pairs)

        return Op("sweep",
                  lambda: session.sweep(dataset, threshold, measure),
                  verify=verify if check else None, expect_pairs=expect_pairs)

    def topk_op(self, ctx, session, dataset, threshold, measure="cosine", *,
                check=False, source=None) -> Op:

        def verify(result):
            found = []
            if source is not None and not result.source.startswith(source):
                found.append(f"top_k_join served from {result.source!r}, "
                             f"expected {source!r}")
            if check:
                found += ctx.checker.topk(dataset, TOP_K, threshold,
                                           measure, result.pairs)
            return found

        return Op("topk",
                  lambda: session.top_k_join(dataset, TOP_K, threshold,
                                             measure),
                  verify=verify if (check or source) else None)

    def append_op(self, ctx, session, dataset, rows, *, adopt=None,
                  check=False, expect_pairs=None) -> Op:
        """``ingest`` + ``sweep(child, 0.5)``; *adopt* receives the child."""
        grown = []

        def call():
            child = session.ingest(dataset, rows)
            grown.append(child)
            return session.sweep(child, 0.5)

        def after(_result):
            ctx.hand(grown[0])
            if adopt is not None:
                adopt(grown[0])

        def verify(result):
            return ctx.checker.exact_answer(grown[0], 0.5, "cosine",
                                            result.pairs)

        return Op("append", call, after=after,
                  verify=verify if check else None, expect_pairs=expect_pairs)

    def probe_op(self, ctx, session, dataset, segments, *, tier=None,
                 check=False) -> Op:
        """A two-tier probe of a neardup dataset made of *segments*."""

        def verify(answer):
            found = []
            if tier is not None and answer.tier != tier:
                found.append(f"probe served by the {answer.tier} tier, "
                             f"expected {tier}")
            if answer.tier == "sketch":
                hit, expected = checks.twin_recall(answer.result.pairs,
                                                   segments)
                ctx.recall[0] += hit
                ctx.recall[1] += expected
            elif check:
                found += ctx.checker.exact_answer(
                    dataset, PROBE_THRESHOLD, "jaccard", answer.result.pairs)
            return found

        return Op("probe",
                  lambda: session.probe(dataset, PROBE_THRESHOLD, "jaccard"),
                  verify=verify)


# --------------------------------------------------------------------- #
class HotServe(Workload):
    """Read side: everything is a cache hit, the time is above the kernel."""

    name = "hot-serve"
    why = ("working set fits the 128-entry sweep cache, so no full kernel "
           "pass runs after set-up: all time is service + cache + store "
           "landing + pair-set decode (the ROADMAP's 192 ms cache hit)")
    #: Rounds of 20 ops: 50 % sweep, 20 % topk, 15 % probe, 15 % append.
    full_steps = 18
    mix = (("sweep", 10), ("topk", 4), ("probe", 3), ("append", 3))

    def setup(self, ctx: Context) -> None:
        rng = ctx.rng
        self.script = [kind for kind, share in self.mix
                       for _ in range(share * self.steps)]
        rng.shuffle(self.script)
        n_appends = self.script.count("append")
        self.pool = []
        for _ in range(4):
            base, tail = data.clustered(rng, 600, 4, 4 * n_appends)
            self.pool.append((base, data.batches(tail, 4)))
        self.probed = [data.neardup(rng, 1200) for _ in range(2)]
        self.members = rng.integers(len(self.pool), size=len(self.script))
        self.thresholds = rng.choice(SWEEP_THRESHOLDS, size=len(self.script))
        for base, _ in self.pool:
            ctx.hand(base)
            for session in ctx.sessions:
                session.sweep(base, 0.5)
        for dataset in self.probed:
            ctx.hand(dataset)
            ctx.sessions[0].probe(dataset, PROBE_THRESHOLD, "jaccard")
            ctx.service.tiered.wait()

    def expected_counts(self) -> dict[str, int]:
        return {kind: self.script.count(kind) for kind in KINDS}

    def ops(self, ctx: Context):
        cursor = [0] * len(self.pool)
        pairs = data.clustered_pairs(600, 4)
        seen = dict.fromkeys(KINDS, 0)
        for step, kind in enumerate(self.script):
            member = int(self.members[step])
            base, batches = self.pool[member]
            threshold = float(self.thresholds[step])
            seen[kind] += 1
            sampled = seen[kind] % 6 == 0
            # The two tenants' sessions are used alternately.
            session = ctx.sessions[step % 2]
            if kind == "sweep":
                yield self.sweep_op(ctx, session, base, threshold,
                                    check=sampled, expect_pairs=pairs)
            elif kind == "topk":
                yield self.topk_op(ctx, session, base, threshold,
                                   check=sampled, source="store-factorized")
            elif kind == "probe":
                dataset = self.probed[step % len(self.probed)]
                yield self.probe_op(ctx, session, dataset, [(0, 1200)],
                                    tier="exact", check=sampled)
            else:
                rows = batches[cursor[member]]
                cursor[member] += 1
                # The child is answered, landed and left behind: the pool
                # stays stationary so every sweep sees the same floor size.
                yield self.append_op(
                    ctx, session, base, rows, check=sampled,
                    expect_pairs=data.clustered_pairs(604, 4))


class ColdKernel(Workload):
    """Every dataset is seen once: the kernel used three ways."""

    name = "cold-kernel"
    why = ("working set larger than any cache by construction: sweep and "
           "topk are full exact_blocked passes, probe is bayeslsh + lsh, "
           "append is the delta kernel; cache, store and decode do little")
    full_steps = 25
    rows = 1200

    def setup(self, ctx: Context) -> None:
        rng = ctx.rng
        self.cycles = [
            {"a": data.neardup(rng, self.rows), "batch": data.neardup(rng, 20),
             "b": data.neardup(rng, self.rows),
             "c": data.neardup(rng, self.rows)}
            for _ in range(self.steps)]

    def expected_counts(self) -> dict[str, int]:
        return {"sweep": 3 * self.steps, "topk": self.steps,
                "append": self.steps, "probe": self.steps}

    def ops(self, ctx: Context):
        half = self.rows // 2
        for index, cycle in enumerate(self.cycles):
            sampled = index % 3 == 0
            session = ctx.sessions[index % 2]
            a, b, c = (ctx.hand(cycle[name]) for name in "abc")
            yield self.sweep_op(ctx, session, a, 0.5, check=sampled,
                                expect_pairs=half)
            yield self.append_op(ctx, session, a, cycle["batch"],
                                 check=sampled, expect_pairs=half + 10)
            yield self.topk_op(ctx, session, b, 0.5, check=sampled,
                               source="kernel")
            yield self.sweep_op(ctx, session, b, 0.4, check=sampled,
                                expect_pairs=half)
            # The refinement the sketch answer queues is drained by the
            # harness (tiered.wait after every op) before the next op runs.
            yield self.probe_op(ctx, session, c, [(0, self.rows)],
                                tier="sketch")
            yield self.sweep_op(ctx, session, c, 0.5, expect_pairs=half)


class AppendStream(Workload):
    """Write side: two lineages grown append by append."""

    name = "append-stream"
    why = ("the store's write side (delta extend, land_result, "
           "publish_generation, factorise-on-write) where hot-serve is its "
           "read side: reads sped up by writing more show here and in "
           "store_bytes_per_user_byte")
    full_steps = 135
    maintenance_every = 45

    def setup(self, ctx: Context) -> None:
        rng = ctx.rng
        self.dense, tail = data.clustered(rng, 600, 16, 4 * self.steps)
        self.dense_batches = data.batches(tail, 4)
        self.sparse = data.neardup(rng, 1200)
        self.sparse_batches = [data.neardup(rng, 20)
                               for _ in range(self.steps // 3)]
        #: The (offset, n_rows) twin blocks of the neardup lineage so far,
        #: and those whose planted pairs a probe has already been scored on.
        self.segments = [(0, 1200)]
        self.scored: set[tuple] = set()
        ctx.hand(self.dense)
        ctx.hand(self.sparse)
        # One tenant owns each lineage, so a sweep after an append re-reads
        # the floor that append landed instead of landing it a second time.
        ctx.sessions[0].sweep(self.dense, 0.5)
        ctx.sessions[1].probe(self.sparse, PROBE_THRESHOLD, "jaccard")
        ctx.service.tiered.wait()

    def expected_counts(self) -> dict[str, int]:
        return {"sweep": self.steps, "append": self.steps,
                "topk": self.steps // 2, "probe": self.steps // 3}

    def ops(self, ctx: Context):
        owner, streamer = ctx.sessions

        def adopt(child):
            self.dense = child

        def maintain(_result):
            ctx.service.store.compact()
            ctx.service.store.gc()

        for step in range(self.steps):
            pairs = data.clustered_pairs(600 + 4 * (step + 1), 16)
            sampled = step % 8 == 0
            yield self.append_op(ctx, owner, self.dense,
                                 self.dense_batches[step], adopt=adopt,
                                 check=sampled, expect_pairs=pairs)
            threshold = SWEEP_THRESHOLDS[1 + step % 3]
            op = self.sweep_op(ctx, owner, self.dense, threshold,
                               check=sampled, expect_pairs=pairs)
            if (step + 1) % self.maintenance_every == 0:
                op.after = maintain
            yield op
            if step % 2 == 1:
                yield self.topk_op(ctx, owner, self.dense, threshold,
                                   check=sampled, source="store-")
            if step % 3 == 2:
                yield self.stream_probe_op(ctx, streamer,
                                           self.sparse_batches[step // 3])

    def stream_probe_op(self, ctx, session, batch) -> Op:
        """Ingest on the neardup lineage + tiered first answer on the child."""
        parent = self.sparse
        grown = []

        def call():
            child = session.ingest(parent, batch)
            grown.append(child)
            return session.probe(child, PROBE_THRESHOLD, "jaccard")

        def after(_answer):
            self.segments.append((parent.n_rows, batch.n_rows))
            self.sparse = ctx.hand(grown[0])

        def verify(answer):
            if answer.tier != "sketch":
                return [f"stream probe served by the {answer.tier} tier"]
            # Score each planted pair once: successive children share all
            # but their newest segment, and re-counting the shared pairs
            # would pass one dataset's luck off as many independent trials.
            fresh = [s for s in self.segments
                     if s[0] < grown[0].n_rows and s not in self.scored]
            self.scored.update(fresh)
            hit, expected = checks.twin_recall(answer.result.pairs, fresh)
            ctx.recall[0] += hit
            ctx.recall[1] += expected
            return []

        return Op("probe", call, after=after, verify=verify)


class Explore(Workload):
    """The paper's Figure 2.1 loop, driven through the service."""

    name = "explore"
    why = ("core.session + core.knowledge_cache + lsh + session/sketch "
           "persistence do the work: the one workload whose hot path is the "
           "paper's own contribution; service and store carry session state")
    full_steps = 15
    rows = 1200

    def setup(self, ctx: Context) -> None:
        rng = ctx.rng
        self.datasets = [data.neardup(rng, self.rows)
                         for _ in range(self.steps)]
        self.batches = [[data.neardup(rng, 20) for _ in range(3)]
                        for _ in range(self.steps)]

    def expected_counts(self) -> dict[str, int]:
        return {"sweep": 5 * self.steps, "topk": 3 * self.steps,
                "append": 3 * self.steps,
                "probe": len(WALK_DOWN + WALK_UP) * self.steps}

    def ops(self, ctx: Context):
        half = self.rows // 2
        options = {"measure": "jaccard", "candidate_strategy": "auto"}
        for index, dataset in enumerate(self.datasets):
            sampled = index % 2 == 0
            session = ctx.sessions[index % 2]
            ctx.hand(dataset)
            self.plasma = session.open_plasma(dataset, **options)
            # Sketches are built with the session, not inside its first
            # probe: the two knowledge-cold probes then cost about the same
            # and form one 25 % mode instead of two of 12.5 %.
            _ = self.plasma.sketch_store
            yield from self.walk(ctx, WALK_DOWN)
            # One cold sweep then four hot ones: a 20 % slow mode.
            for threshold in (0.5, 0.6, 0.7, 0.8, 0.7):
                yield self.sweep_op(ctx, session, dataset, threshold,
                                    "jaccard",
                                    check=sampled and threshold < 0.7,
                                    expect_pairs=half)
            for threshold in (0.5, 0.7, 0.6):
                yield self.topk_op(ctx, session, dataset, threshold, "jaccard",
                                   check=sampled, source="store-raw")
            for batch in self.batches[index]:
                yield self.explore_append_op(ctx, batch)
            grown = self.plasma.dataset
            self.plasma.close()
            self.plasma = session.open_plasma(grown, **options)
            if self.plasma.resumed_from != "store":
                ctx.violations.append(
                    f"reopened session on dataset {index} resumed from "
                    f"{self.plasma.resumed_from!r}, not the tenant's store")
            yield from self.walk(ctx, WALK_UP)
            self.plasma.close()

    def walk(self, ctx, thresholds):
        for threshold in thresholds:
            yield Op("probe",
                     lambda t=threshold: self.plasma.probe(t),
                     after=lambda result: self.note_reuse(ctx, result))

    @staticmethod
    def note_reuse(ctx, result) -> None:
        ctx.hash_reuse[0] += result.cached_hash_reuse
        ctx.hash_reuse[1] += (result.cached_hash_reuse
                              + result.apss.hash_comparisons)

    def explore_append_op(self, ctx, batch) -> Op:
        def call():
            self.plasma.extend_dataset(batch)
            return self.plasma.probe(PROBE_THRESHOLD)

        def after(result):
            ctx.hand(self.plasma.dataset)
            self.note_reuse(ctx, result)

        return Op("append", call, after=after)


WORKLOADS = {cls.name: cls
             for cls in (HotServe, ColdKernel, AppendStream, Explore)}


def warm_up(ctx: Context) -> None:
    """One untimed op of each kind on throwaway data.

    Finishes lazy imports and starts the refinement thread before the
    clock runs.  The throwaway datasets are handed to the service like any
    other, so they count as user bytes.
    """
    rng = ctx.rng
    session = ctx.service.open_session("warm-up")
    dense, tail = data.clustered(rng, 600, 4, 4)
    sparse = ctx.hand(data.neardup(rng, 1200))
    session.sweep(ctx.hand(dense), 0.5)
    session.top_k_join(dense, TOP_K, 0.6)
    session.sweep(ctx.hand(session.ingest(dense, tail)), 0.5)
    session.probe(sparse, PROBE_THRESHOLD, "jaccard")
    ctx.service.tiered.wait()
    with session.open_plasma(sparse, measure="jaccard",
                             candidate_strategy="auto") as plasma:
        plasma.probe(0.8)
        ctx.hand(plasma.extend_dataset(data.neardup(rng, 20)))
        plasma.probe(PROBE_THRESHOLD)
    session.close()
