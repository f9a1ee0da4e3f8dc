"""One pass of one workload in a fresh process with a fresh store.

Started by ``run.py``; writes one JSON *pass record*.  The order is fixed:
imports, canary, set-up (data generation, service construction, the
workload's own warm state, one untimed op of each kind, ``gc.freeze``),
measured phase, canary, output checks, and — in a traced pass — the burst
and micro sections.  The service under test receives generated datasets
only: the seed and the workload's name stay on this side of its API.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import data  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import KINDS, WORKLOADS, Context, warm_up  # noqa: E402

# Imported here so that set-up time excludes imports: the service imports
# these lazily on first use.
import repro.core.session  # noqa: E402,F401
import repro.store.delta  # noqa: E402,F401
import repro.store.gc  # noqa: E402,F401
from repro.service import SimilarityService  # noqa: E402
from repro.similarity import ApssEngine  # noqa: E402
from repro.store import SimilarityStore  # noqa: E402

#: The collector runs between ops, never inside one: every GC_EVERY-th op is
#: followed by a full collection inside the wall.  Left automatic, the old
#: generation is re-traversed about every second hot sweep (each decode
#: allocates 45k pairs) at a cost that grows with the cached floors, which
#: gave ``sweep`` two modes of 45 %/55 % — the median sat on the boundary.
GC_EVERY = 8
BURST_ROUNDS = 20
MICRO_DATASETS = 3
MICRO_REPEATS = 5
REOPEN_REPEATS = 10


def canary_ms() -> float:
    """A fixed piece of numpy + pure-Python work, timed (≈ 50 ms).

    The same work before and after every pass: if it moves, the machine
    moved, not the program.  Element-wise numpy on a cache-sized array —
    a BLAS call would time how many cores happen to be free, a large
    array the page faults of a young process.  Run twice, the second
    timed, for the same reason.
    """
    for _ in range(2):
        start = perf_counter()
        values = np.arange(50_000, dtype=np.float64)
        for _ in range(200):
            values = np.sqrt(values * values + 1.0)
        total = 0
        for i in range(800_000):
            total += i & 3
        elapsed = perf_counter() - start
    return elapsed * 1e3


def counts(service) -> dict[str, int]:
    """The service's own counters; reported as measured-phase deltas."""
    tiered = service.tiered
    caches = (service.compute, tiered.cache, tiered.sketch_cache)
    lanes = (service.admission.probe, service.admission.ingest)
    return {
        "engine.search_calls": service.engine.search_calls,
        "scheduler.coalesced": service.scheduler.coalesced,
        "cache.delta_extensions": sum(c.delta_extensions for c in caches),
        "tiered.sketch_answers": tiered.sketch_answers,
        "tiered.exact_answers": tiered.exact_answers,
        "admission.shed": sum(lane.shed for lane in lanes),
        "store.evictions": service.store.evictions,
    }


def measure(workload, ctx: Context, tracer: Tracer) -> dict:
    """The measured phase: one client, one op at a time."""
    samples = {kind: [] for kind in KINDS}
    violations: list[tuple[int, str]] = []
    pending = []
    attempted = 0
    drain = ctx.service.tiered.wait
    collect = tracer.wrap("runtime.gc", gc.collect)
    gc.disable()
    wall_start = perf_counter()
    for op_id, op in enumerate(workload.ops(ctx)):
        tracer.op_id, tracer.op_kind = op_id, op.kind
        attempted += 1
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed op is a result, not a crash
            violations.append(
                (op_id, f"op {op_id} ({op.kind}) raised {exc!r}"))
            continue
        samples[op.kind].append(perf_counter() - start)
        tracer.op_kind = ""  # what follows belongs to no op kind
        # Background refinement never overlaps a timed op: it is drained
        # here, inside the wall, as its own span.
        drain()
        if (op.expect_pairs is not None
                and len(result.pairs) != op.expect_pairs):
            violations.append((op_id, f"op {op_id} ({op.kind}) returned "
                               f"{len(result.pairs)} pairs, the data regime "
                               f"fixes {op.expect_pairs}"))
        if op.after is not None:
            op.after(result)
        if op.verify is not None:
            pending.append((op_id, op, result))
        if op_id % GC_EVERY == GC_EVERY - 1:
            collect()
    wall_s = perf_counter() - wall_start
    gc.enable()
    return {"samples": samples, "violations": violations, "pending": pending,
            "attempted": attempted, "wall_s": wall_s}


def burst_search_calls(service, rng) -> int:
    """Kernel passes spent on 20 two-thread bursts of identical cold sweeps."""
    datasets = [data.neardup(rng, 1200) for _ in range(BURST_ROUNDS)]
    session = service.open_session("burst")
    before = service.engine.search_calls
    for dataset in datasets:
        barrier = threading.Barrier(2)

        def client(dataset=dataset, barrier=barrier):
            barrier.wait()
            session.sweep(dataset, 0.5)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    session.close()
    return service.engine.search_calls - before


def kernel_direct_ms(rng) -> dict[str, float]:
    """Direct backend calls on fixed neardup-2000 datasets, median ms."""
    datasets = [data.neardup(rng, 2000) for _ in range(MICRO_DATASETS)]
    engine = ApssEngine()
    out = {}
    for metric, backend, options in (
            ("backends.exact_blocked.direct_ms", "exact-blocked", {}),
            ("backends.sharded.direct_ms", "sharded-blocked",
             {"n_workers": 2})):
        engine.search(datasets[0], 0.5, backend=backend, **options)
        times = []
        for dataset in datasets:
            for _ in range(MICRO_REPEATS):
                start = perf_counter()
                engine.search(dataset, 0.5, backend=backend, **options)
                times.append((perf_counter() - start) * 1e3)
        out[metric] = float(np.median(times))
    return out


def reopen_ms(root: Path, rng) -> dict[str, float]:
    """A fresh ``SimilarityStore(root).load_result`` of one floor, median ms.

    One factorised floor (clustered-600, 44 700 pairs) and one raw floor
    (neardup-2000, 1000 pairs), written once, each read back by a newly
    constructed store ten times.
    """
    engine = ApssEngine()
    dense, _ = data.clustered(rng, 600, 4)
    floors = {"store.reopen.factorized_ms": engine.search(dense, 0.5),
              "store.reopen.raw_ms": engine.search(data.neardup(rng, 2000),
                                                   0.5)}
    out = {}
    for metric, floor in floors.items():
        key = (metric, "cosine", floor.backend, ())
        SimilarityStore(root).save_result(key, floor)
        times = []
        for _ in range(REOPEN_REPEATS):
            start = perf_counter()
            loaded = SimilarityStore(root).load_result(key)
            times.append((perf_counter() - start) * 1e3)
        if loaded is None or len(loaded.pairs) != len(floor.pairs):
            raise RuntimeError(f"{metric}: reopened floor does not match")
        out[metric] = float(np.median(times))
    return out


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under *root*."""
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def sweep_shares(tracer: Tracer) -> dict[str, float]:
    """Where the time of ``sweep`` ops went, as shares of it."""
    by_name = tracer.self_ms_by_kind("sweep")
    total = sum(by_name.values())
    store = sum(ms for name, ms in by_name.items()
                if name.startswith(("store.", "pairsets.")))
    return {"trace.sweep_share.store_pairsets": ratio(store, total, 0.0),
            "trace.sweep_share.kernel": ratio(
                by_name.get("backends.exact_blocked", 0.0), total, 0.0)}


def ratio(numerator: float, denominator: float, empty: float) -> float:
    """``numerator / denominator``, or *empty* when there was nothing."""
    return numerator / denominator if denominator else empty


def layer_values(tracer: Tracer, ctx: Context, rng, root: Path,
                 wall_s: float, measured_user_bytes: int) -> dict:
    """The per-layer values that are not plain span sums (traced pass only).

    Runs the burst and the micro sections, so it belongs after the
    measured phase and before the service is closed.
    """
    counters = tracer.counters
    values = {
        "trace.coverage": tracer.client_self_s() / wall_s,
        "service.burst_search_calls": burst_search_calls(ctx.service, rng),
        "store.put.bytes": counters["store.put.bytes"],
        "store.get.bytes": counters["store.get.bytes"],
        "store.write_amplification": ratio(counters["store.put.bytes"],
                                           measured_user_bytes, 0.0),
        "store.entries": ctx.service.store.stats()["entries"],
        "pairsets.pairs_decoded": counters["pairsets.pairs_decoded"],
        "pairsets.compression_ratio": ratio(
            counters["pairsets.factorized_bytes"],
            counters["pairsets.raw_bytes"], 1.0),
        "tiered.recall": ratio(*ctx.recall, 1.0),
        "knowledge_cache.hit_ratio": ratio(*ctx.hash_reuse, 0.0),
        "host.cpu_count": os.cpu_count() or 1,
    }
    values.update(sweep_shares(tracer))
    # The micro sections time a few calls each: keep the collector, whose
    # cost follows the heap the workload left, out of them.
    gc.collect()
    gc.disable()
    values.update(kernel_direct_ms(rng))
    values.update(reopen_ms(root / "reopen", rng))
    gc.enable()
    return values


def run_pass(args) -> dict:
    """Run one pass and return its record."""
    root = Path(args.root)
    store_root = root / "store"
    tracer = Tracer()
    if args.traced:
        tracer.install()
    canary_before = canary_ms()

    setup_start = perf_counter()
    names = sorted(WORKLOADS)
    rng = np.random.default_rng(
        [args.seed, args.pass_index, names.index(args.workload)])
    service = SimilarityService(store_root)
    ctx = Context(service, rng, checks.Checker(np.random.default_rng(
        [args.seed, args.pass_index, len(names)])))
    workload = WORKLOADS[args.workload](args.seconds)
    workload.setup(ctx)
    warm_up(ctx)
    gc.collect()
    gc.freeze()
    setup_s = perf_counter() - setup_start

    before = counts(service)
    user_bytes_before = ctx.user_bytes
    tracer.recording = bool(args.traced)
    measured = measure(workload, ctx, tracer)
    tracer.recording = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = counts(service)
    canary_after = canary_ms()

    op_violations = list(measured["violations"])
    for op_id, op, result in measured["pending"]:
        op_violations += [(op_id, f"op {op_id} ({op.kind}): {text}")
                          for text in op.verify(result)]
    pass_violations = list(ctx.violations)
    for kind, expected in workload.expected_counts().items():
        if len(measured["samples"][kind]) != expected:
            pass_violations.append(
                f"{kind}: {len(measured['samples'][kind])} ops completed, "
                f"the script has {expected}")
    pass_violations += checks.recall_violations(*ctx.recall,
                                                service.tiered.recall_bound)

    record = {
        "workload": args.workload, "pass_index": args.pass_index,
        "traced": bool(args.traced), "pid": os.getpid(),
        "setup_s": setup_s, "wall_s": measured["wall_s"],
        "samples": measured["samples"], "attempted": measured["attempted"],
        "peak_rss_mb": peak_rss_mb, "canary_ms": [canary_before,
                                                  canary_after],
        "counts": {name: after[name] - before[name] for name in after},
        "recall": ctx.recall, "hash_reuse": ctx.hash_reuse,
    }
    if args.traced:
        record["spans"] = tracer.summary()
        record["layer_values"] = layer_values(
            tracer, ctx, rng, root, measured["wall_s"],
            ctx.user_bytes - user_bytes_before)
        tracer.write_jsonl(args.trace_out)

    for session in ctx.sessions:
        session.close()
    service.close(release_pools=True)
    record["store_bytes"] = tree_bytes(store_root)
    record["user_bytes"] = ctx.user_bytes
    store_errors = checks.store_violations(store_root)
    if args.traced:
        record["layer_values"]["store.fsck_errors"] = len(store_errors)
    pass_violations += store_errors
    pass_violations += [f"leaked {path}"
                        for path in checks.leaked_shm(os.getpid())]
    # A failed op counts once; every pass-level violation counts as one.
    record["violations"] = ([text for _, text in op_violations]
                            + pass_violations)
    record["failed"] = (len({op_id for op_id, _ in op_violations})
                        + len(pass_violations))
    return record


def main(argv=None) -> int:
    """Parse the pass description, run it, write the record."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--root", required=True,
                        help="empty scratch directory for this pass")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    record = run_pass(args)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
