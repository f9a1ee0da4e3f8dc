"""APSS backend matrix benchmark: backends x measures x dataset scales.

Runs every registered engine backend over a grid of workloads, checks that
the exact backends agree pairwise, and reports wall-clock speedups against
the ``exact-loop`` reference plus a worker-count scaling column for the
sharded backend (speedup vs ``exact-blocked`` at 1/2/4 workers).  Dual
interface:

* ``PYTHONPATH=src python benchmarks/bench_apss_backends.py [--smoke|--check]``
  — standalone CLI printing the matrix (``--smoke`` shrinks the workloads
  for CI; ``--check`` only verifies the registry roster and exits, so a
  backend module that fails to import or register fails fast without any
  benchmarking; the default sizes include the 2000x200 dense cosine workload
  the engine's >=10x blocked-vs-loop claim is measured on).  ``--json PATH``
  additionally writes the rows as machine-readable JSON (per-backend
  seconds, speedups, worker counts) — CI uploads that file as an artifact so
  the ``BENCH_*.json`` trajectory tracking has per-run data.
* ``pytest benchmarks/bench_apss_backends.py`` — pytest-benchmark harness
  over the smoke matrix with shape assertions.

Results land in ``benchmarks/results/apss_backend_matrix*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from repro.datasets import make_clustered_vectors, make_sparse_corpus
from repro.similarity import ApssEngine, available_backends, reset_shared_pools
from repro.similarity.backends.sharded import STRAGGLER_ENV_VAR

#: Backends the registry must expose; a missing name means a backend module
#: failed to import or register, which CI should treat as a hard failure.
EXPECTED_BACKENDS = frozenset(
    {"exact-loop", "exact-blocked", "prefix-filter", "bayeslsh",
     "sharded-blocked"})

#: Candidate-generation strategies ``bayeslsh`` must declare through
#: ``parity_variants()`` — the banded column is how candidate-generation
#: regressions (a lost strategy, a renamed option) surface in ``--check``
#: before any benchmarking happens.
EXPECTED_BAYESLSH_STRATEGIES = ("all", "banded")


def check_registry() -> None:
    """Fail loudly when the backend registry lost a backend or strategy."""
    registered = set(available_backends())
    missing = EXPECTED_BACKENDS - registered
    if missing:
        raise SystemExit(
            f"APSS backend registry is missing {sorted(missing)} "
            f"(registered: {sorted(registered)}); a backend module failed "
            f"to import or register")
    from repro.similarity import get_backend_class

    strategies = tuple(options.get("candidate_strategy")
                       for options in
                       get_backend_class("bayeslsh").parity_variants())
    if strategies != EXPECTED_BAYESLSH_STRATEGIES:
        raise SystemExit(
            f"bayeslsh parity variants declare candidate strategies "
            f"{strategies}, expected {EXPECTED_BAYESLSH_STRATEGIES}; the "
            f"banded candidate path lost its registry seam")


#: Backend specs are either a registry name or ``(label, name, options)``;
#: labels keep the sharded worker-scaling rows distinguishable.
#: (workload name, dataset builder, measure, threshold, backend specs)
SMOKE_WORKLOADS = [
    ("dense-200x50-cosine",
     lambda: make_clustered_vectors(200, 50, 6, separation=4.0, seed=41,
                                    name="dense-200x50"),
     "cosine", 0.5,
     ["exact-loop", "exact-blocked", "prefix-filter",
      ("bayeslsh@all", "bayeslsh", {"candidate_strategy": "all"}),
      ("bayeslsh@banded", "bayeslsh", {"candidate_strategy": "banded"}),
      ("sharded@2w", "sharded-blocked", {"n_workers": 2})]),
    ("sparse-150x300-jaccard",
     lambda: make_sparse_corpus(150, 300, avg_doc_length=18, n_topics=5,
                                seed=43, name="sparse-150x300"),
     "jaccard", 0.3,
     ["exact-loop", "exact-blocked", "prefix-filter", "bayeslsh"]),
]

FULL_WORKLOADS = [
    # The headline workload: 2k x 200 dense cosine — blocked vs loop, plus
    # the sharded worker-count scaling ladder against exact-blocked.
    ("dense-2000x200-cosine",
     lambda: make_clustered_vectors(2000, 200, 10, separation=4.0, seed=47,
                                    name="dense-2000x200"),
     "cosine", 0.5,
     ["exact-loop", "exact-blocked",
      ("sharded@1w", "sharded-blocked", {"n_workers": 1}),
      ("sharded@2w", "sharded-blocked", {"n_workers": 2}),
      ("sharded@4w", "sharded-blocked", {"n_workers": 4})]),
    ("sparse-1500x2000-jaccard",
     lambda: make_sparse_corpus(1500, 2000, avg_doc_length=20, n_topics=12,
                                seed=49, name="sparse-1500x2000"),
     "jaccard", 0.4,
     ["exact-loop", "exact-blocked", "prefix-filter",
      ("sharded@4w", "sharded-blocked", {"n_workers": 4})]),
    ("dense-400x64-cosine-all-backends",
     lambda: make_clustered_vectors(400, 64, 8, separation=4.0, seed=51,
                                    name="dense-400x64"),
     "cosine", 0.6,
     ["exact-loop", "exact-blocked", "prefix-filter",
      ("bayeslsh@all", "bayeslsh", {"candidate_strategy": "all"}),
      ("bayeslsh@banded", "bayeslsh", {"candidate_strategy": "banded"}),
      ("sharded@2w", "sharded-blocked", {"n_workers": 2})]),
]


def _backend_spec(spec) -> tuple[str, str, dict]:
    """Normalise a backend spec into ``(label, registry name, options)``."""
    if isinstance(spec, str):
        return spec, spec, {}
    label, name, options = spec
    return label, name, dict(options)


def run_matrix(smoke: bool = True) -> list[dict]:
    """Run the workload matrix and return one row per (workload, backend)."""
    engine = ApssEngine()
    workloads = SMOKE_WORKLOADS if smoke else FULL_WORKLOADS
    rows: list[dict] = []
    for name, build, measure, threshold, backends in workloads:
        dataset = build()
        reference_count = None
        reference_seconds = None
        blocked_seconds = None
        for spec in backends:
            label, backend, options = _backend_spec(spec)
            result = engine.search(dataset, threshold, measure,
                                   backend=backend, **options)
            if backend == "exact-loop":
                reference_count = result.pair_count()
                reference_seconds = result.seconds
            if backend == "exact-blocked":
                blocked_seconds = result.seconds
            speedup = (reference_seconds / result.seconds
                       if reference_seconds and result.seconds > 0 else None)
            vs_blocked = (blocked_seconds / result.seconds
                          if blocked_seconds and result.seconds > 0 else None)
            rows.append({
                "workload": name,
                "n_rows": dataset.n_rows,
                "n_features": dataset.n_features,
                "measure": measure,
                "threshold": threshold,
                "backend": label,
                "n_workers": options.get("n_workers"),
                "candidate_strategy": options.get("candidate_strategy"),
                "exact": result.exact,
                "pairs": result.pair_count(),
                "reference_pairs": reference_count,
                "seconds": result.seconds,
                "speedup_vs_loop": speedup,
                "speedup_vs_blocked": vs_blocked,
            })
    return rows


def check_matrix(rows: list[dict]) -> None:
    """Assert the cross-backend invariants the matrix must uphold."""
    for row in rows:
        if row["exact"] and row["reference_pairs"] is not None:
            assert row["pairs"] == row["reference_pairs"], (
                f"{row['backend']} returned {row['pairs']} pairs on "
                f"{row['workload']}, exact-loop returned {row['reference_pairs']}")
        elif row["reference_pairs"]:
            # Approximate backends must land in the right ballpark.
            ratio = row["pairs"] / row["reference_pairs"]
            assert 0.5 < ratio < 1.5, (
                f"{row['backend']} count ratio {ratio:.2f} on {row['workload']}")


def format_table(rows: list[dict]) -> str:
    header = (f"{'workload':<28} {'backend':<14} {'pairs':>8} "
              f"{'seconds':>10} {'vs loop':>8} {'vs blocked':>11}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = (f"{row['speedup_vs_loop']:.1f}x"
                   if row["speedup_vs_loop"] else "-")
        vs_blocked = (f"{row['speedup_vs_blocked']:.2f}x"
                      if row.get("speedup_vs_blocked") else "-")
        lines.append(f"{row['workload']:<28} {row['backend']:<14} "
                     f"{row['pairs']:>8} {row['seconds']:>10.4f} "
                     f"{speedup:>8} {vs_blocked:>11}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Straggler scenario: work stealing vs static shard binding
# --------------------------------------------------------------------- #

#: Slowdown applied to worker slot 0 (via ``REPRO_APSS_STRAGGLER``): every
#: shard it computes takes 10x longer, the canonical "one bad core" case.
STRAGGLER_FACTOR = 10.0

#: Floor the stealing-vs-static speedup must clear with one worker slowed
#: ``STRAGGLER_FACTOR``x.  The ideal is ~(slots + factor - 1) / factor
#: (static waits for the straggler's whole stripe; stealing leaves it one
#: shard); 1.5x leaves generous headroom for scheduling overhead on small
#: CI machines.
STRAGGLER_MIN_SPEEDUP = 1.5


def _straggler_workload(smoke: bool):
    if smoke:
        return make_clustered_vectors(1000, 96, 8, separation=4.0, seed=53,
                                      name="straggler-1000x96"), 0.5
    return make_clustered_vectors(1600, 160, 10, separation=4.0, seed=53,
                                  name="straggler-1600x160"), 0.5


def run_straggler(smoke: bool = True, n_workers: int = 4,
                  repeats: int = 3) -> list[dict]:
    """Time static-bound vs stealing shard execution with a slowed worker.

    Worker slot 0 is slowed ``STRAGGLER_FACTOR``x through the
    ``REPRO_APSS_STRAGGLER`` hook (the sleep is proportional to each shard's
    measured kernel time, so the ratio is machine-free).  Static binding
    (``steal=False``: same queue, stealing off) must wait for the
    straggler's entire stripe; stealing redistributes it.  Both modes must
    return identical pairs; rows report per-mode seconds, the per-worker
    claim counters and the stealing row's ``speedup_vs_static``.
    """
    engine = ApssEngine()
    dataset, threshold = _straggler_workload(smoke)
    # Size blocks so the plan really has shards_per_worker shards per slot —
    # the default memory budget would fit the whole bench dataset in one
    # block, collapsing both modes to a single shard.  Fine shards (8 per
    # worker) keep the straggler's marginal claim cheap, which tightens the
    # run-to-run spread on small machines.
    shards_per_worker = 8
    options = dict(n_workers=n_workers, shards_per_worker=shards_per_worker,
                   block_rows=max(1, dataset.n_rows
                                  // (n_workers * shards_per_worker)))
    previous = os.environ.get(STRAGGLER_ENV_VAR)
    os.environ[STRAGGLER_ENV_VAR] = str(STRAGGLER_FACTOR)
    reset_shared_pools()
    try:
        # Warm the slowed pool and publish the dataset once, off the clock.
        engine.search(dataset, threshold, "cosine", backend="sharded-blocked",
                      steal=True, **options)
        rows = []
        reference_pairs = None
        static_seconds = None
        for label, steal in (("static-bound", False), ("stealing", True)):
            best = None
            for _ in range(repeats):
                result = engine.search(dataset, threshold, "cosine",
                                       backend="sharded-blocked", steal=steal,
                                       **options)
                if best is None or result.seconds < best.seconds:
                    best = result
            pairs = [p.as_tuple() for p in best.pairs]
            if reference_pairs is None:
                reference_pairs = pairs
            assert pairs == reference_pairs, (
                f"{label} returned different pairs under the straggler")
            if label == "static-bound":
                static_seconds = best.seconds
            rows.append({
                "scenario": "straggler",
                "workload": dataset.name,
                "n_workers": n_workers,
                "n_shards": best.details["n_shards"],
                "straggler_factor": STRAGGLER_FACTOR,
                "mode": label,
                "steal": best.details["steal"],
                "claims": {str(slot): count for slot, count
                           in sorted(best.details["claims"].items())},
                "pairs": len(pairs),
                "seconds": best.seconds,
                "speedup_vs_static": (static_seconds / best.seconds
                                      if label == "stealing" else None),
            })
        return rows
    finally:
        if previous is None:
            os.environ.pop(STRAGGLER_ENV_VAR, None)
        else:
            os.environ[STRAGGLER_ENV_VAR] = previous
        reset_shared_pools()


def check_straggler(rows: list[dict]) -> None:
    """Assert stealing actually rescues the straggler workload."""
    by_mode = {row["mode"]: row for row in rows}
    stealing = by_mode["stealing"]
    static = by_mode["static-bound"]
    speedup = stealing["speedup_vs_static"]
    assert speedup is not None and speedup >= STRAGGLER_MIN_SPEEDUP, (
        f"stealing only {speedup:.2f}x faster than static binding with a "
        f"{STRAGGLER_FACTOR:g}x-slowed worker (static {static['seconds']:.3f}s,"
        f" stealing {stealing['seconds']:.3f}s); floor is "
        f"{STRAGGLER_MIN_SPEEDUP}x")
    # The straggler must visibly shed work to its peers.  Which queue slot
    # runs on the slowed *process* is the pool's choice, so the signature is
    # the redistribution itself: static binding claims exactly one stripe
    # per slot, stealing must end with somebody under it and somebody over.
    stripe = static["n_shards"] // static["n_workers"]
    assert all(count == stripe for count in static["claims"].values()), (
        f"static binding did not claim exact stripes: {static['claims']}")
    counts = stealing["claims"].values()
    assert min(counts) < stripe < max(counts), (
        f"stealing did not redistribute the straggler's stripe: "
        f"{stealing['claims']}")


def format_straggler_table(rows: list[dict]) -> str:
    header = (f"{'mode':<14} {'shards':>7} {'claims[0]':>10} "
              f"{'seconds':>10} {'vs static':>10}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = (f"{row['speedup_vs_static']:.2f}x"
                   if row["speedup_vs_static"] else "-")
        lines.append(f"{row['mode']:<14} {row['n_shards']:>7} "
                     f"{row['claims']['0']:>10} {row['seconds']:>10.4f} "
                     f"{speedup:>10}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# pytest-benchmark harness (smoke scale)
# --------------------------------------------------------------------- #

def test_apss_backend_matrix(benchmark, record):
    check_registry()
    rows = benchmark.pedantic(lambda: run_matrix(smoke=True),
                              rounds=1, iterations=1)
    record("apss_backend_matrix_smoke", rows)
    check_matrix(rows)

    by_backend = {(r["workload"], r["backend"]): r for r in rows}
    for workload, *_ in [(w[0],) for w in SMOKE_WORKLOADS]:
        loop = by_backend[(workload, "exact-loop")]
        blocked = by_backend[(workload, "exact-blocked")]
        # The vectorised kernel must be decisively faster than the loop even
        # at smoke scale (the full 2000x200 workload shows >=10x).
        assert blocked["seconds"] * 5 < loop["seconds"], (
            f"exact-blocked only {loop['seconds'] / blocked['seconds']:.1f}x "
            f"faster on {workload}")


def test_straggler_stealing_beats_static_binding(record):
    """Smoke-scale straggler scenario: stealing must rescue a slowed worker."""
    rows = run_straggler(smoke=True)
    record("straggler_smoke", rows)
    check_straggler(rows)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def json_payload(rows: list[dict], smoke: bool) -> dict:
    """The machine-readable benchmark payload ``--json`` writes.

    One dict per (workload, backend) row — per-backend ``seconds``,
    ``speedup_vs_loop``/``speedup_vs_blocked`` and ``n_workers`` — plus
    enough run metadata to compare artifacts across CI runs.
    """
    return {
        "benchmark": "apss_backend_matrix",
        "smoke": bool(smoke),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "backends": sorted(available_backends()),
        "rows": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the reduced CI-sized matrix")
    parser.add_argument("--check", action="store_true",
                        help="only verify the backend registry roster "
                             "(fails fast on import/registration errors)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the matrix rows as machine-readable "
                             "JSON to PATH (uploaded as a CI artifact)")
    parser.add_argument("--straggler", action="store_true",
                        help="run the straggler scenario instead of the "
                             "matrix: one worker slowed 10x, stealing vs "
                             "static shard binding")
    args = parser.parse_args(argv)

    check_registry()
    if args.check:
        print(f"backend registry ok: {sorted(available_backends())}")
        return 0

    from conftest import record_result

    suffix = "_smoke" if args.smoke else ""
    if args.straggler:
        rows = run_straggler(smoke=args.smoke)
        print(format_straggler_table(rows))
        check_straggler(rows)
        path = record_result(f"straggler{suffix}", rows)
        print(f"\nresults written to {path}")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(rows, handle, indent=2, default=float)
            print(f"machine-readable straggler rows written to {args.json}")
        return 0

    rows = run_matrix(smoke=args.smoke)
    check_matrix(rows)
    print(format_table(rows))

    path = record_result(f"apss_backend_matrix{suffix}", rows)
    print(f"\nresults written to {path}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(json_payload(rows, smoke=args.smoke), handle, indent=2,
                      default=float)
        print(f"machine-readable matrix written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
