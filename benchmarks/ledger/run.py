#!/usr/bin/env python3
"""The service ledger: end-to-end and per-layer numbers for ``repro.service``.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N]
                                     [--seconds S | --smoke]
                                     [--trace 0|1 | --traced]

Runs the named workload (default: all four, passes interleaved
A B C D A B C D) against ``repro.service.SimilarityService``, one pass per
fresh subprocess and fresh temp store, prints every metric by name with
its unit, checks that outputs are correct, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.

An end-to-end run (``--trace 0``) is two untraced passes with different
content; its metrics are the ones ``BENCHMARK.json`` bounds.  A traced run
(``--trace 1``) is one traced pass plus an untraced twin of the *same*
pass, so ``trace.overhead_ratio`` compares like with like; its metrics are
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from workloads import FULL_SECONDS, KINDS, WORKLOADS  # noqa: E402

SMOKE_SECONDS = 1.0
PASS_TIMEOUT_S = 150
OUT = HERE / "out"


class LedgerError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_pass(workload: str, pass_index: int, traced: bool, args,
             out_dir: Path) -> dict:
    """One worker subprocess; returns its pass record."""
    tag = f"{workload}-p{pass_index}-{'traced' if traced else 'plain'}"
    root = out_dir / f"tmp-{tag}"
    if root.exists():
        raise LedgerError(f"{root} was left behind by an earlier pass; "
                          "inspect and remove it")
    root.mkdir(parents=True)
    record_path = out_dir / f"pass-{tag}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--pass-index", str(pass_index),
               "--seconds", str(args.seconds), "--traced", str(int(traced)),
               "--root", str(root), "--out", str(record_path),
               "--trace-out", str(out_dir / f"trace-{workload}.jsonl")]
    # One kernel worker for the end-to-end run: pool processes under the
    # GIL-bound client made 4-8 ms ops swing 12 %.  Temp files stay inside
    # the pass's own directory.
    (root / "tmp").mkdir()
    env = dict(os.environ, REPRO_APSS_WORKERS="1", TMPDIR=str(root / "tmp"))
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
        if done.returncode != 0:
            raise LedgerError(f"pass {tag} exited with {done.returncode}:\n"
                              f"{done.stderr[-4000:]}")
        record = json.loads(record_path.read_text())
    finally:
        shutil.rmtree(root, ignore_errors=True)
        record_path.unlink(missing_ok=True)
    leaked = checks.leaked_shm(record["pid"])
    if leaked or root.exists():
        raise LedgerError(f"pass {tag} left behind: {leaked or root}")
    return record


def reproducibility(args, passes: list[dict]) -> dict:
    """What is needed to repeat a result, written into every result file."""
    return {
        "seed": args.seed, "seconds": args.seconds, "git_sha": git_sha(),
        "host.cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "REPRO_APSS_WORKERS": "1",
        "samples_per_kind": {kind: len(values) for kind, values in
                             metrics.pooled_samples(passes).items()},
    }


def summarise(workload: str, passes: list[dict], args) -> dict:
    """Pool one workload's passes into its result."""
    if args.trace:
        traced, twin = passes
        values = metrics.per_layer(traced, twin)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    else:
        values = metrics.end_to_end(passes)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    return {
        "workload": workload, "why": WORKLOADS[workload].why,
        "mode": "traced" if args.trace else "end-to-end",
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "violations": [v for r in passes for v in r["violations"]],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
        "samples_ms": {kind: [[round(1e3 * v, 4) for v in r["samples"][kind]]
                              for r in passes] for kind in KINDS},
        "wall_s": [r["wall_s"] for r in passes],
        "canary_ms": [r["canary_ms"] for r in passes],
        "counts": [r["counts"] for r in passes],
        "reproducibility": reproducibility(args, passes),
    }


def report(result: dict) -> None:
    """Print one workload's metrics by name, with units."""
    repro_record = result["reproducibility"]
    counts = ", ".join(f"{kind} {n}" for kind, n in
                       repro_record["samples_per_kind"].items())
    print(f"\n== {result['workload']} ({result['mode']}, seed "
          f"{repro_record['seed']}) — samples: {counts}")
    print(f"   why: {result['why']}")
    print("   measured wall per pass: "
          + ", ".join(f"{wall:.2f} s" for wall in result["wall_s"])
          + "; canary before/after: "
          + ", ".join(f"{a:.0f}/{b:.0f} ms" for a, b in result["canary_ms"]))
    for name, metric in result["metrics"].items():
        print(f"   {name:<38} {metric['value']:>14.4f} {metric['unit']}")
    print(f"   {'failed_share':<38} {result['failed_share']:>14.4f} ratio "
          f"({result['failed']} of {result['attempted']})")
    for violation in result["violations"]:
        print(f"   VIOLATION: {violation}")


def main(argv=None) -> int:
    """Run the requested workloads and print the ledger."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=FULL_SECONDS,
                        help="measured seconds per workload on the reference "
                             "2-core box; op counts scale with it")
    parser.add_argument("--smoke", action="store_true",
                        help=f"the {SMOKE_SECONDS:g}-second scale")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--out-dir", type=Path, default=OUT)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS

    names = [args.workload] if args.workload else list(WORKLOADS)
    plan = [(0, True), (0, False)] if args.trace else [(0, False), (1, False)]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    passes: dict[str, list[dict]] = {name: [] for name in names}
    try:
        for pass_index, traced in plan:
            for name in names:
                passes[name].append(
                    run_pass(name, pass_index, traced, args, args.out_dir))
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2

    results = [summarise(name, passes[name], args) for name in names]
    for result in results:
        report(result)
        mode = "traced" if args.trace else "e2e"
        path = args.out_dir / (f"result-{result['workload']}-seed{args.seed}"
                               f"-{mode}.json")
        path.write_text(json.dumps(result, indent=1))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    merged = {}
    for result in results:
        prefix = "" if args.workload else result["workload"] + "/"
        for name, metric in result["metrics"].items():
            merged[prefix + name] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
