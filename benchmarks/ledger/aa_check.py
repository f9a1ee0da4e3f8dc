#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 benchmarks/ledger/aa_check.py --sets 2 --runs 10

Each set runs every workload once per seed (seeds 1 to ``--runs``,
workloads interleaved within a seed) at the benchmark's own scale, as the
acceptance driver does: an A/A at another scale, or on some of the
workloads, says nothing about the bounds.  Per workload × end-to-end
metric it prints each set's median, quartiles and spread (interquartile
distance ÷ median), and applies the benchmark's own bounds:

* every spread stays within the metric's bound (the aim is a third of it);
* no later set's median is worse than the first set's by more than the
  bound;
* ``store_bytes_per_user_byte`` repeats exactly for the same seed;
* no op kind breaks the mode-boundary rule: if its samples split into two
  modes (a gap of ≥ 1.3× between neighbouring sorted samples), the slow
  mode may not hold 5–15 % (it would sit on the p90) or 40–60 % (on the
  median) of them.  Offenders are listed with a histogram.

Exit status 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from metrics import END_TO_END  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIRST_SEED = 1
MODE_GAP = 1.3
FORBIDDEN_SHARES = ((0.05, 0.15), (0.40, 0.60))


def slow_mode_share(samples: list[float]) -> float:
    """Share of *samples* above the widest relative gap, 0.0 if unimodal.

    The outer 2 % on each side are ignored when looking for the gap, so a
    lone outlier is not a mode.
    """
    values = np.sort(np.asarray(samples, dtype=float))
    n = len(values)
    low, high = int(0.02 * n), n - 1 - int(0.02 * n)
    if high - low < 2:
        return 0.0
    ratios = values[low + 1:high + 1] / values[low:high]
    split = int(np.argmax(ratios))
    if ratios[split] < MODE_GAP:
        return 0.0
    return float(n - (low + split + 1)) / n


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of *values*."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def run_once(workload: str, seed: int, out_dir: Path) -> dict:
    """One end-to-end run at the full scale; its result file's content."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{done.returncode}:\n{done.stdout[-2000:]}\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(
        (out_dir / f"result-{workload}-seed{seed}-e2e.json").read_text())


def compare(results: dict[tuple, dict], sets: int, seeds: range) -> list[str]:
    """Print the per-set statistics of *results*; return the disagreements.

    *results* maps ``(set index, seed, workload)`` to a result.
    """
    problems: list[str] = []
    for name in WORKLOADS:
        print(f"\n== {name}")
        print(f"   {'metric':<28}{'set':>4}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>7}")
        for metric, _, better, bound in END_TO_END:
            medians = []
            for index in range(sets):
                values = [results[index, seed, name]["metrics"][metric]
                          ["value"] for seed in seeds]
                median, q1, q3, relative = spread(values)
                medians.append(median)
                verdict = ""
                if relative > bound:
                    verdict = "  SPREAD > BOUND"
                    problems.append(f"{name}/{metric} set {index + 1}: "
                                    f"spread {relative:.3f} > {bound}")
                elif relative > bound / 3:
                    verdict = "  (above a third of the bound)"
                print(f"   {metric:<28}{index + 1:>4}{median:>12.4f}"
                      f"{q1:>12.4f}{q3:>12.4f}{relative:>9.3f}{bound:>7.3f}"
                      f"{verdict}")
            for index in range(1, sets):
                change = medians[index] / medians[0] - 1.0
                worse = -change if better == "higher" else change
                if worse > bound:
                    problems.append(
                        f"{name}/{metric}: set {index + 1} median is "
                        f"{worse:.3f} worse than set 1's (bound {bound})")
        for seed in seeds:
            ratios = {results[index, seed, name]["metrics"]
                      ["store_bytes_per_user_byte"]["value"]
                      for index in range(sets)}
            if len(ratios) > 1:
                problems.append(f"{name} seed {seed}: store_bytes_per_user_"
                                f"byte did not repeat exactly: {ratios}")
        for index in range(sets):
            for seed in seeds:
                problems += mode_problems(name, index, seed,
                                          results[index, seed, name])
    return problems


def mode_problems(name: str, index: int, seed: int, result: dict) -> list[str]:
    """The op kinds of one run whose pooled samples break the mode rule."""
    problems = []
    for kind, per_pass in result["samples_ms"].items():
        samples = [v for values in per_pass for v in values]
        share = slow_mode_share(samples)
        if any(low <= share <= high for low, high in FORBIDDEN_SHARES):
            counts, edges = np.histogram(samples, bins=12)
            problems.append(
                f"{name}/{kind} set {index + 1} seed {seed}: slow mode holds "
                f"{share:.1%} of {len(samples)} samples; histogram "
                f"{counts.tolist()} over {edges[0]:.1f}..{edges[-1]:.1f} ms")
    return problems


def main(argv=None) -> int:
    """Run the sets, print the comparison, return the verdict."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out-dir", type=Path, default=HERE / "out" / "aa")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    seeds = range(FIRST_SEED, FIRST_SEED + args.runs)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[tuple, dict] = {}
    for index in range(args.sets):
        for seed in seeds:
            for name in WORKLOADS:
                results[index, seed, name] = run_once(name, seed,
                                                      args.out_dir)
                print(f"set {index + 1} seed {seed} {name}: done",
                      file=sys.stderr)
    (args.out_dir / "aa-runs.json").write_text(json.dumps(
        [{"set": index, "seed": seed, "workload": name, "result": result}
         for (index, seed, name), result in results.items()]))

    problems = compare(results, args.sets, seeds)
    print()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("A/A verdict:", "agree within bounds" if not problems
          else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
