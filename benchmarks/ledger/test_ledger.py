"""Self-test of the ledger at its ``--smoke`` scale.

Not part of the tier-1 suite (``pytest.ini`` collects ``tests/`` only); run
it by path.  It takes about three minutes: two end-to-end and two traced
smoke runs of all four workloads.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(tmp_path: Path, *flags: str) -> dict:
    """One ``run.py --smoke`` of all workloads; its final JSON line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
         "--out-dir", str(tmp_path), *flags],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert not list(tmp_path.glob("tmp-*")), "a temp store was left behind"
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    return [smoke(tmp_path_factory.mktemp(f"e2e{i}")) for i in range(2)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return [smoke(tmp_path_factory.mktemp(f"traced{i}"), "--traced")
            for i in range(2)]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        cls.why for cls in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER


def test_metric_names_and_counts():
    names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert len(metrics.END_TO_END) <= 16
    assert len(metrics.PER_LAYER) <= 128
    assert "setup_s" in [m[0] for m in metrics.END_TO_END]
    assert all(0 < m[3] <= 0.25 for m in metrics.END_TO_END)


def test_every_end_to_end_metric_for_every_workload(end_to_end):
    for run in end_to_end:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
        for workload in WORKLOADS:
            for name, unit, _, _ in metrics.END_TO_END:
                metric = run["metrics"][f"{workload}/{name}"]
                assert metric["unit"] == unit
                assert metric["value"] > 0
        assert len(run["metrics"]) == len(WORKLOADS) * len(metrics.END_TO_END)


def test_every_op_kind_in_every_workload(end_to_end, tmp_path_factory):
    for workload in WORKLOADS:
        for kind in KINDS:
            assert end_to_end[0]["metrics"][f"{workload}/{kind}_p50_ms"][
                "value"] > 0


def test_stored_bytes_repeat_exactly(end_to_end):
    first, second = end_to_end
    for workload in WORKLOADS:
        key = f"{workload}/store_bytes_per_user_byte"
        assert first["metrics"][key] == second["metrics"][key]


def test_traced_run_covers_the_wall_and_counts_repeat(traced):
    first, second = traced
    for run in traced:
        assert run["correct"] and run["failed"] == 0
        assert len(run["metrics"]) == len(WORKLOADS) * len(metrics.PER_LAYER)
    for workload in WORKLOADS:
        values = {name: first["metrics"][f"{workload}/{name}"]["value"]
                  for name, _, _ in metrics.PER_LAYER}
        assert values["trace.coverage"] >= 0.95
        assert values["service.burst_search_calls"] == 20
        assert values["admission.shed"] == 0
        assert values["store.fsck_errors"] == 0
        for name in ("engine.search_calls", "store.put.calls",
                     "store.put.bytes", "cache.search.calls",
                     "pairsets.pairs_decoded"):
            assert values[name] == second["metrics"][
                f"{workload}/{name}"]["value"], name


def test_the_workloads_stress_different_layers(traced):
    values = traced[0]["metrics"]
    assert values["hot-serve/engine.search_calls"]["value"] == 0
    assert values["hot-serve/trace.sweep_share.store_pairsets"]["value"] >= 0.8
    assert values["cold-kernel/trace.sweep_share.kernel"]["value"] >= 0.8
    assert values["cold-kernel/cache.hit_ratio"]["value"] < 0.5
    assert values["explore/session.probe.self_ms"]["value"] > 0
    assert values["append-stream/delta.extend.calls"]["value"] > 0
