"""Metric definitions: names, units, bounds, and how pass records become them.

``BENCHMARK.json`` lists exactly :data:`END_TO_END` and :data:`PER_LAYER`
(``test_ledger.py`` holds the two in step).  A *pass record* is the JSON
one ``worker.py`` process writes; a workload's metrics pool its passes.
"""

from __future__ import annotations

import statistics

import numpy as np

from workloads import KINDS

#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression:
#: 10 % for a timing whose spread stayed within 10 % in every A/A cell,
#: otherwise the next of 15 % and 25 % that covers the worst cell seen
#: (README.md, "A/A on the reference box").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("sweep_p50_ms", "ms", "lower", 0.10),
    ("topk_p50_ms", "ms", "lower", 0.10),
    ("append_p50_ms", "ms", "lower", 0.15),
    ("probe_p50_ms", "ms", "lower", 0.15),
    ("sweep_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("store_bytes_per_user_byte", "B/B", "lower", 0.005),
]

#: (name, unit, better).  ``X.self_ms`` is the summed self time of spans
#: named ``X`` in the measured phase of the traced pass, ``X.calls`` their
#: count; other names are defined in README.md.
PER_LAYER = [
    ("service.sweep.self_ms", "ms", "lower"),
    ("service.top_k_join.self_ms", "ms", "lower"),
    ("service.probe.self_ms", "ms", "lower"),
    ("service.ingest.self_ms", "ms", "lower"),
    ("service.topk_p90_ms", "ms", "lower"),
    ("service.append_p90_ms", "ms", "lower"),
    ("service.probe_p90_ms", "ms", "lower"),
    ("admission.wait_ms", "ms", "lower"),
    ("admission.shed", "count", "lower"),
    ("scheduler.self_ms", "ms", "lower"),
    ("scheduler.coalesced", "count", "lower"),
    ("service.burst_search_calls", "count", "lower"),
    ("cache.search.calls", "count", "lower"),
    ("cache.search.self_ms", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.delta_extensions", "count", "higher"),
    ("tiered.probe.self_ms", "ms", "lower"),
    ("tiered.sketch_answers", "count", "lower"),
    ("tiered.exact_answers", "count", "higher"),
    ("tiered.wait_ms", "ms", "lower"),
    ("tiered.recall", "ratio", "higher"),
    ("engine.search_calls", "count", "lower"),
    ("backends.exact_blocked.self_ms", "ms", "lower"),
    ("backends.bayeslsh.self_ms", "ms", "lower"),
    ("backends.exact_blocked.direct_ms", "ms", "lower"),
    ("backends.sharded.direct_ms", "ms", "lower"),
    ("delta.extend.calls", "count", "lower"),
    ("delta.extend.self_ms", "ms", "lower"),
    ("store.land_result.calls", "count", "lower"),
    ("store.land_result.self_ms", "ms", "lower"),
    ("store.load_result.calls", "count", "lower"),
    ("store.load_result.self_ms", "ms", "lower"),
    ("store.load_pairset.self_ms", "ms", "lower"),
    ("store.put.calls", "count", "lower"),
    ("store.put.bytes", "B", "lower"),
    ("store.put.self_ms", "ms", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.bytes", "B", "lower"),
    ("store.get.self_ms", "ms", "lower"),
    ("store.publish_generation.self_ms", "ms", "lower"),
    ("store.write_amplification", "B/B", "lower"),
    ("store.entries", "count", "lower"),
    ("store.evictions", "count", "lower"),
    ("store.compact.self_ms", "ms", "lower"),
    ("store.gc.self_ms", "ms", "lower"),
    ("store.fsck_errors", "count", "lower"),
    ("store.reopen.factorized_ms", "ms", "lower"),
    ("store.reopen.raw_ms", "ms", "lower"),
    ("pairsets.decode.calls", "count", "lower"),
    ("pairsets.decode.self_ms", "ms", "lower"),
    ("pairsets.pairs_decoded", "count", "lower"),
    ("pairsets.iter_chunks.self_ms", "ms", "lower"),
    ("pairsets.factorize.calls", "count", "lower"),
    ("pairsets.factorize.self_ms", "ms", "lower"),
    ("pairsets.compression_ratio", "ratio", "lower"),
    ("streaming.topk_update.self_ms", "ms", "lower"),
    ("session.probe.self_ms", "ms", "lower"),
    ("session.extend_dataset.self_ms", "ms", "lower"),
    ("session.persist.self_ms", "ms", "lower"),
    ("session.restore.self_ms", "ms", "lower"),
    ("knowledge_cache.self_ms", "ms", "lower"),
    ("knowledge_cache.hit_ratio", "ratio", "higher"),
    ("lsh.sketch_build_ms", "ms", "lower"),
    ("datasets.append_rows.self_ms", "ms", "lower"),
    ("datasets.fingerprint.self_ms", "ms", "lower"),
    ("runtime.gc.self_ms", "ms", "lower"),
    ("host.cpu_count", "count", "higher"),
    ("host.canary_ms_before", "ms", "lower"),
    ("host.canary_ms_after", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.sweep_share.store_pairsets", "ratio", "lower"),
    ("trace.sweep_share.kernel", "ratio", "lower"),
]

#: Span names whose summed self/total time or call count is reported under
#: another metric name.
_SPAN_METRICS = {
    "admission.wait_ms": ("admission.acquire", "total_ms"),
    "tiered.wait_ms": ("tiered.wait", "total_ms"),
    "lsh.sketch_build_ms": ("lsh.build_sketch_store", "self_ms"),
}


def pooled_samples(passes: list[dict]) -> dict[str, list[float]]:
    """Per-kind latency samples (seconds) pooled over *passes*."""
    return {kind: [s for record in passes for s in record["samples"][kind]]
            for kind in KINDS}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one workload from its untraced passes.

    Latency percentiles are taken over the samples of both passes pooled,
    throughput is all timed ops over the summed measured walls, set-up is
    summed, memory is the larger pass and space is all stored bytes over
    all user bytes.
    """
    samples = pooled_samples(passes)
    values = {
        "setup_s": sum(r["setup_s"] for r in passes),
        "ops_per_s": (sum(len(values) for values in samples.values())
                      / sum(r["wall_s"] for r in passes)),
        "sweep_p90_ms": 1e3 * float(np.percentile(samples["sweep"], 90)),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
        "store_bytes_per_user_byte": (sum(r["store_bytes"] for r in passes)
                                      / sum(r["user_bytes"] for r in passes)),
    }
    for kind in KINDS:
        values[f"{kind}_p50_ms"] = 1e3 * statistics.median(samples[kind])
    return values


def per_layer(traced: dict, twin: dict) -> dict[str, float]:
    """The per-layer metrics from a traced pass and its untraced twin."""
    spans = traced["spans"]
    values = dict(traced["layer_values"])
    values.update(traced["counts"])

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    for name, _, _ in PER_LAYER:
        if name in values:
            continue
        if name in _SPAN_METRICS:
            values[name] = span(*_SPAN_METRICS[name])
        elif name.endswith(".self_ms"):
            values[name] = span(name[:-len(".self_ms")], "self_ms")
        elif name.endswith(".calls"):
            values[name] = span(name[:-len(".calls")], "calls")
    values["scheduler.self_ms"] = (span("scheduler.search", "self_ms")
                                   + span("scheduler.coalesce", "self_ms"))
    values["pairsets.factorize.self_ms"] = (
        span("pairsets.factorize", "self_ms")
        + span("pairsets.factorize_result", "self_ms"))
    values["knowledge_cache.self_ms"] = (
        span("knowledge_cache.state", "self_ms")
        + span("knowledge_cache.from_state", "self_ms"))
    searches = span("cache.search", "calls")
    values["cache.hit_ratio"] = (
        1.0 - traced["counts"]["engine.search_calls"] / searches
        if searches else 0.0)
    samples = traced["samples"]
    for metric, kind in (("service.topk_p90_ms", "topk"),
                         ("service.append_p90_ms", "append"),
                         ("service.probe_p90_ms", "probe")):
        values[metric] = 1e3 * float(np.percentile(samples[kind], 90))
    values["host.canary_ms_before"], values["host.canary_ms_after"] = (
        traced["canary_ms"])
    values["trace.overhead_ratio"] = traced["wall_s"] / twin["wall_s"]
    return {name: values[name] for name, _, _ in PER_LAYER}
