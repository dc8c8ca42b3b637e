"""Metric arithmetic: percentiles, the end-to-end set and the per-layer ledger."""

from __future__ import annotations

import math
import statistics

#: A failed or refused job counts as missing every latency limit: its
#: latency is infinite, and a percentile that lands on it reads as this.
FAILED_LATENCY_MS = 1e12

#: ``job_p99_ms`` needs at least ten samples beyond the 99th percentile.
P99_MIN_SAMPLES = 1000

#: End-to-end metrics every run reports (``BENCHMARK.json`` lists these).
END_TO_END = {
    "setup_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "jobs_per_s": "1/s",
    "schedule_cycles_total": "cycles",
    "peak_rss_mb": "MB",
}

#: Printed beside the end-to-end set but not in the final JSON line:
#: ``failed_frac`` is 0 on a healthy run (the JSON's ``failed`` and
#: ``attempted`` carry it), ``job_p99_ms`` exists only on runs with
#: :data:`P99_MIN_SAMPLES` samples, and the ``raw_`` percentiles are the
#: latencies before the host-speed scaling whose median factor is
#: ``host_factor``.
EXTRA_END_TO_END = {
    "failed_frac": "ratio",
    "job_p99_ms": "ms",
    "raw_job_p50_ms": "ms",
    "raw_job_p90_ms": "ms",
    "host_factor": "ratio",
}

#: Per-layer metrics of the traced run, with units.  ``ms/job`` is summed
#: self time per timed job; counts are per job unless the unit says
#: otherwise.
PER_LAYER = {
    "dfg.digest_ms": "ms/job",
    "dfg.validate_ms": "ms/job",
    "dfg.subgraph_digest_ms": "ms/job",
    "dfg.subgraph_digest_calls": "calls/job",
    "dfg.edit_ms": "ms/job",
    "exec.plan_ms": "ms/job",
    "exec.classify_ms": "ms/job",
    "exec.classify_calls": "calls/job",
    "exec.merge_ms": "ms/job",
    "core.catalog_ms": "ms/job",
    "core.catalog_attempts": "passes/build",
    "core.catalog_useful_ratio": "ratio",
    "core.selection_ms": "ms/job",
    "scheduling.schedule_ms": "ms/job",
    "analysis.metrics_ms": "ms/job",
    "policy.signature_ms": "ms/job",
    "policy.record_ms": "ms/job",
    "service.submit_self_ms": "ms/job",
    "service.cache_hit_ratio.result": "ratio",
    "service.cache_hit_ratio.catalog": "ratio",
    "service.cache_hit_ratio.selection": "ratio",
    "service.partition_hit_ratio": "ratio",
    "service.serialize.result_encode_ms": "ms/job",
    "service.serialize.result_bytes": "bytes/response",
    "service.serialize.result_decode_ms": "ms/job",
    "service.serialize.shard_rows_encode_ms": "ms/job",
    "service.serialize.shard_rows_decode_ms": "ms/job",
    "service.store.get_ms": "ms/job",
    "service.store.put_ms": "ms/job",
    "service.store.put_bytes": "bytes/job",
    "service.client.roundtrip_ms": "ms/job",
    "service.wire_ms": "ms/job",
    "service.shard.build_catalog_ms": "ms/job",
    "service.shard.rpc_ms": "ms/job",
    "service.shard.rpc_calls": "calls/job",
    "service.shard.dispatched": "count/job",
    "service.shard.claim_rounds": "count/job",
    "service.shard.partial_hit_ratio": "ratio",
    "service.shard.remote_partial_hits": "count/job",
    "service.shard.steals": "count/job",
    "service.retry.retries": "count/job",
    "service.retry.failovers": "count/job",
    "service.retry.local_fallbacks": "count/job",
    "unattributed_ms": "ms/job",
    "trace.coverage_ratio": "ratio",
    "trace.job_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}

#: Timed layers: metric name → tracer layer.
TIMED_LAYERS = {
    "dfg.digest_ms": "dfg.digest",
    "dfg.validate_ms": "dfg.validate",
    "dfg.subgraph_digest_ms": "dfg.subgraph_digest",
    "dfg.edit_ms": "dfg.edit",
    "exec.plan_ms": "exec.plan",
    "exec.classify_ms": "exec.classify",
    "exec.merge_ms": "exec.merge",
    "core.catalog_ms": "core.catalog",
    "core.selection_ms": "core.selection",
    "scheduling.schedule_ms": "scheduling.schedule",
    "analysis.metrics_ms": "analysis.metrics",
    "policy.signature_ms": "policy.signature",
    "policy.record_ms": "policy.record",
    "service.submit_self_ms": "service.submit",
    "service.serialize.result_encode_ms": "service.serialize.result_encode",
    "service.serialize.result_decode_ms": "service.serialize.result_decode",
    "service.serialize.shard_rows_encode_ms": "service.serialize.shard_rows_encode",
    "service.serialize.shard_rows_decode_ms": "service.serialize.shard_rows_decode",
    "service.store.get_ms": "service.store.get",
    "service.store.put_ms": "service.store.put",
    "service.shard.build_catalog_ms": "service.shard.build_catalog",
    "service.shard.rpc_ms": "service.shard.rpc",
}

#: Call counters: metric name → tracer layer.
COUNTED_LAYERS = {
    "dfg.subgraph_digest_calls": "dfg.subgraph_digest",
    "exec.classify_calls": "exec.classify",
    "service.shard.rpc_calls": "service.shard.rpc",
}


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolated ``q`` quantile (0..1) of ``values``.

    Infinite samples (failed jobs) sort last; a quantile that touches one
    is infinite.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]) or math.isinf(ordered[lo]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_ms(values_s: "list[float]", q: float) -> float:
    """A latency percentile in ms, with failures read as :data:`FAILED_LATENCY_MS`."""
    value = percentile(values_s, q)
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1e3


def p99_reported(samples: int) -> bool:
    """Whether a run holds enough samples to report ``job_p99_ms``."""
    return samples >= P99_MIN_SAMPLES


def spread(values: "list[float]") -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    totals: "dict[str, dict[str, float]]",
    *,
    jobs: int,
    counters: "dict[str, float]",
) -> "dict[str, float]":
    """The ledger: per-job self time and calls per layer, plus counter metrics.

    ``totals`` is :func:`tracer.layer_totals` over every traced process of
    the timed window; ``counters`` holds the metrics read from the
    program's own stats (cache and coordinator counters, wire residual,
    coverage), already normalised.
    """

    def row(layer: str) -> "dict[str, float]":
        return totals.get(layer, {"self_s": 0.0, "calls": 0, "value": 0})

    out: "dict[str, float]" = {}
    for name, layer in TIMED_LAYERS.items():
        out[name] = row(layer)["self_s"] * 1e3 / jobs
    for name, layer in COUNTED_LAYERS.items():
        out[name] = row(layer)["calls"] / jobs
    calls = row("core.catalog_call")["calls"]
    attempts = row("core.catalog_attempt")["calls"]
    out["core.catalog_attempts"] = ratio(attempts, calls)
    out["core.catalog_useful_ratio"] = ratio(row("core.catalog_built")["calls"], attempts)
    encode = row("service.serialize.result_encode")
    out["service.serialize.result_bytes"] = ratio(encode["value"], encode["calls"])
    out["service.store.put_bytes"] = row("service.store.put")["value"] / jobs
    out.update(counters)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
