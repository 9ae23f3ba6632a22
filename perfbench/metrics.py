"""End-to-end metrics (untraced rounds) and per-layer metrics (traced rounds).

Per-layer times are self times (see :mod:`perfbench.tracing`) summed over the
traced rounds and divided by the number of rounds, i.e. seconds per pass of
the workload's stream; counts are per pass too, ratios are over queries.
"""

from __future__ import annotations

import math
import resource
import statistics

from .tracing import ATTRS, END, ID, LAYERS, NAME, PARENT, QID, START, link, self_times

#: caller-side span names: the root of each query's span tree
CALLER_SPANS = ("service.query", "service.client_query")
#: the engine stages; with the executor's feature work beside them they are
#: the engine time a caller's latency is compared with (service overhead)
ENGINE_SPANS = ("engine.plan_query", "engine.verify_plan", "engine.complete_query")


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def qps(rounds: list) -> float:
    """Median over rounds of completed queries per second of round wall."""
    return statistics.median(
        len(round_.completed) / (round_.wall_ns / 1e9) for round_ in rounds
    )


def end_to_end(rounds: list) -> tuple[dict, dict]:
    """The user-visible metrics of the untraced rounds, plus sample facts."""
    completed = [result for round_ in rounds for result in round_.completed]
    attempted = sum(round_.attempted for round_ in rounds)
    latencies = sorted(
        latency for round_ in rounds for tenant in round_.latencies_ns for latency in tenant
    )
    tests = sum(result.num_isomorphism_tests for result in completed)
    setup_seconds = [round_.setup_s for round_ in rounds]
    count = max(len(completed), 1)
    # qps and p50 are medians over rounds, so one round slowed by the host
    # does not move them; p99 pools every round for its sample count
    round_p50 = [
        quantile(sorted(latency for tenant in round_.latencies_ns for latency in tenant), 0.5)
        for round_ in rounds
    ]
    metrics = {
        "qps": (qps(rounds), "1/s"),
        "latency_p50_ms": (statistics.median(round_p50) / 1e6, "ms"),
        "latency_p99_ms": (quantile(latencies, 0.99) / 1e6, "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "iso_tests_per_query": (tests / count, "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_frac": (len(completed) / max(attempted, 1), "ratio"),
    }
    facts = {
        "rounds": len(rounds),
        "attempted": attempted,
        "completed": len(completed),
        "latency_samples": len(latencies),
        "samples_beyond_p99": sum(
            1 for value in latencies if value > quantile(latencies, 0.99)
        ),
        "setup_samples_s": [round(value, 4) for value in setup_seconds],
        "round_wall_s": [round(round_.wall_ns / 1e9, 4) for round_ in rounds],
        "round_iso_tests_per_query": [
            round(sum(r.num_isomorphism_tests for r in round_.completed)
                  / max(len(round_.completed), 1), 4)
            for round_ in rounds
        ],
        "round_p99_ms": [
            round(quantile(sorted(x for tenant in round_.latencies_ns for x in tenant), 0.99)
                  / 1e6, 3)
            for round_ in rounds
        ],
    }
    return metrics, facts


def per_layer(tracer, rounds: list, untraced_qps: float,
              recover_s: float) -> tuple[dict, dict, dict]:
    """Layer metrics from the traced rounds' spans.

    Returns the metrics, every span's self time (ns) and the self seconds
    per pass of each layer (the wall-time breakdown).
    """
    spans = tracer.spans
    timed = set()
    for round_ in rounds:
        timed.update(range(round_.qid_base, round_.qid_base + round_.attempted))
    roots = {span[QID]: span[ID] for span in spans
             if span[NAME] in CALLER_SPANS and span[QID] in timed}
    parents = link(spans, roots)
    self_ns = self_times(spans, parents)
    passes = max(len(rounds), 1)
    queries = max(sum(round_.attempted for round_ in rounds), 1)
    completed = [result for round_ in rounds for result in round_.completed]
    answered = max(len(completed), 1)

    in_stream = [span for span in spans if span[QID] in timed]
    by_name: dict[str, list] = {}
    for span in in_stream:
        by_name.setdefault(span[NAME], []).append(span)

    def named(*prefixes):
        return [span for span in in_stream if span[NAME].startswith(prefixes)]

    def self_s(group) -> float:
        return sum(self_ns[span[ID]] for span in group) / 1e9 / passes

    def attr_sum(group, key) -> int:
        return sum((span[ATTRS] or {}).get(key, 0) for span in group)

    flushes = by_name.get("maintenance.flush", [])
    probes = named("containment.")
    filters = named("methods.filter")
    verifies = named("isomorphism.")
    extracts = by_name.get("features.extract", [])
    wire = named("wire.")
    persist = by_name.get("persist.record_flush", [])
    verify_tests = attr_sum(verifies, "tests")

    builds = [span for span in spans if span[NAME] == "methods.build_index"]
    build_ids = {span[ID] for span in builds}
    build_extracts = [span for span in spans
                      if span[NAME] == "features.extract" and span[PARENT] in build_ids]

    engine_ns: dict[int, int] = {}
    for span in in_stream:
        if span[NAME] in ENGINE_SPANS or (
            span[NAME].startswith("features.") and parents[span[ID]] == roots.get(span[QID])
        ):
            engine_ns[span[QID]] = engine_ns.get(span[QID], 0) + span[END] - span[START]
    overhead_ms = sorted(
        (span[END] - span[START] - engine_ns.get(span[QID], 0)) / 1e6
        for span in in_stream if span[ID] == roots.get(span[QID])
    )

    client_wall_ns = sum(sum(round_.client_wall_ns) for round_ in rounds)
    attributed_ns = sum(self_ns[span[ID]] for span in in_stream)
    persist_bytes = sum(round_.counters.get("persist.bytes", 0) for round_ in rounds)

    metrics = {
        "maintenance.s": (self_s(flushes), "s"),
        "maintenance.max_ms": (max((s[END] - s[START] for s in flushes), default=0) / 1e6, "ms"),
        "maintenance.flushes": (len(flushes) / passes, "count"),
        "maintenance.evicted": (attr_sum(flushes, "evicted") / passes, "count"),
        "maintenance.flush_query_share": (len(flushes) / queries, "ratio"),
        "probe.s": (self_s(probes), "s"),
        "probe.igq_tests_per_query": (attr_sum(probes, "tests") / queries, "count"),
        "probe.hit_ratio": (
            sum(1 for r in completed if r.num_sub_hits or r.num_super_hits) / answered, "ratio"),
        "probe.exact_hit_ratio": (sum(1 for r in completed if r.exact_hit) / answered, "ratio"),
        "filter.s": (self_s(filters), "s"),
        "filter.candidates_per_query": (
            sum(len(r.candidates) for r in completed) / answered, "count"),
        "features.s": (self_s(named("features.")), "s"),
        "features.memo_hit_ratio": (1 - len(extracts) / queries, "ratio"),
        "features.build_s": (
            sum(s[END] - s[START] for s in build_extracts) / 1e9 / max(len(builds), 1), "s"),
        "index.build_s": (
            sum(s[END] - s[START] for s in builds) / 1e9 / max(len(builds), 1), "s"),
        "verify.s": (self_s(verifies), "s"),
        "verify.useful_ratio": (
            attr_sum(verifies, "positives") / verify_tests if verify_tests else 0.0, "ratio"),
        "verify.skipped_ratio": (
            sum(1 for r in completed if r.verification_skipped) / answered, "ratio"),
        "engine.s": (self_s(named("engine.")), "s"),
        "service.overhead_ms_p50": (quantile(overhead_ms, 0.50), "ms"),
        "service.overhead_ms_p99": (quantile(overhead_ms, 0.99), "ms"),
        "wire.codec_ms_per_query": (
            sum(s[END] - s[START] for s in wire) / 1e6 / queries, "ms"),
        "persist.s": (self_s(persist), "s"),
        "persist.write_bytes_per_query": (persist_bytes / queries, "B"),
        "persist.recover_s": (recover_s, "s"),
        "trace.unattributed_frac": (
            1 - attributed_ns / client_wall_ns if client_wall_ns else 0.0, "ratio"),
        "trace.overhead_frac": (
            1 - qps(rounds) / untraced_qps if untraced_qps else 0.0, "ratio"),
    }
    breakdown: dict[str, float] = {}
    for span in in_stream:
        layer = LAYERS[span[NAME].split(".", 1)[0]]
        breakdown[layer] = breakdown.get(layer, 0.0) + self_ns[span[ID]] / 1e9 / passes
    return metrics, self_ns, breakdown
