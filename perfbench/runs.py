"""The two kinds of run: end-to-end (untraced) and traced (per layer).

Both start from the same seeded inputs and the same DOM reference, serve
whole rounds for the requested seconds, check every output after its
round's timer stops, and return ``(metrics, report lines, tally)``.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

from drive import (
    MB,
    Round,
    Server,
    Tally,
    corrected_latencies_ms,
    corrected_registers_ms,
    measure_setup,
    median_or_zero,
    percentile,
    register_probe,
    round_order,
    run_round,
)
from hostclock import HostClock
from inputs import POOL_WORKERS, Workload
from spans import SpanRecorder, replay, self_times

#: End-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_mb_s": "MB/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_mb": "ms/MB",
    "peak_buffer_kb": "KB",
    "peak_rss_mb": "MB",
    "register_p50_ms": "ms",
}

#: Every catalogue query key, for the per-query layer metrics.
QUERY_KEYS = [f"BIB-Q{i}" for i in range(1, 7)] + [f"AUC-A{i}" for i in range(1, 5)]

#: Per-layer metrics and their units (BENCHMARK.json ``per_layer``).
#: Metrics of a layer a workload does not run read 0.
PER_LAYER_UNITS = {
    "parse.ms_per_mb": "ms/MB",
    "parse.events_per_kb": "count/KB",
    "validate.ms_per_mb": "ms/MB",
    "route.ms_per_mb": "ms/MB",
    "dispatch.ms_per_mb": "ms/MB",
    "route.forward_ratio": "ratio",
    "route.subtrees_pruned": "count/doc",
    "evaluate.ms_per_mb": "ms/MB",
    **{f"evaluate.{key}.ms_per_mb": "ms/MB" for key in QUERY_KEYS},
    **{f"buffer.{key}.peak_kb": "KB" for key in QUERY_KEYS},
    "open_pass.ms_per_doc": "ms/doc",
    "pass_feed.ms_per_doc": "ms/doc",
    "fanout.ms_per_doc": "ms/doc",
    "serve_loop.ms_per_doc": "ms/doc",
    "register.ms_per_call": "ms",
    "compile.ms_per_query": "ms",
    "plan_cache.hit_ratio": "ratio",
    "plan_cache.structures": "count",
    "pool.parent_cpu_ms_per_mb": "ms/MB",
    "pool.worker_cpu_ms_per_mb": "ms/MB",
    "pool.worker_busy_ratio": "ratio",
    "pool.ship_kb": "KB",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "count.parser_events": "count",
    "count.events_forwarded": "count",
    "count.subtrees_pruned": "count",
    "count.plan_cache_hits": "count",
    "count.plan_cache_misses": "count",
    "count.plan_cache_evictions": "count",
    "count.ship_count": "count",
    "count.ship_bytes": "count",
}

#: The layers of one pass, in pipeline order: name -> (module, how measured).
PASS_LAYERS = {
    "parse": ("xmlstream.parser", "self time of StreamingXMLParser.feed/close"),
    "validate": ("dtd.validator", "replay through StreamingValidator.feed"),
    "route": ("service.dispatcher", "replay through SharedProjectionIndex.route"),
    "dispatch": ("service.dispatcher", "SharedDispatcher.dispatch/flush self time"
                 " minus replayed validate and route"),
    "evaluate": ("runtime.evaluator", "EvaluatorSession.start/feed/finish"),
    "open_pass": ("service.session", "QueryService.open_pass self time"),
    "pass_feed": ("service.session", "SharedPass.feed self time"),
    "fanout": ("service.session", "SharedPass.finish minus its sessions' finish"),
    "serve_loop": ("service.service", "QueryService.serve step self time"),
}


# ------------------------------------------------------------------ helpers


class _Census:
    """Exact counts of one pass over every distinct document (the warm-up
    round); :meth:`observe` sees each ``ServedDocument``."""

    def __init__(self, workload: Workload):
        self.counts = {"parser_events": 0, "events_forwarded": 0, "subtrees_pruned": 0,
                       "routed_pairs": 0, "structures": 0, "documents": 0}
        self._representatives = {}
        for key, label in workload.label_of.items():
            self._representatives.setdefault(label, key)

    def observe(self, served) -> None:
        metrics = served.metrics
        counts = self.counts
        counts["documents"] += 1
        counts["parser_events"] += metrics.parser_events
        counts["events_forwarded"] += metrics.events_forwarded
        counts["subtrees_pruned"] += metrics.subtrees_pruned
        counts["structures"] = metrics.structures
        counts["routed_pairs"] += sum(
            metrics.per_query_forwarded.get(key, 0)
            for key in self._representatives.values()
        )

    def finish(self, warm: Round, server: Server) -> Dict[str, float]:
        """The counts, plus the plan cache's counters after set-up and
        warm-up and the pool's shipping totals."""
        counts = dict(self.counts, document_bytes=warm.document_bytes)
        stats = server.plan_cache.stats
        counts.update(plan_cache_hits=stats.hits, plan_cache_misses=stats.misses,
                      plan_cache_evictions=stats.evictions)
        pool = server.target.metrics if server.pool else None
        counts.update(ship_count=pool.ship_count if pool else 0,
                      ship_bytes=pool.ship_bytes if pool else 0)
        return counts


def _census_lines(counts: Dict[str, float], peaks: Dict[str, int]) -> List[str]:
    return ["exact counts (one pass over every distinct document, seed-exact): "
            + ", ".join(f"{k}={v}" for k, v in counts.items()),
            "peak buffer bytes by query: "
            + ", ".join(f"{k}={v}" for k, v in sorted(peaks.items()))]


def _warm_up(server: Server, workload: Workload, clock: HostClock, tally: Tally,
             peaks: Dict[str, int]) -> Tuple[List[int], Dict[str, float]]:
    census = _Census(workload)
    distinct = list(range(len(workload.documents)))
    warm = run_round(server, workload, distinct, clock, tally, peaks, observe=census.observe)
    gc.collect()
    return round_order(workload), census.finish(warm, server)


def _drift_lines(clock: HostClock) -> List[str]:
    d = clock.drift()
    lines = [
        "host calibration: %d ticks, median %.3f ms (p10 %.3f, p90 %.3f); per-interval"
        " mean tick p10 %.3f, p90 %.3f ms (spread %.3fx); %d of %d intervals changed"
        " speed mid-interval"
        % (d["ticks"], d["tick_median_ms"], d["tick_p10_ms"], d["tick_p90_ms"],
           d["host_p10_ms"], d["host_p90_ms"], d["host_spread"],
           d["brackets_mismatched"], d["brackets"])
    ]
    lines += ["WARNING: " + w for w in clock.warnings()]
    return lines


# ---------------------------------------------------------------- end to end


def end_to_end(workload: Workload, seconds: float):
    clock = HostClock()
    tally = Tally()
    peaks: Dict[str, int] = {}
    server, setups = measure_setup(workload, clock)
    try:
        order, counts = _warm_up(server, workload, clock, tally, peaks)
        rounds: List[Round] = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < seconds:
            rounds.append(run_round(server, workload, order, clock, tally, peaks))
        if workload.churn is not None:
            registers = corrected_registers_ms(rounds)
        else:
            registers = [s * 1000 for s in register_probe(server, workload, clock, tally)]
        rss = server.peak_rss_mb()
    finally:
        server.close()
    latencies = corrected_latencies_ms(rounds)
    raw_latencies = [lat * 1000 for r in rounds for lat in r.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_mb_s": statistics.median(r.throughput_mb_s for r in rounds),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "cpu_ms_per_mb": statistics.median(r.cpu_ms_per_mb for r in rounds),
        "peak_buffer_kb": max(peaks.values()) / 1024,
        "peak_rss_mb": rss,
        "register_p50_ms": median_or_zero(registers),
    }
    raw = {
        "setup_s": statistics.median(b.raw_s for b in clock.brackets[: len(setups)]),
        "throughput_mb_s": statistics.median(
            r.document_bytes / MB / r.bracket.raw_s for r in rounds),
        "latency_p50_ms": percentile(raw_latencies, 0.50),
        "latency_p95_ms": percentile(raw_latencies, 0.95),
    }
    lines = [
        f"workload {workload.name}: {len(rounds)} timed rounds, "
        f"{sum(r.documents for r in rounds)} documents "
        f"({sum(r.document_bytes for r in rounds) / MB:.3f} MB), "
        f"{len(setups)} set-ups, {len(registers)} live registrations",
    ]
    for name, value in metrics.items():
        note = f"  (raw {raw[name]:.4f})" if name in raw else ""
        lines.append(f"  {name:<18} {value:12.4f} {END_TO_END_UNITS[name]}{note}")
    lines.append(
        f"  {'failed_ratio':<18} {tally.failed / max(1, tally.attempted):12.4f}"
        f" ratio  ({tally.failed} of {tally.attempted}: {tally.document_errors}"
        f" document errors, {tally.mismatches} mismatches,"
        f" {tally.registration_failures} failed registrations)"
    )
    lines.append(f"  latency samples: {len(latencies)} documents")
    lines += _census_lines(counts, peaks) + _drift_lines(clock)
    return metrics, lines, tally


# -------------------------------------------------------------------- traced


def _label_of_plan(server: Server, workload: Workload) -> Dict[int, str]:
    """``id(plan)`` of every live structure -> the catalogue key it runs."""
    service = server.target
    labels: Dict[int, str] = {}
    skey_label: Dict[str, str] = {}
    for key, registration in service.registrations.items():
        label = workload.label_of.get(key)
        if label is not None:
            skey_label.setdefault(registration.structure.skey, label)
    for skey, structure in service.structures.items():
        labels[id(structure.entry.plan)] = skey_label.get(skey, "unlabelled")
    return labels


def _sum_corrected(pairs) -> Dict[str, float]:
    """Sum ``self_times`` of each (spans, factor) pair, host-corrected."""
    total: Dict[str, float] = {}
    for spans, factor in pairs:
        for key, value in self_times(spans).items():
            scale = 1.0 if key.endswith(".count") else factor
            total[key] = total.get(key, 0.0) + value * scale
    return total


def traced(workload: Workload, seconds: float):
    clock = HostClock()
    tally = Tally()
    peaks: Dict[str, int] = {}
    server = Server(workload)
    plain: List[Round] = []
    traced_rounds: List[Round] = []
    span_sets: List[tuple] = []
    probe_spans: list = []
    captured = {}
    captured_bytes = 0
    cross_lines: List[str] = []
    try:
        order, counts = _warm_up(server, workload, clock, tally, peaks)
        cache_before = (server.plan_cache.stats.hits, server.plan_cache.stats.misses)
        recorder = None if server.pool else SpanRecorder(_label_of_plan(server, workload))
        started = time.perf_counter()
        turn = 0
        while (
            not plain
            or (recorder is not None and not traced_rounds)
            or time.perf_counter() - started < seconds
        ):
            if recorder is not None and turn % 2 == 1:
                first = not traced_rounds
                recorder.capture = {} if first else None
                recorder.install()
                try:
                    rnd = run_round(server, workload, order, clock, tally, peaks,
                                    step=recorder.step)
                finally:
                    recorder.uninstall()
                if first:
                    captured, captured_bytes = recorder.capture, rnd.document_bytes
                    recorder.capture = None
                span_sets.append((recorder.take(), rnd.bracket.factor))
                traced_rounds.append(rnd)
            else:
                plain.append(run_round(server, workload, order, clock, tally, peaks))
            turn += 1
        if recorder is not None:
            recorder.install()
            try:
                register_probe(server, workload, clock, tally)
            finally:
                recorder.uninstall()
            probe_spans = [(recorder.take(), clock.brackets[-1].factor)]
            clock.begin()
            replayed = replay(server.target, captured)
            replay_factor = clock.end().factor
            if workload.name == "bib-stream":
                cross_lines = _cross_check(workload, order, clock, tally, peaks, replayed,
                                           captured_bytes)
        cache_after = (server.plan_cache.stats.hits, server.plan_cache.stats.misses)
        structures = server.plan_cache.structure_count()
        pool_metrics = server.target.metrics if server.pool else None
    finally:
        server.close()

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    lines = [f"workload {workload.name} (traced run): {len(plain)} untraced and"
             f" {len(traced_rounds)} traced rounds"
             + (" (the pool's work runs in its workers: no in-process spans)"
                if pool_metrics is not None else "")]
    docs = counts["documents"]
    kb = counts["document_bytes"] / 1024
    metrics["parse.events_per_kb"] = counts["parser_events"] / kb
    structures_per_pass = max(1, counts["structures"])
    metrics["route.forward_ratio"] = counts["routed_pairs"] / (
        counts["parser_events"] * structures_per_pass)
    metrics["route.subtrees_pruned"] = counts["subtrees_pruned"] / docs
    for key in QUERY_KEYS:
        metrics[f"buffer.{key}.peak_kb"] = peaks.get(key, 0) / 1024
    hits = cache_after[0] - cache_before[0]
    misses = cache_after[1] - cache_before[1]
    metrics["plan_cache.hit_ratio"] = hits / max(1, hits + misses)
    metrics["plan_cache.structures"] = structures
    for name in ("parser_events", "events_forwarded", "subtrees_pruned",
                 "plan_cache_hits", "plan_cache_misses", "plan_cache_evictions",
                 "ship_count", "ship_bytes"):
        metrics[f"count.{name}"] = counts[name]

    if pool_metrics is not None:
        _pool_layers(metrics, plain, pool_metrics, lines)
    else:
        _pass_layers(metrics, plain, traced_rounds, span_sets, probe_spans,
                     replayed, replay_factor, captured_bytes, lines, workload)
    lines += cross_lines
    lines += _census_lines(counts, peaks) + _drift_lines(clock)
    return metrics, lines, tally


def _pool_layers(metrics, rounds: List[Round], pool_metrics, lines) -> None:
    metrics["pool.parent_cpu_ms_per_mb"] = statistics.median(
        r.driver_cpu_s * r.bracket.factor * 1000 / (r.document_bytes / MB) for r in rounds)
    metrics["pool.worker_cpu_ms_per_mb"] = statistics.median(
        r.worker_cpu_s * r.bracket.factor * 1000 / (r.document_bytes / MB) for r in rounds)
    metrics["pool.worker_busy_ratio"] = statistics.median(
        r.worker_cpu_s / (r.bracket.raw_s * POOL_WORKERS) for r in rounds)
    metrics["pool.ship_kb"] = pool_metrics.ship_bytes / 1024
    lines.append("  pool layers come from /proc CPU and PoolMetrics; spans inside"
                 " worker processes are not recorded")
    for name in ("pool.parent_cpu_ms_per_mb", "pool.worker_cpu_ms_per_mb",
                 "pool.worker_busy_ratio", "pool.ship_kb"):
        lines.append(f"  {name:<28} {metrics[name]:12.4f} {PER_LAYER_UNITS[name]}")


def _pass_layers(metrics, plain, traced_rounds, span_sets, probe_spans, replayed,
                 replay_factor, captured_bytes, lines, workload) -> None:
    totals = _sum_corrected(span_sets)
    traced_mb = sum(r.document_bytes for r in traced_rounds) / MB
    traced_docs = sum(r.documents for r in traced_rounds)
    captured_mb = captured_bytes / MB
    validate_ms_mb = replayed["validate"] * replay_factor * 1000 / captured_mb
    route_ms_mb = replayed["route"] * replay_factor * 1000 / captured_mb
    per_mb = {name: totals.get(span, 0.0) * 1000 / traced_mb
              for name, span in (("parse", "parse"), ("dispatch", "dispatch"),
                                 ("evaluate", "evaluate"), ("open_pass", "open_pass"),
                                 ("pass_feed", "pass_feed"), ("fanout", "finish"),
                                 ("serve_loop", "serve_step"))}
    per_mb["validate"] = validate_ms_mb
    per_mb["route"] = route_ms_mb
    per_mb["dispatch"] -= validate_ms_mb + route_ms_mb
    pass_ms_mb = totals["pass_total"] * 1000 / traced_mb
    mb_per_doc = traced_mb / traced_docs

    metrics["parse.ms_per_mb"] = per_mb["parse"]
    metrics["validate.ms_per_mb"] = per_mb["validate"]
    metrics["route.ms_per_mb"] = per_mb["route"]
    metrics["dispatch.ms_per_mb"] = per_mb["dispatch"]
    metrics["evaluate.ms_per_mb"] = per_mb["evaluate"]
    for key in QUERY_KEYS:
        metrics[f"evaluate.{key}.ms_per_mb"] = totals.get(f"evaluate.{key}", 0.0) * 1000 / traced_mb
    for name in ("open_pass", "pass_feed", "fanout", "serve_loop"):
        metrics[f"{name}.ms_per_doc"] = per_mb[name] * mb_per_doc
    live = _sum_corrected(probe_spans)
    for key, value in totals.items():
        if key.startswith(("compile.", "register")):
            live[key] = live.get(key, 0.0) + value
    register_calls = live.get("compile.hit.count", 0) + live.get("compile.miss.count", 0)
    metrics["register.ms_per_call"] = live.get("register", 0.0) * 1000 / max(1, register_calls)
    metrics["compile.ms_per_query"] = (
        live.get("compile.miss", 0.0) * 1000 / max(1, live.get("compile.miss.count", 0)))
    untraced_tp = statistics.median(r.throughput_mb_s for r in plain)
    traced_tp = statistics.median(r.throughput_mb_s for r in traced_rounds)
    metrics["trace.overhead_ratio"] = 1 - traced_tp / untraced_tp
    accounted = sum(per_mb[name] for name in PASS_LAYERS)
    metrics["trace.accounted_ratio"] = accounted / pass_ms_mb

    lines.append(f"  untraced throughput {untraced_tp:.4f} MB/s, traced {traced_tp:.4f}"
                 f" MB/s: tracing overhead {metrics['trace.overhead_ratio'] * 100:.1f}%")
    lines.append(f"  traced pass time {pass_ms_mb:.2f} ms/MB ({pass_ms_mb * mb_per_doc:.3f}"
                 f" ms/doc); layer self times account for"
                 f" {metrics['trace.accounted_ratio'] * 100:.1f}%")
    lines.append(f"  {'layer':<11} {'module':<19} {'ms/MB':>9} {'ms/doc':>8} {'share':>7}"
                 "  measured as")
    for name, (module, how) in PASS_LAYERS.items():
        value = per_mb[name]
        lines.append(f"  {name:<11} {module:<19} {value:9.2f} {value * mb_per_doc:8.3f}"
                     f" {value / pass_ms_mb * 100:6.1f}%  {how}")
    for key in QUERY_KEYS:
        value = metrics[f"evaluate.{key}.ms_per_mb"]
        if value:
            lines.append(f"    evaluate.{key:<7} {value:9.2f} ms/MB"
                         f" {value / pass_ms_mb * 100:6.1f}% of the pass,"
                         f" peak buffer {metrics[f'buffer.{key}.peak_kb']:.2f} KB")
    lines.append(f"  live registrations: register self {metrics['register.ms_per_call']:.4f}"
                 f" ms/call, compile (cache miss) {metrics['compile.ms_per_query']:.4f}"
                 f" ms/query over {int(live.get('compile.miss.count', 0))} misses and"
                 f" {int(live.get('compile.hit.count', 0))} hits")
    lines += _split_checks(workload.name, per_mb, pass_ms_mb)


def _split_checks(name: str, per_mb: Dict[str, float], pass_ms_mb: float) -> List[str]:
    """The layer separation each workload was chosen for."""
    share = {k: v / pass_ms_mb for k, v in per_mb.items()}
    out = [f"  parse share of the pass: {share['parse'] * 100:.1f}%"
           " (xmark-stream is chosen for >= 1.5x bib-stream's)"]
    if name == "bib-stream":
        largest = max(share, key=share.get)
        out.append(f"  split check: largest layer is {largest}"
                   f" ({'as chosen' if largest == 'evaluate' else 'NOT evaluate'})")
    if name == "fleet-churn":
        bookkeeping = share["fanout"] + share["serve_loop"] + share["open_pass"]
        others = {k: v for k, v in share.items()
                  if k not in ("fanout", "serve_loop", "open_pass")}
        top = max(others, key=others.get)
        verdict = "as chosen" if bookkeeping > others[top] else "NOT the largest"
        out.append(f"  split check: fanout+serve_loop+open_pass {bookkeeping * 100:.1f}%"
                   f" vs largest other layer {top} {others[top] * 100:.1f}% ({verdict})")
    return out


# ------------------------------------------------------------- cross-check

#: Why the program's own stage timers and the outside spans differ.
_CROSS_NOTES = {
    "parse": "same calls on both sides; the stage timer also times list() of the result",
    "route": "the stage timer reads the clock twice per event inside the loop;"
             " the replay has no per-event clock reads",
    "dispatch": "both include validation; the stage timer's residual also holds its"
                " per-event clock reads, the outside figure (dispatch self time minus"
                " replayed route) the span wrappers around each session feed",
    "evaluate": "the stage timer covers session feeds inside dispatch only; outside"
                " here = evaluate spans called from dispatch",
    "emit": "the stage timer covers finishing every session and building results;"
            " outside = evaluate spans called from SharedPass.finish",
}


def _cross_check(workload, order, clock, tally, peaks, replayed, captured_bytes):
    """Serve two rounds with the program's stage timers *and* the outside
    spans on, and print the two accounts side by side."""
    from repro.obs import MetricsRegistry, Observability
    from repro.service.session import PASS_STAGES

    obs = Observability(metrics=MetricsRegistry())
    server = Server(workload, obs=obs)
    recorder = SpanRecorder(_label_of_plan(server, workload))
    rounds = []
    recorder.install()
    try:
        for _ in range(2):
            rounds.append(run_round(server, workload, order, clock, tally, peaks,
                                    step=recorder.step))
    finally:
        recorder.uninstall()
        server.close()
    outside = self_times(recorder.take())
    mb = sum(r.document_bytes for r in rounds) / MB
    route_s = replayed["route"] * mb / (captured_bytes / MB)
    outside_stage = {
        "parse": outside.get("parse", 0.0),
        "route": route_s,
        "dispatch": outside.get("dispatch", 0.0) - route_s,
        "evaluate": outside.get("evaluate@dispatch", 0.0),
        "emit": outside.get("evaluate@finish", 0.0),
    }
    histogram = obs.metrics.histogram("repro_stage_duration_seconds")
    docs = sum(r.documents for r in rounds)
    lines = ["  cross-check against the program's own stage timers"
             " (Observability(metrics=MetricsRegistry()), same passes, raw ms/doc):",
             f"  {'stage':<9} {'program':>9} {'outside':>9} {'diff':>7}  why they differ"]
    for stage in PASS_STAGES:
        program = histogram.sum(stage=stage) * 1000 / docs
        theirs = outside_stage[stage] * 1000 / docs
        diff = (program - theirs) / theirs * 100 if theirs else 0.0
        lines.append(f"  {stage:<9} {program:9.3f} {theirs:9.3f} {diff:6.1f}%  "
                     f"{_CROSS_NOTES[stage]}")
    lines.append("  not covered by any stage timer: open_pass, pass_feed, fanout"
                 " bookkeeping, serve_loop, evaluator start")
    return lines
