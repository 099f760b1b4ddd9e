"""Experiment S2 — per-query event routing.

A shared pass that filtered the stream once with the *union* of all
registered queries' interest, then broadcast every surviving event to every
session, would make a sparse query in a dense fleet pay for the whole
fleet's appetite.  The service routes per query instead — one stack-machine
pass computes, per admitted event, the bitmask of plans that actually need
it — and drives the per-query runtimes inline (round-robin on the dispatch
thread).

This experiment measures routing on the bibliography fleet and the XMark
auction fleet: for each query, the events routed to it versus
``events_forwarded`` (what the union filter would have broadcast to every
session).  The acceptance bar: on the bib 6-query fleet, at least one
sparse query receives *strictly fewer* events than the union forwarded
count.  The pass's wall-clock is reported beside the counts.

Correctness is asserted throughout: every query's output must be
byte-identical to its solo ``FluxEngine`` run.  Results are written to
``benchmarks/results/s2_perquery_routing.{json,txt}``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.service import QueryService
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload

from conftest import RESULTS_DIR, write_report

_CONFIGS = {
    "bib": BIB_DTD_STRONG,
    "auction": AUCTION_DTD,
}

_REPORT: Dict[str, dict] = {}


def _solo_outputs(dtd, specs, document) -> Dict[str, str]:
    engine = FluxEngine(dtd)
    return {spec.key: engine.execute(spec.xquery, document).output for spec in specs}


def _run_pass(dtd, specs, document) -> dict:
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    started = time.perf_counter()
    results = service.run_pass(document)
    elapsed = time.perf_counter() - started
    metrics = service.metrics.last_pass
    return {
        "elapsed_seconds": elapsed,
        "parser_events": metrics.parser_events,
        "events_forwarded": metrics.events_forwarded,
        "per_query_forwarded": dict(metrics.per_query_forwarded),
        "per_query_pruned": dict(metrics.per_query_pruned),
        "outputs": {key: result.output for key, result in results.items()},
    }


@pytest.mark.parametrize("workload", sorted(_CONFIGS))
def test_s2_routing_beats_union_broadcast(
    benchmark, workload, bib_document, auction_document
):
    dtd = _CONFIGS[workload]
    document = bib_document if workload == "bib" else auction_document
    specs = queries_for_workload(workload)
    solo = _solo_outputs(dtd, specs, document)

    routed = benchmark.pedantic(
        _run_pass, args=(dtd, specs, document), rounds=1, iterations=1
    )

    # Correctness first: byte-identical to solo.
    assert routed["outputs"] == solo

    forwarded = routed["events_forwarded"]
    per_query = routed["per_query_forwarded"]
    # Every query gets at most the union broadcast...
    assert all(routed <= forwarded for routed in per_query.values())
    sparse = {key: routed for key, routed in per_query.items() if routed < forwarded}
    # ...and on the bib 6-query fleet at least one sparse query strictly less.
    if workload == "bib":
        assert len(specs) >= 5
        assert sparse, "expected a sparse query to beat the union broadcast"

    entry = {
        "workload": workload,
        "queries": len(specs),
        "document_bytes": len(document),
        "events_forwarded_union": forwarded,
        "per_query_forwarded": per_query,
        "per_query_pruned": routed["per_query_pruned"],
        "sparse_queries": sorted(sparse),
        "elapsed_seconds": routed["elapsed_seconds"],
    }
    _REPORT[workload] = entry
    benchmark.extra_info.update(
        {k: v for k, v in entry.items() if not isinstance(v, (dict, list))}
    )


@pytest.fixture(scope="module", autouse=True)
def report_s2():
    yield
    if not _REPORT:
        return
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "s2_perquery_routing.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(_REPORT, handle, indent=2, sort_keys=True)
    lines = [
        "S2: per-query routing — events routed to each query vs. the union"
        " broadcast, and the pass's wall-clock",
        "",
    ]
    for workload in sorted(_REPORT):
        entry = _REPORT[workload]
        lines.append(
            f"{workload}: {entry['queries']} queries, union forwarded"
            f" {entry['events_forwarded_union']} events;"
            f" pass {entry['elapsed_seconds'] * 1000:.1f} ms"
        )
        lines.append(f"{'query':<12}{'routed':>10}{'suppressed':>12}{'share':>8}")
        forwarded = entry["events_forwarded_union"]
        for key in sorted(entry["per_query_forwarded"]):
            routed = entry["per_query_forwarded"][key]
            pruned = entry["per_query_pruned"][key]
            lines.append(
                f"{key:<12}{routed:>10}{pruned:>12}{routed / forwarded:>8.2f}"
            )
        lines.append("")
    content = write_report("s2_perquery_routing.txt", "\n".join(lines))
    print("\n" + content)
