"""Golden runtime counters of the catalogue queries.

``repro explain``, the cost model and the benchmark read the evaluator's
counters (``RuntimeStats``) and the per-structure ``PlanObservations`` a
serve loop records.  These figures pin them for every catalogue query on
one fixed bibliography and one fixed XMark site, solo through a validating
``FluxEngine`` and through a shared pass, so a change to how XSAX tracks
elements or how the evaluator pulls events cannot move a count unnoticed.
The figures were taken before XSAX stopped tracking elements that no
condition and no validation reads; they must not change.

Rows are ``(events_processed, elements_parsed, onfirst_events,
peak_buffer_bytes, output_bytes)``; observation rows are ``(passes,
events_routed, document_bytes, peak_buffer_bytes)`` after serving both
documents of the workload.
"""

import pytest

from repro import FluxEngine
from repro.service.service import QueryService
from repro.workloads import (
    AUCTION_DTD,
    BIB_DTD_STRONG,
    generate_auction_site,
    generate_bibliography,
    queries_for_workload,
)

FIELDS = ("events_processed", "elements_parsed", "onfirst_events", "peak_buffer_bytes", "output_bytes")

GOLDEN = {
    "bib": {
        "solo": {
            "BIB-Q1": (436, 157, 12, 111, 11),
            "BIB-Q2": (436, 157, 12, 375, 4680),
            "BIB-Q3": (424, 157, 0, 0, 3004),
            "BIB-Q4": (424, 157, 0, 0, 1081),
            "BIB-Q5": (436, 157, 12, 78, 17),
            "BIB-Q6": (1, 0, 0, 0, 25),
        },
        "shared": {
            "BIB-Q1": (208, 85, 12, 111, 11),
            "BIB-Q2": (412, 157, 12, 375, 4680),
            "BIB-Q3": (352, 133, 0, 0, 3004),
            "BIB-Q4": (100, 37, 0, 0, 1081),
            "BIB-Q5": (196, 85, 12, 78, 17),
            "BIB-Q6": (1, 0, 0, 0, 25),
        },
        "observations": {
            "BIB-Q1": (2, 304.0, 5767.0, 111),
            "BIB-Q2": (2, 579.0, 5767.0, 375),
            "BIB-Q3": (2, 495.0, 5767.0, 0),
            "BIB-Q4": (2, 160.0, 5767.0, 0),
            "BIB-Q5": (2, 321.0, 5767.0, 281),
            "BIB-Q6": (2, 368.0, 5767.0, 0),
        },
    },
    "auction": {
        "solo": {
            "AUC-A1": (535, 203, 0, 0, 529),
            "AUC-A2": (535, 203, 0, 0, 431),
            "AUC-A3": (536, 203, 1, 2119, 290),
            "AUC-A4": (541, 203, 6, 341, 281),
        },
        "shared": {
            "AUC-A1": (66, 26, 0, 0, 529),
            "AUC-A2": (54, 20, 0, 0, 431),
            "AUC-A3": (160, 62, 1, 2119, 290),
            "AUC-A4": (214, 83, 6, 341, 281),
        },
        "observations": {
            "AUC-A1": (2, 102.0, 9025.0, 0),
            "AUC-A2": (2, 84.0, 9025.0, 0),
            "AUC-A3": (2, 243.0, 9025.0, 2119),
            "AUC-A4": (2, 327.0, 9025.0, 341),
        },
    },
}


def _documents(kind):
    if kind == "bib":
        return BIB_DTD_STRONG, [
            generate_bibliography(num_books=12, seed=3),
            generate_bibliography(num_books=7, seed=4),
        ]
    return AUCTION_DTD, [
        generate_auction_site(scale=0.1, seed=5),
        generate_auction_site(scale=0.05, seed=6),
    ]


def _counters(stats):
    return tuple(getattr(stats, field) for field in FIELDS)


@pytest.mark.parametrize("kind", ["bib", "auction"])
def test_solo_counters(kind):
    dtd, documents = _documents(kind)
    engine = FluxEngine(dtd=dtd, validate=True)
    measured = {
        query.key: _counters(engine.execute(query.xquery, documents[0]).stats)
        for query in queries_for_workload(kind)
    }
    assert measured == GOLDEN[kind]["solo"]


@pytest.mark.parametrize("kind", ["bib", "auction"])
def test_shared_pass_counters_and_observations(kind):
    dtd, documents = _documents(kind)
    service = QueryService(dtd)
    for query in queries_for_workload(kind):
        service.register(query.xquery, key=query.key)
    shared_pass = service.open_pass()
    document = documents[0]
    for start in range(0, len(document), 700):
        shared_pass.feed(document[start : start + 700])
    results = shared_pass.finish()
    assert {key: _counters(result.stats) for key, result in results.items()} == (
        GOLDEN[kind]["shared"]
    )

    list(service.serve(documents))
    observed = {}
    for key, registration in service.registrations.items():
        record = service.plan_cache.observations_for(registration.entry)
        observed[key] = (
            record.passes,
            record.events_routed,
            record.document_bytes,
            record.peak_buffer_bytes,
        )
    assert observed == GOLDEN[kind]["observations"]
