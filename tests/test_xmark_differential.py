"""XMark differential and validation.

Random auction sites (seed and scale drawn by hypothesis) under random feed
chunkings: solo ``FluxEngine``, the inline shared pass and the async shared
pass must be byte-identical to the ``DomEngine`` reference for every
``AUC-A*`` catalogue query.  Sites made invalid by a dropped required
child or a child out of order must still be rejected by a validating solo
run and by a validating shared pass.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.fleets import make_fleet, run_shared, run_shared_async
from repro.engines.dom_engine import DomEngine
from repro.engines.flux_engine import FluxEngine
from repro.errors import XMLValidationError
from repro.workloads import AUCTION_DTD, generate_auction_site, queries_for_workload

AUCTION_QUERIES = [spec.xquery for spec in queries_for_workload("auction")]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    scale=st.floats(min_value=0.05, max_value=0.2),
    cuts=st.lists(st.integers(min_value=1, max_value=3_000), max_size=6),
)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engines_match_dom_on_random_sites(seed, scale, cuts):
    document = generate_auction_site(scale=scale, seed=seed)
    fleet = make_fleet(AUCTION_QUERIES, len(AUCTION_QUERIES))
    chunking = cuts or None
    shared, _service = run_shared(fleet, document, dtd=AUCTION_DTD, chunking=chunking)
    shared_async = run_shared_async(fleet, document, dtd=AUCTION_DTD, chunking=chunking)
    dom = DomEngine(dtd=AUCTION_DTD)
    flux = FluxEngine(dtd=AUCTION_DTD)
    for query in fleet:
        expected = dom.execute(query.text, document).output
        assert flux.execute(query.text, document).output == expected, query.key
        assert shared[query.key] == expected, query.key
        assert shared_async[query.key] == expected, query.key


def _drop_first(document, tag):
    """Remove the first ``<tag>...</tag>`` element (a required child)."""
    mutated, count = re.subn(rf"<{tag}>[^<]*</{tag}>", "", document, count=1)
    assert count == 1
    return mutated


def _swap_first_person_children(document):
    """Put a person's ``emailaddress`` before its ``name``."""
    mutated, count = re.subn(
        r"(<name>[^<]*</name>)(<emailaddress>[^<]*</emailaddress>)",
        r"\2\1",
        document,
        count=1,
    )
    assert count == 1
    return mutated


SITE = generate_auction_site(scale=0.1, seed=5)
INVALID_SITES = {
    "item without description": _drop_first(SITE, "description"),
    "open auction without initial": _drop_first(SITE, "initial"),
    "person with children out of order": _swap_first_person_children(SITE),
}


@pytest.mark.parametrize("mutation", sorted(INVALID_SITES))
@pytest.mark.parametrize("query", AUCTION_QUERIES)
def test_solo_run_rejects_invalid_sites(mutation, query):
    with pytest.raises(XMLValidationError):
        FluxEngine(dtd=AUCTION_DTD, validate=True).execute(query, INVALID_SITES[mutation])


@pytest.mark.parametrize("mutation", sorted(INVALID_SITES))
@pytest.mark.parametrize("chunking", [None, 97])
def test_validating_shared_pass_rejects_invalid_sites(mutation, chunking):
    fleet = make_fleet(AUCTION_QUERIES, len(AUCTION_QUERIES))
    with pytest.raises(XMLValidationError):
        run_shared(fleet, INVALID_SITES[mutation], dtd=AUCTION_DTD, chunking=chunking)


def test_valid_site_is_accepted():
    fleet = make_fleet(AUCTION_QUERIES, len(AUCTION_QUERIES))
    shared, _service = run_shared(fleet, SITE, dtd=AUCTION_DTD, chunking=97)
    assert len(shared) == len(AUCTION_QUERIES)
