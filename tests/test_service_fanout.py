"""Per-structure fan-out: a shared pass costs O(structures) plus one result
object per registrant.

* **call-count guard** — the Python-level calls of ``open_pass`` + ``feed``
  + ``finish`` grow by at most one per added alias (its ``QueryResult``
  constructor), counted deterministically with ``sys.setprofile``;
* **per-query views** — ``per_query_forwarded`` / ``per_query_pruned`` are
  views over per-structure tallies; they must read exactly like the old
  eager per-key dicts (here: each query's solo routing count) with and
  without dedup and under churn, and survive pickling;
* **pass counters** — ``RegisteredQuery.passes`` is derived from the
  structure's counter but keeps its meaning: the finished passes whose
  snapshot held the registration; a failed fan-out counts for nobody;
* **result order** — structures in order of first registration, aliases in
  registration order.
"""

import gc
import pickle
import random
import sys

import pytest

from repro.bench.fleets import alias_query, make_fleet
from repro.runtime.evaluator import EvaluatorSession
from repro.service import QueryService
from repro.service.metrics import PassMetrics, PerQueryCounts
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import BIB_DTD_STRONG
from repro.workloads.queries import queries_for_workload

BASES = [spec.xquery for spec in queries_for_workload("bib")]
#: A structure no fleet member shares.
FRESH_QUERY = "<titles>{ for $b in $ROOT/bib/book return $b/title }</titles>"


@pytest.fixture(scope="module")
def bib_document():
    return generate_bibliography(num_books=10, seed=7)


def _fleet_service(size, **kwargs):
    service = QueryService(BIB_DTD_STRONG, **kwargs)
    for query in make_fleet(BASES, size):
        service.register(query.text, key=query.key)
    return service


def _count_calls(service, document):
    """Python-level calls made by one open/feed/finish cycle.

    The collector is off while counting: a collection would run whatever
    finalizers earlier tests left behind, at allocation-dependent moments.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        shared_pass = service.open_pass()
        shared_pass.feed(document)
        shared_pass.finish()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.fixture(scope="module")
def solo_routing(bib_document):
    """Each base query's routed-event count when it runs alone."""
    routed = {}
    for i, base in enumerate(BASES):
        service = QueryService(BIB_DTD_STRONG)
        service.register(base, key="solo")
        service.run_pass(bib_document)
        routed[i] = service.metrics.last_pass.per_query_forwarded["solo"]
    return routed


def _expected_views(metrics, structure_of, solo_routing):
    forwarded = {key: solo_routing[base] for key, base in structure_of.items()}
    pruned = {
        key: metrics.events_forwarded - count for key, count in forwarded.items()
    }
    return forwarded, pruned


class TestCallCountGuard:
    def test_pass_calls_grow_by_at_most_one_per_alias(self, bib_document):
        small = _fleet_service(100)
        large = _fleet_service(1000)
        # Warm both once so lazy one-time work does not count.
        small.run_pass(bib_document)
        large.run_pass(bib_document)
        small_calls = _count_calls(small, bib_document)
        large_calls = _count_calls(large, bib_document)
        assert large_calls - small_calls <= 1000 - 100, (small_calls, large_calls)


class TestPerQueryViews:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_views_equal_eager_dicts(self, dedup, bib_document, solo_routing):
        fleet = make_fleet(BASES, 60)
        service = _fleet_service(60, dedup=dedup)
        service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        forwarded, pruned = _expected_views(
            metrics, {q.key: q.structure for q in fleet}, solo_routing
        )
        assert dict(metrics.per_query_forwarded) == forwarded
        assert dict(metrics.per_query_pruned) == pruned
        assert metrics.per_query_forwarded.as_dict() == forwarded
        assert len(metrics.per_query_forwarded) == len(forwarded)
        assert list(metrics.per_query_forwarded) == list(
            service.run_pass(bib_document)
        )
        for key, count in forwarded.items():
            assert metrics.per_query_forwarded[key] == count
            assert metrics.per_query_forwarded.get(key) == count
            assert key in metrics.per_query_pruned
        assert metrics.per_query_forwarded.get("missing", -1) == -1
        with pytest.raises(KeyError):
            metrics.per_query_forwarded["missing"]
        assert metrics.as_dict()["per_query_forwarded"] == forwarded

    @pytest.mark.parametrize("dedup", [True, False])
    def test_views_follow_register_replace_unregister_churn(
        self, dedup, bib_document, solo_routing
    ):
        rng = random.Random(13)
        service = QueryService(BIB_DTD_STRONG, dedup=dedup)
        structure_of = {}
        for step in range(40):
            action = rng.random()
            if action < 0.5 or not structure_of:
                base = rng.randrange(len(BASES))
                key = f"k{rng.randrange(30)}"  # may replace a live key
                service.register(alias_query(BASES[base], step), key=key)
                structure_of[key] = base
            else:
                key = rng.choice(sorted(structure_of))
                service.unregister(key)
                del structure_of[key]
            if step % 5 == 4 and structure_of:
                results = service.run_pass(bib_document)
                assert set(results) == set(structure_of)
                metrics = service.metrics.last_pass
                forwarded, pruned = _expected_views(
                    metrics, structure_of, solo_routing
                )
                assert dict(metrics.per_query_forwarded) == forwarded
                assert dict(metrics.per_query_pruned) == pruned

    def test_views_round_trip_through_pickle_compactly(self, bib_document):
        service = _fleet_service(600)
        service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        restored = pickle.loads(pickle.dumps(metrics))
        assert isinstance(restored.per_query_forwarded, PerQueryCounts)
        assert restored == metrics
        assert dict(restored.per_query_forwarded) == dict(metrics.per_query_forwarded)
        assert dict(restored.per_query_pruned) == dict(metrics.per_query_pruned)
        # The pair shares its key groups, so the keys are pickled once:
        # smaller than the two eager dicts it replaces.
        eager = (dict(metrics.per_query_forwarded), dict(metrics.per_query_pruned))
        assert len(pickle.dumps(metrics)) < len(pickle.dumps(eager))

    def test_empty_metrics_have_empty_views(self):
        metrics = PassMetrics()
        assert dict(metrics.per_query_forwarded) == {}
        assert metrics.per_query_pruned.get("q", 0) == 0
        assert pickle.loads(pickle.dumps(metrics)) == metrics


class TestPassCounters:
    def test_passes_count_each_finished_pass(self, bib_document):
        service = _fleet_service(30)
        for _ in range(3):
            service.run_pass(bib_document)
        assert {reg.passes for reg in service.registrations.values()} == {3}
        assert {s.passes for s in service.structures.values()} == {3}

    def test_registration_during_open_pass_is_not_counted(self, bib_document):
        service = _fleet_service(12)
        service.run_pass(bib_document)
        shared_pass = service.open_pass()
        shared_pass.feed(bib_document)
        newcomer = service.register(alias_query(BASES[0], 99), key="late")
        fresh = service.register(FRESH_QUERY, key="fresh")
        shared_pass.finish()
        assert "late" not in shared_pass.finish()
        assert newcomer.passes == 0
        assert fresh.passes == 0
        assert service.registrations["q00000"].passes == 2
        service.run_pass(bib_document)
        assert newcomer.passes == 1
        assert service.registrations["q00000"].passes == 3

    def test_unregistered_during_open_pass_counts_that_pass_only(self, bib_document):
        service = _fleet_service(12)
        leaving = service.registrations["q00001"]
        replaced = service.registrations["q00002"]
        shared_pass = service.open_pass()
        service.unregister("q00001")
        # Same structure: the key keeps its place in the group.
        replacement = service.register(alias_query(BASES[2], 77), key="q00002")
        shared_pass.feed(bib_document)
        results = shared_pass.finish()
        assert results["q00001"].query == leaving.source
        assert results["q00002"].query == replaced.source
        assert leaving.passes == 1
        assert replaced.passes == 1
        assert replacement.passes == 0
        service.run_pass(bib_document)
        assert leaving.passes == 1
        assert replaced.passes == 1
        assert replacement.passes == 1

    def test_aborted_pass_counts_for_nobody(self, bib_document):
        service = _fleet_service(12)
        shared_pass = service.open_pass()
        service.register(alias_query(BASES[0], 50), key="late")
        shared_pass.feed(bib_document)
        shared_pass.abort()
        service.run_pass(bib_document)
        assert {reg.passes for reg in service.registrations.values()} == {1}

    def test_failed_fanout_moves_no_counter(self, bib_document, monkeypatch):
        service = _fleet_service(12)
        service.run_pass(bib_document)
        original = EvaluatorSession.finish
        finished = []

        def finish_then_fail(session):
            finished.append(session)
            if len(finished) == 2:
                raise RuntimeError("second structure fails to finish")
            return original(session)

        monkeypatch.setattr(EvaluatorSession, "finish", finish_then_fail)
        with pytest.raises(RuntimeError):
            service.run_pass(bib_document)
        monkeypatch.setattr(EvaluatorSession, "finish", original)
        assert {reg.passes for reg in service.registrations.values()} == {1}
        assert {s.passes for s in service.structures.values()} == {1}
        assert service.metrics.passes_completed == 1
        assert service.active_pass is None
        service.run_pass(bib_document)
        assert {reg.passes for reg in service.registrations.values()} == {2}


class TestResultOrder:
    @pytest.mark.parametrize("dedup", [True, False])
    def test_structures_in_first_registration_order_then_aliases(
        self, dedup, bib_document
    ):
        fleet = make_fleet(BASES, 40)
        # Interleave structures irregularly so first-registration order
        # differs from base order.
        rng = random.Random(3)
        rng.shuffle(fleet)
        service = QueryService(BIB_DTD_STRONG, dedup=dedup)
        for query in fleet:
            service.register(query.text, key=query.key)
        results = service.run_pass(bib_document)
        if dedup:
            first_seen = []
            for query in fleet:
                if query.structure not in first_seen:
                    first_seen.append(query.structure)
            expected = [
                query.key
                for structure in first_seen
                for query in fleet
                if query.structure == structure
            ]
        else:
            expected = [query.key for query in fleet]
        assert list(results) == expected
        assert [reg.key for reg in service.open_pass().registrations] == expected
