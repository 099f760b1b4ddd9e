"""Plan cache: hits, misses, DTD-fingerprint invalidation, eviction, stats.

The cache lives in ``repro.runtime`` and is shared by the FluxEngine and the
multi-query service; ``repro.service`` re-exports it."""

import pytest

from repro.bench.fleets import alias_query
from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.runtime.plan_cache import NO_DTD_FINGERPRINT, PlanCache, cache_key, dtd_fingerprint
from repro.workloads.queries import get_query

from tests.conftest import PAPER_FIGURE1_DTD, PAPER_WEAK_DTD, PAPER_Q3


@pytest.fixture
def strong_pipeline():
    return OptimizerPipeline(parse_dtd(PAPER_FIGURE1_DTD))


@pytest.fixture
def weak_pipeline():
    return OptimizerPipeline(parse_dtd(PAPER_WEAK_DTD))


class TestDtdFingerprint:
    def test_equal_dtds_share_a_fingerprint(self):
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) == dtd_fingerprint(
            parse_dtd(PAPER_FIGURE1_DTD)
        )

    def test_different_dtds_differ(self):
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) != dtd_fingerprint(
            parse_dtd(PAPER_WEAK_DTD)
        )

    def test_declaration_order_is_irrelevant(self):
        reordered = "\n".join(reversed(PAPER_FIGURE1_DTD.strip().splitlines()))
        # Same declarations, same root (explicitly the unique non-child).
        assert dtd_fingerprint(parse_dtd(PAPER_FIGURE1_DTD)) == dtd_fingerprint(
            parse_dtd(reordered)
        )

    def test_no_dtd_sentinel(self):
        from repro.runtime.plan_cache import DEFAULT_PIPELINE_CONFIG

        assert dtd_fingerprint(None) == NO_DTD_FINGERPRINT
        assert cache_key("q", None) == ("q", NO_DTD_FINGERPRINT, DEFAULT_PIPELINE_CONFIG)
        assert cache_key("q", None, "10101") == ("q", NO_DTD_FINGERPRINT, "10101")


class TestPlanCache:
    def test_hit_on_identical_query_and_dtd(self, strong_pipeline):
        cache = PlanCache()
        first, first_cached = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        second, second_cached = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert second is first
        assert (first_cached, second_cached) == (False, True)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_miss_on_different_dtd(self, strong_pipeline, weak_pipeline):
        cache = PlanCache()
        strong_plan, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        weak_plan, _ = cache.get_or_compile(PAPER_Q3, weak_pipeline)
        assert weak_plan is not strong_plan
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 2
        # Both schema variants stay resident side by side.
        assert cache.get(PAPER_Q3, strong_pipeline.dtd) is strong_plan
        assert cache.get(PAPER_Q3, weak_pipeline.dtd) is weak_plan

    def test_miss_on_different_pipeline_config(self, strong_pipeline):
        # An ablation pipeline must never be served a plan compiled with
        # the full optimizer (the plans produce different FluX queries).
        cache = PlanCache()
        ablated = OptimizerPipeline(
            strong_pipeline.dtd,
            enable_loop_merging=False,
            use_order_constraints=False,
        )
        full_plan, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        ablated_plan, _ = cache.get_or_compile(PAPER_Q3, ablated)
        assert ablated_plan is not full_plan
        assert cache.stats.misses == 2
        assert len(cache) == 2
        assert cache.get_or_compile(PAPER_Q3, ablated) == (ablated_plan, True)

    def test_miss_on_different_query(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.misses == 2

    def test_lru_eviction(self, strong_pipeline):
        cache = PlanCache(capacity=2)
        q1 = get_query("BIB-Q1").xquery
        q2 = get_query("BIB-Q2").xquery
        q3 = get_query("BIB-Q4").xquery
        cache.get_or_compile(q1, strong_pipeline)
        cache.get_or_compile(q2, strong_pipeline)
        cache.get_or_compile(q1, strong_pipeline)  # refresh q1
        cache.get_or_compile(q3, strong_pipeline)  # evicts q2 (LRU)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.get(q2, strong_pipeline.dtd) is None  # counted as a miss
        assert cache.get(q1, strong_pipeline.dtd) is not None

    def test_stats_counters_and_hit_rate(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        stats = cache.stats.as_dict()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_keeps_stats(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_contains_and_len_reflect_entries(self, strong_pipeline):
        cache = PlanCache()
        key = cache_key(PAPER_Q3, strong_pipeline.dtd, strong_pipeline.config_fingerprint())
        assert key not in cache
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert key in cache
        assert len(cache) == 1


class TestPlanCacheConcurrency:
    """Concurrent misses on one key must compile exactly once."""

    def _patched(self, monkeypatch, behaviour):
        import repro.runtime.plan_cache as plan_cache_module

        monkeypatch.setattr(plan_cache_module, "compile_query", behaviour)

    def test_single_flight_compilation(self, strong_pipeline, monkeypatch):
        import threading
        import time

        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        compiles = []

        def slow_compile(query, pipeline=None):
            compiles.append(query)
            time.sleep(0.05)  # widen the race window
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, slow_compile)
        cache = PlanCache()
        results = []

        def worker():
            results.append(cache.get_or_compile(PAPER_Q3, strong_pipeline))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(compiles) == 1
        assert len({id(entry) for entry, _ in results}) == 1
        # Exactly the leader reports a fresh compilation.
        assert sum(1 for _, from_cache in results if not from_cache) == 1
        # One compilation paid (the leader's miss); everyone else either
        # coalesced onto the flight or hit the freshly-inserted entry.
        assert cache.stats.misses == 1
        assert cache.stats.coalesced + cache.stats.hits == 7
        # hit_rate reflects that 7 of 8 callers never compiled.
        assert cache.stats.hit_rate == pytest.approx(7 / 8)
        entry, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert from_cache and cache.stats.hits >= 1

    def test_follower_receives_leader_error(self, strong_pipeline):
        from repro.runtime.plan_cache import _Flight

        cache = PlanCache()
        key = cache_key(
            PAPER_Q3, strong_pipeline.dtd, strong_pipeline.config_fingerprint()
        )
        flight = _Flight()
        flight.error = RuntimeError("injected compile failure")
        flight.done.set()
        cache._inflight[key] = flight
        with pytest.raises(RuntimeError, match="injected compile failure") as excinfo:
            cache.get_or_compile(PAPER_Q3, strong_pipeline)
        # The follower raised its own copy, chained to the leader's original.
        assert excinfo.value is not flight.error
        assert excinfo.value.__cause__ is flight.error

    def test_concurrent_followers_get_distinct_errors_with_intact_tracebacks(
        self, strong_pipeline, monkeypatch
    ):
        """Each follower's re-raise must not stomp the other followers'.

        With one shared exception instance, every follower's ``raise``
        splices frames onto the same ``__traceback__``; here each follower
        must observe exactly its own raise site.
        """
        import threading
        import time
        import traceback

        leader_error = ValueError("injected compile failure")

        def failing_compile(query, pipeline=None):
            time.sleep(0.05)  # keep the flight open while followers join
            raise leader_error

        self._patched(monkeypatch, failing_compile)
        cache = PlanCache()
        barrier = threading.Barrier(4)
        caught = []
        caught_lock = threading.Lock()

        def worker():
            barrier.wait()
            try:
                cache.get_or_compile(PAPER_Q3, strong_pipeline)
            except ValueError as exc:
                with caught_lock:
                    caught.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(caught) == 4
        # No caller was served: the leader is the one (failed) miss, and
        # followers of a failed flight must not inflate hit_rate.
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 0
        assert cache.stats.hit_rate == 0.0
        followers = [exc for exc in caught if exc is not leader_error]
        assert len(followers) == 3
        # Distinct instances per follower, all chained to the leader's.
        assert len({id(exc) for exc in followers}) == 3
        for exc in followers:
            assert exc.__cause__ is leader_error
            assert str(exc) == "injected compile failure"
            frames = traceback.extract_tb(exc.__traceback__)
            # Intact: exactly one raise site (get_or_compile), no frames
            # spliced in by the other followers' re-raises.
            assert [f.name for f in frames].count("get_or_compile") == 1
            assert frames[0].name == "worker"

    def test_followers_count_as_coalesced_not_misses(self, strong_pipeline, monkeypatch):
        import threading
        import time

        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        started = threading.Event()
        release = threading.Event()

        def gated_compile(query, pipeline=None):
            started.set()
            release.wait(5)
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, gated_compile)
        cache = PlanCache()
        results = []

        def call():
            results.append(cache.get_or_compile(PAPER_Q3, strong_pipeline))

        leader = threading.Thread(target=call)
        leader.start()
        assert started.wait(5)
        followers = [threading.Thread(target=call) for _ in range(3)]
        for thread in followers:
            thread.start()
        # Wait until all three followers joined the flight, then release
        # the leader.
        (flight,) = cache._inflight.values()
        deadline = time.time() + 5
        while flight.followers < 3 and time.time() < deadline:
            time.sleep(0.001)
        release.set()
        leader.join()
        for thread in followers:
            thread.join()
        stats = cache.stats.as_dict()
        assert stats["misses"] == 1
        assert stats["coalesced"] == 3
        assert stats["hits"] == 0
        assert stats["hit_rate"] == pytest.approx(3 / 4)
        # Followers still report from_cache=True: they did not compile.
        assert sum(1 for _, from_cache in results if not from_cache) == 1

    def test_failed_flight_clears_so_later_calls_retry(self, strong_pipeline, monkeypatch):
        import repro.runtime.plan_cache as plan_cache_module

        real_compile = plan_cache_module.compile_query
        attempts = []

        def flaky_compile(query, pipeline=None):
            attempts.append(query)
            if len(attempts) == 1:
                raise RuntimeError("injected compile failure")
            return real_compile(query, pipeline=pipeline)

        self._patched(monkeypatch, flaky_compile)
        cache = PlanCache()
        with pytest.raises(RuntimeError):
            cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert not cache._inflight  # the failed flight did not linger
        entry, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert entry is not None and not from_cache
        assert len(attempts) == 2


class TestStructuralInterning:
    """Alias texts (same computation, different spelling) share one plan.

    Interning is keyed by :func:`structure_key` — variables α-renamed
    away — so the cache holds one canonical plan object per distinct
    computation, however many text keys point at it, and eviction of one
    alias never strands (or prematurely drops) the shared object.
    """

    def test_alias_text_interns_to_the_cached_canonical_plan(self, strong_pipeline):
        cache = PlanCache()
        base, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        alias, from_cache = cache.get_or_compile(
            alias_query(PAPER_Q3, 1), strong_pipeline
        )
        # A distinct text is still a compile (miss)...
        assert not from_cache
        assert cache.stats.misses == 2
        # ...but the *stored and returned* plan is the canonical object.
        assert alias is base
        assert cache.stats.interned == 1
        assert len(cache) == 2
        assert cache.structure_count() == 1

    def test_distinct_structures_never_intern(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.interned == 0
        assert cache.structure_count() == 2

    def test_structure_survives_eviction_of_one_alias(self, strong_pipeline):
        cache = PlanCache(capacity=2)
        base, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        # Evicts the LRU alias entry (the base text), one of the two
        # entries sharing the structure — the canonical plan must survive
        # for the remaining alias.
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.evictions == 1
        assert cache.structure_count() == 2
        third, _ = cache.get_or_compile(alias_query(PAPER_Q3, 2), strong_pipeline)
        assert third is base  # still interning against the survivor
        assert cache.stats.interned == 2
        # Inserting the third alias evicted the second — the last other
        # holder of the structure — yet the structure table still maps the
        # skey to the shared object the new entry carries.
        assert cache.structure_count() == 2

    def test_structure_is_released_with_its_last_entry(self, strong_pipeline):
        cache = PlanCache(capacity=1)
        old, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(get_query("BIB-Q1").xquery, strong_pipeline)
        assert cache.stats.evictions == 1
        assert cache.structure_count() == 1  # the old structure is gone
        fresh, from_cache = cache.get_or_compile(
            alias_query(PAPER_Q3, 1), strong_pipeline
        )
        # Nothing left to intern against: a fresh canonical is compiled.
        assert not from_cache
        assert fresh is not old
        assert cache.stats.interned == 0

    def test_clear_drops_structures_too(self, strong_pipeline):
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        cache.clear()
        assert cache.structure_count() == 0
        refetched, from_cache = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert not from_cache and refetched is not None


class TestPlanObservations:
    def test_observe_and_read_back(self, strong_pipeline):
        from repro.runtime.plan_cache import PlanObservations

        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        assert cache.observations_for(entry) is None
        cache.observe(entry, events_routed=15.0, document_bytes=500.0,
                      elapsed_seconds=0.01, peak_buffer_bytes=128)
        record = cache.observations_for(entry)
        assert isinstance(record, PlanObservations)
        assert record.passes == 1
        assert record.events_routed == 15.0
        assert record.peak_buffer_bytes == 128

    def test_observations_accumulate_and_keep_peak_max(self, strong_pipeline):
        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.observe(entry, events_routed=10.0, peak_buffer_bytes=64)
        cache.observe(entry, events_routed=30.0, peak_buffer_bytes=32)
        record = cache.observations_for(entry)
        assert record.passes == 2
        assert record.events_routed == 40.0
        assert record.peak_buffer_bytes == 64

    def test_observations_for_returns_a_copy(self, strong_pipeline):
        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.observe(entry, events_routed=5.0)
        copy = cache.observations_for(entry)
        copy.record(events_routed=1000.0, document_bytes=0.0, elapsed_seconds=0.0)
        assert cache.observations_for(entry).passes == 1

    def test_structurally_equal_plans_share_observations(self, strong_pipeline):
        # α-equivalent queries map to one structure key, so observations
        # recorded under one alias calibrate the other.
        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        alias, _ = cache.get_or_compile(alias_query(PAPER_Q3, 1), strong_pipeline)
        cache.observe(entry, events_routed=7.0)
        assert cache.observations_for(alias).events_routed == 7.0

    def test_snapshot_roundtrip_carries_observations(self, strong_pipeline, tmp_path):
        path = str(tmp_path / "plans.json")
        cache = PlanCache()
        entry, _ = cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.observe(entry, events_routed=15.0, document_bytes=500.0,
                      elapsed_seconds=0.01, peak_buffer_bytes=128)
        cache.dump(path)

        warmed = PlanCache()
        warmed.load(path)
        reloaded, cached = warmed.get_or_compile(PAPER_Q3, strong_pipeline)
        assert cached is True
        record = warmed.observations_for(reloaded)
        assert record is not None
        assert record.passes == 1
        assert record.events_routed == 15.0
        assert record.peak_buffer_bytes == 128

    def test_load_merges_observations_into_existing(self, strong_pipeline, tmp_path):
        path = str(tmp_path / "plans.json")
        first = PlanCache()
        entry, _ = first.get_or_compile(PAPER_Q3, strong_pipeline)
        first.observe(entry, events_routed=10.0)
        first.dump(path)

        second = PlanCache()
        live, _ = second.get_or_compile(PAPER_Q3, strong_pipeline)
        second.observe(live, events_routed=5.0)
        second.load(path)
        merged = second.observations_for(live)
        assert merged.passes == 2
        assert merged.events_routed == 15.0

    def test_snapshot_without_observations_still_loads(self, strong_pipeline, tmp_path):
        # Snapshots written before the sidecar existed have no
        # "observations" key; loading them must keep working.
        import pickle

        path = str(tmp_path / "plans.bin")
        cache = PlanCache()
        cache.get_or_compile(PAPER_Q3, strong_pipeline)
        cache.dump(path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload.pop("observations", None)
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)

        warmed = PlanCache()
        assert warmed.load(path) == 1
