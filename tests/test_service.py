"""QueryService: shared-pass correctness, pruning safety, metrics, life cycle.

The central property (the PR's acceptance bar): for every catalogued query,
the output produced inside a shared multi-query pass is byte-identical to a
solo ``FluxEngine.execute`` of the same query over the same document — no
matter how the document is chunked into the push-based ingestion.
"""

import io

import pytest

from repro.engines.flux_engine import FluxEngine
from repro.errors import XMLSyntaxError, XMLValidationError
from repro.service import QueryService, SHARED_ENGINE_NAME
from repro.workloads.bibgen import generate_bibliography
from repro.workloads.dtds import AUCTION_DTD, BIB_DTD_STRONG, BIB_DTD_WEAK
from repro.workloads.queries import get_query, queries_for_workload
from repro.workloads.xmark import generate_auction_site

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3


@pytest.fixture(scope="module")
def bib_document():
    return generate_bibliography(num_books=40, seed=2004)


@pytest.fixture(scope="module")
def auction_document():
    return generate_auction_site(scale=0.4, seed=2004)


def solo_outputs(dtd, specs, document):
    engine = FluxEngine(dtd)
    return {spec.key: engine.execute(spec.xquery, document) for spec in specs}


class TestSharedPassAgreement:
    """Property-style: shared output == solo output for the whole catalogue."""

    @pytest.mark.parametrize(
        "workload,dtd_name",
        [("bib", "strong"), ("bib", "weak"), ("auction", "auction")],
    )
    def test_all_catalogued_queries_agree(
        self, workload, dtd_name, bib_document, auction_document
    ):
        dtd = {"strong": BIB_DTD_STRONG, "weak": BIB_DTD_WEAK, "auction": AUCTION_DTD}[
            dtd_name
        ]
        document = bib_document if workload == "bib" else auction_document
        specs = queries_for_workload(workload)
        service = QueryService(dtd)
        for spec in specs:
            service.register(spec.xquery, key=spec.key)
        results = service.run_pass(document)
        solo = solo_outputs(dtd, specs, document)
        for spec in specs:
            assert results[spec.key].output == solo[spec.key].output, spec.key
            assert results[spec.key].engine == SHARED_ENGINE_NAME

    @pytest.mark.parametrize("chunk", [1, 57, 4096])
    def test_agreement_is_chunking_independent(self, bib_document, chunk):
        specs = queries_for_workload("bib")
        service = QueryService(BIB_DTD_STRONG)
        for spec in specs:
            service.register(spec.xquery, key=spec.key)
        shared_pass = service.open_pass()
        for start in range(0, len(bib_document), chunk):
            shared_pass.feed(bib_document[start : start + chunk])
        results = shared_pass.finish()
        solo = solo_outputs(BIB_DTD_STRONG, specs, bib_document)
        for spec in specs:
            assert results[spec.key].output == solo[spec.key].output, spec.key

    def test_agreement_without_dtd(self):
        # No schema: no order constraints, no early on-first events, maximal
        # buffering — the shared pass must still match solo exactly.
        service = QueryService(None)
        service.register(PAPER_Q3, key="q3")
        results = service.run_pass(PAPER_DOCUMENT)
        solo = FluxEngine(None).execute(PAPER_Q3, PAPER_DOCUMENT)
        assert results["q3"].output == solo.output

    def test_file_like_document(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="q1")
        results = service.run_pass(io.StringIO(bib_document))
        solo = FluxEngine(BIB_DTD_STRONG).execute(get_query("BIB-Q1").xquery, bib_document)
        assert results["q1"].output == solo.output

    def test_repeated_passes_reuse_registrations(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        service.register(get_query("BIB-Q1").xquery, key="q1")
        first = service.run_pass(bib_document)
        second = service.run_pass(bib_document)
        assert first["q1"].output == second["q1"].output
        assert service.metrics.passes_completed == 2


class TestSharedScanEconomy:
    def test_one_parse_serves_all_queries(self, bib_document):
        specs = queries_for_workload("bib")
        service = QueryService(BIB_DTD_STRONG)
        for spec in specs:
            service.register(spec.xquery, key=spec.key)
        service.run_pass(bib_document)
        metrics = service.metrics.last_pass
        assert metrics.queries == len(specs) >= 5
        # N independent runs parse the document N times; the shared pass
        # parses it once, so total parser events are cut by (N-1)x.
        independent_events = len(specs) * metrics.parser_events
        assert metrics.parser_events < independent_events
        assert metrics.events_saved_vs_solo == independent_events - metrics.parser_events

    def test_projection_filter_skips_irrelevant_events(self, auction_document):
        # A single sparse query over the auction site: whole sections are
        # irrelevant and must be pruned once, before fan-out.
        service = QueryService(AUCTION_DTD)
        service.register(get_query("AUC-A1").xquery, key="a1")
        results = service.run_pass(auction_document)
        metrics = service.metrics.last_pass
        assert metrics.events_pruned > 0
        assert metrics.events_forwarded < metrics.parser_events
        solo = FluxEngine(AUCTION_DTD).execute(get_query("AUC-A1").xquery, auction_document)
        assert results["a1"].output == solo.output
        # The per-query runtime really processed fewer events than solo.
        assert results["a1"].stats.events_processed < solo.stats.events_processed


class TestServiceLifecycle:
    def test_register_returns_cache_provenance(self):
        service = QueryService(BIB_DTD_STRONG)
        first = service.register(PAPER_Q3)
        again = service.register(PAPER_Q3)
        assert not first.from_cache
        assert again.from_cache
        assert service.plan_cache.stats.hits == 1

    def test_default_keys_and_unregister(self):
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(PAPER_Q3)
        assert registration.key == "q1"
        assert len(service) == 1
        service.unregister("q1")
        assert len(service) == 0
        with pytest.raises(KeyError):
            service.unregister("q1")

    def test_shared_cache_across_services(self):
        from repro.service import PlanCache

        cache = PlanCache()
        QueryService(BIB_DTD_STRONG, plan_cache=cache).register(PAPER_Q3)
        QueryService(BIB_DTD_STRONG, plan_cache=cache).register(PAPER_Q3)
        assert cache.stats.hits == 1

    def test_pass_without_registrations_rejected(self):
        with pytest.raises(ValueError):
            QueryService(BIB_DTD_STRONG).open_pass()

    def test_push_driven_pass_records_metrics(self, bib_document):
        # open_pass()/feed()/finish() must account exactly like run_pass(),
        # and an idempotent double finish() must record only once.
        service = QueryService(BIB_DTD_STRONG)
        service.register(PAPER_Q3)
        shared_pass = service.open_pass()
        shared_pass.feed(bib_document)
        shared_pass.finish()
        shared_pass.finish()
        assert service.metrics.passes_completed == 1
        assert service.metrics.last_pass.parser_events > 0

    def test_stats_summary_merges_cache_stats(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        service.register(PAPER_Q3)
        service.run_pass(bib_document)
        summary = service.stats_summary()
        assert summary["passes_completed"] == 1
        assert summary["plan_cache"]["misses"] == 1
        assert summary["last_pass"]["queries"] == 1


class TestSharedPassErrors:
    def test_malformed_document_raises_and_aborts(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        shared_pass.feed("<bib><book>")
        with pytest.raises(XMLSyntaxError):
            shared_pass.finish()

    def test_invalid_document_raises_once_for_all_queries(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with pytest.raises(XMLValidationError):
            service.run_pass("<bib><bad/></bib>")

    def test_context_manager_finishes_on_clean_exit(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with service.open_pass() as shared_pass:
            shared_pass.feed(PAPER_DOCUMENT)
        results = shared_pass.finish()  # idempotent: already finished on exit
        assert results["q3"].output
        assert service.metrics.passes_completed == 1

    def test_context_manager_aborts_on_exception(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        with pytest.raises(RuntimeError):
            with service.open_pass() as shared_pass:
                shared_pass.feed("<bib>")
                raise RuntimeError("caller failure")
        # The abort freed the pass slot; a fresh pass still runs.
        assert service.run_pass(PAPER_DOCUMENT)["q3"].output

    def test_abandoned_pass_releases_workers(self):
        # An abandoned pass holds no thread, and its slot frees on GC.
        import gc
        import threading

        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        before = threading.active_count()
        shared_pass = service.open_pass()
        shared_pass.feed("<bib>")
        assert threading.active_count() == before
        del shared_pass  # dropped without finish()/abort()
        gc.collect()
        assert service.active_pass is None

    def test_feed_after_finish_rejected(self):
        service = QueryService(PAPER_FIGURE1_DTD)
        service.register(PAPER_Q3, key="q3")
        shared_pass = service.open_pass()
        shared_pass.feed(PAPER_DOCUMENT)
        shared_pass.finish()
        with pytest.raises(ValueError):
            shared_pass.feed("x")


class TestStaticCostAndObservations:
    """The analyzer hooks: priced registrations, observed passes."""

    def test_registered_query_exposes_static_cost(self):
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(PAPER_Q3, key="q3")
        assert registration.static_cost > 0
        # Memoized on the shared entry, not recomputed per registration.
        assert registration.static_cost == registration.entry.__dict__["_static_cost"]

    def test_run_pass_records_observations(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(PAPER_Q3, key="q3")
        results = service.run_pass(bib_document)
        record = service.plan_cache.observations_for(registration.entry)
        assert record is not None
        assert record.passes == 1
        assert record.events_routed > 0
        assert record.document_bytes == float(len(bib_document))
        assert record.peak_buffer_bytes == results["q3"].peak_buffer_bytes

    def test_observations_accumulate_across_passes(self, bib_document):
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(PAPER_Q3, key="q3")
        service.run_pass(bib_document)
        service.run_pass(bib_document)
        record = service.plan_cache.observations_for(registration.entry)
        assert record.passes == 2

    @pytest.mark.parametrize("front_end", ["pool", "async", "async_pool"])
    def test_every_front_end_records_observations(self, bib_document, front_end):
        # Pools and the asyncio front end calibrate the shared cache too:
        # one record per structure, one observation per served document.
        import asyncio

        from repro.runtime.plan_cache import structure_key
        from repro.service import AsyncQueryService, AsyncServicePool, ServicePool

        if front_end == "pool":
            service = ServicePool(BIB_DTD_STRONG, workers=2)
        elif front_end == "async":
            service = AsyncQueryService(BIB_DTD_STRONG)
        else:
            service = AsyncServicePool(BIB_DTD_STRONG, workers=2)
        q1 = get_query("BIB-Q1").xquery
        service.register(q1, key="a")
        service.register(q1, key="alias")
        service.register(get_query("BIB-Q3").xquery, key="b")
        documents = [bib_document, bib_document]
        if front_end == "pool":
            served = list(service.serve(documents))
        else:

            async def drive():
                return [outcome async for outcome in service.serve(documents)]

            served = asyncio.run(drive())
        assert [outcome.ok for outcome in served] == [True, True]
        entries = {
            structure_key(reg.entry): reg.entry
            for reg in service.registrations.values()
        }
        assert len(entries) == 2
        for entry in entries.values():
            record = service.plan_cache.observations_for(entry)
            assert record is not None
            assert record.passes == 2

    def test_duplicate_registrations_observe_once_per_pass(self, bib_document):
        # Two keys, one deduplicated plan: the pass must not double-count.
        service = QueryService(BIB_DTD_STRONG)
        registration = service.register(PAPER_Q3, key="a")
        service.register(PAPER_Q3, key="b")
        service.run_pass(bib_document)
        record = service.plan_cache.observations_for(registration.entry)
        assert record.passes == 1
