"""Walkthrough: serving many standing queries with one shared document scan.

Run with::

    python examples/multi_query_service.py

The paper's engine evaluates one schema-scheduled query per pass over the
stream.  The multi-query service generalizes that to a serving setup: N
registered queries are executed by one shared scan — one parse, one
validation, one projection filter — with push-based ingestion, so the
document can arrive in arbitrary chunks.  The example shows:

1. registering the whole bibliography query catalogue with a
   :class:`repro.QueryService` (plan-cache misses, then hits),
2. a one-shot shared pass (``run_pass``) and the events it saves versus
   independent engine runs,
3. push-based ingestion (``open_pass`` / ``feed`` / ``finish``) with the
   document arriving in 1 kB chunks,
4. that every result is byte-identical to a solo ``FluxEngine`` run,
5. per-query routing — each query receives only the events *its* profile
   admits, not the fleet union — and the threadless inline scheduler
   running every query with zero worker threads,
6. the long-lived serving loop (``serve``): one service over a stream of
   documents with a query registered mid-loop, and the same loop driven by
   the asyncio front end (:class:`repro.AsyncQueryService`).
"""

import asyncio

from repro import AsyncQueryService, FluxEngine, QueryService
from repro.workloads import BIB_DTD_STRONG, generate_bibliography
from repro.workloads.queries import queries_for_workload


def main() -> None:
    dtd = BIB_DTD_STRONG
    document = generate_bibliography(num_books=100, seed=42)
    specs = queries_for_workload("bib")
    print(f"document: {len(document)} bytes; standing queries: {len(specs)}\n")

    # 1. Register the catalogue.  Compilation goes through the plan cache,
    #    keyed by (query text, DTD fingerprint): re-registering is free.
    service = QueryService(dtd)
    for spec in specs:
        service.register(spec.xquery, key=spec.key)
    service.register(specs[0].xquery, key="Q1-again")  # cache hit
    cache = service.plan_cache.stats
    print(f"plan cache: {cache.misses} compilations, {cache.hits} hits\n")

    # 2. One shared pass executes every registered plan concurrently.
    results = service.run_pass(document)
    metrics = service.metrics.last_pass
    print("shared pass over one scan:")
    print(f"  parser events          : {metrics.parser_events}")
    print(f"  saved vs. solo runs    : {metrics.events_saved_vs_solo}")
    print(f"  pruned by projection   : {metrics.events_pruned}")
    print(f"  union forwarded        : {metrics.events_forwarded}")
    print(f"  wall time              : {metrics.elapsed_seconds * 1000:.1f} ms\n")
    for key in sorted(results):
        result = results[key]
        routed = metrics.per_query_forwarded.get(key, 0)
        print(f"  [{key:<9}] {len(result.output):>6} B output, "
              f"peak buffer {result.peak_buffer_bytes} B, "
              f"routed {routed}/{metrics.events_forwarded} events")

    # 3. Push-based ingestion: the same pass, document arriving in chunks.
    shared_pass = service.open_pass()
    for start in range(0, len(document), 1024):
        shared_pass.feed(document[start : start + 1024])
    chunked_results = shared_pass.finish()
    assert all(
        chunked_results[key].output == results[key].output for key in results
    )
    print("\npush-based ingestion (1 kB chunks) produced identical results")

    # 4. Byte-identical to solo execution of each query.
    engine = FluxEngine(dtd)
    for spec in specs:
        solo = engine.execute(spec.xquery, document)
        assert results[spec.key].output == solo.output
    print("every shared result is byte-identical to its solo FluxEngine run")

    # 5. The inline scheduler: no worker threads — the re-entrant
    #    evaluators are round-robined on this very thread.
    import threading

    threads_before = threading.active_count()
    service.run_pass(document)
    assert threading.active_count() == threads_before
    print("the shared pass ran with zero worker threads")

    # 6. The serving loop: one long-lived service, many documents, plans
    #    compiled once; registrations may change between passes.
    stream = [generate_bibliography(num_books=n, seed=n) for n in (20, 30, 40)]
    loop_service = QueryService(dtd)
    loop_service.register(specs[0].xquery, key=specs[0].key)
    for served in loop_service.serve(stream):
        print(f"\nserved document {served.index}: "
              f"{served.metrics.parser_events} events, "
              f"{len(served.results)} queries")
        if served.index == 0:
            loop_service.register(specs[1].xquery, key=specs[1].key)
            print(f"  registered {specs[1].key} mid-loop "
                  "(next pass picks it up)")
    totals = loop_service.metrics
    print(f"serve loop: {totals.passes_completed} passes, "
          f"{loop_service.plan_cache.stats.misses} compilations total")

    # ...and the same loop asyncio-native: coroutine ingestion over the
    # inline scheduler, one await point per chunk, no worker threads.
    async_service = AsyncQueryService(dtd)
    for spec in specs:
        async_service.register(spec.xquery, key=spec.key)

    async def drive():
        outputs = {}
        async for served in async_service.serve(stream):
            outputs[served.index] = served.results
        return outputs

    async_outputs = asyncio.run(drive())
    assert len(async_outputs) == len(stream)
    print("async serve loop produced results for every document")


if __name__ == "__main__":
    main()
