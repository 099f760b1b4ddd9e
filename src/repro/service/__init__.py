"""Multi-query streaming service: N standing queries, one document scan.

Public surface:

* :class:`QueryService` — register many XQueries, execute them all in a
  single shared pass with push-based ingestion, the per-query evaluations
  round-robined as suspendable generators on the feeding thread;
  :meth:`QueryService.serve` is the long-lived loop (one pass per document
  of a stream, registration churn allowed between passes);
* :class:`ServicePool` / :class:`AsyncServicePool` — the fault-isolated
  pool: N mirrored worker services sharing one plan cache shard a document
  stream (threads, or asyncio tasks), yielding per-document results as
  they complete and isolating failing documents into error-tagged
  :class:`ServedDocument` outcomes; :class:`PoolMetrics` aggregates the
  workers' accounting;
* :class:`ProcessServicePool` — the same pool over worker *processes* for
  CPU-bound streams: the parent compiles once through the shared cache and
  ships pickled plan artifacts to the workers (``ship_count`` /
  ``ship_bytes`` in the metrics), evaluation parallelizes across cores,
  and a crashed worker process is respawned with its in-flight document
  error-tagged (:class:`~repro.errors.WorkerCrashError`);
  :class:`FileDocument` / :class:`DocumentSource` let workers materialize
  documents themselves instead of shipping text through the parent;
* :class:`AsyncQueryService` / :class:`AsyncSharedPass` — the asyncio
  ingestion front end over the same scheduler (coroutine ``feed`` /
  ``finish`` / ``serve``);
* :class:`SharedPass` — one in-flight pass (``feed(text)`` / ``finish()``);
  one pass is in flight per service at a time
  (:class:`~repro.errors.PassInProgressError` guards overlap);
* :class:`PlanCache` / :class:`CacheStats` — the LRU plan cache keyed by
  ``(query text, DTD fingerprint)`` with single-flight compilation.  It
  lives in :mod:`repro.runtime.plan_cache` (re-exported here) so the solo
  ``FluxEngine`` compiles through the very same cache type — and, when
  shared, the same instance — as the service;
* :class:`PlanProfile` / :class:`SharedProjectionIndex` — the static
  analysis behind the per-query event router;
* :class:`ServiceMetrics` / :class:`PassMetrics` — accounting, including
  per-query routed/suppressed event counts; :class:`ServedDocument` — one
  serve-loop step's results and pass metrics.

See ``docs/ARCHITECTURE.md`` for the event flow, lifecycle state machines,
and serving front ends.
"""

from repro.errors import PassInProgressError
from repro.runtime.plan_cache import (
    CacheStats,
    PlanCache,
    cache_key,
    dtd_fingerprint,
    structure_key,
)
from repro.service.async_service import AsyncQueryService, AsyncSharedPass
from repro.service.dispatcher import (
    PlanProfile,
    SharedDispatcher,
    SharedProjectionIndex,
)
from repro.service.metrics import PassMetrics, PoolMetrics, ServiceMetrics
from repro.service.pool import AsyncServicePool, ServicePool
from repro.service.pool_core import PoolCore, ServiceBackedPool
from repro.service.process_pool import (
    DocumentSource,
    FileDocument,
    ProcessServicePool,
)
from repro.service.service import QueryService, ServedDocument
from repro.service.session import (
    PlanStructure,
    RegisteredQuery,
    SharedPass,
    SHARED_ENGINE_NAME,
)

__all__ = [
    "QueryService",
    "ServicePool",
    "AsyncServicePool",
    "ProcessServicePool",
    "DocumentSource",
    "FileDocument",
    "PoolCore",
    "ServiceBackedPool",
    "AsyncQueryService",
    "AsyncSharedPass",
    "ServedDocument",
    "SharedPass",
    "RegisteredQuery",
    "PlanStructure",
    "SHARED_ENGINE_NAME",
    "PassInProgressError",
    "PlanCache",
    "CacheStats",
    "cache_key",
    "dtd_fingerprint",
    "structure_key",
    "PlanProfile",
    "SharedDispatcher",
    "SharedProjectionIndex",
    "ServiceMetrics",
    "PassMetrics",
    "PoolMetrics",
]
