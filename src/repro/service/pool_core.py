"""The sharding core shared by every service-pool backend.

Three pool backends shard a document stream across N mirrored serving
loops — worker threads (:class:`~repro.service.pool.ServicePool`), asyncio
tasks (:class:`~repro.service.pool.AsyncServicePool`), and worker
*processes* (:class:`~repro.service.process_pool.ProcessServicePool`).
They differ in where the workers run; everything else is the same
architecture, and lives here:

* **one mirrored registration surface** — ``register`` / ``unregister`` /
  ``register_all`` fan a change out to every worker under one key, so each
  worker's snapshot at pass-open time is identical, while compilation cost
  does not fan out: every backend compiles through one shared
  :class:`~repro.runtime.plan_cache.PlanCache` in the *driving* process
  (the process backend then ships the compiled artifacts instead of
  letting workers recompile);
* **the one-serve-loop-at-a-time guard** — a second ``serve`` raises
  ``RuntimeError``, and registrations are rejected while a loop runs
  (mutating N mirrors under a running shard would tear the mirror);
* **one fault fold** — :class:`Shard` carries one document's trip through
  a worker (its trace id and ``pool.shard`` span) and turns a failed pass
  into an error-tagged outcome, for all three backends;
* **delivered-outcome accounting** — ok/failed counters by worker id,
  updated as results are *yielded* (a result drained away by a closed loop
  was never served to anyone), aggregated into
  :class:`~repro.service.metrics.PoolMetrics` together with the backend's
  worker metrics and plan-shipping counters.

:class:`PoolCore` is the backend-agnostic core; :class:`ServiceBackedPool`
specializes it for backends whose workers are in-process service objects
(threads, asyncio).  The process backend extends :class:`PoolCore`
directly — its workers live in other processes, so the parent mirrors
their registrations symbolically and rebuilds their metrics from the
results they ship back.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.obs import Observability, new_trace_id
from repro.runtime.plan_cache import PlanCache
from repro.service.metrics import PassMetrics, PoolMetrics, ServiceMetrics
from repro.service.service import ServedDocument
from repro.service.session import RegisteredQuery


class Shard:
    """One document's trip through a pool worker, and its fault fold.

    With tracing on (``obs`` carries a tracer) the shard mints the trace id
    its pass joins and opens a ``pool.shard`` span around it; a process
    worker instead passes the ``trace_id`` the parent stamped on the
    document.  :meth:`fault` is the one place a failed pass becomes an
    error-tagged :class:`~repro.service.service.ServedDocument`, on every
    backend.
    """

    __slots__ = ("index", "worker", "obs", "trace_id", "span")

    def __init__(self, index: int, worker: int,
                 obs: Optional[Observability] = None,
                 trace_id: Optional[str] = None):
        self.index = index
        self.worker = worker
        self.obs = obs
        tracing = obs is not None and obs.tracer is not None
        if tracing and trace_id is None:
            trace_id = new_trace_id()
        self.trace_id = trace_id
        self.span = (
            obs.tracer.span(
                "pool.shard", trace_id=self.trace_id, worker=worker, index=index
            )
            if tracing
            else None
        )

    def fault(self, shared_pass, exc: Exception) -> ServedDocument:
        """Abort ``shared_pass`` (``None`` if none opened) and fold ``exc``
        into an error outcome carrying the pass's partial metrics.

        The traceback is dropped: its frames pin the document text and the
        aborted pass graph for the outcome's lifetime, and a serving loop
        may accumulate many error outcomes.
        """
        metrics = PassMetrics()
        if shared_pass is not None:
            shared_pass.abort()
            metrics = shared_pass.metrics
        exc.__traceback__ = None
        if self.obs is not None:
            self.obs.log(
                "pool.fault",
                worker=self.worker,
                index=self.index,
                error=type(exc).__name__,
                trace_id=self.trace_id,
            )
        if self.span is not None:
            self.span.set(outcome="error")
        return ServedDocument(
            index=self.index,
            results={},
            metrics=metrics,
            outcome="error",
            error=exc,
            worker=self.worker,
        )

    def finish(self) -> None:
        """Close the ``pool.shard`` span, if tracing."""
        if self.span is not None:
            self.span.finish()


class PoolCore:
    """Registration mirroring, serve-loop guarding, and outcome accounting.

    Subclasses implement the backend hooks:

    * :meth:`_mirror_register` / :meth:`_mirror_unregister` — apply one
      registration change to every worker mirror;
    * :attr:`registrations` / :meth:`__len__` — the mirrored view;
    * :meth:`_worker_metrics` — one cumulative
      :class:`~repro.service.metrics.ServiceMetrics` per worker slot, for
      aggregation;
    * optionally :meth:`_ship_stats` — cumulative ``(count, bytes)`` of
      plan artifacts shipped to workers (zero for in-process backends).
    """

    def __init__(self, dtd: Union[DTD, str, None], workers: int,
                 plan_cache: Optional[PlanCache], cache_size: int,
                 obs: Optional[Observability] = None):
        if workers < 1:
            raise ValueError("a service pool needs at least one worker")
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        self.dtd = dtd
        #: Optional observability hub.  The pool logs its own lifecycle
        #: (register/unregister, fault isolation, respawns) and emits
        #: shard-level spans; pass-level instrumentation happens wherever
        #: the backend actually runs its passes.
        self.obs = obs
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        self._counter = 0
        self._serving = False
        # Delivered-outcome counters by worker id, cumulative across
        # loops; updated as results are *yielded* (a result drained away
        # by a closed loop was never served to anyone).
        self._documents_ok: Dict[int, int] = {}
        self._documents_failed: Dict[int, int] = {}
        self._counter_lock = threading.Lock()

    # ---------------------------------------------------------- back hooks

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        """Register ``query`` under ``key`` on every worker mirror."""
        raise NotImplementedError

    def _mirror_unregister(self, key: str) -> None:
        """Remove ``key`` from every worker mirror (``key`` exists)."""
        raise NotImplementedError

    def _worker_metrics(self) -> List[ServiceMetrics]:
        """One cumulative service-metrics snapshot per worker slot."""
        raise NotImplementedError

    def _ship_stats(self) -> Tuple[int, int]:
        """Cumulative ``(artifacts shipped, payload bytes shipped)``."""
        return (0, 0)

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        """The mirrored registrations, by key."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.registrations)

    @property
    def workers(self) -> int:
        """Pool size — how many documents may be in flight at once."""
        return len(self._worker_metrics())

    # ------------------------------------------------------- registration

    def _check_mutable(self) -> None:
        if self._serving:
            raise RuntimeError(
                "cannot change pool registrations while a serve loop is "
                "running; finish (or close) the loop first"
            )

    def register(self, query: str, key: Optional[str] = None) -> RegisteredQuery:
        """Register ``query`` on every worker under one ``key``.

        Compiled once through the shared cache; the returned
        :class:`RegisteredQuery` is the first mirror's (all mirrors share
        the same compiled plan entry).  Raises ``RuntimeError`` while a
        serve loop is running.
        """
        self._check_mutable()
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        registration = self._mirror_register(query, key)
        if self.obs is not None:
            self.obs.log(
                "pool.register", key=key, from_cache=registration.from_cache
            )
        return registration

    def register_all(self, queries: Iterable[str]) -> List[RegisteredQuery]:
        """Register several queries at once (autogenerated keys)."""
        return [self.register(query) for query in queries]

    def unregister(self, key: str) -> None:
        """Remove a standing query from every worker; unknown keys raise
        ``KeyError``.  Raises ``RuntimeError`` while a serve loop is
        running."""
        self._check_mutable()
        if key not in self.registrations:
            raise KeyError(key)
        self._mirror_unregister(key)
        if self.obs is not None:
            self.obs.log("pool.unregister", key=key)

    # -------------------------------------------------- serve-loop guards

    def _begin_serving(self) -> None:
        if self._serving:
            raise RuntimeError(
                "a serve loop is already running on this pool; one shard "
                "at a time — finish (or close) it before starting another"
            )
        if not len(self):
            raise ValueError("serve(): no queries registered on the pool")
        self._serving = True

    def _end_serving(self) -> None:
        self._serving = False

    def _record_outcome(self, worker_id: int, ok: bool) -> None:
        with self._counter_lock:
            counters = self._documents_ok if ok else self._documents_failed
            counters[worker_id] = counters.get(worker_id, 0) + 1

    # ----------------------------------------------------------- reporting

    @property
    def metrics(self) -> PoolMetrics:
        """A fresh aggregate of the workers' cumulative metrics."""
        with self._counter_lock:
            ok = dict(self._documents_ok)
            failed = dict(self._documents_failed)
        ship_count, ship_bytes = self._ship_stats()
        return PoolMetrics.aggregate(
            self._worker_metrics(), ok, failed,
            ship_count=ship_count, ship_bytes=ship_bytes,
        )

    def stats_summary(self) -> Dict[str, object]:
        """Pool metrics plus shared plan-cache counters, for logs/benches."""
        summary = self.metrics.as_dict()
        summary["plan_cache"] = self.plan_cache.stats.as_dict()
        summary["plan_cache"]["size"] = len(self.plan_cache)
        return summary


class ServiceBackedPool(PoolCore):
    """A pool whose worker mirrors are in-process service objects.

    The thread and asyncio backends put N ``QueryService`` /
    ``AsyncQueryService`` instances in ``self._services``; the mirrored
    registration surface fans out to them directly, and their live
    ``metrics`` objects are the aggregation source.
    """

    def __init__(self, dtd: Union[DTD, str, None], workers: int,
                 plan_cache: Optional[PlanCache], cache_size: int,
                 obs: Optional[Observability] = None):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        self._services: List = []  # filled by the subclass

    def _mirror_register(self, query: str, key: str) -> RegisteredQuery:
        registrations = [
            service.register(query, key=key) for service in self._services
        ]
        return registrations[0]

    def _mirror_unregister(self, key: str) -> None:
        for service in self._services:
            service.unregister(key)

    def _worker_metrics(self) -> List[ServiceMetrics]:
        return [service.metrics for service in self._services]

    @property
    def registrations(self) -> Dict[str, RegisteredQuery]:
        """The mirrored registrations, by key (worker 0's view)."""
        return self._services[0].registrations

    def __len__(self) -> int:
        return len(self._services[0])

    @property
    def workers(self) -> int:
        return len(self._services)

    @property
    def services(self) -> List:
        """The worker services (read-only by convention; for inspection)."""
        return list(self._services)
