"""Fault-isolated service pool: N serving loops, one plan cache.

A single :class:`~repro.service.service.QueryService` serves one shared
pass at a time — the pass owns the parser position and the per-query
sessions, so overlapping two documents on one service cannot be made safe
(:class:`~repro.errors.PassInProgressError` makes the constraint explicit).
:class:`ServicePool` hides it: the pool owns N worker ``QueryService``
instances that *mirror* each other's registrations and share one
:class:`~repro.runtime.plan_cache.PlanCache`, so

* **compilation is paid once per distinct query across the whole pool** —
  the first worker's registration misses and compiles, the remaining
  mirrors hit (or, registering concurrently, coalesce onto the leader's
  single-flight compilation; the cache's ``misses`` counter equals
  optimizer runs either way);
* **documents overlap**: :meth:`ServicePool.serve` shards the document
  stream across the workers — each worker thread pulls the next document
  from the shared source, runs its own pass, and the pool yields
  :class:`~repro.service.service.ServedDocument` results *as they
  complete*, tagged with the worker id and the document's source ``index``
  (completion order is not source order; sort by ``index`` if you need it);
* **failures are isolated**: a document that fails mid-pass aborts only
  its own worker's pass and is delivered as an error-tagged
  ``ServedDocument`` (``outcome == "error"``, the exception on ``error``),
  while every other document — including later ones on the same worker —
  is served normally, byte-identical to a solo run.  This fixes the
  all-or-nothing serving loop: ``QueryService.serve()`` aborts and
  propagates on the first bad document.

Under CPython's GIL the worker threads interleave rather than parallelize
CPU-bound evaluation; what the pool buys on one core is *ingestion
overlap* — while one worker waits on a slow document source (a socket, a
file tail, an upload), the others keep evaluating.  The S4 benchmark
(``benchmarks/bench_s4_pool_scaling.py``) measures both regimes honestly.
For CPU-bound streams that need hardware parallelism, the same
architecture is available over worker *processes*:
:class:`~repro.service.process_pool.ProcessServicePool` ships the compiled
plans to the workers instead of sharing them (see S5).

:class:`AsyncServicePool` is the same architecture for one event loop: N
:class:`~repro.service.async_service.AsyncQueryService` workers driven by
coroutine tasks, sharding a plain or async document iterable, each
document itself optionally an async chunk feed.

Concurrency contract: one serve loop at a time per pool (a second
``serve`` raises ``RuntimeError``), and registration (``register`` /
``unregister``) is single-driver *and* rejected while a serve loop is
running — the workers snapshot registrations when their passes open, and
mutating N mirrored services under a running loop would tear the mirror.
Register between loops (or before the first).  The serve loop is
backpressured: the result queue is bounded to the worker count, so a slow
consumer pauses the shard instead of buffering an unbounded stream's
results.  The plan cache below remains fully thread-safe and may be
shared with further pools, services, and engines.
"""

from __future__ import annotations

import asyncio
import io
import queue
import threading
import time
from typing import Iterable, Iterator, List, Optional, Union

from repro.dtd.schema import DTD
from repro.obs import Observability
from repro.runtime.plan_cache import PlanCache
from repro.service.async_service import AsyncQueryService, _iter_documents
from repro.service.pool_core import ServiceBackedPool, Shard
from repro.service.service import QueryService, ServedDocument


class ServicePool(ServiceBackedPool):
    """N mirrored :class:`QueryService` workers sharding a document stream.

    Parameters
    ----------
    dtd:
        Schema shared by all workers (a :class:`DTD`, DTD text, or
        ``None``), parsed once.
    workers:
        Pool size — how many documents may be in flight at once.
    validate:
        Forwarded to every worker ``QueryService``.
    plan_cache:
        An existing cache to share; by default the pool owns one cache of
        ``cache_size`` plans that all its workers compile through.

    Use :meth:`register` / :meth:`unregister` / :meth:`register_all`
    between serve loops, then :meth:`serve` to shard a stream.  The pool's
    cumulative accounting is :attr:`metrics` (a fresh
    :class:`~repro.service.metrics.PoolMetrics` aggregate per read);
    :meth:`stats_summary` adds the shared plan-cache counters.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        workers: int = 2,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        obs: Optional[Observability] = None,
    ):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        worker_obs = obs.for_pool_worker() if obs is not None else None
        self._services = [
            QueryService(
                self.dtd,
                validate=validate,
                plan_cache=self.plan_cache,
                obs=worker_obs,
            )
            for _ in range(workers)
        ]

    def serve(
        self,
        documents: Iterable[Union[str, io.TextIOBase]],
        chunk_size: int = 256,
    ) -> Iterator[ServedDocument]:
        """Shard ``documents`` across the workers; yield results as they
        complete.

        Each worker thread repeatedly pulls the next document from the
        shared iterator (so a lazy source is consumed on demand) and runs
        one pass on its own service; the pool yields one
        :class:`ServedDocument` per document — tagged with ``worker`` and
        source ``index``, in *completion* order.  The result queue is
        bounded to the worker count, so a consumer slower than the shard
        pauses the workers (at most ``2 × workers`` documents are pulled
        beyond what the consumer has taken) instead of buffering an
        unbounded stream's results.

        **Fault isolation**: a document whose pass fails (malformed XML,
        validation, evaluation) is delivered as ``outcome == "error"``
        with the exception on ``error`` and the failed pass's partial
        metrics; the worker's pass slot is released by the abort, so the
        same worker accepts the next document.  Only an error raised by
        the *source iterator itself* (or a non-``Exception`` like
        ``KeyboardInterrupt``) propagates and ends the loop.

        Serving an empty pool raises ``ValueError`` before any document is
        pulled; a second ``serve`` while one is running raises
        ``RuntimeError``.  Closing the generator early stops the shard
        (workers finish their in-flight passes, then exit).  Registration
        changes are rejected while the loop runs.
        """
        source = enumerate(documents)  # before the guard: a bad argument
        self._begin_serving()          # must not lock the pool forever
        source_lock = threading.Lock()
        # Bounded: workers block here when the consumer lags (backpressure).
        output: "queue.Queue" = queue.Queue(maxsize=len(self._services))
        stop = threading.Event()

        def worker_loop(worker_id: int, service: QueryService) -> None:
            try:
                while not stop.is_set():
                    with source_lock:
                        try:
                            index, document = next(source)
                        except StopIteration:
                            break
                        except BaseException as exc:  # the source itself failed
                            output.put(("fatal", exc))
                            return
                    try:
                        served = self._serve_one(
                            service, worker_id, index, document, chunk_size
                        )
                    except BaseException as exc:  # non-Exception: propagate
                        output.put(("fatal", exc))
                        return
                    output.put(("served", served))
            finally:
                output.put(("done", worker_id))

        threads: List[threading.Thread] = []
        try:
            for worker_id, service in enumerate(self._services):
                thread = threading.Thread(
                    target=worker_loop,
                    args=(worker_id, service),
                    name=f"pool-worker-{worker_id}",
                    daemon=True,
                )
                threads.append(thread)
                thread.start()
            done = 0
            while done < len(threads):
                kind, payload = output.get()
                if kind == "done":
                    done += 1
                elif kind == "served":
                    # Counted at delivery, not completion: results a closed
                    # loop drains away were never served to anyone.
                    self._record_outcome(payload.worker, payload.ok)
                    yield payload
                else:  # "fatal"
                    raise payload
        finally:
            stop.set()
            # Keep draining while workers wind down: one may be blocked on
            # the bounded queue, and join() before its put() would deadlock.
            while any(thread.is_alive() for thread in threads):
                try:
                    output.get_nowait()
                except queue.Empty:
                    time.sleep(0.001)
            for thread in threads:
                thread.join()
            self._end_serving()

    def _serve_one(
        self,
        service: QueryService,
        worker_id: int,
        index: int,
        document: Union[str, io.TextIOBase],
        chunk_size: int,
    ) -> ServedDocument:
        """One worker pass over one document, fault-isolated by its
        :class:`~repro.service.pool_core.Shard` (the pass joins the shard's
        trace, and a failure becomes an error-tagged outcome)."""
        shard = Shard(index, worker_id, self.obs)
        try:
            return service._serve_document(document, index, chunk_size, shard)
        finally:
            shard.finish()


class AsyncServicePool(ServiceBackedPool):
    """The service pool on one event loop: N coroutine-driven workers.

    Mirrors :class:`ServicePool` — shared plan cache, mirrored
    registrations, fault-isolated sharded ``serve`` — with
    :class:`AsyncQueryService` workers and asyncio tasks instead of
    threads.  This is cooperative concurrency: CPU-bound evaluation still
    runs one chunk at a time on the loop's thread, but slow *delivery*
    (async document sources, per-document async chunk feeds) overlaps
    across the workers, which is exactly the serving-scenario win.

    ``documents`` may be a plain or async iterable; each document may be
    XML text, a synchronous file-like object, or an async iterable of text
    chunks (a connection).  All methods must be called from the event
    loop's thread; ``register``/``unregister`` between serve loops only.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        workers: int = 2,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        obs: Optional[Observability] = None,
    ):
        super().__init__(dtd, workers, plan_cache, cache_size, obs=obs)
        worker_obs = obs.for_pool_worker() if obs is not None else None
        self._services = [
            AsyncQueryService(
                self.dtd,
                validate=validate,
                plan_cache=self.plan_cache,
                obs=worker_obs,
            )
            for _ in range(workers)
        ]

    async def serve(self, documents, chunk_size: int = 256):
        """Shard a (plain or async) document iterable across the workers.

        The async rendering of :meth:`ServicePool.serve`, with the same
        contract: results yielded as they complete, tagged with ``worker``
        and source ``index``; a failing document fault-isolated into an
        error-tagged :class:`ServedDocument`; an error from the source
        itself propagating; a bounded result queue pausing the workers
        when the consumer lags; one loop at a time (``RuntimeError``).
        """
        self._begin_serving()
        source = _iter_documents(documents)
        source_lock = asyncio.Lock()
        output: "asyncio.Queue" = asyncio.Queue(maxsize=len(self._services))
        next_index = [0]

        async def worker_loop(worker_id: int, service: AsyncQueryService) -> None:
            # Protocol: ("served", ...) per document, then exactly one
            # terminal message — "done" (source exhausted) or "fatal"
            # (source error / non-Exception from a pass).  A cancelled
            # worker sends nothing: the consumer is gone, and awaiting the
            # bounded queue during cancellation would deadlock the
            # shutdown gather.
            terminal = ("done", worker_id)
            while True:
                async with source_lock:
                    try:
                        document = await source.__anext__()
                    except StopAsyncIteration:
                        break
                    except asyncio.CancelledError:
                        raise
                    except BaseException as exc:  # the source failed
                        terminal = ("fatal", exc)
                        break
                    index = next_index[0]
                    next_index[0] += 1
                try:
                    served = await self._serve_one(
                        service, worker_id, index, document, chunk_size
                    )
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:  # non-Exception from a pass
                    terminal = ("fatal", exc)
                    break
                await output.put(("served", served))
            await output.put(terminal)

        tasks: List["asyncio.Task"] = []
        try:
            tasks = [
                asyncio.ensure_future(worker_loop(worker_id, service))
                for worker_id, service in enumerate(self._services)
            ]
            done = 0
            while done < len(tasks):
                kind, payload = await output.get()
                if kind == "done":
                    done += 1
                elif kind == "served":
                    # Counted at delivery, like the thread pool.
                    self._record_outcome(payload.worker, payload.ok)
                    yield payload
                else:  # "fatal"
                    raise payload
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._end_serving()

    async def _serve_one(
        self,
        service: AsyncQueryService,
        worker_id: int,
        index: int,
        document,
        chunk_size: int,
    ) -> ServedDocument:
        shard = Shard(index, worker_id, self.obs)
        try:
            return await service._serve_document(document, index, chunk_size, shard)
        finally:
            shard.finish()
