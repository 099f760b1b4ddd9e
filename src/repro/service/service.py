"""The multi-query streaming service.

The paper's engine evaluates *one* schema-scheduled query per document scan.
:class:`QueryService` turns that into a serving architecture: N standing
XQuery registrations cost one parse of the XML stream, not N —

* **register** compiles each query through the shared
  :class:`~repro.core.optimizer.OptimizerPipeline`, behind the LRU
  :class:`~repro.runtime.plan_cache.PlanCache` keyed by
  ``(query text, DTD fingerprint)`` — the same cache type the solo
  :class:`~repro.engines.flux_engine.FluxEngine` compiles through, so a
  cache instance can be shared across engines and services;
* **run_pass / open_pass** execute *all* registered plans in a single
  shared pass over the document: one incremental parser feed, one shared
  validation, a union projection-path index that skips events irrelevant to
  every query once (see :mod:`repro.service.dispatcher`), and one
  push-based FluX runtime per query consuming the fan-out.

Ingestion is push-based and resumable: ``open_pass()`` returns a
:class:`~repro.service.session.SharedPass` whose ``feed(text)`` accepts
document chunks as they arrive (a socket, a file tail, ...) and whose
``finish()`` yields one byte-identical-to-solo
:class:`~repro.engines.base.QueryResult` per query.

The service is *long-lived*: :meth:`QueryService.serve` runs one shared
pass per document of a stream of documents, reusing the registered (and
cached) plans across passes while starting fresh per-query
:class:`~repro.runtime.evaluator.EvaluatorSession` runtimes for each
document.  Registrations may change between passes — each pass snapshots
the registrations current when it opens — and the service guards itself
against overlapping passes: it serves exactly one pass at a time and
:meth:`open_pass` raises :class:`~repro.errors.PassInProgressError` while
one is in flight.

Thread-safety contract: registration (``register``/``unregister``) and pass
execution are designed for a single driving thread; the plan cache below
them is fully thread-safe, so concurrent *compilation* (e.g. registering
the same query from several services sharing a cache) is safe, but one
``QueryService`` instance must not be driven from two threads at once.
"""

from __future__ import annotations

import io
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Union

from repro.core.optimizer import OptimizerPipeline
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engines.base import QueryResult
from repro.errors import PassInProgressError
from repro.obs import Observability
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.plan_cache import PlanCache, dtd_fingerprint, structure_key
from repro.service.metrics import PassMetrics, ServiceMetrics
from repro.service.session import (
    PlanStructure,
    RegisteredQuery,
    SharedPass,
    Subscribers,
)

if TYPE_CHECKING:
    from repro.service.pool_core import Shard

#: Default read granularity when a pass ingests a file-like document.
_READ_CHUNK = 1 << 16


def check_execution(execution: str) -> None:
    """Reject any per-query driver but ``"inline"``, the only one."""
    if execution != "inline":
        raise ValueError(
            f"unknown execution mode {execution!r}; the only per-query "
            "driver is 'inline'"
        )


class _NullContext:
    """``with`` block placeholder when no profiler is attached."""

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc_value, traceback):
        return None


_NULL_CONTEXT = _NullContext()


@dataclass
class ServedDocument:
    """One document's outcome inside a serving loop.

    ``index`` is the document's position in the served sequence, ``results``
    maps registration keys to byte-identical-to-solo query results, and
    ``metrics`` is the pass's own accounting (the cumulative totals live on
    :attr:`QueryService.metrics`).

    A :class:`~repro.service.pool.ServicePool` adds two tags: ``worker`` is
    the pool worker that served the document (``None`` when served by a
    plain :meth:`QueryService.serve` loop), and a document that failed
    mid-pass is *fault-isolated* — delivered with ``outcome == "error"``,
    the exception on ``error``, empty ``results``, and the failed pass's
    partial ``metrics`` — instead of exhausting the whole loop.
    :meth:`QueryService.serve` itself never yields error outcomes; it
    aborts and propagates, as documented there.
    """

    index: int
    results: Dict[str, QueryResult]
    metrics: PassMetrics
    #: ``"ok"`` or ``"error"`` (the latter only from a pool's serve loop).
    outcome: str = "ok"
    #: The exception that aborted this document's pass, when ``outcome``
    #: is ``"error"``.
    error: Optional[BaseException] = None
    #: Pool worker id that served the document; ``None`` outside a pool.
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


class QueryService:
    """Shared single-pass execution of many standing XQuery registrations.

    Parameters
    ----------
    dtd:
        The schema of the served documents (a :class:`DTD`, DTD source
        text, or ``None``).  All registered queries are compiled under it.
    validate:
        Whether each pass validates the document against the DTD.  The
        check runs once per pass, in the shared dispatcher, instead of once
        per query as N solo engine runs would.
    plan_cache:
        An existing :class:`PlanCache` to share (e.g. across services
        serving different schemas); by default the service owns a fresh
        cache of ``cache_size`` plans.
    execution:
        Accepted for compatibility and must be ``"inline"``, the only
        per-query driver: each pass round-robins its re-entrant
        evaluations on the feeding thread.  Any other value raises
        ``ValueError``.
    dedup:
        Whether structurally identical registrations (same
        :func:`~repro.runtime.plan_cache.structure_key`: identical
        computation up to variable renaming and whitespace, same DTD
        fingerprint and pipeline config) share one
        :class:`~repro.service.session.PlanStructure` — evaluated once per
        pass, results fanned out to every subscriber.  Structures are
        refcounted: unregistering (or replacing) one alias never tears
        down a structure another registration still uses.  ``False``
        restores one private structure per registration (the pre-dedup
        cost model), which the fleet bench uses as its baseline.
    obs:
        An optional :class:`~repro.obs.Observability` hub.  With the
        default ``None`` the service runs the pre-instrumentation code
        paths unchanged; with a hub, passes record stage latency
        histograms and counters into its metrics registry, emit spans to
        its tracer, lifecycle events (register/unregister, pass
        start/finish/abort) go to its JSON-lines logger, and its profiler
        (if any) wraps each pass driven by :meth:`run_pass`/:meth:`serve`.
    """

    def __init__(
        self,
        dtd: Union[DTD, str, None] = None,
        validate: bool = True,
        plan_cache: Optional[PlanCache] = None,
        cache_size: int = 128,
        execution: str = "inline",
        obs: Optional[Observability] = None,
        dedup: bool = True,
    ):
        check_execution(execution)
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        self.dtd = dtd
        self.validate = validate
        self.obs = obs
        self.pipeline = OptimizerPipeline(dtd)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(cache_size)
        self.dedup = dedup
        self.metrics = ServiceMetrics()
        self._registrations: "Dict[str, RegisteredQuery]" = {}
        #: Live shared structures by structure key (``dedup=True`` only);
        #: entries leave when their last subscriber unregisters.
        self._structures: "Dict[str, PlanStructure]" = {}
        #: Every live structure (private ones too, under ``dedup=False``)
        #: with its subscribers by key, both in order of first
        #: registration.  Kept between passes and updated in O(1) per
        #: register/unregister, so opening a pass copies one group per
        #: structure instead of regrouping every registration.
        self._groups: "Dict[PlanStructure, Subscribers]" = {}
        self._counter = 0
        # Weak on purpose: an abandoned pass must not keep the slot
        # occupied; it frees once the pass is garbage collected.
        self._active_pass_ref: Optional["weakref.ref[SharedPass]"] = None

    # ------------------------------------------------------- registration

    def _acquire_structure(self, entry: "CompiledQueryPlan") -> Optional[PlanStructure]:
        """Subscribe one new registration to its shared structure.

        Returns the live :class:`PlanStructure` for ``entry`` (creating it
        on first subscription) with its refcount already incremented, or
        ``None`` with ``dedup=False`` — the registration then builds a
        private structure of its own.
        """
        if not self.dedup:
            return None
        skey = structure_key(entry)
        structure = self._structures.get(skey)
        if structure is None:
            structure = PlanStructure(skey, entry)
            self._structures[skey] = structure
            self.metrics.structures_registered += 1
        else:
            self.metrics.queries_deduped += 1
        structure.refcount += 1
        return structure

    def _subscribe(self, registration: RegisteredQuery) -> None:
        """Add a new registration to its structure's subscriber group.

        Replacing a key with an alias of the same structure keeps the key's
        place in the group.
        """
        group = self._groups.get(registration.structure)
        if group is None:
            group = self._groups[registration.structure] = {}
        group[registration.key] = registration
        active = self.active_pass
        if active is not None:
            active.note_joined(registration)

    def _release(self, registration: RegisteredQuery) -> None:
        """Drop one registration's subscription; tear down at refcount 0."""
        structure = registration.structure
        group = self._groups[structure]
        if group.get(registration.key) is registration:
            del group[registration.key]
            if not group:
                del self._groups[structure]
        registration.detach()
        active = self.active_pass
        if active is not None:
            active.note_left(registration)
        structure.refcount -= 1
        if (
            structure.refcount == 0
            and self._structures.get(structure.skey) is structure
        ):
            del self._structures[structure.skey]
            self.metrics.structures_released += 1

    def _install(self, registration: RegisteredQuery) -> None:
        """Make ``registration`` live, replacing any holder of its key.

        The newcomer subscribes before the displaced registration releases,
        so replacing an alias with another alias of the same structure
        never tears the shared structure down.
        """
        self._subscribe(registration)
        displaced = self._registrations.get(registration.key)
        if displaced is not None:
            self.metrics.queries_replaced += 1
            self._release(displaced)
        self._registrations[registration.key] = registration
        self.metrics.queries_registered += 1

    @property
    def structures(self) -> "Dict[str, PlanStructure]":
        """Live shared structures by key (read-only view by convention)."""
        return dict(self._structures)

    def register(self, query: str, key: Optional[str] = None) -> RegisteredQuery:
        """Register a standing query, compiling it through the plan cache.

        ``key`` names the registration (and its results); by default keys
        are ``q1``, ``q2``, ...  Re-registering an existing key replaces
        that query: the displaced registration is counted in
        ``metrics.queries_replaced``, keeping the live-query invariant
        ``queries_registered - queries_unregistered - queries_replaced ==
        len(service)``.  An already-open pass is unaffected — it holds a
        snapshot of the registrations taken when it was opened.
        """
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        entry, from_cache = self.plan_cache.get_or_compile(query, self.pipeline)
        registration = RegisteredQuery(
            key,
            entry,
            from_cache=from_cache,
            structure=self._acquire_structure(entry),
            # Echo what this registrant submitted: under plan-cache
            # interning, entry.source may be an alias's spelling.
            source=query,
        )
        self._install(registration)
        if self.obs is not None:
            self.obs.log("service.register", key=key, from_cache=from_cache)
        return registration

    def register_compiled(
        self,
        entry: "CompiledQueryPlan",
        key: Optional[str] = None,
        source: Optional[str] = None,
    ) -> RegisteredQuery:
        """Register an *already compiled* plan — no cache, no optimizer.

        The receiving half of plan shipping: a
        :class:`~repro.service.process_pool.ProcessServicePool` worker
        reconstructs plans from the artifacts the parent shipped and
        registers them here, so the worker process never parses or
        optimizes a query.  The plan must have been compiled under this
        service's schema — a fingerprint mismatch raises ``ValueError``,
        because a plan bakes its DTD's constraints into scheduling and
        buffering and is *wrong* (not merely suboptimal) under another
        schema.  Also usable anywhere else a compiled plan is already in
        hand (e.g. registering a plan pulled from a warm-started cache).
        """
        fingerprint = dtd_fingerprint(self.dtd)
        entry_fingerprint = dtd_fingerprint(entry.dtd)
        if entry_fingerprint != fingerprint:
            raise ValueError(
                f"compiled plan was built under DTD {entry_fingerprint[:12]}..., "
                f"but this service serves DTD {fingerprint[:12]}..."
            )
        if key is None:
            self._counter += 1
            key = f"q{self._counter}"
        registration = RegisteredQuery(
            key,
            entry,
            from_cache=True,
            structure=self._acquire_structure(entry),
            # A shipped alias carries its registrant's own spelling; the
            # artifact's entry may hold the structure's canonical text.
            source=source,
        )
        self._install(registration)
        if self.obs is not None:
            self.obs.log("service.register", key=key, shipped=True)
        return registration

    def register_all(self, queries: Iterable[str]) -> List[RegisteredQuery]:
        """Register several queries at once (autogenerated keys)."""
        return [self.register(query) for query in queries]

    def unregister(self, key: str) -> None:
        """Remove a standing query; unknown keys raise ``KeyError``.

        Releases the registration's subscription on its shared structure —
        the structure itself survives while other aliases still hold it.
        """
        registration = self._registrations.pop(key)
        self.metrics.queries_unregistered += 1
        self._release(registration)
        if self.obs is not None:
            self.obs.log("service.unregister", key=key)

    @property
    def registrations(self) -> "Dict[str, RegisteredQuery]":
        """The current registrations, by key (read-only view by convention)."""
        return dict(self._registrations)

    def __len__(self) -> int:
        return len(self._registrations)

    # ---------------------------------------------------------- execution

    @property
    def active_pass(self) -> Optional[SharedPass]:
        """The pass currently in flight, or ``None``.

        The service serves one shared pass at a time: while this is not
        ``None``, :meth:`open_pass` (and therefore :meth:`run_pass` and
        :meth:`serve`) raises :class:`~repro.errors.PassInProgressError`.
        The slot frees itself when the pass finishes or aborts (including
        via its context manager), or when an abandoned pass is
        garbage collected.
        """
        if self._active_pass_ref is None:
            return None
        shared_pass = self._active_pass_ref()
        if shared_pass is None:
            self._active_pass_ref = None
        return shared_pass

    def _pass_closed(self, shared_pass: SharedPass) -> None:
        # Callback from the pass's first finish/abort; a pass that failed
        # mid-construction closes too, before it ever occupied the slot.
        if self._active_pass_ref is not None:
            current = self._active_pass_ref()
            if current is shared_pass or current is None:
                self._active_pass_ref = None

    def open_pass(self, chunk_size: int = 256, trace_id: Optional[str] = None) -> SharedPass:
        """Open a push-based shared pass over one document.

        Feed document text with :meth:`SharedPass.feed` as it arrives and
        call :meth:`SharedPass.finish` for the per-query results.  A
        finished pass folds itself into :attr:`metrics`, however it was
        driven.  The pass executes a *snapshot* of the current
        registrations: queries registered, replaced, or unregistered while
        the pass is open do not affect it.

        One pass at a time: opening a second pass while :attr:`active_pass`
        is still in flight raises
        :class:`~repro.errors.PassInProgressError` — finish or abort the
        active pass first.  (The pass owns shared mutable state — parser
        position, per-query sessions — so overlapping passes on one service
        cannot be made safe; open a second service sharing the
        :attr:`plan_cache` to scan two documents concurrently.)
        """
        if self.active_pass is not None:
            raise PassInProgressError(
                "a shared pass is already in flight on this service; "
                "finish() or abort() it before opening another"
            )
        shared_pass = SharedPass(
            {structure: dict(group) for structure, group in self._groups.items()},
            self.dtd,
            self.validate,
            chunk_size=chunk_size,
            on_complete=self.metrics.record_pass,
            on_close=self._pass_closed,
            obs=self.obs,
            trace_id=trace_id,
        )
        self._active_pass_ref = weakref.ref(shared_pass)
        return shared_pass

    def _feed_document(
        self, shared_pass: SharedPass, document: Union[str, io.TextIOBase]
    ) -> None:
        """Push one whole document (text or file-like) into ``shared_pass``."""
        if isinstance(document, str):
            shared_pass.feed(document)
            return
        while True:
            chunk = document.read(_READ_CHUNK)
            if not chunk:
                break
            shared_pass.feed(chunk)

    def run_pass(self, document: Union[str, io.TextIOBase]) -> Dict[str, QueryResult]:
        """Run all registered queries over ``document`` in one shared scan.

        ``document`` is XML text or a file-like object (read incrementally).
        Returns ``{registration key: QueryResult}``; each result is
        byte-identical to a solo ``FluxEngine.execute`` of that query.
        """
        return self._serve_document(document).results

    def _serve_document(
        self,
        document: Union[str, io.TextIOBase],
        index: int = 0,
        chunk_size: int = 256,
        shard: "Optional[Shard]" = None,
    ) -> ServedDocument:
        """One document's pass: open, feed, finish, record observations.

        Every synchronous driver runs its documents through here — the
        plain serve loop, :meth:`run_pass`, the thread pool's workers and
        the process pool's worker processes.  A failing pass is aborted.
        Without a ``shard`` the error propagates; a pool passes its
        :class:`~repro.service.pool_core.Shard`, whose trace id the pass
        joins and whose :meth:`~repro.service.pool_core.Shard.fault` folds
        an ``Exception`` into an error-tagged outcome (anything harsher
        still propagates).
        """
        trace_id = shard.trace_id if shard is not None else None
        shared_pass = self.open_pass(chunk_size=chunk_size, trace_id=trace_id)
        try:
            with self._maybe_profile():
                self._feed_document(shared_pass, document)
                results = shared_pass.finish()
        except Exception as exc:
            if shard is None:
                shared_pass.abort()
                raise
            return shard.fault(shared_pass, exc)
        except BaseException:
            shared_pass.abort()
            raise
        self._record_observations(shared_pass)
        return ServedDocument(
            index=index,
            results=results,
            metrics=shared_pass.metrics,
            worker=shard.worker if shard is not None else None,
        )

    def _maybe_profile(self):
        """The pass profiler as a context manager, or a no-op without one."""
        if self.obs is not None and self.obs.profiler is not None:
            return self.obs.profiler
        return _NULL_CONTEXT

    def _record_observations(self, shared_pass: SharedPass) -> None:
        """Fold one finished pass into the plan cache's observation sidecar.

        One record per plan *structure* key (aliases share calibration, and
        under ``dedup=False`` private structures of one key share a
        record): the structure's routed-event count, the pass's document
        size and elapsed time, and the worst measured buffer peak among the
        key's sessions.  These are what
        :func:`repro.analysis.query.cost.apply_observations` uses to
        replace modeled figures with measured ones in ``repro explain``
        and auto mode selection; persisted by ``PlanCache.dump``.
        """
        metrics = shared_pass.metrics
        observed: Dict[str, list] = {}
        for structure, routed, stats in shared_pass.structure_outcomes():
            record = observed.get(structure.skey)
            if record is None:
                observed[structure.skey] = [
                    structure.entry, routed, stats.peak_buffer_bytes
                ]
            elif stats.peak_buffer_bytes > record[2]:
                record[2] = stats.peak_buffer_bytes
        for entry, routed, peak in observed.values():
            self.plan_cache.observe(
                entry,
                events_routed=float(routed),
                document_bytes=float(metrics.document_bytes),
                elapsed_seconds=metrics.elapsed_seconds,
                peak_buffer_bytes=peak,
            )

    def serve(
        self,
        documents: Iterable[Union[str, io.TextIOBase]],
        chunk_size: int = 256,
    ) -> Iterator[ServedDocument]:
        """Serve a stream of documents: one shared pass per document.

        The long-lived serving loop.  ``documents`` is any iterable of XML
        texts or file-like objects; for each one the service opens a pass
        over the *current* registrations, runs every registered plan (fresh
        per-query runtimes per document; compiled plans are reused from the
        registrations), and yields a :class:`ServedDocument`.  Because this
        is a generator, callers may register, unregister, or replace
        queries between ``next()`` steps — the next document picks up the
        changed registrations, while per-pass metrics and the cumulative
        :attr:`metrics` stay consistent:

        >>> loop = service.serve(documents)            # doctest: +SKIP
        >>> first = next(loop)                         # doctest: +SKIP
        >>> service.register(new_query, key="extra")   # doctest: +SKIP
        >>> second = next(loop)                        # includes "extra"

        Serving an empty service raises ``ValueError`` — checked *before*
        the next document is pulled from the iterator, so the offending
        document is not silently consumed: a caller that catches the error,
        registers a query, and re-``serve``s the same iterator resumes at
        exactly the document that tripped it.  (The check runs at every
        step, so a service emptied mid-loop fails at the next step even if
        the stream happens to be exhausted.)  A document that fails
        mid-pass aborts that pass (releasing its slot) and
        propagates the error; the generator is then exhausted — decide in
        the caller whether to re-``serve`` the remaining documents, or use
        a :class:`~repro.service.pool.ServicePool`, whose serving loop
        isolates the failure instead.  Single-driver like everything on the
        service: drive the generator from one thread.
        """
        iterator = iter(documents)
        index = 0
        while True:
            if not self._registrations:
                raise ValueError(
                    f"serve(): no queries registered when document {index} arrived"
                )
            try:
                document = next(iterator)
            except StopIteration:
                return
            yield self._serve_document(document, index, chunk_size)
            index += 1

    # ----------------------------------------------------------- reporting

    def stats_summary(self) -> Dict[str, object]:
        """Service metrics plus plan-cache counters, for logs and benches."""
        summary = self.metrics.as_dict()
        summary["plan_cache"] = self.plan_cache.stats.as_dict()
        summary["plan_cache"]["size"] = len(self.plan_cache)
        return summary
