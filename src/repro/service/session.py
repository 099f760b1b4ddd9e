"""Registrations and shared-pass sessions of the multi-query service.

A :class:`RegisteredQuery` is one standing query: its source text, its
cached compilation, and the :class:`PlanStructure` it subscribes to — the
distinct computation it shares with every structurally identical
registration (same :func:`~repro.runtime.plan_cache.structure_key`).  A
:class:`SharedPass` is one push-based scan of one document executing all
registered queries: the service's incremental parser turns text chunks
into events, the shared dispatcher filters them once, and each *structure*
(not each registration) runs one suspended
:class:`~repro.runtime.evaluator.EvaluatorSession` that the dispatcher
resumes on the feeding thread.  ``finish()`` drains them and returns one
:class:`~repro.engines.base.QueryResult` per registration — aliases of one
structure receive the same evaluated output — byte-identical to a solo
``FluxEngine.execute`` of the same query over the same document.

A pass costs events × structures plus one result object per registrant:
the subscriber groups arrive already built (the service keeps them between
passes), routing counters and pass counters are kept per structure, and
building the results is the only per-registrant step.
"""

from __future__ import annotations

import operator
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dtd.schema import DTD
from repro.dtd.validator import StreamingValidator
from repro.engines.base import QueryResult
from repro.obs import Observability, new_span_id, new_trace_id
from repro.runtime.compiler import CompiledQueryPlan
from repro.runtime.evaluator import EvaluatorSession
from repro.runtime.plan_cache import structure_key
from repro.runtime.stats import RuntimeStats
from repro.service.dispatcher import PlanProfile, SharedDispatcher, SharedProjectionIndex
from repro.service.metrics import PassMetrics
from repro.xmlstream.parser import StreamingXMLParser

#: Engine label stamped on results produced by a shared pass.
SHARED_ENGINE_NAME = "flux-shared"

#: The pass stage taxonomy, in pipeline order.
PASS_STAGES = ("parse", "route", "dispatch", "evaluate", "emit")

_SOURCE = operator.attrgetter("source")

#: One structure's subscribers by registration key, in subscription order.
Subscribers = Dict[str, "RegisteredQuery"]


def record_pass_observations(
    obs: Optional[Observability], pass_metrics: PassMetrics, results: int
) -> None:
    """Push one finished pass's counters into the metrics registry.

    Shared by :meth:`SharedPass.finish` (passes that run where the
    registry lives) and the :class:`~repro.service.process_pool
    .ProcessServicePool` parent, which calls it with the
    :class:`PassMetrics` each worker ships home — the "metric deltas"
    folding that keeps one registry describing the whole fleet.
    """
    if obs is None or obs.metrics is None:
        return
    registry = obs.metrics
    registry.counter(
        "repro_passes_total", "Shared passes completed."
    ).inc()
    registry.counter(
        "repro_results_total", "Per-query results produced by shared passes."
    ).inc(results)
    registry.counter(
        "repro_document_bytes_total", "Document bytes ingested by shared passes."
    ).inc(pass_metrics.document_bytes)
    events = registry.counter(
        "repro_events_total", "Parser events by routing outcome."
    )
    events.inc(pass_metrics.events_forwarded, outcome="forwarded")
    events.inc(pass_metrics.events_pruned, outcome="pruned")
    events.inc(pass_metrics.text_events_dropped, outcome="text_dropped")
    registry.counter(
        "repro_subtrees_pruned_total", "Whole subtrees skipped by the shared router."
    ).inc(pass_metrics.subtrees_pruned)
    registry.histogram(
        "repro_pass_duration_seconds", "End-to-end duration of one shared pass."
    ).observe(pass_metrics.elapsed_seconds)


class PlanStructure:
    """One distinct computation shared by structurally identical registrations.

    Identified by its :func:`~repro.runtime.plan_cache.structure_key`: every
    registration whose query is the same computation (identical parsed-AST
    and plan trees up to variable renaming, same DTD fingerprint and
    pipeline config) subscribes to one ``PlanStructure``, and a shared pass
    evaluates each structure exactly once.  The service refcounts
    subscribers so dropping one alias never tears down a structure another
    registration still needs; ``refcount`` mutates only under the service's
    single-driver contract (between passes).  ``passes`` is the only pass
    counter: a registration's own count is derived from it.
    """

    def __init__(self, skey: str, entry: CompiledQueryPlan):
        self.skey = skey
        self.entry = entry
        self.profile = PlanProfile(entry)
        #: Live registrations subscribed to this structure.
        self.refcount = 0
        #: Shared passes that evaluated this structure.
        self.passes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStructure({self.skey[:12]!r}, refcount={self.refcount})"


class RegisteredQuery:
    """One standing query registered with a :class:`QueryService`.

    Lifecycle: created by ``register()``, lives until unregistered or
    replaced, and is *shared* by every pass that snapshots it — the compiled
    plan and the :class:`PlanStructure` it subscribes to are immutable, so
    reuse across passes is free.  Nothing on it mutates per pass:
    :attr:`passes` is derived from its structure's counter.

    ``source`` is the text *as registered* — under plan-cache interning the
    shared ``entry`` may carry an alias's differently-spelled (but
    structurally identical) text, and results must echo what this
    registrant submitted.  A registration constructed without an explicit
    ``structure`` gets a private one (no cross-registration sharing), which
    is exactly the service's ``dedup=False`` behavior.
    """

    def __init__(
        self,
        key: str,
        entry: CompiledQueryPlan,
        from_cache: bool,
        structure: Optional[PlanStructure] = None,
        source: Optional[str] = None,
    ):
        self.key = key
        self.entry = entry
        #: Whether registration was served from the plan cache.
        self.from_cache = from_cache
        if structure is None:
            # Private structure: no cross-registration sharing, but the
            # same refcount discipline (this registration is its one
            # subscriber) so release paths need no special case.
            structure = PlanStructure(structure_key(entry), entry)
            structure.refcount = 1
        self.structure = structure
        self.source = source if source is not None else entry.source
        # passes == structure.passes - _base while subscribed; a pass open
        # across the subscription corrects _base (or _frozen) when it
        # finishes, so it counts only if it included this registration.
        self._base = structure.passes
        self._frozen: Optional[int] = None

    @property
    def passes(self) -> int:
        """Finished shared passes that included this registration."""
        if self._frozen is not None:
            return self._frozen
        return self.structure.passes - self._base

    def detach(self) -> None:
        """Stop following the structure's counter (unregistered/replaced)."""
        self._frozen = self.passes

    @property
    def profile(self) -> PlanProfile:
        return self.structure.profile

    @property
    def static_cost(self) -> float:
        """Predicted per-document cost score of this query's plan.

        Computed (and memoized) by the static analyzer
        (:func:`repro.analysis.query.cost.static_cost`) — the pricing
        figure admission control reads to charge a registration before it
        has ever run.  Lazy, so registration itself stays analysis-free;
        shared across aliases via the memo on the compiled entry.
        """
        from repro.analysis.query.cost import static_cost

        return static_cost(self.entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisteredQuery({self.key!r}, cached={self.from_cache})"


class _StructureRun:
    """One structure's execution inside one shared pass.

    Evaluates the structure's plan once and fans the finished output out to
    the pass's snapshot of its subscribers (:meth:`results`), so N aliases
    of one computation cost one evaluator session, not N.
    """

    def __init__(
        self, structure: PlanStructure, subscribers: Subscribers, dtd: Optional[DTD]
    ):
        self.structure = structure
        self.subscribers = subscribers
        self.stats: Optional[RuntimeStats] = None
        # Validation runs once, in the dispatcher, over the unfiltered
        # stream; the per-structure XSAX readers only track on-first
        # conditions.
        self.session = EvaluatorSession(
            structure.entry.plan, dtd, validate=False
        ).start()

    def results(self) -> List[QueryResult]:
        """Finish the session and build one result per subscriber, in order.

        The evaluated output string and the stats object are shared by
        reference across the group's results; each result still echoes its
        own registration's source text.  Built positionally: this is the
        pass's only per-registrant loop.
        """
        output, stats = self.session.finish()
        self.stats = stats
        return [
            QueryResult(output, stats, SHARED_ENGINE_NAME, source)
            for source in map(_SOURCE, self.subscribers.values())
        ]


class SharedPass:
    """One shared single-pass execution of all registered queries.

    ``groups`` is the snapshot to execute: each live structure mapped to its
    subscribers by key (``{structure: {key: registration}}``), as
    :meth:`~repro.service.service.QueryService.open_pass` copies it.  Result
    order follows it: structures in order, aliases in order within each.

    Documents are pushed as text with :meth:`feed` (any chunking) and closed
    with :meth:`finish`, which returns ``{key: QueryResult}``.  The
    dispatcher round-robins the per-structure evaluations, re-entrant
    generators, on the feeding thread.

    A failing pass (malformed or invalid input) aborts every per-structure
    session before re-raising; an aborted pass rejects further
    :meth:`feed`/:meth:`finish` calls with :class:`ValueError` rather than
    touching its dead sessions.  The pass is also a context manager —
    leaving the ``with`` block finishes it (or aborts it on an exception; a
    block left after a manual :meth:`abort` stays aborted).  A pass dropped
    without either call holds no thread, and the owning service frees its
    slot once the pass is garbage collected.

    Lifecycle: ``open → (feed)* → finish`` or ``open → (feed)* → abort``;
    ``finish`` is idempotent (later calls return the same results) and a
    finished or aborted pass is *closed* — it releases its slot on the
    owning :class:`~repro.service.service.QueryService`, which serves one
    pass at a time.  Thread-safety: a pass is single-driver — all ``feed``/
    ``finish`` calls must come from one thread (or one coroutine); only
    ``abort`` may be called from elsewhere.
    """

    def __init__(
        self,
        groups: Mapping[PlanStructure, Subscribers],
        dtd: Optional[DTD],
        validate: bool,
        chunk_size: int = 256,
        on_complete=None,
        on_close=None,
        obs: Optional[Observability] = None,
        trace_id: Optional[str] = None,
    ):
        if not groups:
            raise ValueError("a shared pass needs at least one registered query")
        self._metrics = PassMetrics(
            queries=sum(map(len, groups.values())), structures=len(groups)
        )
        # abort() is the one cross-thread entry point (a pool driver may
        # abort a pass its worker is feeding), so the aborted/closed
        # transitions are real test-and-sets: without the lock two racing
        # abort() calls could both log pass.abort, and a finalizer racing
        # finish() could release the service's active-pass slot twice.
        self._state_lock = threading.Lock()
        self._aborted = False  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock
        self._on_close = on_close
        # Observability is decided once here, never per event: with obs off
        # (the default) feed/finish run the original untimed code path.
        self._obs = obs
        self._times: Optional[Dict[str, float]] = (
            {stage: 0.0 for stage in PASS_STAGES}
            if obs is not None and obs.timing_enabled
            else None
        )
        self.trace_id = (
            (trace_id or new_trace_id())
            if obs is not None and obs.tracer is not None
            else trace_id
        )
        #: Span id of this pass's span — stage spans and pool spans parent
        #: to it.  Minted eagerly; the span itself is emitted at finish.
        self.span_id = new_span_id() if self.trace_id is not None else None
        self._start_wall = time.time()
        if obs is not None:
            obs.log(
                "pass.start",
                trace_id=self.trace_id,
                queries=self._metrics.queries,
            )
        self._results: Optional[Dict[str, QueryResult]] = None
        # One evaluator run and one routing-index group per structure.
        self._runs = [
            _StructureRun(structure, subscribers, dtd)
            for structure, subscribers in groups.items()
        ]
        self._run_of = {run.structure: run for run in self._runs}
        # Registrations that subscribed (joined) or unsubscribed (left)
        # while this pass is open; finish() corrects their pass counts.
        self._joined: List[RegisteredQuery] = []
        self._left: List[RegisteredQuery] = []
        self._index = SharedProjectionIndex(
            (run.structure.profile for run in self._runs),
            self._metrics,
            keys=[list(run.subscribers) for run in self._runs],
        )
        validator = StreamingValidator(dtd) if (validate and dtd is not None) else None
        self._dispatcher = SharedDispatcher(
            self._index,
            [run.session for run in self._runs],
            validator=validator,
            chunk_size=chunk_size,
        )
        self._parser = StreamingXMLParser.incremental()
        self._on_complete = on_complete
        self._started_at = time.perf_counter()

    @property
    def metrics(self) -> PassMetrics:
        return self._metrics

    @property
    def registrations(self) -> List[RegisteredQuery]:
        """The registration snapshot this pass executes, grouped by structure.

        Registered/replaced/unregistered queries on the service do not
        affect an open pass.  Built on each call from the per-structure
        snapshots.
        """
        return [
            reg for run in self._runs for reg in run.subscribers.values()
        ]

    def structure_outcomes(self) -> List[Tuple[PlanStructure, int, RuntimeStats]]:
        """``(structure, events routed to it, its stats)`` per evaluated structure.

        Valid after :meth:`finish`; every alias's result carries the same
        stats object, so these are the per-plan figures observation
        recording folds into the plan cache.
        """
        routed = self._metrics.per_query_forwarded.counts
        return [
            (run.structure, count, run.stats)
            for run, count in zip(self._runs, routed)
        ]

    def note_joined(self, registration: RegisteredQuery) -> None:
        """``registration`` subscribed while this pass is open.

        If the pass evaluates its structure it still must not count for
        the newcomer, which is not in the snapshot.
        """
        if registration.structure in self._run_of:
            self._joined.append(registration)

    def note_left(self, registration: RegisteredQuery) -> None:
        """``registration`` unsubscribed while this pass is open.

        If it is in the snapshot, the pass counts for it once it finishes.
        """
        run = self._run_of.get(registration.structure)
        if run is not None and run.subscribers.get(registration.key) is registration:
            self._left.append(registration)

    @property
    def aborted(self) -> bool:
        return self._aborted  # unguarded: monotonic flag, single-driver reader; a racing abort lands on the next call

    def feed(self, text: str) -> None:
        """Push the next chunk of document text into the pass."""
        if self._aborted:  # unguarded: monotonic flag, single-driver reader; a racing abort lands on the next call
            raise ValueError("feed() on an aborted pass")
        if self._results is not None:
            raise ValueError("feed() after finish()")
        # len(text) counts characters; the reported metric is bytes.
        self._metrics.document_bytes += len(text.encode("utf-8"))
        try:
            if self._times is None:
                self._dispatcher.dispatch(self._parser.feed(text))
            else:
                self._dispatch_timed(text)
        except BaseException:
            self.abort()
            raise

    def _dispatch_timed(self, text: Optional[str]) -> None:
        """One timed feed (or, with ``text=None``, the closing feed).

        Parsing is materialized so its time separates from routing; the
        dispatcher's timed twin splits the rest.  Only entered when
        metrics or tracing are on.
        """
        times = self._times
        started = time.perf_counter()
        events = list(self._parser.feed(text) if text is not None else self._parser.close())
        times["parse"] += time.perf_counter() - started
        self._dispatcher.dispatch_timed(events, times)

    def finish(self) -> Dict[str, QueryResult]:
        """Close the input and return one result per registered query."""
        if self._aborted:  # unguarded: monotonic flag, single-driver reader; a racing abort lands on the next call
            raise ValueError("finish() on an aborted pass")
        if self._results is None:
            times = self._times
            try:
                if times is None:
                    self._dispatcher.dispatch(self._parser.close())
                    self._dispatcher.flush()
                else:
                    self._dispatch_timed(None)
                    self._dispatcher.flush_timed(times)
            except BaseException:
                self.abort()
                raise
            results: Dict[str, QueryResult] = {}
            emit_started = time.perf_counter()
            try:
                for run in self._runs:
                    results.update(zip(run.subscribers, run.results()))
            except BaseException:
                self.abort()
                raise
            # Count the pass only once every result is built.
            for run in self._runs:
                run.structure.passes += 1
            for reg in self._joined:
                reg._base += 1
            for reg in self._left:
                reg._frozen += 1
            if times is not None:
                times["emit"] += time.perf_counter() - emit_started
            self._metrics.elapsed_seconds = time.perf_counter() - self._started_at
            self._index.finalize_metrics()
            self._results = results
            if self._on_complete is not None:
                self._on_complete(self._metrics, len(results))
            self._observe_finish(len(results))
            self._close()
        return self._results

    def _observe_finish(self, results: int) -> None:
        """Emit the finished pass's metrics, spans, and log event."""
        obs = self._obs
        if obs is None:
            return
        times = self._times
        if times is not None:
            for stage, duration in times.items():
                obs.observe_stage(stage, duration)
        record_pass_observations(obs, self._metrics, results)
        if obs.tracer is not None and self.trace_id is not None:
            for stage in PASS_STAGES:
                obs.tracer.record(
                    f"pass.{stage}",
                    self.trace_id,
                    times[stage],
                    parent_id=self.span_id,
                )
            obs.tracer.record(
                "pass",
                self.trace_id,
                self._metrics.elapsed_seconds,
                span_id=self.span_id,
                start=self._start_wall,
                queries=self._metrics.queries,
                parser_events=self._metrics.parser_events,
            )
        obs.log(
            "pass.finish",
            trace_id=self.trace_id,
            results=results,
            parser_events=self._metrics.parser_events,
            elapsed_seconds=self._metrics.elapsed_seconds,
        )

    def abort(self) -> None:
        """Tear down all per-structure sessions, discarding partial output.

        Idempotent, callable from any state (including mid-construction);
        the first call releases the pass's slot on the owning service.
        """
        with self._state_lock:
            first = not self._aborted
            self._aborted = True
        for run in self._runs:
            run.session.abort()
        if first and self._results is None and self._obs is not None:
            try:
                self._obs.log("pass.abort", trace_id=self.trace_id)
            except Exception:  # never let logging break teardown
                pass
        self._close()

    def _close(self) -> None:
        """Release the service's active-pass slot, exactly once."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        # The callback runs outside the lock: it re-enters the service
        # (slot release) and must not nest under pass state.
        if self._on_close is not None:
            self._on_close(self)

    def __enter__(self) -> "SharedPass":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None or self._aborted:  # unguarded: monotonic flag, single-driver reader; a racing abort lands on the next call
            self.abort()
        else:
            self.finish()
