"""Outside-in tracing: spans around calls into the program's layers.

The traced run never edits the program.  :class:`SpanRecorder` replaces a
handful of public entry points *on their classes*, for the duration of a
traced round only, with wrappers that record a span (name, start, end,
parent) per call.  Calls are made per document or per event chunk, never
per event, so the wrappers stay cheap.  A layer's self time is its spans'
time minus the time their child spans cover.

Validation and routing run per event inside ``SharedDispatcher.dispatch``;
wrapping them would put a clock read on every event.  Instead the parsed
events of each document are captured and replayed through a fresh
``StreamingValidator`` and ``SharedProjectionIndex`` outside the pass
(:func:`replay`).
"""

from __future__ import annotations

import statistics
import time
import weakref
from typing import Callable, Dict, List, Optional

from repro.dtd.validator import StreamingValidator
from repro.runtime.evaluator import EvaluatorSession
from repro.runtime.plan_cache import PlanCache
from repro.service.dispatcher import SharedDispatcher, SharedProjectionIndex
from repro.service.metrics import PassMetrics
from repro.service.service import QueryService
from repro.service.session import SharedPass
from repro.xmlstream.parser import StreamingXMLParser

class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "child_s", "doc")

    def __init__(self, name: str, label: Optional[str], parent: "Optional[Span]", doc):
        self.name = name
        self.label = label
        self.parent = parent
        self.doc = doc
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class SpanRecorder:
    """Installs the wrappers and keeps every span in memory.

    ``label_of_plan`` maps ``id(plan)`` of each structure's physical plan
    to the catalogue query it evaluates, so evaluator spans carry a query
    label.  ``capture`` (when not ``None``) collects the parser's events
    per document for :func:`replay`.
    """

    def __init__(self, label_of_plan: Dict[int, str]):
        self.spans: List[Span] = []
        self.capture: Optional[Dict[int, list]] = None
        self.doc: Optional[int] = None
        self._steps = 0
        self._stack: List[Span] = []
        self._label_of_plan = label_of_plan
        self._session_labels: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patches: List[tuple] = []
        self._plan_patches()

    # ------------------------------------------------------------ spans

    def open(self, name: str, label: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, label, parent, self.doc)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration_s
        self.spans.append(span)

    # --------------------------------------------------------- wrappers

    def _wrap(self, owner, attr: str, name: str,
              label: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr]
        recorder = self

        def traced(*args, **kwargs):
            span = recorder.open(name, label(args) if label is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, result)
            return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original, traced))

    def _plan_patches(self) -> None:
        labels = self._session_labels
        label_of_plan = self._label_of_plan
        original_init = EvaluatorSession.__dict__["__init__"]

        def session_init(session, plan, *args, **kwargs):
            original_init(session, plan, *args, **kwargs)
            labels[session] = label_of_plan.get(id(plan))

        self._patches.append((EvaluatorSession, "__init__", original_init, session_init))

        def capture(span: Span, events) -> None:
            if self.capture is not None and self.doc is not None:
                self.capture.setdefault(self.doc, []).extend(events)

        def compile_outcome(span: Span, result) -> None:
            span.label = "hit" if result[1] else "miss"

        def session_label(args):
            return labels.get(args[0])

        self._wrap(StreamingXMLParser, "feed", "parse", after=capture)
        self._wrap(StreamingXMLParser, "close", "parse", after=capture)
        for attr in ("dispatch", "flush", "dispatch_timed", "flush_timed"):
            self._wrap(SharedDispatcher, attr, "dispatch")
        for attr in ("start", "feed", "finish"):
            self._wrap(EvaluatorSession, attr, "evaluate", label=session_label)
        self._wrap(QueryService, "open_pass", "open_pass")
        self._wrap(SharedPass, "feed", "pass_feed")
        self._wrap(SharedPass, "finish", "finish")
        self._wrap(QueryService, "register", "register")
        self._wrap(PlanCache, "get_or_compile", "compile", after=compile_outcome)

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    def step(self, loop):
        """One traced ``next()`` on a serve loop: the per-document root span.

        Every span opened inside carries the step number as its trace id.
        """
        self.doc = self._steps
        self._steps += 1
        span = self.open("serve_step")
        try:
            return next(loop)
        finally:
            self.close(span)
            self.doc = None

    def take(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self seconds by span name; evaluator spans also by ``evaluate.<label>``
    and by the span that called them (``evaluate@<parent>``)."""
    totals: Dict[str, float] = {}
    for span in spans:
        own = span.self_s
        totals[span.name] = totals.get(span.name, 0.0) + own
        if span.name == "evaluate":
            key = f"evaluate.{span.label}"
            totals[key] = totals.get(key, 0.0) + own
            caller = span.parent.name if span.parent is not None else "none"
            key = f"evaluate@{caller}"
            totals[key] = totals.get(key, 0.0) + own
        elif span.name == "compile":
            key = f"compile.{span.label}"
            totals[key] = totals.get(key, 0.0) + span.duration_s
            totals[key + ".count"] = totals.get(key + ".count", 0.0) + 1
    totals["pass_total"] = sum(s.duration_s for s in spans if s.name == "serve_step")
    return totals


def replay(service: QueryService, events_by_doc: Dict[object, list],
           repeats: int = 3) -> Dict[str, float]:
    """Raw seconds to validate and to route the captured events once.

    Each document's events go through a fresh validator and a fresh
    routing index built from the service's live structures, exactly as a
    pass would feed them; the median of ``repeats`` replays is returned.
    """
    structures = list(service.structures.values())
    validate_runs, route_runs = [], []
    for _ in range(repeats):
        validate_s = route_s = 0.0
        for events in events_by_doc.values():
            validator = StreamingValidator(service.dtd)
            started = time.perf_counter()
            for event in events:
                validator.feed(event)
            validate_s += time.perf_counter() - started
            index = SharedProjectionIndex(
                (s.profile for s in structures), PassMetrics(),
                keys=[[s.skey] for s in structures],
            )
            route = index.route
            started = time.perf_counter()
            for event in events:
                route(event)
            route_s += time.perf_counter() - started
        validate_runs.append(validate_s)
        route_runs.append(route_s)
    return {
        "validate": statistics.median(validate_runs),
        "route": statistics.median(route_runs),
    }
