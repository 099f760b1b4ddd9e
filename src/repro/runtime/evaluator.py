"""The streamed query evaluator.

"Finally, the physical query plan is executed by the streamed query
evaluator.  The latter uses our validating SAX parser, XSAX ... The streamed
query evaluator processes these events and delivers its output in turn as an
XML stream."  (Section 3.2 of the paper.)

Execution model
---------------

The evaluator interprets the physical plan over the XSAX event stream.  Each
``process-stream`` operator owns a *scope*: the element instance whose
children it is currently consuming.  For every arriving child the scope

1. materializes the child into its buffers when the buffer description
   forest requires it (producing no output),
2. fires pending ``on-first`` handlers, strictly in handler order, that are
   already satisfied and whose output must precede the arriving child's
   output (their index is smaller than the index of the child's ``on``
   handler),
3. dispatches the child to its ``on`` handler, either by streaming (the
   handler body consumes the child's events directly, with constant memory)
   or, when the child also had to be buffered, by replaying the materialized
   subtree,
4. skips the child entirely when neither applies.

When the element closes, the remaining ``on-first`` handlers fire in order —
at that point every ``past`` condition holds trivially.

Output is serialized incrementally, so query results are never
materialized.  All memory consumed by buffers flows through the
:class:`~repro.runtime.buffers.BufferManager`, whose peak is the number the
memory benchmarks report.

Per-plan code
-------------

What does not depend on the input is worked out once per plan, on the
plan's first evaluation (:func:`plan_code`), and reused by every later
evaluation of it; structures are interned, so that is once per structure.
Per ``process-stream`` operator that is the action for each child label
(its ``on`` handler, the handler's index, whether to buffer the child) and
the ``on-first`` handlers in firing order; per constructor and literal the
escaped markup.  The XSAX lookup tables are cached the same way on the
plan's :class:`~repro.runtime.xsax.ConditionRegistry`.  None of it is
pickled: plans ship to process workers without it and rebuild it there.

The per-event loops (the child loop of ``process-stream``,
:meth:`StreamedEvaluator._materialize` and
:meth:`StreamedEvaluator._stream_copy`) dispatch on the event's exact class
(the event vocabulary is closed), pull with ``next`` directly, and write
rendered markup; result trees are serialized by one walk straight to
strings, without event objects.

Push-based execution
--------------------

The evaluator's control flow is written as re-entrant generators: every
operator that may consume an input event runs as a coroutine that
*suspends* (with a plain ``yield``) whenever the event source signals
:class:`StarvedInput`.  An operator that cannot consume input (literal
text, a buffered evaluation, a constructor around such operators) runs as a
plain call: :meth:`StreamedEvaluator._eval` returns ``_DONE`` for it and a
generator only for work that may pull, so a generator is opened only where
one is needed.  Over an ordinary pull source (an iterator that blocks or
ends) the generators never suspend, so one-shot
:meth:`StreamedEvaluator.run` keeps the paper's pull semantics unchanged.

:class:`EvaluatorSession` inverts that control so callers can *push* events
instead, giving every compiled plan a ``start() / feed(events) / finish()``
life cycle without a thread of its own: ``feed`` appends events to an
in-process buffer and resumes the suspended evaluation generator on the
*caller's* thread until it starves again.  This is the substrate of the
multi-query service (``repro.service``), whose dispatcher round-robins one
shared document scan across many suspended plans.
"""

from __future__ import annotations

import io
import math
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.dtd.schema import DTD
from repro.errors import EvaluationError, XMLSyntaxError
from repro.runtime.buffers import BufferManager, ScopeBuffers, StreamScopeNode
from repro.runtime.plan import (
    BufferedEvalOp,
    ConstructorOp,
    CopyVarOp,
    IfOp,
    OnFirstHandlerOp,
    OnHandlerOp,
    PhysicalPlan,
    PlanOp,
    ProcessStreamOp,
    SequenceOp,
    TextOp,
)
from repro.runtime.stats import RuntimeStats
from repro.runtime.xsax import OnFirstEvent, XSAXReader
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.serializer import EventSerializer, end_tag, escape_text, start_tag
from repro.xmlstream.tree import XMLElement, tree_to_events
from repro.xquery.evaluator import TreeEvaluator, string_value


class _Scope:
    """Runtime state of one ``process-stream`` element instance.

    ``attrs`` are the start tag's ``(name, value)`` pairs.
    """

    __slots__ = ("tag", "attrs", "source", "buffers", "consumed")

    def __init__(
        self,
        tag: str,
        attrs: Tuple[Tuple[str, str], ...],
        source: Iterator[Event],
        buffers: ScopeBuffers,
    ):
        self.tag = tag
        self.attrs = attrs
        self.source = source
        self.buffers = buffers
        self.consumed = False


Binding = Union[_Scope, XMLElement, str, int, float]


class StarvedInput(Exception):
    """Raised by a non-blocking event source that has no event *yet*.

    Unlike ``StopIteration`` this does not mean end of input: the source may
    receive more events later.  The evaluator reacts by suspending its
    execution generator; resuming it retries the same pull.  Sources that
    can raise this must do so *before* mutating any state, so the retry is
    exact (both :class:`_InlineSource` and :class:`~repro.runtime.xsax
    .XSAXReader` — which merely propagates it from its underlying source —
    satisfy this).
    """


#: Yielded by the execution generators while their input source is starved.
_NEED_INPUT = object()

#: Returned by :meth:`StreamedEvaluator._eval` for an operator that ran to
#: completion as a plain call; ``yield from _DONE`` is a no-op.
_DONE = ()

#: Marks a variable that had no binding before a handler bound it.
_UNBOUND = object()


class _StreamSpec:
    """What one ``process-stream`` operator does, worked out once per plan.

    ``actions`` maps a child label to ``(on handler or None, the handler's
    index or infinity, whether to buffer the child)``; ``default`` is the
    action of every other label.  ``on_first`` lists the ``on-first``
    handlers in index order as ``(index, always_satisfied, condition_id,
    body)``.
    """

    __slots__ = ("actions", "default", "on_first")

    def __init__(self, op: ProcessStreamOp):
        whole = op.buffer_whole
        self.default: Tuple[Optional[OnHandlerOp], float, bool] = (None, math.inf, whole)
        self.actions: Dict[str, Tuple[Optional[OnHandlerOp], float, bool]] = {}
        for label in op.buffer_labels:
            self.actions[label] = (None, math.inf, True)
        for label, index in op.on_index.items():
            handler = op.handlers[index]
            assert isinstance(handler, OnHandlerOp)
            self.actions[label] = (handler, index, whole or label in op.buffer_labels)
        self.on_first = tuple(
            (handler.index, handler.always_satisfied, handler.condition_id, handler.body)
            for handler in op.handlers
            if isinstance(handler, OnFirstHandlerOp)
        )


class _PlanCode:
    """The per-plan precomputation: stream specs and rendered markup,
    keyed by ``id`` of the operator (the plan keeps its operators alive)."""

    __slots__ = ("streams", "markup")

    def __init__(self, root: PlanOp):
        self.streams: Dict[int, _StreamSpec] = {}
        self.markup: Dict[int, object] = {}
        pending = [root]
        while pending:
            op = pending.pop()
            cls = op.__class__
            if cls is ProcessStreamOp:
                self.streams[id(op)] = _StreamSpec(op)  # type: ignore[arg-type]
            elif cls is TextOp:
                self.markup[id(op)] = escape_text(op.text)  # type: ignore[attr-defined]
            elif cls is ConstructorOp:
                self.markup[id(op)] = (
                    start_tag(op.name, op.attributes),  # type: ignore[attr-defined]
                    end_tag(op.name),  # type: ignore[attr-defined]
                )
            pending.extend(op.children())


def plan_code(plan: PhysicalPlan) -> _PlanCode:
    """The plan's :class:`_PlanCode`, built on first use.

    It is kept on the plan, which leaves it out of its pickled state.  Two
    threads building it at once build equal objects; the last one stored
    wins, so no lock is needed.
    """
    code = plan.__dict__.get("_code")
    if code is None:
        code = _PlanCode(plan.root)
        plan._code = code  # type: ignore[attr-defined]
    return code


class StreamedEvaluator:
    """Executes a physical plan over an input event stream."""

    def __init__(
        self,
        plan: PhysicalPlan,
        dtd: Optional[DTD] = None,
        validate: bool = True,
    ):
        self.plan = plan
        self.dtd = dtd if dtd is not None else plan.dtd
        self.validate = validate

    # -------------------------------------------------------------- driver

    def run(
        self,
        events: Iterable[Event],
        output: Optional[io.TextIOBase] = None,
        stats: Optional[RuntimeStats] = None,
    ) -> RuntimeStats:
        """Evaluate the plan over ``events`` writing the result to ``output``.

        Returns the runtime statistics (buffer peak, counters, timing).
        """
        generator = self.execute(events, output, stats)
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value
        # A pull source never raises StarvedInput, so the generator runs to
        # completion in one step; getting here means the caller handed a
        # push-mode source to the pull-mode driver.
        generator.close()
        raise EvaluationError("run() requires a pull source; use execute() for push mode")

    def execute(
        self,
        events: Iterable[Event],
        output: Optional[io.TextIOBase] = None,
        stats: Optional[RuntimeStats] = None,
    ):
        """The evaluation as a re-entrant generator (returns the stats).

        Yields ``_NEED_INPUT`` whenever ``events`` raises
        :class:`StarvedInput`; resume the generator once more input is
        available.  Over a pull source this never yields and a single
        ``next()`` drives the evaluation to completion (``StopIteration
        .value`` carries the stats).
        """
        self._stats = stats if stats is not None else RuntimeStats()
        self._buffers = BufferManager(self._stats)
        sink = output if output is not None else io.StringIO()
        self._serializer = EventSerializer(sink)
        self._env: Dict[str, Binding] = {}
        self._code = plan_code(self.plan)
        self._stats.start_timer()
        try:
            reader = XSAXReader(
                events, self.dtd, self.plan.conditions, validate=self.validate, stats=self._stats
            )
            first: Optional[Event] = None
            while first is None:
                try:
                    first = next(reader)
                except StopIteration:
                    break
                except StarvedInput:
                    yield _NEED_INPUT
            if first is not None and first.__class__ is not StartDocument:
                raise EvaluationError("input stream did not start with StartDocument")
            document_scope = _Scope("#document", (), reader, ScopeBuffers(self._buffers))
            self._env["ROOT"] = document_scope
            yield from self._eval(self.plan.root)
            self._serializer.close()
            document_scope.buffers.close()
        finally:
            self._stats.stop_timer()
            self._stats.output_bytes = self._serializer.bytes_written
        return self._stats

    def run_to_string(
        self, events: Iterable[Event], stats: Optional[RuntimeStats] = None
    ) -> "tuple[str, RuntimeStats]":
        """Evaluate and return ``(output_xml, stats)``."""
        sink = io.StringIO()
        stats = self.run(events, sink, stats)
        return sink.getvalue(), stats

    # ---------------------------------------------------------- evaluation

    def _eval(self, op: PlanOp):
        """Run ``op``: ``_DONE`` when it completed as a plain call, else the
        generator (to drive with ``yield from``) that completes it.

        Every caller treats both alike with ``yield from``; starvation of
        the input propagates up the ``yield from`` chain to execute().
        """
        run = _RUN.get(op.__class__)
        if run is None:
            raise EvaluationError(f"cannot execute plan operator {op!r}")
        return run(self, op)

    def _eval_sequence(self, op: SequenceOp):
        items = op.items
        for position, item in enumerate(items):
            pending = self._eval(item)
            if pending is not _DONE:
                return self._resume_sequence(pending, items[position + 1 :])
        return _DONE

    def _resume_sequence(self, pending, rest: Tuple[PlanOp, ...]):
        yield from pending
        for item in rest:
            yield from self._eval(item)

    def _eval_text(self, op: TextOp):
        self._serializer.emit(self._code.markup[id(op)])
        return _DONE

    def _eval_constructor(self, op: ConstructorOp):
        start, end = self._code.markup[id(op)]
        self._serializer.start(op.name, start)
        pending = self._eval(op.content)
        if pending is _DONE:
            self._serializer.end(op.name, end)
            return _DONE
        return self._resume_constructor(pending, op.name, end)

    def _resume_constructor(self, pending, name: str, end: str):
        yield from pending
        self._serializer.end(name, end)

    def _eval_if(self, op: IfOp):
        evaluator = TreeEvaluator(self._evaluation_bindings())
        branch = op.then_branch if evaluator.evaluate_boolean(op.condition) else op.else_branch
        return self._eval(branch)

    # -------------------------------------------------------------- output

    def _write_items(self, items: List[object]) -> None:
        serializer = self._serializer
        previous_atomic = False
        for item in items:
            if isinstance(item, bool):
                serializer.emit("true" if item else "false")
                previous_atomic = True
            elif isinstance(item, (str, int, float)):
                if previous_atomic:
                    serializer.emit(" ")
                serializer.emit(escape_text(string_value(item)))
                previous_atomic = True
            else:
                element = item.to_element() if hasattr(item, "to_element") else item
                serializer.write_tree(element)  # type: ignore[arg-type]
                previous_atomic = False

    def _eval_buffered(self, op: BufferedEvalOp):
        evaluator = TreeEvaluator(self._evaluation_bindings())
        self._write_items(evaluator.evaluate(op.expr))
        return _DONE

    def _eval_copy(self, op: CopyVarOp):
        binding = self._env.get(op.var)
        if binding is None:
            raise EvaluationError(f"copy of unbound variable ${op.var}")
        if binding.__class__ is _Scope:
            if not binding.consumed and binding.buffers.full_element is None:  # type: ignore[union-attr]
                return self._stream_copy(binding)  # type: ignore[arg-type]
            node = StreamScopeNode(binding.tag, binding.attrs, binding.buffers)  # type: ignore[union-attr]
            self._serializer.write_tree(node.to_element())
        elif isinstance(binding, XMLElement):
            self._serializer.write_tree(binding)
        else:
            self._serializer.emit(escape_text(string_value(binding)))  # type: ignore[arg-type]
        return _DONE

    def _stream_copy(self, scope: _Scope):  # hot-loop
        """Copy the scope's element to the output directly from the stream."""
        serializer = self._serializer
        emit = serializer.emit
        render_start = start_tag
        render_end = end_tag
        tag = scope.tag
        serializer.start(tag, render_start(tag, scope.attrs))
        pull = scope.source.__next__
        depth = 0
        while True:
            # Starvation suspends the copy exactly at this pull.
            # hot-loop-ok: a try costs nothing until it catches (3.11+)
            try:
                event = pull()
            except StopIteration:
                break
            except StarvedInput:
                yield _NEED_INPUT
                continue
            cls = event.__class__
            if cls is Text:
                emit(escape_text(event.text))
            elif cls is StartElement:
                depth += 1
                emit(render_start(event.name, event.attrs))
            elif cls is EndElement:
                if not depth:
                    break
                depth -= 1
                emit(render_end(event.name))  # hot-loop-ok: exclusive with the start branch
            elif cls is EndDocument:
                break
        if depth:
            # The input ended inside the copied element.
            raise _unbalanced(tag)
        serializer.end(tag, render_end(tag))
        scope.consumed = True

    # ----------------------------------------------------------- bindings

    def _evaluation_bindings(self) -> Dict[str, object]:
        bindings: Dict[str, object] = {}
        for name, binding in self._env.items():
            if binding.__class__ is _Scope:
                bindings[name] = StreamScopeNode(binding.tag, binding.attrs, binding.buffers)  # type: ignore[union-attr]
            else:
                bindings[name] = binding
        return bindings

    # ------------------------------------------------------ process-stream

    def _eval_process_stream(self, op: ProcessStreamOp):  # hot-loop
        """Consume the children of the scope bound to ``op.var``.

        The child loop of the whole evaluator: it pulls every event of the
        scope's element, skipping unwanted child subtrees in place and
        streaming a handled child to its handler's body.
        """
        name = op.var
        scope = self._env.get(name)
        if scope.__class__ is not _Scope or scope.consumed:  # type: ignore[union-attr]
            raise _unusable_scope(name, scope)
        spec = self._code.streams[id(op)]
        actions = spec.actions.get
        default = spec.default
        on_first = spec.on_first
        first_count = len(on_first)
        fired = 0  # on-first handlers fire in order, so the fired ones are a prefix
        satisfied = set()  # hot-loop-ok: once per scope; conditions seen so far
        whole = op.buffer_whole
        buffers = scope.buffers  # type: ignore[union-attr]
        if whole:
            buffers.ensure_full_element(scope.tag, scope.attrs)  # type: ignore[union-attr]
        source = scope.source  # type: ignore[union-attr]
        pull = source.__next__
        run = self._eval
        env = self._env
        manager = self._buffers
        unbound = _UNBOUND
        start_element = StartElement
        end_element = EndElement
        end_document = EndDocument
        skip = 0  # depth inside a child subtree being skipped
        while True:
            # Starvation suspends the scope exactly at this pull.
            # hot-loop-ok: a try costs nothing until it catches (3.11+)
            try:
                event = pull()
            except StopIteration:
                break
            except StarvedInput:
                yield _NEED_INPUT
                continue
            cls = event.__class__
            if skip:
                if cls is start_element:
                    skip += 1
                elif cls is end_element:
                    skip -= 1
                elif cls is end_document:
                    break
                continue
            if cls is start_element:
                label = event.name
                handler, max_index, buffered = actions(label, default)
                subtree = None
                if buffered:
                    subtree = yield from self._materialize(event, source)
                    if whole:
                        buffers.append_full_child(subtree)
                    else:
                        buffers.add_child(label, subtree)
                while fired < first_count:
                    index, always, condition, body = on_first[fired]
                    if index >= max_index or not (always or condition in satisfied):
                        break
                    fired += 1
                    yield from run(body)
                if handler is None:
                    if subtree is None:
                        skip = 1
                elif subtree is not None:
                    yield from self._run_handler_on_tree(handler, subtree)
                else:
                    # hot-loop-ok: one scope per handled child, not per event
                    child = _Scope(label, event.attrs, source, ScopeBuffers(manager))
                    var = handler.var
                    previous = env.get(var, unbound)
                    env[var] = child
                    yield from run(handler.body)
                    if previous is unbound:
                        del env[var]
                    else:
                        env[var] = previous
                    child.buffers.close()
                    if not child.consumed:
                        skip = 1
            elif cls is Text:
                if whole:
                    buffers.append_full_text(event.text)
            elif cls is OnFirstEvent:
                satisfied.add(event.condition_id)
            elif cls is end_element or cls is end_document:
                break
        # The element closed (or a replayed subtree ran out): every
        # remaining on-first condition holds now.
        for _index, _always, _condition, body in on_first[fired:]:
            yield from run(body)
        scope.consumed = True  # type: ignore[union-attr]

    # ------------------------------------------------------------ handlers

    def _run_handler_on_tree(self, handler: OnHandlerOp, subtree: XMLElement):
        """Run an ``on`` handler over a child that was also buffered, by
        replaying the materialized subtree through its own XSAX reader (so
        conditions of the replayed element are tracked exactly as on the
        live stream)."""
        replay = XSAXReader(
            tree_to_events(subtree), self.dtd, self.plan.conditions, validate=False
        )
        # Skip the subtree's own start tag: the scope reads children only.
        first = next(replay, None)
        if first.__class__ is not StartElement:  # pragma: no cover - defensive
            raise EvaluationError("replayed subtree did not start with a start tag")
        child = _Scope(
            subtree.tag, tuple(subtree.attrs.items()), replay, ScopeBuffers(self._buffers)
        )
        env = self._env
        var = handler.var
        previous = env.get(var, _UNBOUND)
        env[var] = child
        yield from self._eval(handler.body)
        if previous is _UNBOUND:
            del env[var]
        else:
            env[var] = previous
        child.buffers.close()

    # --------------------------------------------------------------- input

    def _materialize(self, event: StartElement, source: Iterator[Event]):  # hot-loop
        """Build the subtree rooted at ``event`` by consuming its events."""
        element = XMLElement
        root = element(event.name, event.attrs)  # type: ignore[arg-type]
        top = root
        stack: List[XMLElement] = [root]  # hot-loop-ok: once per buffered child
        push = stack.append
        pop = stack.pop
        pull = source.__next__
        while True:
            # Starvation suspends the build exactly at this pull.
            # hot-loop-ok: a try costs nothing until it catches (3.11+)
            try:
                item = pull()
            except StopIteration:
                return root
            except StarvedInput:
                yield _NEED_INPUT
                continue
            cls = item.__class__
            if cls is Text:
                top.append_text(item.text)
            elif cls is StartElement:
                child = element(item.name, item.attrs)  # type: ignore[arg-type]
                top.append(child)
                push(child)
                top = child
            elif cls is EndElement:
                pop()
                if not stack:
                    return root
                top = stack[-1]
            elif cls is EndDocument:  # pragma: no cover - defensive
                return root


def _unusable_scope(var: str, binding: object) -> EvaluationError:
    if binding.__class__ is not _Scope:
        return EvaluationError(f"process-stream ${var} is not bound to an active stream element")
    return EvaluationError(
        f"process-stream ${var}: the element's children were already consumed"
    )


def _unbalanced(tag: str) -> XMLSyntaxError:
    return XMLSyntaxError(f"serializer received unbalanced end tag </{tag}>")


#: Exact plan-operator class -> the method that runs it.
_RUN = {
    SequenceOp: StreamedEvaluator._eval_sequence,
    TextOp: StreamedEvaluator._eval_text,
    ConstructorOp: StreamedEvaluator._eval_constructor,
    CopyVarOp: StreamedEvaluator._eval_copy,
    BufferedEvalOp: StreamedEvaluator._eval_buffered,
    IfOp: StreamedEvaluator._eval_if,
    ProcessStreamOp: StreamedEvaluator._eval_process_stream,
}


# ---------------------------------------------------------------- push mode


class _InlineSource:
    """Non-blocking event source backing an :class:`EvaluatorSession`.

    ``feed`` appends events; iteration pops them, raising
    :class:`StarvedInput` when the buffer is empty but the input is still
    open — the signal that suspends the evaluation generator until the next
    ``feed``/``finish`` resumes it.
    """

    __slots__ = ("_events", "_closed")

    def __init__(self):
        self._events: "deque" = deque()
        self._closed = False

    def extend(self, events: Iterable[Event]) -> None:
        self._events.extend(events)

    def close(self) -> None:
        self._closed = True

    def __iter__(self) -> "Iterator[Event]":
        return self

    def __next__(self) -> Event:
        if self._events:
            return self._events.popleft()
        if self._closed:
            raise StopIteration
        raise StarvedInput


class EvaluatorSession:
    """Push-based execution of one physical plan.

    Exposes the resumable life cycle

    >>> session = EvaluatorSession(plan, dtd)          # doctest: +SKIP
    >>> session.start()                                # doctest: +SKIP
    >>> session.feed(events); session.feed(more)       # doctest: +SKIP
    >>> output, stats = session.finish()               # doctest: +SKIP

    with no thread of its own: the evaluation is a suspended generator that
    ``feed`` resumes on the caller's thread until it starves again, so
    evaluation errors surface synchronously from the ``feed`` that
    triggers them.

    ``feed`` accepts any iterable of events and may be called repeatedly;
    ``finish`` closes the input, drives the evaluation to completion,
    re-raises any evaluation error, and returns ``(output_xml, stats)``.
    The session is single-use.
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        dtd: Optional[DTD] = None,
        validate: bool = True,
        stats: Optional[RuntimeStats] = None,
    ):
        self._evaluator = StreamedEvaluator(plan, dtd, validate=validate)
        self._stats = stats if stats is not None else RuntimeStats()
        self._source = _InlineSource()
        self._generator = None
        self._sink = io.StringIO()
        self._started = False
        self._error: Optional[BaseException] = None
        self._result: Optional[Tuple[str, RuntimeStats]] = None
        self._aborted = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def finished(self) -> bool:
        return self._result is not None

    def start(self) -> "EvaluatorSession":
        """Begin execution; must be called once before :meth:`feed`."""
        if self._started:
            raise EvaluationError("session already started")
        self._started = True
        self._generator = self._evaluator.execute(self._source, self._sink, self._stats)
        self._resume()  # run up to the first input pull
        return self

    def _resume(self) -> None:
        """Advance the generator until it starves or completes.

        One resume consumes everything currently buffered: the generator
        only yields again once the source raises :class:`StarvedInput`.
        Errors are recorded (for finish()) and re-raised immediately.
        """
        if self._generator is None:
            return
        try:
            next(self._generator)
        except StopIteration:
            self._generator = None
        except BaseException as exc:
            self._generator = None
            self._error = exc
            raise

    def feed(self, events: Iterable[Event]) -> None:
        """Push a batch of events into the running evaluation."""
        if not self._started:
            raise EvaluationError("feed() before start()")
        if self._aborted:
            raise EvaluationError("feed() on an aborted session")
        if self._result is not None:
            raise EvaluationError("feed() after finish()")
        if self._error is not None:
            raise self._error
        if self._generator is None:
            # The plan already finished (early termination): surplus input
            # is dropped.
            return
        self._source.extend(events)
        self._resume()

    def finish(self) -> Tuple[str, RuntimeStats]:
        """Close the input and return ``(output_xml, stats)``.

        An aborted session has no result: its partial output must never be
        mistaken for a completed evaluation, so finish() raises instead.
        """
        if not self._started:
            raise EvaluationError("finish() before start()")
        if self._aborted:
            raise EvaluationError("finish() on an aborted session")
        if self._result is None:
            self._source.close()
            if self._error is not None:
                raise self._error
            self._resume()  # end of input: the generator must complete
            self._result = (self._sink.getvalue(), self._stats)
        return self._result

    def abort(self) -> None:
        """Stop the session, discarding its output and swallowing errors."""
        if not self._started or self._result is not None or self._aborted:
            return
        self._aborted = True
        generator, self._generator = self._generator, None
        if generator is not None:
            generator.close()
