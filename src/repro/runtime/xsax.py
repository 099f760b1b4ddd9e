"""XSAX — the validating SAX parser with ``on-first`` events.

"The streamed query evaluator ... uses our validating SAX parser, XSAX,
which is an extension of a standard SAX parser that in addition produces
on-first events in addition to customary SAX-events. ... We first register
the DTD and all on-first event handlers of the input query with the XSAX
parser.  Based on this information, the XSAX parser builds a finite state
automaton and lookup-tables for validating the input and generating on-first
events."  (Section 3.2 of the paper.)

The implementation mirrors that description:

* conditions (an element type plus a set of child labels) are registered in
  a :class:`ConditionRegistry` before parsing starts;
* the registry turns them, once per DTD, into a lookup table
  (:meth:`ConditionRegistry.tables`): per element type, the on-first events
  that hold as soon as the element opens, the ones still pending, and for
  each pending one the content-model automaton states in which it holds;
* :class:`XSAXReader` wraps any ordinary event stream and inserts
  :class:`OnFirstEvent` notifications into the stream at the earliest
  position the DTD implies that none of the condition's labels can occur
  among the remaining children:

  - immediately after an element's start tag, when the condition holds
    vacuously (e.g. the labels cannot occur at all);
  - immediately **before** the start tag of the child whose arrival makes
    the condition true (so the consumer can still decide whether to handle
    that child before or after firing, preserving output order);
  - immediately before the element's end tag, for conditions that only
    become certain when the element closes (this is also the fallback when
    no DTD is available).

The document itself is treated as a pseudo-element whose content model has
the root element as its single child, so top-level conditions work the same
way as everywhere else.

What the reader tracks
----------------------

The reader tracks only what something reads.  An open element whose type
has no registered condition is kept as its bare name (for the end-tag
check).  A content-model automaton state is kept only for an element that
validation needs (``validate=True``) or that has a pending condition which
can fire before its end tag.  Inside a shared pass the sessions run with
``validate=False`` (the pass validates the unfiltered stream once), so
their readers step automata only for the few element types that carry a
condition.  A validating solo run tracks the state of every declared
element and raises exactly the errors the streaming validator raises.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import XMLValidationError
from repro.dtd.schema import DTD
from repro.runtime.stats import RuntimeStats
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from repro.xquery.analysis import DOCUMENT_TYPE, WHOLE_SUBTREE


@dataclass(frozen=True)
class OnFirstEvent(Event):
    """Inserted into the stream when a registered ``past`` condition holds.

    ``condition_id`` identifies the registered condition; ``element_type``
    and ``labels`` are carried for debugging and tests.
    """

    condition_id: int
    element_type: str
    labels: FrozenSet[str]

    def size_estimate(self) -> int:
        return 8


class ConditionRegistry:
    """Registry of ``on-first past(labels)`` conditions per element type.

    The registry is part of a compiled plan and is pickled with it.  Its
    lookup tables (:meth:`tables`) are built on first use per DTD and are
    never pickled: a worker process that unpickles a plan rebuilds them on
    its own first use.
    """

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, FrozenSet[str]], int] = {}
        self._by_type: Dict[str, List[Tuple[int, FrozenSet[str]]]] = {}
        self._tables: Optional[Tuple[Optional[DTD], Dict[str, _TypeConditions]]] = None

    def register(self, element_type: str, labels: FrozenSet[str]) -> int:
        """Register a condition, returning its (deduplicated) id."""
        key = (element_type, labels)
        if key in self._ids:
            return self._ids[key]
        condition_id = len(self._ids)
        self._ids[key] = condition_id
        self._by_type.setdefault(element_type, []).append((condition_id, labels))
        self._tables = None
        return condition_id

    def conditions_for(self, element_type: str) -> List[Tuple[int, FrozenSet[str]]]:
        """All registered conditions for ``element_type``."""
        return list(self._by_type.get(element_type, []))

    def element_types(self) -> List[str]:
        """Element types that have at least one registered condition.

        The multi-query dispatcher uses this: children of such elements must
        always be forwarded, because every child start tag steps the
        element's content-model automaton and thereby decides *when* the
        condition's on-first event fires.
        """
        return list(self._by_type)

    def tables(self, dtd: Optional[DTD]) -> "Dict[str, _TypeConditions]":
        """The lookup table of these conditions under ``dtd``, per element
        type (cached).

        Two threads building the tables at once build equal tables; the
        last one stored wins, so no lock is needed.
        """
        cached = self._tables
        if cached is not None and cached[0] is dtd:
            return cached[1]
        tables = {
            element_type: _resolve(element_type, conditions, dtd)
            for element_type, conditions in self._by_type.items()
        }
        self._tables = (dtd, tables)
        return tables

    def __len__(self) -> int:
        return len(self._ids)

    def __getstate__(self):
        # Exactly the registered conditions: the tables are rebuilt on
        # first use after unpickling, and shipped plans keep their size.
        return {"_ids": self._ids, "_by_type": self._by_type}

    def __setstate__(self, state) -> None:
        self._ids = state["_ids"]
        self._by_type = state["_by_type"]
        self._tables = None


#: A pending condition: its (shared, immutable) on-first event and the
#: automaton states in which it holds.
_Pending = Tuple[OnFirstEvent, FrozenSet[int]]


class _TypeConditions:
    """The conditions of one element type, resolved against the DTD."""

    __slots__ = ("start_fired", "pending", "automaton")

    def __init__(
        self,
        start_fired: Tuple[OnFirstEvent, ...],
        pending: Tuple[_Pending, ...],
        automaton: Optional[object],
    ):
        #: Events that hold as soon as the element opens (registration order).
        self.start_fired = start_fired
        #: Conditions left after that, in registration order.
        self.pending = pending
        #: The automaton to step on child start tags; ``None`` when no
        #: pending condition can fire before the end tag.
        self.automaton = automaton


class _DocumentSteps:
    """The document pseudo-element's automaton: the root is its one child."""

    @staticmethod
    def step(state: int, label: str) -> int:
        return 1


_DOCUMENT_STEPS = _DocumentSteps()


def _resolve(
    element_type: str, conditions: List[Tuple[int, FrozenSet[str]]], dtd: Optional[DTD]
) -> _TypeConditions:
    """What XSAX must track for ``element_type``'s conditions under ``dtd``.

    A condition holds in a state when none of its labels can still occur
    there.  The empty label set holds everywhere; a whole-subtree
    dependency, an element type the DTD does not declare, an ``ANY``
    content model, or the absence of a DTD make a (non-empty) condition
    hold only when the element closes.
    """
    automaton: Optional[object] = None
    reachable: List[FrozenSet[str]] = []
    if dtd is not None and element_type == DOCUMENT_TYPE:
        automaton = _DOCUMENT_STEPS
        reachable = [frozenset({dtd.root}), frozenset()]
    elif dtd is not None and dtd.has_element(element_type):
        content = dtd.automaton(element_type)
        if not content.allows_any:
            automaton = content
            reachable = [content.reachable_labels(q) for q in range(content.state_count)]
    start_fired: List[OnFirstEvent] = []
    pending: List[_Pending] = []
    for condition_id, labels in conditions:
        event = OnFirstEvent(condition_id, element_type, labels)
        holding: FrozenSet[int] = frozenset()
        if labels and automaton is not None and WHOLE_SUBTREE not in labels:
            holding = frozenset(q for q, left in enumerate(reachable) if not left & labels)
        if not labels or 0 in holding:
            start_fired.append(event)
        else:
            pending.append((event, holding))
    steps = automaton if any(holding for _, holding in pending) else None
    return _TypeConditions(tuple(start_fired), tuple(pending), steps)


class _OpenElement:
    """XSAX bookkeeping for one tracked open element."""

    __slots__ = ("name", "automaton", "state", "pending")

    def __init__(
        self,
        name: str,
        automaton: Optional[object],
        pending: Tuple[_Pending, ...],
    ):
        self.name = name
        #: The automaton stepped on child start tags (``None``: not stepped).
        self.automaton = automaton
        self.state = 0
        #: Conditions of this element that have not fired yet.
        self.pending = pending


def _closing_error(closing: str, open_name: Optional[str]) -> XMLValidationError:
    """The error for an end tag that closes nothing open (``open_name`` is
    ``None`` when the stack is empty) or the wrong element."""
    if open_name is None or open_name == DOCUMENT_TYPE:
        return XMLValidationError(f"unexpected closing tag </{closing}>")
    return XMLValidationError(
        f"closing tag </{closing}> does not match open element <{open_name}>"
    )


class XSAXReader:
    """Iterator over an event stream augmented with ``on-first`` events.

    Parameters
    ----------
    events:
        The underlying event stream (typically
        :func:`repro.xmlstream.parser.parse_events`).
    dtd:
        The schema; ``None`` disables early firing (conditions then fire just
        before the closing tag) and validation.
    conditions:
        The registered ``on-first`` conditions.
    validate:
        When true (default) the reader raises
        :class:`~repro.errors.XMLValidationError` on documents that violate
        the DTD, exactly like the streaming validator.
    stats:
        Optional statistics sink (event counters).
    """

    def __init__(
        self,
        events: Iterable[Event],
        dtd: Optional[DTD],
        conditions: Optional[ConditionRegistry] = None,
        validate: bool = True,
        stats: Optional[RuntimeStats] = None,
    ):
        self._events = iter(events)
        self._dtd = dtd
        registry = conditions if conditions is not None else ConditionRegistry()
        self._types = registry.tables(dtd)
        self._validate = validate and dtd is not None
        self._stats = stats
        # One entry per open element: its bare name when nothing about it
        # is tracked, else its _OpenElement.
        self._stack: List[object] = []
        self._queue: "deque[Event]" = deque()

    # ------------------------------------------------------------ iterator

    def __iter__(self) -> Iterator[Event]:
        return self

    def __next__(self) -> Event:  # hot-loop
        queue = self._queue
        start_element = StartElement
        if queue:
            event = queue.popleft()
        else:
            read = next(self._events)
            cls = read.__class__
            if cls is start_element:
                event = self._start(read)
            elif cls is EndElement:
                event = self._end(read)
            elif cls is StartDocument:
                self._open_document()
                event = read
            elif cls is EndDocument:
                event = self._close_document(read)
            else:
                event = read
        stats = self._stats
        if stats is not None:
            stats.events_processed += 1
            kind = event.__class__
            if kind is start_element:
                stats.elements_parsed += 1
            elif kind is OnFirstEvent:
                stats.onfirst_events += 1
        return event

    # ------------------------------------------------------------ document

    def _open_document(self) -> None:
        # The document frame is always tracked (one per document), so a
        # bare name on the stack is never the document.
        info = self._types.get(DOCUMENT_TYPE)
        if info is None:
            automaton = _DOCUMENT_STEPS if self._validate else None
            self._stack.append(_OpenElement(DOCUMENT_TYPE, automaton, ()))
            return
        automaton = info.automaton
        if automaton is None and self._validate:
            automaton = _DOCUMENT_STEPS  # the root element is still checked
        self._stack.append(_OpenElement(DOCUMENT_TYPE, automaton, info.pending))
        # Conditions that hold before the root element arrives (empty label
        # sets or labels other than the root) follow StartDocument.
        self._queue.extend(info.start_fired)

    def _close_document(self, event: EndDocument) -> Event:
        if not self._stack:
            return event
        document = self._stack.pop()
        if document.__class__ is str:
            return event
        return self._fire_pending(document, event)

    # ------------------------------------------------------------- element

    def _start(self, event: StartElement) -> Event:  # hot-loop
        name = event.name
        stack = self._stack
        fired_before = None
        if stack:
            parent = stack[-1]
            if parent.__class__ is _OpenElement:
                fired_before = self._step(parent, name)
        info = self._types.get(name)
        if info is None and not self._validate:
            stack.append(name)
            if fired_before is None:
                return event
            fired_after: Tuple[OnFirstEvent, ...] = ()
        else:
            # hot-loop-ok: only element types with a condition, or validating runs
            stack.append(self._open(name, info))
            fired_after = info.start_fired if info is not None else ()
            if fired_before is None and not fired_after:
                return event
        return self._queue_around(event, fired_before, fired_after)

    def _open(self, name: str, info: Optional[_TypeConditions]) -> _OpenElement:
        """The frame of an element that validation or a condition tracks."""
        automaton = info.automaton if info is not None else None
        if automaton is None and self._validate:
            dtd = self._dtd
            if dtd is not None and dtd.has_element(name):
                automaton = dtd.automaton(name)
        return _OpenElement(name, automaton, info.pending if info is not None else ())

    def _queue_around(
        self,
        event: Event,
        fired_before: Optional[List[Event]],
        fired_after: Tuple[OnFirstEvent, ...],
    ) -> Event:
        """Return the first of ``fired_before``, ``event``, ``fired_after``
        and queue the rest: the on-first events that a start tag triggers
        precede it."""
        queue = self._queue
        if not fired_before:
            queue.extend(fired_after)
            return event
        queue.extend(fired_before[1:])
        queue.append(event)
        queue.extend(fired_after)
        return fired_before[0]

    def _end(self, event: EndElement) -> Event:  # hot-loop
        stack = self._stack
        closing = event.name
        if stack:
            element = stack.pop()
            if element.__class__ is str:
                if element == closing:
                    return event
                name = element
            else:
                name = element.name
            if name == closing and name != DOCUMENT_TYPE:
                return self._close(element, event)
        else:
            name = None
        raise _closing_error(closing, name)

    def _close(self, element: _OpenElement, event: EndElement) -> Event:
        """End a tracked element: check its content, fire what is pending."""
        if self._validate:
            automaton = element.automaton
            if automaton is not None and not automaton.is_accepting(element.state):
                raise XMLValidationError(
                    f"element <{element.name}> closed with incomplete content"
                )
        return self._fire_pending(element, event)

    # ------------------------------------------------------------- helpers

    def _fire_pending(self, element: _OpenElement, event: Event) -> Event:
        """Queue the element's unfired conditions ahead of its end event."""
        pending = element.pending
        if not pending:
            return event
        element.pending = ()
        queue = self._queue
        queue.extend(fired for fired, _holding in pending[1:])
        queue.append(event)
        return pending[0][0]

    def _step(self, parent: _OpenElement, child_name: str) -> Optional[List[Event]]:
        """Step ``parent``'s automaton on a child start tag; return the
        conditions of ``parent`` that now hold (``None`` when none do)."""
        automaton = parent.automaton
        if automaton is None:
            return None
        if automaton is _DOCUMENT_STEPS:
            if self._validate and child_name != self._dtd.root:  # type: ignore[union-attr]
                raise XMLValidationError(
                    f"root element is <{child_name}>, expected <{self._dtd.root}>"  # type: ignore[union-attr]
                )
            parent.state = 1  # the single child has been seen
        else:
            next_state = automaton.step(parent.state, child_name)
            if next_state is None:
                if self._validate:
                    raise XMLValidationError(
                        f"element <{child_name}> is not allowed here inside <{parent.name}>"
                    )
                # The state did not move, so no pending condition changed.
                return None
            parent.state = next_state
        pending = parent.pending
        if not pending:
            return None
        state = parent.state
        fired: List[Event] = []
        still_pending: List[_Pending] = []
        for condition in pending:
            if state in condition[1]:
                fired.append(condition[0])
            else:
                still_pending.append(condition)
        if not fired:
            return None
        parent.pending = tuple(still_pending)
        return fired
