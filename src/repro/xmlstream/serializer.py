"""Serialization of trees and event streams back to XML text.

The FluX runtime produces its result as an *output event stream* which is
serialized incrementally (so results never need to be materialized); the
baseline engines serialize result trees.  Both paths share the escaping
helpers below so outputs are byte-for-byte comparable in tests.
"""

from __future__ import annotations

from typing import IO, Iterable, List, Optional, Tuple

from repro.errors import XMLSyntaxError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.tree import XMLElement, XMLNode, XMLText


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_tree(node: XMLNode, indent: Optional[str] = None) -> str:
    """Serialize a tree to XML text.

    ``indent`` enables pretty-printing (children on their own lines); the
    default compact form is used whenever outputs are compared.
    """
    parts: List[str] = []
    _write_node(node, parts, indent, 0)
    return "".join(parts)


def _write_node(node: XMLNode, parts: List[str], indent: Optional[str], depth: int) -> None:
    pad = (indent * depth) if indent else ""
    newline = "\n" if indent else ""
    if isinstance(node, XMLText):
        parts.append(pad + escape_text(node.text) + newline)
        return
    attrs = "".join(f' {name}="{escape_attribute(value)}"' for name, value in node.attrs.items())
    if not node.children:
        parts.append(f"{pad}<{node.tag}{attrs}/>{newline}")
        return
    only_text = all(isinstance(child, XMLText) for child in node.children)
    if only_text:
        text = "".join(escape_text(child.text) for child in node.children)  # type: ignore[union-attr]
        parts.append(f"{pad}<{node.tag}{attrs}>{text}</{node.tag}>{newline}")
        return
    parts.append(f"{pad}<{node.tag}{attrs}>{newline}")
    for child in node.children:
        _write_node(child, parts, indent, depth + 1)
    parts.append(f"{pad}</{node.tag}>{newline}")


def start_tag(name: str, attrs: Iterable[Tuple[str, str]]) -> str:
    """The start-tag markup of an element with ``(name, value)`` attributes."""
    if not attrs:
        return f"<{name}>"
    rendered = "".join(f' {key}="{escape_attribute(value)}"' for key, value in attrs)
    return f"<{name}{rendered}>"


def end_tag(name: str) -> str:
    """The end-tag markup of an element."""
    return f"</{name}>"


class EventSerializer:
    """Incremental serializer for output event streams.

    Events are written to ``sink`` (any object with a ``write(str)`` method)
    as they arrive; the serializer checks well-formedness (balanced tags) so
    bugs in plan operators surface as errors rather than bad output.

    Besides :meth:`write`, which takes events, the streamed evaluator writes
    markup it has already rendered: :meth:`start`/:meth:`end` for
    constructor tags (rendered once per plan), :meth:`emit` for escaped
    text, and :meth:`write_tree` for a result tree, serialized by one walk
    straight to strings.
    """

    def __init__(self, sink: IO[str]):
        self._sink = sink
        self._stack: List[str] = []
        self.bytes_written = 0

    def write(self, event: Event) -> None:
        """Serialize a single event."""
        cls = event.__class__
        if cls is Text:
            self.emit(escape_text(event.text))  # type: ignore[attr-defined]
        elif cls is StartElement:
            self.start(event.name, start_tag(event.name, event.attrs))  # type: ignore[attr-defined]
        elif cls is EndElement:
            self.end(event.name, end_tag(event.name))  # type: ignore[attr-defined]
        elif cls is StartDocument or cls is EndDocument:
            return
        else:  # pragma: no cover - future event kinds
            raise XMLSyntaxError(f"cannot serialize event {event!r}")

    def start(self, name: str, markup: str) -> None:
        """Open element ``name`` whose start tag renders as ``markup``."""
        self.emit(markup)
        self._stack.append(name)

    def end(self, name: str, markup: str) -> None:
        """Close element ``name`` (which must be the innermost open one)."""
        stack = self._stack
        if not stack or stack[-1] != name:
            raise XMLSyntaxError(f"serializer received unbalanced end tag </{name}>")
        stack.pop()
        self.emit(markup)

    def write_tree(self, node: XMLNode) -> None:
        """Serialize a whole tree, exactly as its events would serialize.

        One iterative walk renders the markup (elements always get an
        explicit end tag, as in the event form); a tree is balanced by
        construction, so the open-element stack is left as it was.
        """
        parts: List[str] = []
        append = parts.append
        pending: List[object] = [node]
        pop = pending.pop
        push = pending.append
        while pending:
            item = pop()
            cls = item.__class__
            if cls is str:
                append(item)  # type: ignore[arg-type]
            elif cls is XMLText:
                append(escape_text(item.text))  # type: ignore[attr-defined]
            else:
                tag = item.tag  # type: ignore[attr-defined]
                append(start_tag(tag, item.attrs.items()))  # type: ignore[attr-defined]
                push(f"</{tag}>")
                pending.extend(reversed(item.children))  # type: ignore[attr-defined]
        self.emit("".join(parts))

    def write_all(self, events: Iterable[Event]) -> None:
        """Serialize every event of ``events``."""
        for event in events:
            self.write(event)

    def close(self) -> None:
        """Check that all opened elements were closed."""
        if self._stack:
            raise XMLSyntaxError(
                f"serializer closed with unclosed elements: {self._stack!r}"
            )

    def emit(self, text: str) -> None:
        """Write already-escaped markup to the sink."""
        self._sink.write(text)
        self.bytes_written += len(text)


def serialize_events(events: Iterable[Event]) -> str:
    """Serialize an event stream to an XML string."""
    import io

    sink = io.StringIO()
    serializer = EventSerializer(sink)
    serializer.write_all(events)
    serializer.close()
    return sink.getvalue()
