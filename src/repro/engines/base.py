"""Common engine interface and result object."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.runtime.stats import RuntimeStats


@dataclass
class QueryResult:
    """The outcome of evaluating one query over one document.

    Slotted: a shared pass builds one per registrant, so the object is kept
    to its four fields.
    """

    __slots__ = ("output", "stats", "engine", "query")

    output: str
    stats: RuntimeStats
    engine: str
    query: str

    @property
    def peak_buffer_bytes(self) -> int:
        """Peak number of buffered bytes during evaluation."""
        return self.stats.peak_buffer_bytes

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock evaluation time in seconds."""
        return self.stats.elapsed_seconds

    def summary(self) -> str:
        return f"[{self.engine}] {self.stats.summary()}"


class Engine:
    """Abstract base class of query engines.

    Subclasses implement :meth:`execute`, taking XQuery text and an XML
    document (text or file-like) and returning a :class:`QueryResult`.  The
    DTD may be given as a :class:`~repro.dtd.schema.DTD` or as DTD source
    text; engines that do not use schema information simply ignore it, so the
    harness can pass the same arguments to every engine.
    """

    #: Short identifier used in benchmark tables.
    name = "engine"

    def __init__(self, dtd: Union[DTD, str, None] = None):
        if isinstance(dtd, str):
            dtd = parse_dtd(dtd)
        self.dtd = dtd

    def execute(self, query: str, document: Union[str, io.TextIOBase]) -> QueryResult:
        """Evaluate ``query`` over ``document`` and return the result."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dtd={'yes' if self.dtd else 'no'})"
