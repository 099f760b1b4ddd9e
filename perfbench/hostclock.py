"""Host-speed calibration: a fixed pure-Python loop that prices the host.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds.  Every timed interval (every round, every set-up)
is priced by calibration *ticks*: one pass of :func:`_calibration_work`, a
fixed interpreter workload that lives here and must never change.  Ticks
are taken at both edges of an interval and, where the driver can, between
the units of work inside it.  Their mean says how fast the host ran over
that stretch of time; a raw time multiplied by ``CAL_NOMINAL_S / mean`` is
the time it would have taken on a host where one tick takes exactly
``CAL_NOMINAL_S``.  The correction is the same on both sides of any
comparison, because the loop and the constant belong to the benchmark,
not to the program measured.

Changing :func:`_calibration_work` or ``CAL_NOMINAL_S`` changes every
corrected figure, so a baseline measured before such a change is void.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from typing import List

#: Seconds one calibration tick is defined to take on the reference host.
#: Corrected times are "seconds on the reference host".
CAL_NOMINAL_S = 0.002

#: Ticks taken at each end of an interval, on top of any ticks taken
#: inside it (the inline serve loop ticks after every document).
CAL_EDGE_TICKS = 3

#: A host whose per-interval speed (mean tick) spreads wider than this
#: (90th / 10th percentile) within one run drifted beyond what the
#: correction is known to absorb.
DRIFT_WARN_RATIO = 1.5

#: An interval whose opening and closing ticks differ by more than this
#: share of their mean straddled a speed change (counted in the report).
ROUND_MISMATCH_WARN = 0.25


class _Node:
    __slots__ = ("name", "value", "next")

    def __init__(self, name: str, value: int, nxt: "_Node | None"):
        self.name = name
        self.value = value
        self.next = nxt


class _Element:
    __slots__ = ("name", "attrs", "children", "text")

    def __init__(self, name: str, attrs: tuple):
        self.name = name
        self.attrs = attrs
        self.children: list = []
        self.text: list = []


def _tokens(limit: int):
    for i in range(limit):
        yield i, "t%d" % (i & 63)


def _interpreter_mix(limit: int) -> int:
    """Attribute and dict traffic, small string building, a generator."""
    table: dict = {}
    parts: List[str] = []
    head = None
    acc = 0
    for i, token in _tokens(limit):
        table[token] = table.get(token, 0) + i
        head = _Node(token, i, head if (i & 15) else None)
        parts.append(token)
        if len(parts) >= 32:
            acc += len("".join(parts))
            parts = []
        node = head
        while node is not None and node.value > i - 3:
            acc ^= node.value
            node = node.next
    return acc + len(table)


_MARKUP = "<r>" + "".join(
    f"<item id='i{i}'><name>n{i} x</name><price>{i * 7 % 13}.00</price>"
    f"<tags><t>a</t><t>b{i % 5}</t></tags></item>"
    for i in range(12)
) + "</r>"


def _parse_and_build() -> int:
    """Scan fixed markup into a tree and serialize it: string slicing and
    short-lived allocation, the shape of a streaming XML engine's work."""
    stack = [_Element("#doc", ())]
    pos, end = 0, len(_MARKUP)
    while pos < end:
        lt = _MARKUP.find("<", pos)
        if lt < 0:
            break
        if lt > pos:
            stack[-1].text.append(_MARKUP[pos:lt])
        gt = _MARKUP.find(">", lt)
        body = _MARKUP[lt + 1 : gt]
        if body[0] == "/":
            node = stack.pop()
            stack[-1].children.append(node)
        else:
            name, _, rest = body.partition(" ")
            attrs = tuple(tuple(a.split("=", 1)) for a in rest.split()) if rest else ()
            stack.append(_Element(name, attrs))
        pos = gt + 1
    out: List[str] = []

    def serialize(element: _Element) -> None:
        out.append("<" + element.name + ">")
        out.extend(element.text)
        for child in element.children:
            serialize(child)
        out.append("</" + element.name + ">")

    serialize(stack[0])
    return len("".join(out))


#: A table larger than the per-core caches: probing it in a scattered order
#: prices memory and shared-cache contention from neighbouring processes.
_TABLE_SIZE = 1 << 16
_TABLE = {f"k{i}": i for i in range(_TABLE_SIZE)}
_PROBES = [f"k{(i * 7919) % _TABLE_SIZE}" for i in range(1500)]


def _table_probe() -> int:
    total = 0
    table = _TABLE
    for key in _PROBES:
        total += table[key]
    return total


def _calibration_work() -> int:
    """The fixed tick: interpreter mix, markup scanning and tree building,
    and scattered lookups in a large table.  Each part alone tracks the
    engine's speed across host load less well than the three together."""
    acc = _interpreter_mix(1200)
    for _ in range(4):
        acc += _parse_and_build()
    return acc + _table_probe()


def calibration_tick() -> float:
    """Wall time of one calibration pass (about 2 ms on a quiet host)."""
    started = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - started


@dataclass
class Bracket:
    """One timed interval and the calibration ticks taken around and in it."""

    raw_s: float
    ticks: List[float]

    @property
    def factor(self) -> float:
        """Multiply a raw time measured inside the interval by this."""
        return CAL_NOMINAL_S / statistics.fmean(self.ticks)

    @property
    def corrected_s(self) -> float:
        return self.raw_s * self.factor

    @property
    def mismatch(self) -> float:
        opening = statistics.fmean(self.ticks[:CAL_EDGE_TICKS])
        closing = statistics.fmean(self.ticks[-CAL_EDGE_TICKS:])
        return abs(opening - closing) / ((opening + closing) / 2)


@dataclass
class HostClock:
    """Times intervals and prices the host around and inside them.

    Usage::

        clock = HostClock()
        clock.begin()
        ...work...; clock.tick(); ...work...
        bracket = clock.end()   # bracket.corrected_s, bracket.factor

    An interval's correction is the mean of every tick taken at its edges
    and inside it, so it samples the host over the same stretch of time
    as the work.  Ticks inside the interval must fall outside whatever is
    timed (the serve loop ticks between documents, not during them), and
    ``raw_s`` excludes them, as it excludes any :meth:`paused` block.  ``begin`` reuses the previous interval's
    closing ticks when no time passed in between.
    """

    samples: List[float] = field(default_factory=list)
    brackets: List[Bracket] = field(default_factory=list)
    _ticks: List[float] = field(default_factory=list)
    _started: float = 0.0
    _paused_s: float = 0.0
    _last_edge: List[float] = field(default_factory=list)
    _last_edge_at: float = -1.0

    def _edge(self) -> List[float]:
        ticks = [calibration_tick() for _ in range(CAL_EDGE_TICKS)]
        self.samples.extend(ticks)
        return ticks

    def begin(self) -> None:
        if self._last_edge_at >= 0 and time.perf_counter() - self._last_edge_at < 0.005:
            self._ticks = list(self._last_edge)
        else:
            self._ticks = self._edge()
        self._paused_s = 0.0
        self._started = time.perf_counter()

    @property
    def last_tick(self) -> float:
        """The most recent tick of the open interval (opening edge included)."""
        return self._ticks[-1]

    def tick(self) -> float:
        """One calibration tick inside the interval (its time is excluded)."""
        with self.paused():
            value = calibration_tick()
        self._ticks.append(value)
        self.samples.append(value)
        return value

    @contextlib.contextmanager
    def paused(self):
        """Leave the time spent in the block out of the open interval."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - started

    def end(self) -> Bracket:
        raw = time.perf_counter() - self._started - self._paused_s
        closing = self._edge()
        self._last_edge = closing
        self._last_edge_at = time.perf_counter()
        bracket = Bracket(raw, self._ticks + closing)
        self.brackets.append(bracket)
        return bracket

    def drift(self) -> dict:
        """Calibration spread of the run, for the report.

        ``host_spread`` compares the host speed the correction applied to
        different intervals (p90 / p10 of their mean ticks); single ticks
        jitter far more than that and are summarized separately.
        """
        means = [statistics.fmean(b.ticks) for b in self.brackets]
        means_deciles = statistics.quantiles(means, n=10) if len(means) > 1 else means * 9
        tick_deciles = statistics.quantiles(self.samples, n=10)
        mismatched = sum(
            1 for b in self.brackets if b.mismatch > ROUND_MISMATCH_WARN
        )
        return {
            "tick_p10_ms": tick_deciles[0] * 1000,
            "tick_median_ms": statistics.median(self.samples) * 1000,
            "tick_p90_ms": tick_deciles[-1] * 1000,
            "ticks": len(self.samples),
            "host_p10_ms": means_deciles[0] * 1000,
            "host_p90_ms": means_deciles[-1] * 1000,
            "host_spread": means_deciles[-1] / means_deciles[0],
            "brackets": len(self.brackets),
            "brackets_mismatched": mismatched,
        }

    def warnings(self) -> List[str]:
        info = self.drift()
        out = []
        if info["host_spread"] > DRIFT_WARN_RATIO:
            out.append(
                "host speed drifted %.2fx between intervals of the run (mean tick"
                " p10 %.3f, p90 %.3f ms); corrected figures may still carry drift"
                % (info["host_spread"], info["host_p10_ms"], info["host_p90_ms"])
            )
        return out
