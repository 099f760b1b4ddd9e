"""Off-by-default ``cProfile`` hooks with per-stage attribution.

ROADMAP item 2 says "profile one million-event pass, then attack the top
of the profile"; this module is the measurement that starts from.  A
:class:`StageProfiler` wraps a whole pass (profiling *around* the code,
never *in* it — `SharedProjectionIndex.route()` and the evaluator loop
stay untouched), then attributes the flat ``pstats`` rows to pipeline
stages by the module path of each function:

=========  =====================================================
stage      module paths
=========  =====================================================
parse      ``xmlstream/parser``
route      ``service/dispatcher`` (the routing stack machine)
validate   ``dtd/validator``
evaluate   ``runtime/evaluator``, ``xquery/evaluator``,
           ``runtime/buffers``, ``runtime/conditions``
emit       ``xmlstream/serializer``
other      everything else (profiler overhead, stdlib, glue)
=========  =====================================================

The report is the "per-stage top-of-profile": for each stage, total
cumulative time and the hottest functions inside it.  Enabled only by
``multi --profile``; when off, nothing here is imported into any hot
path.  Stdlib only; no ``repro`` imports.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Dict, List, Tuple

#: Stage attribution by substring of the profiled function's file path.
#: First match wins; order puts the most specific paths first.
STAGE_PATHS: Tuple[Tuple[str, str], ...] = (
    ("xmlstream/parser", "parse"),
    ("service/dispatcher", "route"),
    ("dtd/validator", "validate"),
    ("runtime/evaluator", "evaluate"),
    ("xquery/evaluator", "evaluate"),
    ("runtime/buffers", "evaluate"),
    ("runtime/conditions", "evaluate"),
    ("xmlstream/serializer", "emit"),
)

STAGE_ORDER = ("parse", "route", "validate", "evaluate", "emit", "other")


def _stage_of(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for fragment, stage in STAGE_PATHS:
        if fragment in normalized:
            return stage
    return "other"


class StageProfiler:
    """A reusable ``cProfile`` wrapper accumulating across passes.

    Usage: ``with profiler: pass_work()`` around each pass (the context
    manager enables/disables the one shared profiler, so stats accumulate
    over a whole ``multi`` run), then :meth:`report` once at the end.
    Not re-entrant — one profiler, one thread at a time, which matches
    the single-threaded serve loop ``--profile`` is most useful with.
    """

    def __init__(self, top: int = 5):
        self._profile = cProfile.Profile()
        self.top = top
        self.passes = 0

    def __enter__(self) -> "StageProfiler":
        self._profile.enable()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._profile.disable()
        self.passes += 1

    # -------------------------------------------------------------- report

    def stage_table(self) -> Dict[str, dict]:
        """Per-stage totals and hottest functions from the flat profile."""
        stats = pstats.Stats(self._profile, stream=io.StringIO())
        stages: Dict[str, dict] = {
            stage: {"cumulative_s": 0.0, "internal_s": 0.0, "calls": 0, "top": []}
            for stage in STAGE_ORDER
        }
        rows: Dict[str, List[Tuple[float, float, int, str]]] = {s: [] for s in STAGE_ORDER}
        for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in stats.stats.items():
            stage = _stage_of(filename)
            entry = stages[stage]
            entry["internal_s"] += tt
            entry["calls"] += nc
            short = filename.replace("\\", "/").rsplit("src/", 1)[-1]
            rows[stage].append((tt, ct, nc, f"{short}:{lineno}({funcname})"))
        for stage in STAGE_ORDER:
            ranked = sorted(rows[stage], reverse=True)[: self.top]
            stages[stage]["top"] = [
                {"function": name, "internal_s": tt, "cumulative_s": ct, "calls": nc}
                for tt, ct, nc, name in ranked
            ]
            # Stage cumulative time = sum of internal time of its functions;
            # summing ct would double-count callees within the stage.
            stages[stage]["cumulative_s"] = stages[stage].pop("internal_s")
        return stages

    def report(self) -> str:
        """Human-readable per-stage top-of-profile text."""
        table = self.stage_table()
        total = sum(entry["cumulative_s"] for entry in table.values()) or 1.0
        lines = [f"per-stage profile ({self.passes} pass(es) profiled)"]
        for stage in STAGE_ORDER:
            entry = table[stage]
            if entry["calls"] == 0:
                continue
            share = 100.0 * entry["cumulative_s"] / total
            lines.append(
                f"  {stage:<9} {entry['cumulative_s']:8.4f}s  {share:5.1f}%  "
                f"{entry['calls']} calls"
            )
            for row in entry["top"]:
                lines.append(
                    f"    {row['internal_s']:8.4f}s  {row['function']}"
                )
        return "\n".join(lines)
