"""Execution-mode selection policy (``--execution auto``).

Maps predicted fleet cost × document size × document count × available
cores to one of the existing serving configurations:

* ``inline`` scheduler, no pool — the fastest single-core path (bench S2)
  and the only sensible choice for a single document or a single core;
* ``threads`` pool — moderate multi-document workloads on multi-core
  hosts: shards overlap ingestion and isolate per-document faults while
  plans stay shared in-process;
* ``processes`` pool — CPU-bound fleets (high predicted per-document
  cost) on multi-core hosts, where the GIL would serialize thread shards
  (bench S5).

The policy is deliberately a handful of thresholds over the cost model,
not a learned model: every decision carries its reasons so ``repro
explain`` can print them and bench S8 can audit them against measured
throughput.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.query.cost import BYTES_PER_EVENT, CostEstimate

#: Assumed document size when the caller cannot stat the input (stdin).
DEFAULT_DOCUMENT_BYTES = 1 << 20
#: Total predicted score across the whole stream above which the fleet
#: counts as CPU-bound and is worth shipping to worker processes.
PROCESS_WORK_CUTOFF = 50_000_000.0
#: Per-document predicted score below which pooling of any kind is just
#: handoff overhead.
POOL_WORK_CUTOFF = 50_000.0
#: Worker-count caps per backend (matching the benched configurations).
MAX_PROCESS_WORKERS = 8
MAX_THREAD_WORKERS = 4


@dataclass(frozen=True)
class ModeDecision:
    """A resolved execution configuration plus the policy's reasoning."""

    execution: str  # "inline": the one per-query driver
    backend: str  # "threads" | "processes"
    workers: Optional[int]  # None = no pool, serve in the driver
    reasons: Tuple[str, ...]

    @property
    def pooled(self) -> bool:
        return self.workers is not None

    def describe(self) -> str:
        workers = str(self.workers) if self.workers is not None else "none"
        return "execution={0} backend={1} workers={2}".format(
            self.execution, self.backend, workers
        )


def select_mode(
    costs: Sequence[CostEstimate],
    *,
    document_bytes: Optional[int] = None,
    document_count: int = 1,
    cpu_count: Optional[int] = None,
) -> ModeDecision:
    """Pick an execution configuration for a fleet of compiled queries.

    ``costs`` holds one estimate per registered query (duplicates fine —
    structural dedup happens below this layer).  ``document_bytes`` is
    the typical input size (``None`` = unknown, assume 1 MiB) and
    ``document_count`` how many documents the pass stream will serve.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    size = document_bytes if document_bytes is not None else DEFAULT_DOCUMENT_BYTES
    document_events = max(float(size) / BYTES_PER_EVENT, 1.0)
    per_document = sum(cost.cost_per_event for cost in costs) * document_events
    total = per_document * max(document_count, 1)
    reasons = [
        "fleet of {0} queries: predicted ~{1:.0f} cost units per {2}-byte document"
        " ({3:.0f} total over {4} document(s), {5} core(s))".format(
            len(costs), per_document, size, total, document_count, cpus
        )
    ]

    if document_count <= 1:
        reasons.append("single document: sharding has nothing to parallelize")
        return _inline(reasons)
    if cpus < 2:
        reasons.append("single usable core: a pool only adds handoff overhead")
        return _inline(reasons)
    if per_document < POOL_WORK_CUTOFF:
        reasons.append(
            "light documents (<{0:.0f} units each): pool handoff would dominate".format(
                POOL_WORK_CUTOFF
            )
        )
        return _inline(reasons)
    if total >= PROCESS_WORK_CUTOFF:
        workers = min(cpus, document_count, MAX_PROCESS_WORKERS)
        reasons.append(
            "CPU-bound stream (>= {0:.0f} units): process workers break the GIL cap".format(
                PROCESS_WORK_CUTOFF
            )
        )
        return ModeDecision("inline", "processes", workers, tuple(reasons))
    workers = min(cpus, document_count, MAX_THREAD_WORKERS)
    reasons.append(
        "multi-document, multi-core, moderate cost: thread shards overlap"
        " ingestion and isolate per-document faults"
    )
    return ModeDecision("inline", "threads", workers, tuple(reasons))


def _inline(reasons: "list[str]") -> ModeDecision:
    reasons.append("inline scheduler: no per-query worker handoff (bench S2)")
    return ModeDecision("inline", "threads", None, tuple(reasons))
