"""Seeded inputs of the four workloads, and their DOM reference outputs.

Everything the program sees is generated here from the ``--seed``
argument: documents (via the repo's deterministic generators), query
texts (the catalogue queries, or alias spellings of them), and the
registration churn of ``fleet-churn``.  The same seed gives the same
inputs, byte for byte.

The reference output of every (query, document) pair is computed with
:class:`~repro.engines.dom_engine.DomEngine`, the tree-building reference
engine, before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.fleets import alias_query, make_fleet
from repro.engines.dom_engine import DomEngine
from repro.workloads import (
    AUCTION_DTD,
    BIB_DTD_STRONG,
    generate_auction_site,
    generate_bibliography,
    queries_for_workload,
)

#: Registrants in the fleet-churn workload.
FLEET_SIZE = 10_000
#: Registrants replaced before each fleet-churn document.
CHURN_PER_DOC = 8
#: Reused churn spellings; few enough to stay in the 128-entry plan cache
#: between uses, so about a quarter of churn registrations hit it.
CHURN_HOT = 16
CHURN_HOT_SHARE = 0.25
#: Variant numbers of churn spellings: hot ones are fixed, cold ones are
#: drawn from a range far larger than the plan cache.
_HOT_VARIANT = 50_000
_COLD_VARIANTS = (100_000, 10_000_000)
#: Variant numbers of the register probe on the other workloads.
_PROBE_VARIANT = 900_000
PROBE_REGISTRATIONS = 120

#: Pool size of xmark-pool2 (matches a 2-core host).
POOL_WORKERS = 2


class Churn:
    """The seeded stream of registrant replacements of ``fleet-churn``.

    :meth:`next_ops` returns the ``(key, query text, catalogue key)``
    replacements to apply before the next document.  Each replacement
    re-spells one registrant's own query, so a key's reference output
    never changes.
    """

    def __init__(self, seed: int, bases: List[Tuple[str, str]], fleet_size: int):
        self._rng = random.Random(seed)
        self._bases = bases
        self._fleet_size = fleet_size
        hot_rng = random.Random(seed ^ 0x5EED)
        self._hot = [
            (hot_rng.randrange(len(bases)), _HOT_VARIANT + j) for j in range(CHURN_HOT)
        ]

    def _key_of_base(self, base: int) -> str:
        per_base = (self._fleet_size - base + len(self._bases) - 1) // len(self._bases)
        index = self._rng.randrange(per_base) * len(self._bases) + base
        return f"q{index:05d}"

    def next_ops(self) -> List[Tuple[str, str, str]]:
        ops = []
        for _ in range(CHURN_PER_DOC):
            if self._rng.random() < CHURN_HOT_SHARE:
                base, variant = self._hot[self._rng.randrange(CHURN_HOT)]
            else:
                base = self._rng.randrange(len(self._bases))
                variant = self._rng.randrange(*_COLD_VARIANTS)
            label, text = self._bases[base]
            ops.append((self._key_of_base(base), alias_query(text, variant), label))
        return ops


@dataclass
class Workload:
    """One workload's generated inputs and reference outputs."""

    name: str
    dtd: str
    #: Registrations made at set-up: ``(key, query text)``.
    registrations: List[Tuple[str, str]]
    #: Catalogue key of every registration key (the oracle's index).
    label_of: Dict[str, str]
    #: Catalogue queries: ``(catalogue key, text)``.
    catalogue: List[Tuple[str, str]]
    documents: List[str]
    backend: str
    #: Documents per timed round (each round serves whole cycles of
    #: ``documents`` in a fixed order, so every round does the same work).
    round_documents: int
    churn: Optional[Churn] = None
    #: ``reference[d][catalogue key]`` is the DOM output on document ``d``.
    reference: List[Dict[str, str]] = field(default_factory=list)

    @property
    def document_bytes(self) -> List[int]:
        return [len(doc.encode("utf-8")) for doc in self.documents]

    def probe_queries(self) -> List[Tuple[str, str]]:
        """Fresh alias spellings for the register probe (all cache misses).

        Compile time differs by query, so the probe's latencies cluster by
        query.  An odd number of query kinds puts the median inside one
        cluster rather than on the gap between two.
        """
        kinds = self.catalogue[: len(self.catalogue) - 1 + len(self.catalogue) % 2]
        return [
            (kinds[i % len(kinds)][0],
             alias_query(kinds[i % len(kinds)][1], _PROBE_VARIANT + i))
            for i in range(PROBE_REGISTRATIONS)
        ]


def _catalogue(kind: str) -> List[Tuple[str, str]]:
    return [(spec.key, spec.xquery) for spec in queries_for_workload(kind)]


def _stratified(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """``count`` sizes, one drawn from each of ``count`` equal slices of
    ``[low, high)``, shuffled: every seed covers the whole size range evenly,
    so per-document figures do not hinge on which sizes a seed happened to
    draw."""
    sizes = [low + (high - low) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def build(name: str, seed: int) -> Workload:
    """Generate ``name``'s inputs from ``seed`` (no reference outputs yet)."""
    rng = random.Random(f"{name}:{seed}")
    if name == "bib-stream":
        catalogue = _catalogue("bib")
        documents = [
            generate_bibliography(num_books=round(books), seed=rng.randrange(2**31))
            for books in _stratified(rng, 80, 140, 10)
        ]
        return Workload(name, BIB_DTD_STRONG, list(catalogue),
                        {key: key for key, _ in catalogue}, catalogue, documents,
                        backend="inline", round_documents=10)
    if name in ("xmark-stream", "xmark-pool2"):
        catalogue = _catalogue("auction")
        # Both XMark workloads share inputs for a seed, so pool overhead
        # stands apart from evaluation cost.
        rng = random.Random(f"xmark:{seed}")
        documents = [
            generate_auction_site(scale=scale, seed=rng.randrange(2**31))
            for scale in _stratified(rng, 0.3, 0.45, 12)
        ]
        pool = name == "xmark-pool2"
        return Workload(name, AUCTION_DTD, list(catalogue),
                        {key: key for key, _ in catalogue}, catalogue, documents,
                        backend="pool" if pool else "inline",
                        round_documents=12)
    if name == "fleet-churn":
        catalogue = _catalogue("bib")
        fleet = make_fleet([text for _, text in catalogue], FLEET_SIZE)
        # A pass costs about the same whatever the document's size here, so
        # 16 documents keep the seed's mean document size (and so MB/s)
        # close to every other seed's.
        documents = [
            generate_bibliography(num_books=10, seed=rng.randrange(2**31))
            for _ in range(16)
        ]
        return Workload(name, BIB_DTD_STRONG,
                        [(q.key, q.text) for q in fleet],
                        {q.key: catalogue[q.structure][0] for q in fleet},
                        catalogue, documents, backend="inline", round_documents=16,
                        churn=Churn(rng.randrange(2**31), catalogue, FLEET_SIZE))
    raise ValueError(f"unknown workload {name!r}")


class OraclePremiseError(AssertionError):
    """The DOM engine disagreed with itself on two spellings of one query."""


def compute_reference(workload: Workload) -> None:
    """Fill ``workload.reference`` with DOM outputs of every catalogue query.

    Alias spellings (``fleet-churn``, the register probe) are checked
    against the reference through their catalogue key.  That premise is
    itself verified here: the DOM engine must give the same output for
    several alias spellings of each query on the first two documents.
    """
    engine = DomEngine(dtd=workload.dtd)
    workload.reference = [
        {key: engine.execute(text, doc).output for key, text in workload.catalogue}
        for doc in workload.documents
    ]
    variants = (1, _HOT_VARIANT, _COLD_VARIANTS[0], _PROBE_VARIANT)
    for key, text in workload.catalogue:
        for variant in variants:
            alias = alias_query(text, variant)
            for d, doc in enumerate(workload.documents[:2]):
                if engine.execute(alias, doc).output != workload.reference[d][key]:
                    raise OraclePremiseError(
                        f"DOM output of alias {variant} of {key} differs on document {d}"
                    )
