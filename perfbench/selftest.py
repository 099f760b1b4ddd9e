"""Self-test of the benchmark's output check: a broken run must be caught.

Serves a small ``bib-stream`` set-up three ways and requires the tally to
count exactly the failures planted in each:

1. against the true DOM reference: no failure;
2. against a reference with one output corrupted: one mismatch;
3. with a malformed document and a query that does not parse registered
   mid-loop: one document error and one failed registration.

Run with ``python3 perfbench/run.py --self-test``; exits 0 when every
planted failure is counted and nothing else is.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

from drive import Server, Tally, run_round
from hostclock import HostClock
from inputs import build, compute_reference


class _BrokenChurn:
    """Registers one query that does not parse, before the first document."""

    def __init__(self):
        self._done = False

    def next_ops(self) -> List[Tuple[str, str, str]]:
        if self._done:
            return []
        self._done = True
        return [("BIB-Q1", "for $b in $ROOT/bib/book return", "BIB-Q1")]


def _serve(workload) -> Tally:
    tally = Tally()
    server = Server(workload)
    try:
        order = list(range(len(workload.documents)))
        run_round(server, workload, order, HostClock(), tally, {})
    finally:
        server.close()
    return tally


def _expect(name: str, tally: Tally, mismatches: int, errors: int, registrations: int) -> bool:
    got = (tally.mismatches, tally.document_errors, tally.registration_failures)
    ok = got == (mismatches, errors, registrations)
    print(f"{'PASS' if ok else 'FAIL'} {name}: mismatches={got[0]} document_errors={got[1]}"
          f" failed_registrations={got[2]} (expected {mismatches}, {errors}, {registrations});"
          f" failed {tally.failed} of {tally.attempted}")
    return ok


def main() -> int:
    workload = build("bib-stream", 1)
    workload.documents = workload.documents[:3]
    compute_reference(workload)
    results = [_expect("true reference", _serve(workload), 0, 0, 0)]

    corrupted = copy.copy(workload)
    corrupted.reference = copy.deepcopy(workload.reference)
    corrupted.reference[1]["BIB-Q2"] += "<corrupted/>"
    results.append(_expect("corrupted reference", _serve(corrupted), 1, 0, 0))

    broken = copy.copy(workload)
    broken.documents = list(workload.documents)
    broken.documents[2] = broken.documents[2][: len(broken.documents[2]) // 2]
    broken.churn = _BrokenChurn()
    results.append(_expect("malformed document and query", _serve(broken), 0, 1, 1))
    return 0 if all(results) else 1
