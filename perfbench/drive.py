"""The closed-loop driver: set-up, timed rounds, and the output check.

One driver process runs one workload.  The serve loop pulls the next
document from the benchmark's iterator only when it has capacity (inline:
after the previous document's result; pool: when a worker is idle), so the
load is a closed loop with one client.  Every timed interval is bracketed
by the host calibration of :mod:`hostclock`.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from hostclock import CAL_NOMINAL_S, Bracket, HostClock
from inputs import POOL_WORKERS, Workload
from repro.service.process_pool import ProcessServicePool
from repro.service.service import QueryService

MB = 1e6
_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Set-up repetitions: at least this many, more while they are short.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_TARGET_S = 0.5
#: Registrations between calibration ticks during set-up.
SETUP_TICK_EVERY = 500


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Server:
    """The system under test behind one interface: an inline
    ``QueryService`` or a ``ProcessServicePool``."""

    def __init__(self, workload: Workload, obs=None,
                 clock: Optional[HostClock] = None):
        """Set up the server; with ``clock``, calibration ticks are taken
        between batches of registrations (a long set-up is then priced over
        its whole length, not only at its edges)."""
        self.pool = workload.backend == "pool"
        if self.pool:
            self.target = ProcessServicePool(
                workload.dtd,
                workers=POOL_WORKERS,
                execution="inline",
                start_method="fork",
            )
        else:
            self.target = QueryService(workload.dtd, execution="inline", obs=obs)
        try:
            for count, (key, text) in enumerate(workload.registrations, 1):
                self.target.register(text, key=key)
                if clock is not None and count % SETUP_TICK_EVERY == 0:
                    clock.tick()
            if self.pool:
                # An empty serve loop spawns the workers and ships every
                # plan: the pool is then ready for its first document.
                for _ in self.target.serve([]):
                    pass
        except BaseException:
            self.close()
            raise

    @property
    def plan_cache(self):
        return self.target.plan_cache

    def worker_pids(self) -> List[int]:
        if not self.pool:
            return []
        return [pid for pid in self.target.worker_pids().values() if pid is not None]

    def worker_cpu_seconds(self) -> float:
        return sum(_proc_cpu_seconds(pid) for pid in self.worker_pids())

    def peak_rss_mb(self) -> float:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kb += sum(_proc_peak_rss_kb(pid) for pid in self.worker_pids())
        return kb / 1024

    def close(self) -> None:
        if self.pool:
            self.target.close()


@dataclass
class Tally:
    """Operations attempted and failed, by kind."""

    documents: int = 0
    document_errors: int = 0
    mismatches: int = 0
    registrations: int = 0
    registration_failures: int = 0

    @property
    def attempted(self) -> int:
        return self.documents + self.registrations

    @property
    def failed(self) -> int:
        return self.document_errors + self.mismatches + self.registration_failures


@dataclass
class Round:
    """One timed round: its bracket and what it served."""

    bracket: Bracket
    document_bytes: int
    documents: int
    #: Raw per-document latencies (seconds), pull to delivery.
    latencies: List[float]
    #: Host correction of each latency.
    latency_factors: List[float]
    #: Raw per-call latencies (seconds) of live registrations.
    registers: List[float]
    driver_cpu_s: float
    worker_cpu_s: float

    @property
    def throughput_mb_s(self) -> float:
        return self.document_bytes / MB / self.bracket.corrected_s

    @property
    def cpu_ms_per_mb(self) -> float:
        cpu = (self.driver_cpu_s + self.worker_cpu_s) * self.bracket.factor
        return cpu * 1000 / (self.document_bytes / MB)


def measure_setup(workload: Workload, clock: HostClock) -> tuple:
    """Set the server up several times; returns ``(server, corrected set-ups)``.

    Each set-up constructs the service or pool and registers every query
    (for the pool, also spawning workers and shipping plans).  All but the
    last server are torn down again.
    """
    setups: List[float] = []
    server: Optional[Server] = None
    spent = 0.0
    while len(setups) < SETUP_MIN_REPEATS or (
        spent < SETUP_TARGET_S and len(setups) < SETUP_MAX_REPEATS
    ):
        if server is not None:
            server.close()
            server = None
            gc.collect()
        clock.begin()
        server = Server(workload, clock=clock)
        bracket = clock.end()
        setups.append(bracket.corrected_s)
        spent += bracket.raw_s
    return server, setups


def check_document(workload: Workload, document: int, served, tally: Tally,
                   peaks: Dict[str, int]) -> None:
    """Compare one served document's outputs with the DOM reference.

    ``served`` is the ``ServedDocument`` (``None`` when the pass raised).
    Folds the per-catalogue-query peak buffer bytes into ``peaks``.
    """
    tally.documents += 1
    if served is None or not served.ok:
        tally.document_errors += 1
        return
    expected = workload.label_of
    reference = workload.reference[document]
    results = served.results
    ok = len(results) == len(expected)
    for key, result in results.items():
        label = expected.get(key)
        if label is None or result.output != reference[label]:
            ok = False
            continue
        if result.peak_buffer_bytes > peaks.get(label, -1):
            peaks[label] = result.peak_buffer_bytes
    if not ok:
        tally.mismatches += 1


def run_round(server: Server, workload: Workload, order: List[int],
              clock: HostClock, tally: Tally, peaks: Dict[str, int],
              step: Optional[Callable] = None,
              observe: Optional[Callable] = None) -> Round:
    """Serve ``order`` (indexes into the documents) as one timed round.

    Every output is checked against the reference outside the timed
    interval: inline, right after each document with the clock paused, so
    the loop never holds more than one document's results; in the pool,
    whose workers keep running while the driver is paused, after the
    round.  ``observe`` sees every ``ServedDocument`` before its check.

    ``step`` wraps each ``next()`` on the serve loop (the traced run uses
    it to open a root span per document).  Churn registrations, when the
    workload has them, run before each document is pulled.  An inline
    serve loop stops at a document that raises; the error is recorded
    against that document and a new loop resumes at the next one.
    """
    documents = workload.documents
    pulled: List[float] = []

    def feed():
        for d in order:
            pulled.append(time.perf_counter())
            yield documents[d]

    def check(position: int, served) -> None:
        if observe is not None and served is not None:
            observe(served)
        check_document(workload, order[position], served, tally, peaks)

    source = feed()
    churn = workload.churn
    latencies: List[float] = []
    latency_factors: List[float] = []
    registers: List[float] = []
    pending: list = []
    delivered = 0
    paused_cpu = 0.0
    clock.begin()
    cpu0 = time.process_time()
    workers0 = server.worker_cpu_seconds()
    loop = server.target.serve(source)
    while delivered < len(order):
        if churn is not None:
            for key, text, _label in churn.next_ops():
                tally.registrations += 1
                started = time.perf_counter()
                try:
                    server.target.register(text, key=key)
                except Exception:
                    tally.registration_failures += 1
                    continue
                registers.append(time.perf_counter() - started)
        try:
            result = step(loop) if step is not None else next(loop)
        except StopIteration:
            break
        except Exception:
            if server.pool:
                raise  # the pool isolates document errors; this is its source
            result = None
            loop = server.target.serve(source)
        delivered += 1
        # The pool tags results with their position in the loop; the
        # inline loop serves the document it pulled last.
        position = result.index if server.pool else len(pulled) - 1
        if server.pool:
            latencies.append(time.perf_counter() - pulled[position])
            pending.append((position, result))
            continue
        if result is not None:
            latencies.append(time.perf_counter() - pulled[position])
        # Check, then price the host between documents, over the same
        # stretch of time as the work; each latency is corrected by the
        # ticks on either side of it.  Pool workers would contend with a
        # tick, so the pool is priced at the round's edges only.
        paused_started = time.process_time()
        before = clock.last_tick
        with clock.paused():
            check(position, result)
        after = clock.tick()
        paused_cpu += time.process_time() - paused_started
        if result is not None:
            latency_factors.append(CAL_NOMINAL_S * 2 / (before + after))
    cpu = time.process_time() - cpu0 - paused_cpu
    workers = server.worker_cpu_seconds() - workers0
    bracket = clock.end()
    for position, result in pending:
        check(position, result)
    if server.pool:
        latency_factors = [bracket.factor] * len(latencies)
    byte_sizes = workload.document_bytes
    return Round(
        bracket=bracket,
        latency_factors=latency_factors,
        document_bytes=sum(byte_sizes[d] for d in order),
        documents=len(order),
        latencies=latencies,
        registers=registers,
        driver_cpu_s=cpu,
        worker_cpu_s=workers,
    )


def round_order(workload: Workload) -> List[int]:
    count = len(workload.documents)
    return [i % count for i in range(workload.round_documents)]


def register_probe(server: Server, workload: Workload, clock: HostClock,
                   tally: Tally) -> List[float]:
    """Corrected seconds of fresh (cache-missing) registrations on the live
    server, for ``register_p50_ms`` on workloads without churn.

    Each call is corrected by the calibration ticks on either side of it.
    The probe key is unregistered again afterwards.
    """
    corrected: List[float] = []
    clock.begin()
    for _label, text in workload.probe_queries():
        tally.registrations += 1
        before = clock.last_tick
        started = time.perf_counter()
        try:
            server.target.register(text, key="probe")
        except Exception:
            tally.registration_failures += 1
            continue
        elapsed = time.perf_counter() - started
        corrected.append(elapsed * CAL_NOMINAL_S * 2 / (before + clock.tick()))
    clock.end()
    if "probe" in server.target.registrations:
        server.target.unregister("probe")
    return corrected


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 < q < 1``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def corrected_latencies_ms(rounds: List[Round]) -> List[float]:
    return [lat * factor * 1000 for r in rounds
            for lat, factor in zip(r.latencies, r.latency_factors)]


def corrected_registers_ms(rounds: List[Round]) -> List[float]:
    return [reg * r.bracket.factor * 1000 for r in rounds for reg in r.registers]


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
