"""Regression tests for the SharedPass cross-thread state transitions.

``abort()`` is the one SharedPass entry point documented as callable from
any thread (a pool driver may abort a pass its worker is feeding), so the
aborted/closed flips are lock-protected test-and-sets.  These tests pin
the two effects that the ``_state_lock`` makes exactly-once — the
``pass.abort`` log event and the service's active-pass slot release — and
prove the locking leaves pass output byte-identical to a solo engine run.
"""

import threading

from repro.engines.flux_engine import FluxEngine
from repro.obs import MemoryLogger, Observability
from repro.service import QueryService
from repro.service.session import SharedPass

from tests.conftest import PAPER_DOCUMENT, PAPER_FIGURE1_DTD, PAPER_Q3


def make_service(obs=None):
    service = QueryService(PAPER_FIGURE1_DTD, obs=obs)
    service.register(PAPER_Q3, key="q")
    return service


class TestAbortStorm:
    def test_concurrent_aborts_log_pass_abort_once(self):
        logger = MemoryLogger()
        service = make_service(obs=Observability(logger=logger))
        shared_pass = service.open_pass()
        barrier = threading.Barrier(8)

        def storm():
            barrier.wait()
            shared_pass.abort()

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        abort_events = [e for e in logger.events if e["event"] == "pass.abort"]
        assert len(abort_events) == 1
        assert shared_pass.aborted

    def test_concurrent_aborts_release_the_slot_once(self):
        closes = []
        service = make_service()
        groups = {
            reg.structure: {reg.key: reg} for reg in service.registrations.values()
        }
        shared_pass = SharedPass(
            groups,
            service.dtd,
            service.validate,
            on_close=closes.append,
        )
        barrier = threading.Barrier(8)

        def storm():
            barrier.wait()
            shared_pass.abort()

        threads = [threading.Thread(target=storm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert closes == [shared_pass]

    def test_abort_after_finish_does_not_reclose(self):
        closes = []
        service = make_service()
        groups = {
            reg.structure: {reg.key: reg} for reg in service.registrations.values()
        }
        shared_pass = SharedPass(
            groups,
            service.dtd,
            service.validate,
            on_close=closes.append,
        )
        shared_pass.feed(PAPER_DOCUMENT)
        results = shared_pass.finish()
        assert "q" in results
        shared_pass.abort()
        assert closes == [shared_pass]

    def test_aborted_pass_frees_the_service_for_a_new_pass(self):
        service = make_service()
        shared_pass = service.open_pass()
        threads = [threading.Thread(target=shared_pass.abort) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = service.run_pass(PAPER_DOCUMENT)
        assert results["q"].output


class TestOutputUnchangedByLocking:
    def test_pass_output_is_byte_identical_to_solo_engine(self):
        solo = FluxEngine(PAPER_FIGURE1_DTD).execute(PAPER_Q3, PAPER_DOCUMENT)
        service = make_service()
        shared = service.run_pass(PAPER_DOCUMENT)["q"]
        assert shared.output == solo.output

    def test_output_identical_after_an_aborted_predecessor(self):
        service = make_service()
        doomed = service.open_pass()
        doomed.feed(PAPER_DOCUMENT[: len(PAPER_DOCUMENT) // 2])
        doomed.abort()
        solo = FluxEngine(PAPER_FIGURE1_DTD).execute(PAPER_Q3, PAPER_DOCUMENT)
        assert service.run_pass(PAPER_DOCUMENT)["q"].output == solo.output
