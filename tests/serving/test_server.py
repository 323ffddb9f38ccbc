"""QueryServer: evaluation, updates, limits, shedding, fault behaviour."""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    BudgetExceededError,
    QueryTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    TransientStorageError,
)
from repro.mass.loader import load_xml
from repro.resilience.faults import FaultInjector
from repro.serving.server import QueryServer

DOC = """<site>
<people>
<person><name>Ada</name><age>36</age></person>
<person><name>Bob</name><age>41</age></person>
<person><name>Cyd</name></person>
</people>
<items><item><price>7</price></item><item><price>9</price></item></items>
</site>"""


def make_server(**options) -> QueryServer:
    return QueryServer(load_xml(DOC, name="serve-test"), **options)


def add_person(label: str):
    def mutate(store):
        people = store.root_element().key.child(0)
        key = store.insert_element(people, "person")
        store.insert_element(key, "name", text=label)

    return mutate


class TestEvaluate:
    def test_basic_roundtrip(self):
        with make_server(workers=2) as server:
            outcome = server.evaluate("//person/name")
            assert outcome.ok and outcome.error is None
            assert len(outcome.result) == 3
            assert outcome.epoch == server.manager.current_epoch

    def test_many_concurrent_clients_all_complete(self):
        with make_server(workers=2, max_queue_depth=64) as server:
            futures = [server.submit("//person[age]/name") for _ in range(32)]
            outcomes = [future.result(timeout=30) for future in futures]
            assert all(outcome.ok for outcome in outcomes)
            assert {len(outcome.result) for outcome in outcomes} == {2}
        stats = server.stats()
        assert stats["snapshots"]["pinned"] == 0
        assert stats["requests"]["completed"] == 32

    def test_syntax_error_is_captured_not_raised(self):
        with make_server() as server:
            outcome = server.evaluate("///")
            assert not outcome.ok
            assert outcome.error_type == "XPathSyntaxError"

    def test_on_error_raise_propagates_through_future(self):
        with make_server() as server:
            with pytest.raises(Exception) as info:
                server.evaluate("///", on_error="raise")
            assert type(info.value).__name__ == "XPathSyntaxError"


class TestUpdates:
    def test_update_visible_to_later_queries(self):
        with make_server() as server:
            assert len(server.evaluate("//person").result) == 3
            epoch = server.apply_update(add_person("Eve"))
            outcome = server.evaluate("//person")
            assert outcome.epoch == epoch
            assert len(outcome.result) == 4

    def test_reader_admitted_before_publish_sees_old_epoch(self):
        with make_server() as server:
            with server.manager.acquire() as pinned:
                server.apply_update(add_person("Eve"))
                assert len(pinned.engine.evaluate("//person")) == 3
            assert len(server.evaluate("//person").result) == 4

    def test_records_of_an_old_result_survive_concurrent_publishes(self):
        """A result materialised while a writer publishes keeps reading
        its own frozen snapshot: the pre-update records, leaf by leaf."""
        with make_server(workers=2) as server:
            outcome = server.evaluate("//person/name")
            live = outcome.result.records()
            first = next(live)
            stop = threading.Event()

            def publisher():
                index = 0
                while not stop.is_set() and index < 20:
                    server.apply_update(add_person(f"Eve{index}"))
                    index += 1

            writer = threading.Thread(target=publisher)
            writer.start()
            try:
                rest = list(live)
            finally:
                stop.set()
                writer.join()
            names = [first] + rest
            assert [record.key for record in names] == outcome.result.keys
            assert outcome.result.string_values() == ["Ada", "Bob", "Cyd"]
            assert len(server.evaluate("//person/name").result) > 3

    def test_update_failure_counted_and_raised(self):
        injector = FaultInjector(
            seed=3, rates={"writer.publish": 1.0}, max_failures=1
        )
        server = QueryServer(
            load_xml(DOC), workers=1, fault_injector=injector
        )
        try:
            with pytest.raises(TransientStorageError):
                server.apply_update(add_person("Eve"))
            epoch = server.apply_update(add_person("Eve"))  # retry succeeds
            assert epoch == server.manager.current_epoch
            stats = server.stats()["requests"]
            assert stats["update_failures"] == 1
            assert stats["updates_applied"] == 1
        finally:
            server.close()

    def test_apply_update_pinned_returns_owned_pin(self):
        with make_server() as server:
            epoch, pinned = server.apply_update_pinned(add_person("Eve"))
            try:
                assert pinned.epoch == epoch
                assert len(pinned.engine.evaluate("//person")) == 4
            finally:
                pinned.release()
            assert server.manager.pinned() == 0


class TestLimits:
    def test_result_cap_flags_partial(self):
        with make_server() as server:
            outcome = server.evaluate("//person", max_results=1)
            assert not outcome.ok
            assert isinstance(outcome.error, BudgetExceededError)
            assert outcome.partial

    def test_deadline_expired_in_queue_never_touches_store(self):
        # A server whose single worker is blocked: the second request's
        # deadline expires while it waits.
        release = threading.Event()
        with make_server(workers=1, max_queue_depth=4) as server:
            blocker = server.submit("//person")  # occupies the worker briefly
            blocker.result(timeout=30)
            # Stuff the queue with an already-expired deadline.
            outcome = server.evaluate("//person", timeout_ms=0.0001)
            assert not outcome.ok
            assert isinstance(outcome.error, QueryTimeoutError)
            assert outcome.partial
        release.set()

    def test_default_limits_applied_per_request(self):
        with make_server(default_max_results=1) as server:
            outcome = server.evaluate("//person")
            assert isinstance(outcome.error, BudgetExceededError)
            # Per-request override wins.
            assert server.evaluate("//person", max_results=100).ok


class TestOverload:
    def test_queue_full_rejects_synchronously_with_hint(self):
        # Depth 0 rejects every submission before it ever reaches a worker.
        with make_server(workers=1, max_queue_depth=0) as server:
            with pytest.raises(ServerOverloadedError) as info:
                server.submit("//person")
            assert info.value.retry_after_s > 0
            assert server.stats()["requests"]["shed"] == 1

    def test_queue_overflow_rejects_excess_submissions(self):
        server = make_server(workers=1, max_queue_depth=1)
        try:
            futures = []
            saw_reject = False
            for _ in range(50):
                try:
                    futures.append(server.submit("//person"))
                except ServerOverloadedError as error:
                    assert error.retry_after_s > 0
                    saw_reject = True
                    break
            outcomes = [future.result(timeout=30) for future in futures]
            assert all(outcome.ok for outcome in outcomes)
            assert saw_reject
            assert server.stats()["requests"]["shed"] >= 1
        finally:
            server.close()

    def test_cost_shedding_rejects_expensive_query_under_pressure(self):
        server = make_server(
            workers=1, max_queue_depth=8, shed_cost_limit=1
        )
        try:
            # Saturate: with every plan over the limit, shedding only
            # triggers when someone else is waiting.
            futures = []
            for _ in range(12):
                try:
                    futures.append(server.submit("//person"))
                except ServerOverloadedError:
                    pass
            outcomes = [future.result(timeout=30) for future in futures]
            shed = [
                outcome
                for outcome in outcomes
                if isinstance(outcome.error, ServerOverloadedError)
            ]
            assert shed, "expected at least one cost-shed outcome"
            assert all(outcome.error.retry_after_s > 0 for outcome in shed)
        finally:
            server.close()
        assert server.stats()["snapshots"]["pinned"] == 0

    def test_degrade_policy_clamps_page_budget(self):
        server = make_server(
            workers=1,
            max_queue_depth=8,
            shed_cost_limit=1,
            shed_policy="degrade",
            degrade_page_budget=1,
        )
        try:
            futures = []
            for _ in range(12):
                try:
                    futures.append(server.submit("//person"))
                except ServerOverloadedError:
                    pass
            outcomes = [future.result(timeout=30) for future in futures]
            degraded = [outcome for outcome in outcomes if outcome.degraded]
            assert degraded, "expected degraded outcomes under pressure"
            # A degraded request either completed within the clamped
            # budget or failed with the typed budget error — flagged
            # partial either way it failed.
            for outcome in degraded:
                if not outcome.ok:
                    assert isinstance(outcome.error, BudgetExceededError)
                    assert outcome.partial
        finally:
            server.close()


class TestFaults:
    def test_worker_crash_surfaces_typed_error_and_releases_pin(self):
        injector = FaultInjector(
            seed=5, rates={"worker.crash": 1.0}, max_failures=1
        )
        server = QueryServer(load_xml(DOC), workers=1, fault_injector=injector)
        try:
            outcome = server.evaluate("//person")
            assert not outcome.ok
            assert isinstance(outcome.error, TransientStorageError)
            assert server.stats()["requests"]["worker_crashes"] == 1
            # The server survives and the pin drained.
            assert server.evaluate("//person").ok
            assert server.manager.pinned() == 0
        finally:
            server.close()

    def test_release_fault_turns_success_into_typed_error(self):
        injector = FaultInjector(
            seed=5, rates={"snapshot.release": 1.0}, max_failures=1
        )
        server = QueryServer(load_xml(DOC), workers=1, fault_injector=injector)
        try:
            outcome = server.evaluate("//person")
            assert not outcome.ok
            assert isinstance(outcome.error, TransientStorageError)
            assert server.stats()["requests"]["release_faults"] == 1
            assert server.manager.pinned() == 0
        finally:
            server.close()

    def test_acquire_fault_rejects_request_cleanly(self):
        injector = FaultInjector(
            seed=5, rates={"snapshot.acquire": 1.0}, max_failures=1
        )
        server = QueryServer(load_xml(DOC), workers=1, fault_injector=injector)
        try:
            outcome = server.evaluate("//person")
            assert not outcome.ok
            assert isinstance(outcome.error, TransientStorageError)
            assert server.manager.pinned() == 0
            assert server.evaluate("//person").ok
        finally:
            server.close()


class TestLifecycle:
    def test_close_is_idempotent_and_rejects_new_work(self):
        server = make_server()
        server.close()
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit("//person")
        with pytest.raises(ServerClosedError):
            server.apply_update(add_person("Eve"))

    def test_close_drains_admitted_requests(self):
        server = make_server(workers=1, max_queue_depth=16)
        futures = [server.submit("//person") for _ in range(8)]
        server.close()
        outcomes = [future.result(timeout=30) for future in futures]
        assert all(outcome.ok for outcome in outcomes)

    def test_submit_racing_close_never_strands_a_future(self):
        # Regression: submit() used to re-check _closed and then enqueue
        # without holding the close lock, so a request admitted in that
        # window could land behind close()'s stop markers and its future
        # would never resolve.  Every submit must either raise
        # ServerClosedError or return a future that resolves.
        from repro.errors import ServerOverloadedError

        for _trial in range(3):
            server = make_server(workers=2, max_queue_depth=64)
            futures = []
            futures_lock = threading.Lock()
            hammers = 4
            barrier = threading.Barrier(hammers + 1)

            def hammer():
                barrier.wait()
                while True:
                    try:
                        future = server.submit("//person")
                    except ServerClosedError:
                        return
                    except ServerOverloadedError:
                        continue
                    with futures_lock:
                        futures.append(future)

            threads = [threading.Thread(target=hammer) for _ in range(hammers)]
            for thread in threads:
                thread.start()
            barrier.wait()
            server.close()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for future in futures:
                outcome = future.result(timeout=5)  # raises if stranded
                assert outcome is not None
            assert server.manager.pinned() == 0

    def test_stats_shape(self):
        with make_server() as server:
            server.evaluate("//person")
            stats = server.stats()
        assert stats["workers"] >= 1
        assert stats["requests"]["completed"] == 1
        assert stats["admission"]["admitted"] == 1
        assert stats["snapshots"]["acquires"] == stats["snapshots"]["releases"]
