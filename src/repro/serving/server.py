"""The concurrent query server: thread-pool core over snapshot isolation.

:class:`QueryServer` wires the serving pieces together:

* a :class:`~repro.serving.snapshot.SnapshotManager` gives every admitted
  request an immutable store version to read (and the writer a private
  clone to mutate),
* an :class:`~repro.serving.admission.AdmissionController` bounds the
  wait queue, detects pressure and sheds expensive plans,
* a fixed pool of worker threads drains a FIFO request queue; each
  request runs under its own :class:`~repro.resilience.QueryGuard`
  carved from the client's deadline/page/result limits.

``submit`` returns a :class:`concurrent.futures.Future` resolving to a
:class:`QueryOutcome`.  With the default ``on_error="capture"`` the
future *always* resolves to an outcome — errors are typed and attached,
partial-result truncation (deadline/budget trips) is flagged — so one
misbehaving request can never poison a client's result loop.  With
``on_error="raise"`` the future re-raises the typed error instead.

Every worker releases its snapshot on all exit paths (the VAM006 lint
rule checks this package for exactly that pattern), so reader pins drain
to zero even when queries fail, crash by injection, or are shed.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.cost.estimator import plan_cost
from repro.errors import (
    BudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    TransientStorageError,
)
from repro.mass.flexkey import FlexKey
from repro.mass.store import MassStore
from repro.resilience.faults import FaultInjector
from repro.resilience.guard import QueryGuard
from repro.serving.admission import DEGRADE, AdmissionController
from repro.serving.metrics import ServerMetrics
from repro.serving.snapshot import SnapshotManager, StoreSnapshot


@dataclass
class QueryOutcome:
    """What happened to one served request.

    ``ok`` means a complete result at ``epoch``.  Otherwise ``error``
    holds the typed failure; ``partial`` marks failures where the query
    was genuinely progressing but a deadline or budget cut it short
    (the engine discards partial node-sets, so no partial data leaks —
    the flag tells the client *why* there is no result).  ``degraded``
    marks requests the admission controller ran with a clamped page
    budget under load.
    """

    expression: str
    ok: bool
    epoch: int | None = None
    result: object | None = None
    error: ReproError | None = None
    degraded: bool = False
    partial: bool = False
    queued_s: float = 0.0
    service_s: float = 0.0

    @property
    def error_type(self) -> str | None:
        return None if self.error is None else type(self.error).__name__

    def raise_for_error(self) -> "QueryOutcome":
        if self.error is not None:
            raise self.error
        return self

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"error={self.error_type}"
        return f"<QueryOutcome {self.expression!r} {state} epoch={self.epoch}>"


@dataclass
class _Request:
    expression: str
    future: Future
    context: FlexKey | None
    optimize: bool
    timeout_ms: float | None
    max_pages: int | None
    max_results: int | None
    on_error: str
    enqueued_at: float = 0.0


_STOP = object()


class QueryServer:
    """Evaluate many concurrent XPath queries over one evolving store."""

    def __init__(
        self,
        store: MassStore,
        workers: int = 2,
        max_queue_depth: int | None = None,
        default_timeout_ms: float | None = None,
        default_max_pages: int | None = None,
        default_max_results: int | None = None,
        shed_cost_limit: int | None = None,
        shed_policy: str = "reject",
        degrade_page_budget: int = 256,
        on_error: str = "capture",
        fault_injector: FaultInjector | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_error not in ("capture", "raise"):
            raise ValueError(f"on_error must be 'capture' or 'raise', got {on_error!r}")
        if degrade_page_budget < 1:
            raise ValueError(
                f"degrade_page_budget must be >= 1, got {degrade_page_budget}"
            )
        self.workers = workers
        self.default_timeout_ms = default_timeout_ms
        self.default_max_pages = default_max_pages
        self.default_max_results = default_max_results
        self.degrade_page_budget = degrade_page_budget
        self.default_on_error = on_error
        self.fault_injector = fault_injector
        self.clock = clock
        self.manager = SnapshotManager(store, fault_injector=fault_injector)
        self.admission = AdmissionController(
            max_concurrency=workers,
            max_queue_depth=(
                2 * workers if max_queue_depth is None else max_queue_depth
            ),
            shed_cost_limit=shed_cost_limit,
            shed_policy=shed_policy,
            clock=clock,
        )
        self.metrics = ServerMetrics()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        expression: str,
        context: FlexKey | None = None,
        optimize: bool = True,
        timeout_ms: float | None = None,
        max_pages: int | None = None,
        max_results: int | None = None,
        on_error: str | None = None,
    ) -> Future:
        """Admit one query; returns a Future of :class:`QueryOutcome`.

        Raises :class:`~repro.errors.ServerOverloadedError` *synchronously*
        when the wait queue is full (the client gets its retry-after hint
        without burning a worker), and
        :class:`~repro.errors.ServerClosedError` after :meth:`close`.
        """
        if self.closed:
            raise ServerClosedError()
        self.metrics.incr("submitted")
        try:
            self.admission.enqueue()
        except ServerOverloadedError:
            self.metrics.incr("shed")
            raise
        request = _Request(
            expression=expression,
            future=Future(),
            context=context,
            optimize=optimize,
            timeout_ms=(
                self.default_timeout_ms if timeout_ms is None else timeout_ms
            ),
            max_pages=(self.default_max_pages if max_pages is None else max_pages),
            max_results=(
                self.default_max_results if max_results is None else max_results
            ),
            on_error=self.default_on_error if on_error is None else on_error,
            enqueued_at=self.clock(),
        )
        # The closed re-check and the enqueue are one atomic step under
        # the close lock: ``close()`` sets ``_closed`` and pushes the stop
        # markers under the same lock, so a request can never land behind
        # them — which would strand its future forever once the workers
        # have exited.
        with self._close_lock:
            if self._closed:
                self.admission.abandon()
                raise ServerClosedError()
            self._queue.put(request)
        return request.future

    def evaluate(self, expression: str, **options) -> QueryOutcome:
        """Blocking :meth:`submit`; returns the outcome (or raises it)."""
        return self.submit(expression, **options).result()

    def apply_update(self, mutate: Callable[[MassStore], None]) -> int:
        """Publish one mutation batch; returns the new epoch.

        Serialized against other writers by the snapshot manager.  On an
        injected publish fault the update raises
        :class:`~repro.errors.TransientStorageError` and no new epoch is
        visible — callers may retry with
        :func:`~repro.resilience.with_retries`.
        """
        if self.closed:
            raise ServerClosedError()
        try:
            epoch = self.manager.publish(mutate)
        except ReproError:
            self.metrics.incr("update_failures")
            raise
        self.metrics.incr("updates_applied")
        return epoch

    def apply_update_pinned(
        self, mutate: Callable[[MassStore], None]
    ) -> tuple[int, StoreSnapshot | None]:
        """:meth:`apply_update`, pinning the published version.

        The caller owns the returned pin (None for a no-op publish) and
        must release it — the chaos harness uses this to keep historical
        epochs addressable for differential verification.
        """
        if self.closed:
            raise ServerClosedError()
        try:
            published = self.manager.publish_pinned(mutate)
        except ReproError:
            self.metrics.incr("update_failures")
            raise
        self.metrics.incr("updates_applied")
        return published

    def close(self, timeout_s: float | None = 30.0) -> None:
        """Stop accepting work, drain in-flight requests, join workers.

        Requests already admitted still run to completion; each worker
        exits when it drains to the stop marker behind them.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout_s)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._close_lock:
            return self._closed

    def stats(self) -> dict:
        """One atomic-ish view across the server's three accountants."""
        return {
            "workers": self.workers,
            "closed": self.closed,
            "requests": self.metrics.snapshot(),
            "admission": self.admission.stats(),
            "snapshots": self.manager.stats(),
        }

    # -- worker side ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is _STOP:
                break
            try:
                self._serve(request)
            except (QueryTimeoutError, BudgetExceededError, QueryCancelledError):
                # Guard errors are captured per-request in _execute; one
                # escaping to here is a bug that must stay loud.
                raise
            except Exception as error:  # defensive: never strand a future
                if not request.future.done():
                    request.future.set_exception(error)

    def _serve(self, request: _Request) -> None:
        self.admission.start()
        if not request.future.set_running_or_notify_cancel():
            self.admission.finish(0.0)
            return
        queued_s = max(0.0, self.clock() - request.enqueued_at)
        started = self.clock()
        outcome = self._execute(request, queued_s)
        outcome.service_s = max(0.0, self.clock() - started)
        self.admission.finish(outcome.service_s)
        self.metrics.record_outcome(outcome.ok, queued_s, outcome.service_s)
        if outcome.ok or request.on_error == "capture":
            request.future.set_result(outcome)
        else:
            request.future.set_exception(outcome.error)

    def _execute(self, request: _Request, queued_s: float) -> QueryOutcome:
        outcome = QueryOutcome(
            expression=request.expression, ok=False, queued_s=queued_s
        )
        remaining_ms: float | None = None
        if request.timeout_ms is not None:
            remaining_ms = request.timeout_ms - queued_s * 1000.0
            if remaining_ms <= 0.0:
                # The deadline expired while waiting for a worker: reject
                # without touching the store at all.
                self.metrics.incr("deadline_expired_in_queue")
                self.metrics.incr("timeouts")
                outcome.error = QueryTimeoutError(
                    request.timeout_ms, queued_s * 1000.0
                )
                outcome.partial = True
                return outcome
        snapshot = None
        try:
            try:
                snapshot = self.manager.acquire()
                outcome.epoch = snapshot.epoch
                self._maybe_crash_worker()
                engine = snapshot.engine
                plan, trace = engine.plan(request.expression, request.optimize)
                verdict = self.admission.assess_cost(
                    self._estimated_cost(engine, plan), excluding=1
                )
                max_pages = request.max_pages
                if verdict == DEGRADE:
                    outcome.degraded = True
                    self.metrics.incr("degraded")
                    max_pages = (
                        self.degrade_page_budget
                        if max_pages is None
                        else min(max_pages, self.degrade_page_budget)
                    )
                guard = None
                if (
                    remaining_ms is not None
                    or max_pages is not None
                    or request.max_results is not None
                ):
                    guard = QueryGuard(
                        timeout_ms=remaining_ms,
                        max_pages=max_pages,
                        max_results=request.max_results,
                    )
                outcome.result = engine.execute(
                    plan, request.context, trace, guard=guard
                )
                outcome.ok = True
            finally:
                if snapshot is not None and not snapshot.released:
                    try:
                        snapshot.release()
                    except ReproError as release_error:
                        self.metrics.incr("release_faults")
                        if outcome.ok:
                            # The query finished but its pin's release
                            # failed; surface the typed error rather than
                            # pretend the request was clean.
                            outcome.ok = False
                            outcome.result = None
                            outcome.error = release_error
        except ReproError as error:
            outcome.error = error
            outcome.result = None
            if isinstance(error, QueryTimeoutError):
                self.metrics.incr("timeouts")
                outcome.partial = True
            elif isinstance(error, BudgetExceededError):
                outcome.partial = True
            elif isinstance(error, ServerOverloadedError):
                self.metrics.incr("shed")
        return outcome

    def _maybe_crash_worker(self) -> None:
        if self.fault_injector is None:
            return
        try:
            self.fault_injector.on_access("worker.crash")
        except TransientStorageError:
            self.metrics.incr("worker_crashes")
            raise

    def _estimated_cost(self, engine, plan) -> int | None:
        """The optimizer's whole-plan cost, for the shedding decision.

        Estimation walks the (tiny) plan against the frozen store's
        statistics, so concurrent re-annotation writes identical values —
        cheap enough to recompute per request, and only computed at all
        when a shed limit is configured.
        """
        if self.admission.shed_cost_limit is None:
            return None
        engine.estimator.estimate(plan)
        return plan_cost(plan)
