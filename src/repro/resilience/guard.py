"""Per-query resource governor.

The paper's scalability claim rests on operators that bound the work per
``next_block`` call; :class:`QueryGuard` turns that
property into an operational guarantee.  One guard travels with a query
through every pipelined operator (and into predicate sub-plans via the
expression evaluator / :class:`~repro.algebra.execution.EvalContext`),
and each ``next_block`` — plus every predicate
candidate, plus every 64 entries of a coalesced batch scan — calls
:meth:`QueryGuard.checkpoint`.  Because no operator does unbounded work
between checkpoints, a violated limit surfaces within a bounded number of
index operations, independent of document size.

Limits (all optional, combinable):

* **deadline** — wall-clock budget in milliseconds (``timeout_ms``),
* **page budget** — logical page reads charged against the bound store's
  :class:`~repro.mass.pages.PageStats` (``max_pages``),
* **result cap** — tuples the root operator may emit (``max_results``),
* **cancellation** — a cooperative flag another thread/owner may set via
  :meth:`cancel`.

The clock is injectable so tests exercise deadlines deterministically.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    BudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mass.store import MassStore


class QueryGuard:
    """Deadline, page-read budget, result cap and cancellation for one query."""

    __slots__ = (
        "timeout_ms",
        "max_pages",
        "max_results",
        "clock",
        "_started",
        "_deadline",
        "_page_stats",
        "_pages_base",
        "_results",
        "_cancelled",
        "checkpoints",
    )

    def __init__(
        self,
        timeout_ms: float | None = None,
        max_pages: int | None = None,
        max_results: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
        if max_pages is not None and max_pages < 0:
            raise ValueError(f"max_pages must be >= 0, got {max_pages}")
        if max_results is not None and max_results < 0:
            raise ValueError(f"max_results must be >= 0, got {max_results}")
        self.timeout_ms = timeout_ms
        self.max_pages = max_pages
        self.max_results = max_results
        self.clock = clock
        self._started = clock()
        self._deadline = (
            self._started + timeout_ms / 1000.0 if timeout_ms is not None else None
        )
        self._page_stats = None
        self._pages_base = 0
        self._results = 0
        self._cancelled = False
        #: Total checkpoint calls — a cheap proxy for "work performed",
        #: useful when asserting that enforcement happened in bounded time.
        self.checkpoints = 0

    # -- lifecycle ----------------------------------------------------------

    def bind(self, store: "MassStore") -> "QueryGuard":
        """Attach to a store and restart the clock: execution begins now.

        Binding captures the store's current logical-read counter so the
        page budget charges only pages this query touches.
        """
        self._page_stats = store.pages.stats
        self._pages_base = self._page_stats.logical_reads
        self._started = self.clock()
        if self.timeout_ms is not None:
            self._deadline = self._started + self.timeout_ms / 1000.0
        return self

    def cancel(self) -> None:
        """Cooperatively cancel: the next checkpoint raises."""
        self._cancelled = True

    # -- accounting ---------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def elapsed_ms(self) -> float:
        return (self.clock() - self._started) * 1000.0

    def remaining_ms(self) -> float | None:
        """Milliseconds left before the deadline; None without one.

        Never negative — an expired deadline reports 0.0, which retry
        wrappers treat as "do not sleep, re-raise now".
        """
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self.clock()) * 1000.0)

    def pages_used(self) -> int:
        if self._page_stats is None:
            return 0
        return self._page_stats.logical_reads - self._pages_base

    def results_used(self) -> int:
        return self._results

    # -- enforcement --------------------------------------------------------

    def checkpoint(self) -> None:
        """Raise the matching typed error if any limit is violated.

        Called from every ``Operator.next_block`` and once per predicate
        candidate, so it must stay cheap: a few attribute loads and
        comparisons, one clock read when a deadline is set.
        """
        self.checkpoints += 1
        if self._cancelled:
            raise QueryCancelledError()
        if self._deadline is not None:
            now = self.clock()
            if now > self._deadline:
                raise QueryTimeoutError(
                    self.timeout_ms, (now - self._started) * 1000.0
                )
        if self.max_pages is not None and self._page_stats is not None:
            used = self._page_stats.logical_reads - self._pages_base
            if used > self.max_pages:
                raise BudgetExceededError("page-read", used, self.max_pages)

    def tally_result(self) -> None:
        """Count one emitted result tuple and re-check all limits."""
        self._results += 1
        if self.max_results is not None and self._results > self.max_results:
            raise BudgetExceededError("result", self._results, self.max_results)
        self.checkpoint()

    def __repr__(self) -> str:
        limits = []
        if self.timeout_ms is not None:
            limits.append(f"timeout={self.timeout_ms:.0f}ms")
        if self.max_pages is not None:
            limits.append(f"max_pages={self.max_pages}")
        if self.max_results is not None:
            limits.append(f"max_results={self.max_results}")
        if self._cancelled:
            limits.append("cancelled")
        return f"<QueryGuard {' '.join(limits) or 'unlimited'}>"
