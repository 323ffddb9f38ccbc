"""Query results and execution metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from repro.mass.axes import ScanCursors
from repro.mass.flexkey import FlexKey
from repro.mass.records import NodeRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mass.store import MassStore
    from repro.optimizer.optimizer import OptimizationTrace


@dataclass
class ExecutionMetrics:
    """What one query execution cost, in machine-independent units.

    Wall times are reported too, but the counters are the reproducible
    part: a plan that fetches fewer records and reads fewer pages is
    cheaper on 2005's Celeron and on today's hardware alike.
    """

    wall_seconds: float = 0.0
    optimize_seconds: float = 0.0
    tuples_returned: int = 0
    record_fetches: int = 0
    pages_read: int = 0
    logical_reads: int = 0
    key_comparisons: int = 0
    entries_scanned: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    counters: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"{self.tuples_returned} tuples in {self.wall_seconds * 1000:.2f} ms "
            f"(+{self.optimize_seconds * 1000:.2f} ms optimize); "
            f"{self.record_fetches} record fetches, "
            f"{self.logical_reads} page touches, "
            f"{self.entries_scanned} index entries scanned"
        )


class QueryResult:
    """A finished query: result keys in document order, without duplicates.

    Records materialise lazily — iterating keys costs nothing beyond the
    execution that already happened.
    """

    def __init__(
        self,
        store: "MassStore",
        keys: list[FlexKey],
        metrics: ExecutionMetrics,
        trace: "OptimizationTrace | None" = None,
        expression: str = "",
    ):
        self.store = store
        self.keys = keys
        self.metrics = metrics
        self.trace = trace
        self.expression = expression

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[FlexKey]:
        return iter(self.keys)

    def records(self) -> Iterator[NodeRecord]:
        """The result's records, in ``keys`` order.

        The keys are document-ordered, so this is one merge against the
        clustered node index (:meth:`MassStore.fetch_run`), not a look-up
        per key.
        """
        return self.store.fetch_run(self.keys)

    def string_values(self) -> list[str]:
        """The XPath string-value of every result node."""
        cursors = ScanCursors(self.store)
        return [self.store.string_value(key, cursors) for key in self.keys]

    def labels(self, limit: int | None = None) -> list[str]:
        """Short human-readable node labels (for examples and debugging).

        ``limit`` caps the list at the first ``limit`` results and fetches
        only those records.
        """
        return [record.label() for record in islice(self.records(), limit)]

    def key_set(self) -> frozenset[FlexKey]:
        return frozenset(self.keys)

    def to_xml(self) -> list[str]:
        """Serialize each result node's subtree back to XML text."""
        return [self.store.serialize_subtree(key) for key in self.keys]

    def __repr__(self) -> str:
        return f"<QueryResult {self.expression!r}: {len(self.keys)} nodes>"
