"""Pipelined, index-driven plan execution (Section VII, Algorithms 1 & 2).

Every tuple-producing plan node becomes a stateful operator with the
paper's three states:

* ``INITIAL`` — never asked for a tuple,
* ``FETCHING`` — iterating the index, or waiting on its context child /
  predicate evaluation,
* ``OUT_OF_TUPLES`` — both the index range and the context child are
  exhausted.

Operators exchange FLEX keys, not materialised nodes: a record is fetched
from the node index only when a predicate needs a string value or the
caller asks for records (the paper's "document nodes do not need to be
materialised … unless they are actually used").

The exchange protocol is **block-at-a-time**: :meth:`Operator.next_block`
moves up to ``max_n`` keys per call, amortizing interpreter dispatch,
guard checkpoints and (through each step's :class:`ScanCursors`) B+-tree
positioning across a whole block.  Lazy consumers — predicate evaluation,
:meth:`Operator.iterate` — pull ``next_block(1)``, which walks the paper's
one-tuple state sequence.  Eligible descendant/following steps
additionally *coalesce* a document-ordered context block into disjoint
byte-range spans before scanning (see :func:`repro.mass.axes.coalesced_spans`).

Predicate expressions are evaluated per candidate tuple by dynamically
setting the context of the predicate path's leaf operator (Section V-B)
and follow full XPath 1.0 value semantics: existential node-set
comparisons, numeric coercion for relational operators, the number-rule
for positional predicates (``[3]`` ≡ ``[position() = 3]``), and the core
function library.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.guard import QueryGuard

from repro.errors import ExecutionError, PlanError
from repro.mass.axes import (
    ScanCursors,
    axis_count_exact,
    coalesced_spans,
    scan_coalesced,
)
from repro.mass.flexkey import FlexKey
from repro.mass.indexes import index_name_for_test
from repro.mass.records import NodeKind
from repro.mass.store import MassStore
from repro.model import Axis
from repro.algebra.plan import (
    BinaryPredicateNode,
    ExistsNode,
    ExprNode,
    FunctionNode,
    FusedPathScanNode,
    JoinNode,
    LiteralNode,
    NegateNode,
    NumberNode,
    PathExprNode,
    PlanNode,
    QueryPlan,
    RootNode,
    StepNode,
    UnionNode,
    ValueStepNode,
)


class OperatorState(Enum):
    INITIAL = "INITIAL"
    FETCHING = "FETCHING"
    OUT_OF_TUPLES = "OUT_OF_TUPLES"


#: Fallback block size when the cost estimator has no cardinality to offer.
DEFAULT_BLOCK_SIZE = 256


#: Axes whose context batches may be coalesced into disjoint spans.
_COALESCE_AXES = frozenset(
    {Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.FOLLOWING}
)

#: Axes a single-context (leaf) step emits in forward document order.
_REVERSE_AXES = frozenset(
    {Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF, Axis.PRECEDING, Axis.PRECEDING_SIBLING}
)


def dedup_document_order(keys: "Iterator[FlexKey] | list[FlexKey]") -> list[FlexKey]:
    """Distinct keys in document order.

    Keys dedup and sort on their cached :attr:`FlexKey.sort_bytes` image:
    flat ``bytes`` hash and compare at C speed, where hashing the nested
    component tuples re-walks every integer per probe.
    """
    unique = {key.sort_bytes: key for key in keys}
    return [unique[encoded] for encoded in sorted(unique)]


# -- value model ------------------------------------------------------------------


class NodeSetValue:
    """A lazily re-iterable node-set produced by a predicate path.

    ``count_fast`` is an optional index-only counting shortcut: a callable
    returning the exact cardinality via B+-tree range counts (or None when
    it cannot be sure), wired up when the path is a bare axis step with no
    predicates.  ``count()`` then never materialises a key — the paper's
    O(log n) counting contract.

    ``distinct`` says the pipeline emits every node once.  A multi-step
    path does not (nested contexts reach the same node repeatedly), so the
    consumers whose answer depends on multiplicity — ``count()`` and
    ``string_values()`` (``sum()``) — drop repeats themselves.
    """

    def __init__(
        self,
        iterate: Callable[[], Iterator[FlexKey]],
        store: MassStore,
        count_fast: "Callable[[], int | None] | None" = None,
        distinct: bool = True,
        cursors: ScanCursors | None = None,
    ):
        self._iterate = iterate
        self._store = store
        self._count_fast = count_fast
        self._distinct = distinct
        #: Shared by every string-value read of the owning evaluator, so
        #: consecutive candidates resume instead of re-descending.
        self._cursors = cursors

    def keys(self) -> Iterator[FlexKey]:
        """The raw pipeline emission (may repeat nodes unless distinct)."""
        return self._iterate()

    def _distinct_keys(self) -> Iterator[FlexKey]:
        """Each node once, lazily, in first-emission order."""
        if self._distinct:
            return self._iterate()
        return _first_occurrences(self._iterate())

    def is_empty(self) -> bool:
        for _ in self._iterate():
            return False
        return True

    def count(self) -> int:
        if self._count_fast is not None:
            count = self._count_fast()
            if count is not None:
                return count
        return sum(1 for _ in self._distinct_keys())

    def first_key(self) -> FlexKey | None:
        """First node in *document* order (XPath's string() rule)."""
        best: FlexKey | None = None
        best_bytes = b""
        for key in self._iterate():
            encoded = key.sort_bytes
            if best is None or encoded < best_bytes:
                best = key
                best_bytes = encoded
        return best

    def string_values(self) -> Iterator[str]:
        for key in self._distinct_keys():
            yield self._store.string_value(key, self._cursors)


def _first_occurrences(keys: Iterator[FlexKey]) -> Iterator[FlexKey]:
    seen: set[bytes] = set()
    for key in keys:
        encoded = key.sort_bytes
        if encoded not in seen:
            seen.add(encoded)
            yield key


XPathValue = "bool | float | str | NodeSetValue"


def to_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return bool(value)
    if isinstance(value, NodeSetValue):
        return not value.is_empty()
    raise ExecutionError(f"cannot convert {type(value).__name__} to boolean")


def to_number(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return float(value.strip())
        except ValueError:
            return math.nan
    if isinstance(value, NodeSetValue):
        return to_number(to_string(value))
    raise ExecutionError(f"cannot convert {type(value).__name__} to number")


def to_string(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, NodeSetValue):
        first = value.first_key()
        return "" if first is None else value._store.string_value(first, value._cursors)
    raise ExecutionError(f"cannot convert {type(value).__name__} to string")


# -- evaluation context --------------------------------------------------------------


class EvalContext:
    """Per-candidate evaluation state for predicate expressions.

    ``guard`` is the query's :class:`~repro.resilience.QueryGuard` (or
    None): predicate evaluation happening under this context checkpoints
    against it, so resource limits reach into nested sub-plans too.
    """

    __slots__ = ("store", "key", "position", "_last", "guard")

    def __init__(
        self,
        store: MassStore,
        key: FlexKey,
        position: int = 1,
        last: Callable[[], int] | int = 1,
        guard: "QueryGuard | None" = None,
    ):
        self.store = store
        self.key = key
        self.position = position
        self._last = last
        self.guard = guard

    def last(self) -> int:
        if callable(self._last):
            self._last = self._last()
        return self._last


# -- operators ----------------------------------------------------------------------


class Operator:
    """Base of the pipelined operators; subclasses fill ``next_block``.

    ``guard`` is the query's resource governor (or None).  Every
    ``next_block`` implementation checkpoints it first thing; because no
    operator does unbounded work between two checkpoints (batched scans
    checkpoint internally every few dozen entries), a violated limit
    (deadline, page budget, cancellation) surfaces within a bounded
    number of index operations.

    ``emits_prefix_monotone`` advertises an output-order guarantee: any
    emitted key below the running byte maximum is a descendant-or-self of
    an earlier emitted key.  Consumers use it to decide whether the
    high-water coverage rule of context coalescing is sound.
    """

    emits_prefix_monotone = False

    def __init__(self, store: MassStore, guard: "QueryGuard | None" = None):
        self.store = store
        self.guard = guard
        self.state = OperatorState.INITIAL

    def reset(self, context: FlexKey | None) -> None:
        """(Re-)arm the operator with a fresh leaf context."""
        raise NotImplementedError

    def next_block(self, max_n: int) -> list[FlexKey]:
        """Up to ``max_n`` result keys in pipeline order.

        A block shorter than ``max_n`` means the operator is out of
        tuples; every later call returns ``[]``.
        """
        raise NotImplementedError

    def iterate(self) -> Iterator[FlexKey]:
        """Lazy one-key-at-a-time pull, for consumers that may stop early
        (predicates): no more index work happens than the keys taken."""
        guard = self.guard
        while True:
            if guard is not None:
                guard.checkpoint()
            block = self.next_block(1)
            if not block:
                return
            yield block[0]


def _drain_blocks(operator: Operator, size: int) -> Iterator[FlexKey]:
    """Everything ``operator`` has left, pulled ``size`` keys at a time.

    For operators that materialise an input wholesale (union build, join
    build/probe) — laziness is already forfeited there, so block pulls are
    pure dispatch savings.
    """
    size = max(size, 2)
    while True:
        block = operator.next_block(size)
        yield from block
        if len(block) < size:
            return


class StepOperator(Operator):
    """``φ^{axis::nodetest}`` — Algorithm 1 (Execute) and 2 (GetNextContext).

    A *leaf* step (no context child) consumes the context the engine or
    the enclosing predicate evaluation set via :meth:`reset`; a non-leaf
    step pulls context tuples from its child on demand, so the whole chain
    is fully pipelined.
    """

    def __init__(
        self,
        store: MassStore,
        plan: StepNode,
        context_child: "Operator | None",
        predicates: list["CompiledPredicate"],
        guard: "QueryGuard | None" = None,
        coalesce: bool = False,
    ):
        super().__init__(store, guard)
        self.plan = plan
        self.context_child = context_child
        self.predicates = predicates
        #: May context blocks be coalesced into disjoint spans?  Only sound
        #: when the pipeline's consumer deduplicates.
        self.coalesce = coalesce
        self._leaf_context: FlexKey | None = None
        self._leaf_consumed = False
        self._candidates: Iterator[FlexKey] | None = None
        #: Skip-ahead cursors shared by every scan this step issues.
        self._cursors = ScanCursors(store)
        #: High-water mark of the byte ranges already scanned by coalesced
        #: batches (see :func:`repro.mass.axes.coalesced_spans`).
        self._covered = None
        if context_child is None:
            self.emits_prefix_monotone = plan.axis not in _REVERSE_AXES
        else:
            # Descendant/following hits of prefix-monotone contexts only
            # ever regress into an earlier context's subtree, where every
            # hit is a duplicate; predicates break that (positions differ
            # per context, so a duplicate may surface as a fresh key).
            self.emits_prefix_monotone = (
                not predicates
                and plan.axis in _COALESCE_AXES
                and context_child.emits_prefix_monotone
            )

    def reset(self, context: FlexKey | None) -> None:
        self.state = OperatorState.INITIAL
        self._candidates = None
        self._covered = None
        if self.context_child is not None:
            self.context_child.reset(context)
            self._leaf_context = None
        else:
            self._leaf_context = context
        self._leaf_consumed = False

    def _get_next_context(self) -> FlexKey | None:
        """Algorithm 2: advance to the next context node."""
        if self.context_child is None:
            if self._leaf_consumed or self._leaf_context is None:
                return None
            self._leaf_consumed = True
            return self._leaf_context
        if self.guard is not None:
            self.guard.checkpoint()
        block = self.context_child.next_block(1)
        return block[0] if block else None

    def _axis_hits(self, context: FlexKey) -> Iterator[FlexKey]:
        for key, _record in self.store.axis(
            context, self.plan.axis, self.plan.test, self._cursors
        ):
            yield key

    def _filtered_candidates(self, context: FlexKey) -> Iterator[FlexKey]:
        """Axis hits for one context, run through the predicate stages."""
        candidates: Iterator[FlexKey] = self._axis_hits(context)
        for predicate in self.predicates:
            candidates = predicate.filter(self.store, candidates)
        return candidates

    # -- batched path --------------------------------------------------------

    def _batch_ok(self, max_n: int) -> bool:
        """May this call serve a whole context block from coalesced spans?

        Beyond the block-size gate (a lazy one-key pull must do one
        context's work, not a block's) and the dedup gate: no predicates
        (they are per-context, and coalescing drops contexts), a
        coalescible axis, and a prefix-monotone context stream (the
        coverage rule's soundness condition).  DESCENDANT_OR_SELF
        additionally needs an index-resolvable test: its self hits for
        attribute contexts come from a record fetch, which only the
        per-context path performs.
        """
        if max_n <= 1 or not self.coalesce or self.predicates:
            return False
        if self.context_child is not None and not self.context_child.emits_prefix_monotone:
            return False
        axis = self.plan.axis
        if axis in (Axis.DESCENDANT, Axis.FOLLOWING):
            return True
        if axis is Axis.DESCENDANT_OR_SELF:
            return index_name_for_test(self.plan.test, axis.principal_kind) is not None
        return False

    def _next_context_block(self, max_n: int) -> list[FlexKey]:
        if self.context_child is None:
            if self._leaf_consumed or self._leaf_context is None:
                return []
            self._leaf_consumed = True
            return [self._leaf_context]
        if self.plan.axis is Axis.FOLLOWING:
            # Following ranges are suffixes of the document: block-wise
            # evaluation would rescan ever-larger overlaps, so drain the
            # context child and answer with one open span.
            contexts: list[FlexKey] = []
            while True:
                got = self.context_child.next_block(max(max_n, DEFAULT_BLOCK_SIZE))
                contexts.extend(got)
                if len(got) < max(max_n, DEFAULT_BLOCK_SIZE):
                    return contexts
        return self.context_child.next_block(max_n)

    def _batched_candidates(self, contexts: list[FlexKey]) -> Iterator[FlexKey]:
        contexts.sort(key=lambda key: key.sort_bytes)
        spans, self._covered = coalesced_spans(
            self.store, self.plan.axis, contexts, self._covered
        )
        return scan_coalesced(
            self.store, self.plan.axis, self.plan.test, spans, self._cursors, self.guard
        )

    def next_block(self, max_n: int) -> list[FlexKey]:
        guard = self.guard
        block: list[FlexKey] = []
        while self.state is not OperatorState.OUT_OF_TUPLES:
            if guard is not None:
                guard.checkpoint()
            if self._candidates is None:
                if self._batch_ok(max_n):
                    contexts = self._next_context_block(max_n)
                    if not contexts:
                        self.state = OperatorState.OUT_OF_TUPLES
                        break
                    self.state = OperatorState.FETCHING
                    self._candidates = self._batched_candidates(contexts)
                else:
                    context = self._get_next_context()
                    if context is None:
                        self.state = OperatorState.OUT_OF_TUPLES
                        break
                    self.state = OperatorState.FETCHING
                    self._candidates = self._filtered_candidates(context)
            block.extend(islice(self._candidates, max_n - len(block)))
            if len(block) >= max_n:
                return block
            self._candidates = None
        return block


class ValueStepOperator(Operator):
    """``φ^{value::'v'}`` — leaf step over the value index (Figure 9)."""

    # One fixed value's index entries arrive in ascending key order.
    emits_prefix_monotone = True

    def __init__(
        self,
        store: MassStore,
        value: str,
        predicates: list["CompiledPredicate"],
        text_only: bool = True,
        guard: "QueryGuard | None" = None,
    ):
        super().__init__(store, guard)
        self.value = value
        self.text_only = text_only
        self.predicates = predicates
        self._candidates: Iterator[FlexKey] | None = None
        self._armed = False

    def reset(self, context: FlexKey | None) -> None:
        # The value index is document-global; the context only arms the
        # operator (one full pass per context, mirroring a leaf step).
        self.state = OperatorState.INITIAL
        self._candidates = None
        self._armed = context is not None

    def _value_hits(self) -> Iterator[FlexKey]:
        for key, kind in self.store.value_keys(self.value):
            if self.text_only and kind is not NodeKind.TEXT:
                continue
            yield key

    def next_block(self, max_n: int) -> list[FlexKey]:
        if self.guard is not None:
            self.guard.checkpoint()
        if self.state is OperatorState.OUT_OF_TUPLES or not self._armed:
            return []
        if self._candidates is None:
            self.state = OperatorState.FETCHING
            candidates: Iterator[FlexKey] = self._value_hits()
            for predicate in self.predicates:
                candidates = predicate.filter(self.store, candidates)
            self._candidates = candidates
        block = list(islice(self._candidates, max_n))
        if len(block) < max_n:
            self.state = OperatorState.OUT_OF_TUPLES
        return block


class UnionOperator(Operator):
    """Document-order, duplicate-free union of branch results."""

    # Output is materialised sorted-distinct before the first emit.
    emits_prefix_monotone = True

    def __init__(
        self,
        store: MassStore,
        branches: list[Operator],
        guard: "QueryGuard | None" = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        super().__init__(store, guard)
        self.branches = branches
        self.block_size = block_size
        self._result: Iterator[FlexKey] | None = None

    def reset(self, context: FlexKey | None) -> None:
        self.state = OperatorState.INITIAL
        self._result = None
        for branch in self.branches:
            branch.reset(context)

    def next_block(self, max_n: int) -> list[FlexKey]:
        if self.guard is not None:
            self.guard.checkpoint()
        if self.state is OperatorState.OUT_OF_TUPLES:
            return []
        if self._result is None:
            self.state = OperatorState.FETCHING
            merged: dict[bytes, FlexKey] = {}
            for branch in self.branches:
                for key in _drain_blocks(branch, self.block_size):
                    merged.setdefault(key.sort_bytes, key)
            self._result = iter(
                [merged[encoded] for encoded in sorted(merged)]
            )
        block = list(islice(self._result, max_n))
        if len(block) < max_n:
            self.state = OperatorState.OUT_OF_TUPLES
        return block


class JoinOperator(Operator):
    """``J^cond`` — joins two context children, emitting matching right
    tuples (document order, distinct).

    The left side is materialised once into the form the condition needs
    (a value set or a key list); the right side then streams against it —
    the conventional build/probe split.
    """

    # Output is materialised sorted-distinct before the first emit.
    emits_prefix_monotone = True

    def __init__(
        self,
        store: MassStore,
        left: Operator,
        right: Operator,
        condition: str,
        guard: "QueryGuard | None" = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ):
        super().__init__(store, guard)
        self.left = left
        self.right = right
        self.condition = condition
        self.block_size = block_size
        self._result: Iterator[FlexKey] | None = None

    def reset(self, context: FlexKey | None) -> None:
        self.state = OperatorState.INITIAL
        self._result = None
        self.left.reset(context)
        self.right.reset(context)

    def _matches(self) -> Iterator[FlexKey]:
        left_keys = list(_drain_blocks(self.left, self.block_size))
        right_keys = _drain_blocks(self.right, self.block_size)
        if self.condition == "value-eq":
            build = {self.store.string_value(key) for key in left_keys}
            for key in right_keys:
                if self.store.string_value(key) in build:
                    yield key
        elif self.condition == "ancestor":
            build = {key.sort_bytes for key in left_keys}
            for key in right_keys:
                if any(ancestor.sort_bytes in build for ancestor in key.ancestors()):
                    yield key
        else:  # precedes
            if not left_keys:
                return
            earliest = min(left_keys)
            for key in right_keys:
                if earliest < key and not earliest.is_ancestor_of(key):
                    yield key

    def next_block(self, max_n: int) -> list[FlexKey]:
        if self.guard is not None:
            self.guard.checkpoint()
        if self.state is OperatorState.OUT_OF_TUPLES:
            return []
        if self._result is None:
            self.state = OperatorState.FETCHING
            self._result = iter(dedup_document_order(self._matches()))
        block = list(islice(self._result, max_n))
        if len(block) < max_n:
            self.state = OperatorState.OUT_OF_TUPLES
        return block


class RootOperator(Operator):
    """``R1`` — passes its context child's tuples through."""

    def __init__(
        self,
        store: MassStore,
        child: Operator | None,
        guard: "QueryGuard | None" = None,
    ):
        super().__init__(store, guard)
        self.child = child
        self.emits_prefix_monotone = (
            child is None or child.emits_prefix_monotone
        )

    def reset(self, context: FlexKey | None) -> None:
        self.state = OperatorState.INITIAL
        if self.child is not None:
            self.child.reset(context)

    def next_block(self, max_n: int) -> list[FlexKey]:
        if self.guard is not None:
            self.guard.checkpoint()
        if self.child is None or self.state is OperatorState.OUT_OF_TUPLES:
            self.state = OperatorState.OUT_OF_TUPLES
            return []
        self.state = OperatorState.FETCHING
        block = self.child.next_block(max_n)
        if len(block) < max_n:
            self.state = OperatorState.OUT_OF_TUPLES
        return block


# -- predicates -----------------------------------------------------------------------


def _expr_uses_last(expr: ExprNode) -> bool:
    if isinstance(expr, FunctionNode) and expr.name == "last":
        return True
    for child in expr.children():
        if isinstance(child, ExprNode) and _expr_uses_last(child):
            return True
    return False


def _position_stop_bound(expr: ExprNode) -> int | None:
    """The largest position a predicate can accept, if statically known.

    ``[3]`` accepts only position 3; ``[position() <= k]`` and
    ``[position() < k]`` accept nothing past k.  Knowing the bound lets
    the stage stop pulling candidates from the index — the "position
    predicates with use of clustered indexes" support the paper claims.
    """
    if isinstance(expr, NumberNode):
        if expr.value == int(expr.value) and expr.value >= 1:
            return int(expr.value)
        return 0  # a non-integral position matches nothing
    if isinstance(expr, BinaryPredicateNode):
        sides = (expr.left, expr.right)
        position = next(
            (side for side in sides
             if isinstance(side, FunctionNode) and side.name == "position"),
            None,
        )
        number = next((side for side in sides if isinstance(side, NumberNode)), None)
        if position is None or number is None:
            return None
        # normalise to position OP number
        op = expr.op
        if sides[0] is number:
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        value = number.value
        if op == "=":
            return int(value) if value == int(value) and value >= 1 else 0
        if op == "<=":
            return max(0, int(math.floor(value)))
        if op == "<":
            bound = math.ceil(value) - 1 if value == int(value) else math.floor(value)
            return max(0, int(bound))
    return None


class CompiledPredicate:
    """One predicate stage of a step operator.

    Implements the XPath filtering rule: evaluate the expression for every
    candidate with ``position()`` = its 1-based index in this stage (in
    axis order); a numeric result keeps only that position, anything else
    is taken as a boolean.  Stages that mention ``last()`` buffer the
    stage input (the only place pipelining must pause); stages with a
    statically-known position ceiling stop pulling candidates at it.
    """

    def __init__(self, expr: ExprNode, evaluator: "ExpressionEvaluator"):
        self.expr = expr
        self.evaluator = evaluator
        self.uses_last = _expr_uses_last(expr)
        self.stop_after = None if self.uses_last else _position_stop_bound(expr)

    def _keep(self, store: MassStore, key: FlexKey, position: int, last) -> bool:
        context = EvalContext(store, key, position, last, guard=self.evaluator.guard)
        value = self.evaluator.evaluate(self.expr, context)
        if isinstance(value, float):
            return float(position) == value
        return to_boolean(value)

    def filter(
        self, store: MassStore, candidates: Iterator[FlexKey]
    ) -> Iterator[FlexKey]:
        # Checkpoint per candidate, not per accepted tuple: a predicate
        # that rejects almost everything must still hit the governor.
        guard = self.evaluator.guard
        if self.uses_last:
            buffered = list(candidates)
            total = len(buffered)
            for position, key in enumerate(buffered, start=1):
                if guard is not None:
                    guard.checkpoint()
                if self._keep(store, key, position, total):
                    yield key
            return
        position = 0
        for key in candidates:
            position += 1
            if guard is not None:
                guard.checkpoint()
            if self._keep(store, key, position, _no_last):
                yield key
            if self.stop_after is not None and position >= self.stop_after:
                return  # no later candidate can satisfy the position bound


def _no_last() -> int:
    raise ExecutionError("last() used in a non-buffered predicate stage")


class ExpressionEvaluator:
    """Evaluates predicate-expression trees against an :class:`EvalContext`.

    ``block_size`` and ``coalesce`` are the pipeline settings the sub-plans
    it builds for path expressions run under — those of the enclosing plan
    when there is one (:func:`execute_plan` coalesces exactly when the plan
    root deduplicates).
    """

    def __init__(
        self,
        store: MassStore,
        guard: "QueryGuard | None" = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        coalesce: bool = False,
    ):
        self.store = store
        self.guard = guard
        self.block_size = block_size
        self.coalesce = coalesce
        #: One operator tree per predicate path, re-armed per candidate, so
        #: its cursors resume across the candidates of the enclosing step.
        self._operators: dict[PlanNode, Operator] = {}
        #: Cursors for string-value reads (see :class:`NodeSetValue`).
        self._cursors = ScanCursors(store)

    # -- dispatch -----------------------------------------------------------

    def evaluate(self, expr: ExprNode, context: EvalContext):
        if isinstance(expr, LiteralNode):
            return expr.value
        if isinstance(expr, NumberNode):
            return expr.value
        if isinstance(expr, ExistsNode):
            return not self._node_set(expr.path, context).is_empty()
        if isinstance(expr, PathExprNode):
            return self._node_set(expr.path, context)
        if isinstance(expr, NegateNode):
            return -to_number(self.evaluate(expr.operand, context))
        if isinstance(expr, BinaryPredicateNode):
            return self._binary(expr, context)
        if isinstance(expr, FunctionNode):
            return self._function(expr, context)
        raise ExecutionError(f"cannot evaluate {type(expr).__name__}")

    # -- node sets ------------------------------------------------------------

    def _node_set(self, path: PlanNode, context: EvalContext) -> NodeSetValue:
        operator = self._operators.get(path)
        if operator is None:
            operator = build_operators(self.store, path, self)
            self._operators[path] = operator
        key = context.key

        def iterate() -> Iterator[FlexKey]:
            operator.reset(key)
            return operator.iterate()

        count_fast = None
        if (
            isinstance(path, StepNode)
            and path.context_child is None
            and not path.predicates
        ):
            # A bare axis step: count() can try the index-only range count
            # (exact for descendant/following ranges) and skip iteration.
            store, axis, test = self.store, path.axis, path.test

            def count_fast() -> int | None:
                return axis_count_exact(store, key, axis, test)

        # Only a step fed by another step can reach a node twice: a lone
        # step scans one context, and the other operators emit distinct.
        distinct = not isinstance(path, StepNode) or path.context_child is None
        return NodeSetValue(iterate, self.store, count_fast, distinct, self._cursors)

    # -- binary operators --------------------------------------------------------

    def _binary(self, expr: BinaryPredicateNode, context: EvalContext):
        op = expr.op
        if op == "and":
            return to_boolean(self.evaluate(expr.left, context)) and to_boolean(
                self.evaluate(expr.right, context)
            )
        if op == "or":
            return to_boolean(self.evaluate(expr.left, context)) or to_boolean(
                self.evaluate(expr.right, context)
            )
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("=", "!="):
            return self._equality(op, left, right)
        if op in ("<", "<=", ">", ">="):
            return self._relational(op, left, right)
        return self._arithmetic(op, left, right)

    def _equality(self, op: str, left, right) -> bool:
        if isinstance(left, NodeSetValue) or isinstance(right, NodeSetValue):
            return self._node_set_compare(op, left, right)
        if isinstance(left, bool) or isinstance(right, bool):
            result = to_boolean(left) == to_boolean(right)
        elif isinstance(left, float) or isinstance(right, float):
            result = to_number(left) == to_number(right)
        else:
            result = to_string(left) == to_string(right)
        return result if op == "=" else not result

    def _relational(self, op: str, left, right) -> bool:
        if isinstance(left, NodeSetValue) or isinstance(right, NodeSetValue):
            return self._node_set_compare(op, left, right)
        return _numeric_compare(op, to_number(left), to_number(right))

    def _node_set_compare(self, op: str, left, right) -> bool:
        """Existential node-set comparison semantics of XPath 1.0."""
        if isinstance(left, NodeSetValue) and isinstance(right, NodeSetValue):
            right_values = list(right.string_values())
            for left_value in left.string_values():
                for right_value in right_values:
                    if _string_pair_compare(op, left_value, right_value):
                        return True
            return False
        if isinstance(right, NodeSetValue):
            flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
            return self._node_set_compare(flipped, right, left)
        assert isinstance(left, NodeSetValue)
        if isinstance(right, bool):
            return _boolean_pair_compare(op, to_boolean(left), right)
        for value in left.string_values():
            if isinstance(right, float):
                if _numeric_compare_eq(op, to_number(value), right):
                    return True
            elif op in ("=", "!="):
                if (value == right) == (op == "="):
                    return True
            else:
                if _numeric_compare(op, to_number(value), to_number(right)):
                    return True
        return False

    def _arithmetic(self, op: str, left, right) -> float:
        a = to_number(left)
        b = to_number(right)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "div":
            if b == 0:
                return math.nan if a == 0 else math.copysign(math.inf, a)
            return a / b
        if op == "mod":
            if b == 0:
                return math.nan
            return math.fmod(a, b)
        raise ExecutionError(f"unknown operator {op!r}")

    # -- functions ----------------------------------------------------------------

    def _function(self, expr: FunctionNode, context: EvalContext):
        name = expr.name
        args = expr.args
        if name == "position":
            return float(context.position)
        if name == "last":
            return float(context.last())
        if name == "count":
            value = self.evaluate(args[0], context)
            if not isinstance(value, NodeSetValue):
                raise ExecutionError("count() requires a node-set")
            return float(value.count())
        if name == "not":
            return not to_boolean(self.evaluate(args[0], context))
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "contains":
            return to_string(self.evaluate(args[0], context)) .find(
                to_string(self.evaluate(args[1], context))
            ) >= 0
        if name == "starts-with":
            return to_string(self.evaluate(args[0], context)).startswith(
                to_string(self.evaluate(args[1], context))
            )
        if name == "string":
            if not args:
                return self.store.string_value(context.key, self._cursors)
            return to_string(self.evaluate(args[0], context))
        if name == "number":
            if not args:
                return to_number(self.store.string_value(context.key, self._cursors))
            return to_number(self.evaluate(args[0], context))
        if name == "string-length":
            if not args:
                return float(len(self.store.string_value(context.key, self._cursors)))
            return float(len(to_string(self.evaluate(args[0], context))))
        if name == "normalize-space":
            text = (
                self.store.string_value(context.key, self._cursors)
                if not args
                else to_string(self.evaluate(args[0], context))
            )
            return " ".join(text.split())
        if name in ("name", "local-name"):
            key = context.key
            if args:
                value = self.evaluate(args[0], context)
                if not isinstance(value, NodeSetValue):
                    raise ExecutionError(f"{name}() requires a node-set")
                key = value.first_key()
                if key is None:
                    return ""
            record = self.store.require(key)
            if name == "local-name" and ":" in record.name:
                return record.name.split(":", 1)[1]
            return record.name
        if name == "concat":
            return "".join(to_string(self.evaluate(arg, context)) for arg in args)
        if name == "sum":
            value = self.evaluate(args[0], context)
            if not isinstance(value, NodeSetValue):
                raise ExecutionError("sum() requires a node-set")
            return float(sum(to_number(text) for text in value.string_values()))
        if name == "boolean":
            return to_boolean(self.evaluate(args[0], context))
        if name == "substring":
            return _substring(
                to_string(self.evaluate(args[0], context)),
                to_number(self.evaluate(args[1], context)),
                to_number(self.evaluate(args[2], context)) if len(args) > 2 else None,
            )
        if name == "substring-before":
            haystack = to_string(self.evaluate(args[0], context))
            needle = to_string(self.evaluate(args[1], context))
            index = haystack.find(needle)
            return haystack[:index] if index >= 0 else ""
        if name == "substring-after":
            haystack = to_string(self.evaluate(args[0], context))
            needle = to_string(self.evaluate(args[1], context))
            index = haystack.find(needle)
            return haystack[index + len(needle):] if index >= 0 else ""
        if name == "translate":
            return _translate(
                to_string(self.evaluate(args[0], context)),
                to_string(self.evaluate(args[1], context)),
                to_string(self.evaluate(args[2], context)),
            )
        if name == "floor":
            return float(math.floor(to_number(self.evaluate(args[0], context))))
        if name == "ceiling":
            return float(math.ceil(to_number(self.evaluate(args[0], context))))
        if name == "round":
            number = to_number(self.evaluate(args[0], context))
            if math.isnan(number) or math.isinf(number):
                return number
            return float(math.floor(number + 0.5))
        raise ExecutionError(f"unimplemented function {name}()")


def _round_half_up(value: float) -> float:
    """XPath round(): floor(x + 0.5), passing infinities through."""
    if math.isinf(value) or math.isnan(value):
        return value
    return math.floor(value + 0.5)


def _substring(text: str, start: float, length: float | None) -> str:
    """XPath 1.0 substring(): 1-based, round() on both arguments, and the
    spec's infinity/NaN corner cases (§4.2)."""
    begin = _round_half_up(start)
    if math.isnan(begin):
        return ""
    if length is None:
        end = math.inf
    else:
        end = begin + _round_half_up(length)  # -inf + inf = NaN: matches nothing
    if math.isnan(end):
        return ""
    pieces = []
    for index, char in enumerate(text, start=1):
        if index >= begin and index < end:
            pieces.append(char)
    return "".join(pieces)


def _translate(text: str, source: str, target: str) -> str:
    """XPath 1.0 translate(): map/remove characters, first mapping wins."""
    mapping: dict[str, str | None] = {}
    for index, char in enumerate(source):
        if char not in mapping:
            mapping[char] = target[index] if index < len(target) else None
    pieces = []
    for char in text:
        if char in mapping:
            replacement = mapping[char]
            if replacement is not None:
                pieces.append(replacement)
        else:
            pieces.append(char)
    return "".join(pieces)


def _numeric_compare(op: str, a: float, b: float) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ExecutionError(f"not a relational operator: {op!r}")


def _numeric_compare_eq(op: str, a: float, b: float) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    return _numeric_compare(op, a, b)


def _string_pair_compare(op: str, a: str, b: str) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    return _numeric_compare(op, to_number(a), to_number(b))


def _boolean_pair_compare(op: str, a: bool, b: bool) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    return _numeric_compare(op, to_number(a), to_number(b))


# -- plan → operators --------------------------------------------------------------------


def build_operators(
    store: MassStore,
    node: PlanNode,
    evaluator: "ExpressionEvaluator | None" = None,
) -> Operator:
    """Instantiate the runtime operator tree for a plan subtree.

    The ``evaluator`` carries the query's guard and pipeline settings; the
    same one threads into every operator and every predicate, so nested
    predicate sub-plans are governed and sized like the plan around them.
    """
    if evaluator is None:
        evaluator = ExpressionEvaluator(store)
    guard = evaluator.guard
    predicates = [CompiledPredicate(expr, evaluator) for expr in node.predicates]
    if isinstance(node, RootNode):
        child = (
            build_operators(store, node.context_child, evaluator)
            if node.context_child is not None
            else None
        )
        return RootOperator(store, child, guard)
    if isinstance(node, StepNode):
        child = (
            build_operators(store, node.context_child, evaluator)
            if node.context_child is not None
            else None
        )
        return StepOperator(store, node, child, predicates, guard, evaluator.coalesce)
    if isinstance(node, ValueStepNode):
        return ValueStepOperator(store, node.value, predicates, node.text_only, guard)
    if isinstance(node, FusedPathScanNode):
        if node.context_child is not None:
            raise PlanError("a fused path scan must be a context-path leaf")
        # Imported here: repro.algebra.fused builds on this module's
        # Operator protocol, so a top-level import would be circular.
        from repro.algebra.fused import FusedPathScanOperator

        return FusedPathScanOperator(store, node, predicates, guard)
    if isinstance(node, UnionNode):
        branches = [
            build_operators(store, branch, evaluator) for branch in node.branches
        ]
        return UnionOperator(store, branches, guard, evaluator.block_size)
    if isinstance(node, JoinNode):
        left = build_operators(store, node.left, evaluator)
        right = build_operators(store, node.right, evaluator)
        return JoinOperator(
            store, left, right, node.condition, guard, evaluator.block_size
        )
    raise PlanError(f"cannot execute plan node {type(node).__name__}")


def execute_plan(
    plan: QueryPlan,
    store: MassStore,
    context: FlexKey | None = None,
    guard: "QueryGuard | None" = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Iterator[FlexKey]:
    """Run a plan, yielding result keys in pipeline order.

    ``context`` defaults to the document root — the engine's "dynamic
    setting of context" for the leaf operator of the context path.  An
    XQuery host would pass other context keys here.  A ``guard`` binds to
    the store (page-budget baseline, deadline start) and tallies every
    emitted tuple against the result cap.  ``block_size`` is how many keys
    the root driver pulls per call (the engine sizes it from the cost
    estimator).  Context coalescing is withheld from plans that do not
    deduplicate their output, because coalescing collapses the duplicate
    hits nested contexts produce.
    """
    block_size = max(1, block_size)
    evaluator = ExpressionEvaluator(store, guard, block_size, plan.root.distinct)
    operator = build_operators(store, plan.root, evaluator)
    if guard is not None:
        guard.bind(store)
    operator.reset(context if context is not None else FlexKey.document())
    return _block_iterate(operator, block_size, guard)


def _block_iterate(
    operator: Operator, size: int, guard: "QueryGuard | None"
) -> Iterator[FlexKey]:
    """Drive the root operator block-at-a-time, tallying per result key."""
    while True:
        block = operator.next_block(size)
        for key in block:
            if guard is not None:
                guard.tally_result()
            yield key
        if len(block) < size:
            return
