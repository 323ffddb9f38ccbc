"""Static verification of physical query plans.

The optimizer's central promise — "the optimized plan is never slower",
and above all *never wrong* — rests on every rewrite rule being a true
algebraic equivalence.  A buggy rule used to surface only at runtime (or
worse, as silently wrong answers).  This module reasons about plans
*before* they execute, in the spirit of SXSI's whole-query static
analysis: it infers per-operator properties and checks structural
invariants, and the optimizer uses :meth:`PlanVerifier.check_rewrite` as
a gate on every proposed rewrite.

Two layers:

* **Property inference** (:func:`infer_properties`): for every operator,
  its output *ordering* (document order / reverse / unordered), whether
  its output is *duplicate-free*, whether the subtree is
  *context-dependent* (needs an externally supplied context tuple),
  whether the step is *statically empty* (its axis can never deliver a
  node satisfying its node test), and whether *guard threading* is
  guaranteed (the node maps to a runtime operator known to checkpoint the
  :class:`~repro.resilience.QueryGuard` in ``next_block``).
* **Structural invariants** (:meth:`PlanVerifier.verify`): the plan is a
  tree (no aliasing, no cycles), rooted at a :class:`RootNode`, operator
  ids are unique after cleanup (no dangling duplicates), child arity is
  respected, predicate sub-plans are rooted correctly (no nested
  ``RootNode``; their leaf takes the dynamic context), and every operator
  carries a valid operator kind (join conditions, predicate ops).

The rewrite gate then compares properties across a proposed rewrite and
rejects regressions: a changed duplicate-elimination flag, an
order/distinctness loss that matters under non-distinct output semantics,
or a newly introduced statically-empty step.  Violations raise (or are
collected into) :class:`~repro.errors.PlanInvariantError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlanInvariantError
from repro.model import Axis, NodeTestKind
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
    PlanBase,
    PlanNode,
    QueryPlan,
    RootNode,
    StepNode,
    UnionNode,
    ValueStepNode,
)

#: Output-ordering lattice: ``document`` and ``reverse`` are both "known"
#: orders; ``unordered`` is the bottom the gate treats as a regression.
DOCUMENT_ORDER = "document"
REVERSE_ORDER = "reverse"
UNORDERED = "unordered"

#: Plan-node types with a known runtime operator whose ``next_block``
#: checkpoints the query guard (enforced by the repo linter).
_GUARDED_NODE_TYPES = (
    RootNode,
    StepNode,
    ValueStepNode,
    FusedPathScanNode,
    UnionNode,
    JoinNode,
)

#: The predicate-expression operators execution understands.
_KNOWN_EXPR_TYPES = (
    ExistsNode,
    PathExprNode,
    BinaryPredicateNode,
    LiteralNode,
    NumberNode,
    FunctionNode,
    NegateNode,
)

_BINARY_OPS = frozenset(
    {"=", "!=", "<", "<=", ">", ">=", "and", "or", "+", "-", "*", "div", "mod"}
)


@dataclass(frozen=True)
class OperatorProperties:
    """Statically inferred properties of one tuple-producing operator."""

    ordering: str  # DOCUMENT_ORDER | REVERSE_ORDER | UNORDERED
    distinct: bool  # output is duplicate-free
    context_dependent: bool  # subtree needs an external context tuple
    statically_empty: bool  # axis/node-test pair can never match
    guard_threaded: bool  # runtime operator checkpoints the guard

    def describe(self) -> str:
        flags = [f"order={self.ordering}", f"distinct={'yes' if self.distinct else 'no'}"]
        if self.statically_empty:
            flags.append("statically-empty")
        if not self.guard_threaded:
            flags.append("UNGUARDED")
        return " ".join(flags)


def step_statically_empty(axis: Axis, test) -> bool:
    """Can ``axis::test`` ever deliver a node?

    The attribute and namespace axes only deliver nodes of their principal
    kind, so a kind test for text/comment/processing-instruction nodes on
    them is a contradiction — the step is empty on every document.
    """
    if axis in (Axis.ATTRIBUTE, Axis.NAMESPACE):
        return test.kind in (
            NodeTestKind.TEXT,
            NodeTestKind.COMMENT,
            NodeTestKind.PROCESSING_INSTRUCTION,
        )
    return False


def infer_properties(plan: QueryPlan) -> dict[int, OperatorProperties]:
    """Infer :class:`OperatorProperties` for every tuple-producing node.

    Keys are operator ids (``op_id``); call after ``renumber``/cleanup so
    ids are unique.  Inference is conservative: a property is only claimed
    when it holds on every document.
    """
    properties: dict[int, OperatorProperties] = {}

    def visit(node: PlanNode) -> OperatorProperties:
        props = _infer_node(node, visit)
        properties[node.op_id] = props
        return props

    visit(plan.root)
    return properties


def _infer_node(node: PlanNode, visit) -> OperatorProperties:
    if isinstance(node, RootNode):
        child = (
            visit(node.context_child) if node.context_child is not None else None
        )
        _visit_predicate_paths(node, visit)
        if child is None:
            return OperatorProperties(DOCUMENT_ORDER, True, False, True, True)
        if node.distinct:
            # The engine dedups and sorts the root's output.
            return OperatorProperties(
                DOCUMENT_ORDER, True, child.context_dependent,
                child.statically_empty, child.guard_threaded,
            )
        return child

    if isinstance(node, ValueStepNode):
        _visit_predicate_paths(node, visit)
        # A leaf probe over the value index: entries come back in document
        # order and each node appears once per (value, key) entry.
        return OperatorProperties(DOCUMENT_ORDER, True, True, False, True)

    if isinstance(node, FusedPathScanNode):
        _visit_predicate_paths(node, visit)
        # One document-order pass over the node index; the automaton emits
        # each accepting node exactly once, so the output is distinct and
        # ordered by construction.  A leaf: it consumes the external
        # context.  Fusable axes never form a statically-empty step.
        return OperatorProperties(DOCUMENT_ORDER, True, True, False, True)

    if isinstance(node, StepNode):
        _visit_predicate_paths(node, visit)
        empty = step_statically_empty(node.axis, node.test)
        if node.context_child is None:
            # A context-path leaf: one context tuple, so the axis's own
            # delivery order is the output order.
            ordering = REVERSE_ORDER if node.axis.is_reverse else DOCUMENT_ORDER
            return OperatorProperties(ordering, True, True, empty, True)
        child = visit(node.context_child)
        if node.axis is Axis.SELF:
            # self:: is a pure filter — order and multiplicity pass through.
            return OperatorProperties(
                child.ordering, child.distinct, child.context_dependent,
                empty or child.statically_empty, child.guard_threaded,
            )
        # Hits from successive context tuples may interleave (nested
        # contexts) and repeat (shared ancestors): claim nothing.
        return OperatorProperties(
            UNORDERED, False, child.context_dependent,
            empty or child.statically_empty, child.guard_threaded,
        )

    if isinstance(node, UnionNode):
        _visit_predicate_paths(node, visit)
        branches = [visit(branch) for branch in node.branches]
        # The union operator merges, sorts and dedups before emitting.
        return OperatorProperties(
            DOCUMENT_ORDER,
            True,
            any(branch.context_dependent for branch in branches),
            bool(branches) and all(branch.statically_empty for branch in branches),
            all(branch.guard_threaded for branch in branches),
        )

    if isinstance(node, JoinNode):
        _visit_predicate_paths(node, visit)
        left = visit(node.left)
        right = visit(node.right)
        # The join emits deduplicated right tuples in document order.
        return OperatorProperties(
            DOCUMENT_ORDER,
            True,
            left.context_dependent or right.context_dependent,
            left.statically_empty or right.statically_empty,
            left.guard_threaded and right.guard_threaded,
        )

    # Unknown PlanNode subclass: execution has no operator for it, so
    # guard threading (and everything else) cannot be guaranteed.
    return OperatorProperties(UNORDERED, False, True, False, False)


def _visit_predicate_paths(node: PlanNode, visit) -> None:
    """Infer properties for plan sub-trees nested inside predicates."""
    for predicate in node.predicates:
        _visit_expr_paths(predicate, visit)


def _visit_expr_paths(expr: ExprNode, visit) -> None:
    if isinstance(expr, (ExistsNode, PathExprNode)):
        visit(expr.path)
        return
    for child in expr.children():
        if isinstance(child, ExprNode):
            _visit_expr_paths(child, visit)


class PlanVerifier:
    """Checks structural invariants and gates optimizer rewrites.

    ``oracle`` enables the opt-in *dynamic* validation mode of
    :meth:`check_rewrite`: any object with a
    ``discrepancies(before, after, rule) -> list[str]`` method (e.g.
    :class:`repro.analysis.tv.oracle.DifferentialOracle`) is consulted
    after the static gate passes, and its counterexamples are raised as
    :class:`~repro.errors.PlanInvariantError` like any other violation —
    the optimizer then rejects the rewrite and keeps going.
    """

    def __init__(self, oracle=None):
        self.oracle = oracle

    # -- structural invariants ---------------------------------------------

    def violations(self, plan: QueryPlan) -> list[str]:
        """Every broken structural invariant, as human-readable strings."""
        problems: list[str] = []
        if not isinstance(plan.root, RootNode):
            problems.append(
                f"plan root is {type(plan.root).__name__}, not RootNode"
            )
        problems.extend(self._tree_shape(plan))
        if not problems:
            problems.extend(self._node_invariants(plan))
        return problems

    def verify(self, plan: QueryPlan, rule: str = "") -> dict[int, OperatorProperties]:
        """Raise :class:`PlanInvariantError` unless every invariant holds.

        Returns the inferred property table on success, so callers get the
        analysis for free.
        """
        problems = self.violations(plan)
        if problems:
            raise PlanInvariantError(problems, rule=rule)
        return infer_properties(plan)

    def _tree_shape(self, plan: QueryPlan) -> list[str]:
        """The plan must be a tree: every node one parent, no cycles."""
        problems: list[str] = []
        indegree: dict[int, int] = {}
        labels: dict[int, str] = {}
        for parent, child in plan.walk_edges():
            indegree[id(child)] = indegree.get(id(child), 0) + 1
            labels[id(child)] = child.describe()
            if child is plan.root:
                problems.append(
                    f"cycle: {parent.describe()} points back at the plan root"
                )
        for identity, count in indegree.items():
            if count > 1:
                problems.append(
                    f"operator {labels[identity]} is shared by {count} parents "
                    "(rewrites must clone, not alias)"
                )
        return problems

    def _node_invariants(self, plan: QueryPlan) -> list[str]:
        problems: list[str] = []
        seen_ids: dict[int, str] = {}
        for node in plan.walk():
            if not isinstance(node.op_id, int) or node.op_id < 1:
                problems.append(
                    f"operator {node.describe()} has invalid id {node.op_id!r}"
                )
            elif node.op_id in seen_ids:
                problems.append(
                    f"duplicate operator id {node.op_id} "
                    f"({seen_ids[node.op_id]} vs {node.describe()}) — "
                    "dangling id after cleanup"
                )
            else:
                seen_ids[node.op_id] = node.describe()
            if isinstance(node, RootNode) and node is not plan.root:
                problems.append(
                    f"nested RootNode {node.describe()} — predicate sub-plans "
                    "must be rooted at their path's outermost step"
                )
            if isinstance(node, UnionNode) and not node.branches:
                problems.append(f"union {node.describe()} has no branches")
            if isinstance(node, JoinNode):
                if node.condition not in JoinNode.CONDITIONS:
                    problems.append(
                        f"join {node.describe()} has unknown condition "
                        f"{node.condition!r}"
                    )
            if isinstance(node, BinaryPredicateNode) and node.op not in _BINARY_OPS:
                problems.append(
                    f"predicate {node.describe()} has unknown operator {node.op!r}"
                )
            if isinstance(node, PlanNode):
                if not isinstance(node, _GUARDED_NODE_TYPES):
                    problems.append(
                        f"unknown operator type {type(node).__name__} — "
                        "guard threading cannot be guaranteed"
                    )
                for predicate in node.predicates:
                    if not isinstance(predicate, ExprNode):
                        problems.append(
                            f"{node.describe()} carries a non-expression "
                            f"predicate {type(predicate).__name__}"
                        )
            elif isinstance(node, ExprNode):
                if not isinstance(node, _KNOWN_EXPR_TYPES):
                    problems.append(
                        f"unknown expression type {type(node).__name__}"
                    )
                if isinstance(node, (ExistsNode, PathExprNode)) and not isinstance(
                    node.path, PlanNode
                ):
                    problems.append(
                        f"{node.describe()} wraps a non-plan path "
                        f"{type(node.path).__name__}"
                    )
        return problems

    # -- the rewrite gate ----------------------------------------------------

    def check_rewrite(
        self, before: QueryPlan, after: QueryPlan, rule: str = ""
    ) -> dict[int, OperatorProperties]:
        """Verify a proposed rewrite; raise on any property regression.

        ``before`` is the plan under optimization, ``after`` the cleaned
        candidate a rule produced.  The gate enforces:

        * ``after`` satisfies every structural invariant;
        * the root's duplicate-elimination flag is untouched (dropping it
          silently changes node-*set* semantics into multiset semantics);
        * under non-distinct output (``distinct=False``), document order
          and duplicate-freedom at the root must not regress — with
          ``distinct=True`` the engine re-establishes both, so rewrites
          may trade them for cost;
        * no statically-empty step is introduced: a correct equivalence
          never manufactures an impossible axis/node-test pair.
        """
        after_props = self.verify(after, rule=rule)
        problems: list[str] = []
        if not isinstance(before.root, RootNode):
            raise PlanInvariantError(
                ["pre-rewrite plan has no RootNode"], rule=rule
            )
        before_props = infer_properties(before)
        if after.root.distinct != before.root.distinct:
            problems.append(
                "duplicate-elimination flag changed "
                f"({before.root.distinct} -> {after.root.distinct})"
            )
        b_root = before_props[before.root.op_id]
        a_root = after_props[after.root.op_id]
        if not before.root.distinct:
            if b_root.ordering == DOCUMENT_ORDER and a_root.ordering != DOCUMENT_ORDER:
                problems.append(
                    "output ordering regressed "
                    f"({b_root.ordering} -> {a_root.ordering}) under "
                    "non-distinct semantics"
                )
            if b_root.distinct and not a_root.distinct:
                problems.append(
                    "output duplicate-freedom lost under non-distinct semantics"
                )
        before_empty = sum(p.statically_empty for p in before_props.values())
        after_empty = sum(p.statically_empty for p in after_props.values())
        if after_empty > before_empty:
            problems.append(
                f"rewrite introduced {after_empty - before_empty} "
                "statically-empty step(s)"
            )
        if not problems and self.oracle is not None:
            # Dynamic validation: run both plans and compare result
            # sequences.  Only consulted once the static gate is clean —
            # a structurally broken plan may not be executable at all.
            problems.extend(self.oracle.discrepancies(before, after, rule))
        if problems:
            raise PlanInvariantError(problems, rule=rule)
        return after_props


def describe_properties(plan: QueryPlan) -> str:
    """A printable property table, one line per tuple-producing operator."""
    properties = infer_properties(plan)
    lines = [f"static properties of {plan.expression!r}"]
    for node in plan.walk():
        if isinstance(node, PlanNode) and node.op_id in properties:
            lines.append(f"  {node.describe()}: {properties[node.op_id].describe()}")
    return "\n".join(lines)


def verify_plan(plan: QueryPlan) -> dict[int, OperatorProperties]:
    """Convenience wrapper: structural check + property inference."""
    return PlanVerifier().verify(plan)
