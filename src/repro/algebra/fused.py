"""Whole-query compilation: a fused location-step chain as one scan.

A chain of forward steps (child / descendant[-or-self] / self axes, no
predicates) is compiled into a small NFA over ``(depth, kind, name)``
events and simulated in a *single* document-order pass over the node
index — the one-pass discipline of SXSI's whole-query optimization,
replacing one operator (and one index scan) per location step.

**States.**  For a chain of ``n`` steps, state ``i`` (a bit in an integer
mask) means "some prefix of ``i`` steps matched an ancestor-or-self of
this node"; bit ``n`` accepts.  Step ``i`` consumes transitions from
state ``i``:

* ``child`` steps fire on the children of a state-``i`` node,
* ``descendant[-or-self]`` steps fire on every proper descendant (the
  or-self variant also on the node itself),
* ``self`` steps fire on the node itself only.

Node tests become precomputed per-kind bitmasks, so simulating one node
costs a handful of integer operations and no per-step dispatch.

**Scan.**  The simulation walks the context's subtree range once,
maintaining a stack of ``(depth, states, descendant-feed)`` entries for
the current ancestor path — the classic document-order stack automaton.
When a subtree provably cannot contain another match (its root's feed
masks are empty), the scan skips it wholesale: small dead subtrees are
filtered inline with one byte comparison per entry, larger ones
reposition the shared :class:`~repro.mass.axes.ScanCursors` B+-tree
cursor straight to the subtree's upper bound, mirroring the ``past()``
span-skipping of the coalesced batch scans.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.guard import QueryGuard

from repro.errors import PlanError
from repro.mass.axes import ScanCursors, _subtree_range
from repro.mass.btree import hand_back
from repro.mass.flexkey import FlexKey
from repro.mass.records import NodeKind, NodeRecord
from repro.mass.store import MassStore
from repro.model import Axis, NodeTest, NodeTestKind
from repro.algebra.execution import Operator, OperatorState
from repro.algebra.plan import FusedPathScanNode

#: How many entries of a dead subtree the scan filters inline before it
#: repositions the cursor to the subtree's upper bound.  Tiny subtrees are
#: cheaper to compare away than to seek past.
_SKIP_SEEK_AFTER = 4

#: The axes a fused chain may contain.
FUSABLE_AXES = frozenset(
    {Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF}
)


class PathAutomaton:
    """The compiled form of a fused step chain: transition/test bitmasks.

    ``steps`` are ``(axis, test)`` pairs in application order (the chain's
    former leaf first).  All masks index states by the step that consumes
    them, so ``child_mask & (1 << i)`` says "step ``i`` is a child step".
    """

    __slots__ = (
        "steps",
        "accept",
        "child_mask",
        "desc_mask",
        "closure_mask",
        "node_mask",
        "element_default",
        "element_masks",
        "text_mask",
        "comment_mask",
        "pi_default",
        "pi_masks",
    )

    def __init__(self, steps: list[tuple[Axis, NodeTest]]):
        if not steps:
            raise PlanError("cannot fuse an empty step chain")
        self.steps = list(steps)
        self.accept = 1 << len(steps)
        self.child_mask = 0
        self.desc_mask = 0
        self.closure_mask = 0
        self.node_mask = 0
        self.element_default = 0
        self.text_mask = 0
        self.comment_mask = 0
        self.pi_default = 0
        element_names: dict[str, int] = {}
        pi_names: dict[str, int] = {}
        for index, (axis, test) in enumerate(steps):
            bit = 1 << index
            if axis is Axis.CHILD:
                self.child_mask |= bit
            elif axis is Axis.DESCENDANT:
                self.desc_mask |= bit
            elif axis is Axis.DESCENDANT_OR_SELF:
                self.desc_mask |= bit
                self.closure_mask |= bit
            elif axis is Axis.SELF:
                self.closure_mask |= bit
            else:
                raise PlanError(f"axis {axis.value} cannot be fused")
            kind = test.kind
            if kind is NodeTestKind.NODE:
                self.node_mask |= bit
            elif kind is NodeTestKind.ANY:
                self.element_default |= bit
            elif kind is NodeTestKind.NAME:
                element_names[test.name] = element_names.get(test.name, 0) | bit
            elif kind is NodeTestKind.TEXT:
                self.text_mask |= bit
            elif kind is NodeTestKind.COMMENT:
                self.comment_mask |= bit
            elif kind is NodeTestKind.PROCESSING_INSTRUCTION:
                if test.name:
                    pi_names[test.name] = pi_names.get(test.name, 0) | bit
                else:
                    self.pi_default |= bit
            else:  # pragma: no cover - exhaustive over NodeTestKind
                raise PlanError(f"node test {test} cannot be fused")
        # node() matches every kind the scanned axes can deliver.
        self.element_default |= self.node_mask
        self.text_mask |= self.node_mask
        self.comment_mask |= self.node_mask
        self.pi_default |= self.node_mask
        self.element_masks = {
            name: bits | self.element_default for name, bits in element_names.items()
        }
        self.pi_masks = {
            name: bits | self.pi_default for name, bits in pi_names.items()
        }

    @property
    def state_count(self) -> int:
        return len(self.steps) + 1

    def match_mask(self, kind: NodeKind, name: str) -> int:
        """The step bits whose node test a scanned ``kind``/``name`` node
        satisfies.  Attribute/namespace entries never match: the fusable
        axes cannot deliver them (cf. ``_record_matches``)."""
        if kind is NodeKind.ELEMENT:
            return self.element_masks.get(name, self.element_default)
        if kind is NodeKind.TEXT:
            return self.text_mask
        if kind is NodeKind.COMMENT:
            return self.comment_mask
        if kind is NodeKind.PROCESSING_INSTRUCTION:
            return self.pi_masks.get(name, self.pi_default)
        if kind is NodeKind.DOCUMENT:
            # The document node is a node: node() steps match it.  Only
            # reachable as a *context* (via :meth:`start`) — subtree scans
            # never deliver the document record.
            return self.node_mask
        return 0

    def _closure(self, states: int, match: int) -> int:
        """Saturate self/descendant-or-self transitions on one node."""
        closure_fire = self.closure_mask & match
        while True:
            advanced = states | ((states & closure_fire) << 1)
            if advanced == states:
                return states
            states = advanced

    def start(self, record: NodeRecord | None) -> int:
        """The context node's state mask (state 0 plus its self-closure).

        ``record`` is the context's stored record (kind ``DOCUMENT`` for
        the document node), or None when no record exists.  The context
        node itself may consume self/descendant-or-self steps in place —
        the document node and attribute contexts through their ``node()``
        matches (``selfish`` matching) — so steps *after* a leading
        ``descendant-or-self::node()`` see the right descendant feed.
        """
        states = 1
        if not self.closure_mask:
            return states
        if record is None:
            match = self.node_mask  # the recordless document node
        elif record.kind in (NodeKind.ATTRIBUTE, NodeKind.NAMESPACE):
            match = self.node_mask  # only node() matches a special context
        else:
            match = self.match_mask(record.kind, record.name)
        return self._closure(states, match)

    def advance(self, fire: int, kind: NodeKind, name: str) -> int:
        """One node's state mask given its incoming transition bits."""
        match = self.match_mask(kind, name)
        states = (fire & match) << 1
        if states and self.closure_mask:
            states = self._closure(states, match)
        return states


def compile_steps(steps: list[tuple[Axis, NodeTest]]) -> PathAutomaton:
    """Compile a fused step chain into its :class:`PathAutomaton`."""
    return PathAutomaton(steps)


class FusedPathScanOperator(Operator):
    """``FPS`` — a whole step chain evaluated in one node-index pass.

    A leaf operator like :class:`~repro.algebra.execution.ValueStepOperator`:
    the engine (or a predicate evaluation) arms it with a context via
    :meth:`reset`, and one scan of the context's subtree emits every chain
    result.  Each node is emitted at most once and the scan runs in
    document order, so the output is distinct and prefix-monotone by
    construction.
    """

    emits_prefix_monotone = True

    def __init__(
        self,
        store: MassStore,
        plan: FusedPathScanNode,
        predicates: list,
        guard: "QueryGuard | None" = None,
    ):
        super().__init__(store, guard)
        self.plan = plan
        self.predicates = predicates
        self.automaton = compile_steps(plan.steps)
        self._cursors = ScanCursors(store)
        self._candidates: Iterator[FlexKey] | None = None
        self._context: FlexKey | None = None

    def reset(self, context: FlexKey | None) -> None:
        self.state = OperatorState.INITIAL
        self._candidates = None
        self._context = context

    def next_block(self, max_n: int) -> list[FlexKey]:
        if self.guard is not None:
            self.guard.checkpoint()
        if self.state is OperatorState.OUT_OF_TUPLES or self._context is None:
            return []
        if self._candidates is None:
            self.state = OperatorState.FETCHING
            candidates: Iterator[FlexKey] = self._fused_scan(self._context)
            for predicate in self.predicates:
                candidates = predicate.filter(self.store, candidates)
            self._candidates = candidates
        block = list(islice(self._candidates, max_n))
        if len(block) < max_n:
            self.state = OperatorState.OUT_OF_TUPLES
        return block

    # -- the one-pass simulation ---------------------------------------------

    def _fused_scan(self, context: FlexKey) -> Iterator[FlexKey]:
        """Simulate the automaton over one document-order subtree scan.

        The scan consumes the node index a leaf run at a time
        (:meth:`~repro.mass.btree.BTreeCursor.scan_runs`): the guard is
        checkpointed once per run — page-granular, which is what a page
        budget wants — and the inner loop walks a plain list.  Its body
        is :meth:`PathAutomaton.advance` inlined (match-mask dispatch,
        transition shift, closure fixpoint) with every mask hoisted into
        a local: it runs once per index entry of the context subtree, and
        at that trip count Python attribute lookups and method calls are
        the dominant cost.
        """
        guard = self.guard
        scan_runs = self.store.node_index.scan_runs
        node_cursor = self._cursors.node_cursor()
        auto = self.automaton
        accept = auto.accept
        child_mask = auto.child_mask
        desc_mask = auto.desc_mask
        closure_mask = auto.closure_mask
        element_mask_get = auto.element_masks.get
        element_default = auto.element_default
        text_mask = auto.text_mask
        comment_mask = auto.comment_mask
        pi_mask_get = auto.pi_masks.get
        pi_default = auto.pi_default
        element_kind = NodeKind.ELEMENT
        text_kind = NodeKind.TEXT
        comment_kind = NodeKind.COMMENT
        pi_kind = NodeKind.PROCESSING_INSTRUCTION

        states = auto.start(self._cursors.fetch(context))
        if states & accept:
            yield context
        feed_desc = states & desc_mask
        if not ((states & child_mask) | feed_desc):
            return  # no transition can ever fire below this context
        stack: list[tuple[int, int, int]] = [(context.depth, states, feed_desc)]

        lo, hi = _subtree_range(context)
        inclusive = False
        dead_hi = None  # exclusive top of the dead subtree being skipped
        dead_run = 0
        while True:
            seek_to = None
            runs = scan_runs(node_cursor, lo, hi, inclusive_lo=inclusive)
            for _keys, records in runs:
                if guard is not None:
                    guard.checkpoint()
                rest = iter(records)
                try:
                    for record in rest:
                        key = record.key
                        if dead_hi is not None:
                            if key.sort_bytes < dead_hi:
                                dead_run += 1
                                if dead_run >= _SKIP_SEEK_AFTER:
                                    seek_to = dead_hi
                                    break
                                continue
                            dead_hi = None
                        depth = key.depth
                        while stack[-1][0] >= depth:
                            stack.pop()
                        _parent_depth, parent_states, parent_feed = stack[-1]
                        kind = record.kind
                        # PathAutomaton.advance, inlined.
                        if kind is element_kind:
                            match = element_mask_get(record.name, element_default)
                        elif kind is text_kind:
                            match = text_mask
                        elif kind is comment_kind:
                            match = comment_mask
                        elif kind is pi_kind:
                            match = pi_mask_get(record.name, pi_default)
                        else:
                            match = 0  # attribute/namespace: unreachable by these axes
                        states = (
                            ((parent_states & child_mask) | parent_feed) & match
                        ) << 1
                        if states and closure_mask:
                            closure_fire = closure_mask & match
                            while closure_fire:
                                advanced = states | ((states & closure_fire) << 1)
                                if advanced == states:
                                    break
                                states = advanced
                        if states & accept:
                            yield key
                        if kind is element_kind:
                            feed_desc = parent_feed | (states & desc_mask)
                            if (states & child_mask) | feed_desc:
                                stack.append((depth, states, feed_desc))
                            else:
                                dead_hi = key.subtree_upper_bound_bytes()
                                dead_run = 0
                except BaseException:  # abandoned mid-run
                    hand_back(runs, rest)
                    raise
                if seek_to is not None:
                    # The scan is charged, and the cursor pinned, at the
                    # entry that proved the subtree dead.
                    hand_back(runs, rest)
                    break
            if seek_to is None:
                return
            # Reposition the scan just past the dead subtree; the pinned
            # cursor resumes from its current leaf instead of descending
            # from the root.
            lo, inclusive, dead_hi = seek_to, True, None
