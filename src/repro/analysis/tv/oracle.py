"""The differential oracle: three independent answers, one verdict.

For a candidate rewrite ``before -> after`` of one expression, the oracle
computes the result node-set

* of the **before** plan and the **after** plan, through the pipeline at
  a block size small enough that even the tiny enumerated documents cross
  block boundaries,
* and, independently of the whole index stack, through the naive
  :class:`~repro.baselines.dom_engine.DomTraversalEngine` reference.

Node-sets are compared as **ordered FLEX-key sequences** (the
order-preserving :attr:`~repro.mass.flexkey.FlexKey.sort_bytes` images),
so a rewrite that returns the right nodes in the wrong order, or the
right nodes twice, is a failure — exactly the document-order/duplicate
bugs that set-based comparison masks.

The DOM reference speaks :class:`~repro.xmlkit.dom.DomNode`; the bridge
is :func:`dom_key_map`, which assigns every DOM node the FLEX key the
MASS loader gives the same node (attributes first, then content children,
adjacent text merged — the ordinal discipline of
:func:`repro.mass.loader.load_events`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError, UnsupportedFeatureError
from repro.mass.flexkey import FlexKey
from repro.mass.store import MassStore
from repro.baselines.dom_engine import DomTraversalEngine
from repro.baselines.profiles import JAXEN_PROFILE
from repro.algebra.execution import dedup_document_order, execute_plan
from repro.algebra.plan import QueryPlan
from repro.xmlkit.dom import DomDocument

#: A deliberately small block so the pipeline genuinely blocks (multiple
#: fills per query) even on the tiny enumerated documents.
ORACLE_BLOCK_SIZE = 4


def dom_key_map(document: DomDocument) -> dict[int, FlexKey]:
    """Map ``id(DomNode)`` to the FLEX key the MASS loader assigns it.

    Both sides walk the same event stream: an element's attributes (and
    namespace declarations) take ordinals ``0..n-1``, content children
    (elements, merged text, comments, PIs) continue from there.
    """
    mapping: dict[int, FlexKey] = {
        id(document.document_node): FlexKey.document()
    }
    stack = [(document.document_node, FlexKey.document())]
    while stack:
        node, key = stack.pop()
        for ordinal, attribute in enumerate(node.attributes):
            mapping[id(attribute)] = key.child(ordinal)
        base = len(node.attributes)
        for offset, child in enumerate(node.children):
            child_key = key.child(base + offset)
            mapping[id(child)] = child_key
            stack.append((child, child_key))
    return mapping


def evaluate_plan(plan: QueryPlan, store: MassStore) -> list[FlexKey]:
    """The plan's final result at the oracle's block size.

    Applies the engine's output discipline: distinct plans dedup and sort
    (as :meth:`VamanaEngine.execute` does), non-distinct plans keep the
    raw emission sequence.
    """
    raw = list(execute_plan(plan, store, block_size=ORACLE_BLOCK_SIZE))
    return dedup_document_order(raw) if plan.root.distinct else raw


def dom_reference(
    expression: str, document: DomDocument, key_map: dict[int, FlexKey]
) -> list[FlexKey]:
    """The DOM baseline's answer, as FLEX keys in document order."""
    engine = DomTraversalEngine(JAXEN_PROFILE)
    engine.load_dom(document)
    return [key_map[id(node)] for node in engine.evaluate(expression)]


def _describe_divergence(label: str, left: list[FlexKey], right: list[FlexKey]) -> str:
    left_bytes = [key.sort_bytes for key in left]
    right_bytes = [key.sort_bytes for key in right]
    index = next(
        (i for i, (a, b) in enumerate(zip(left_bytes, right_bytes)) if a != b),
        min(len(left_bytes), len(right_bytes)),
    )
    def show(keys: list[FlexKey]) -> str:
        if index < len(keys):
            return repr(keys[index])
        return "(exhausted)"
    return (
        f"{label}: {len(left)} vs {len(right)} keys, "
        f"first divergence at position {index}: {show(left)} vs {show(right)}"
    )


def compare_sequences(
    label: str, left: list[FlexKey], right: list[FlexKey]
) -> str | None:
    """None when the ordered key sequences agree, else a description."""
    if [key.sort_bytes for key in left] == [key.sort_bytes for key in right]:
        return None
    return _describe_divergence(label, left, right)


@dataclass
class DifferentialOracle:
    """A rewrite-equivalence checker bound to one store (and optional DOM).

    ``discrepancies(before, after, rule)`` is the contract
    :class:`~repro.analysis.plan_verifier.PlanVerifier` accepts for its
    opt-in dynamic validation mode: an empty list discharges the
    obligation, anything else is a counterexample description.

    Without a DOM (``document=None``) the oracle still cross-checks the
    two plans; with one, both plans must also match the naive reference.
    DOM checks are skipped (not failed) for expressions outside the
    baseline's feature set.
    """

    store: MassStore
    document: DomDocument | None = None
    key_map: dict[int, FlexKey] | None = None

    def __post_init__(self) -> None:
        if self.document is not None and self.key_map is None:
            self.key_map = dom_key_map(self.document)

    # -- pieces (reused by the runner to avoid recomputation) ---------------

    def reference(self, expression: str) -> list[FlexKey] | None:
        """The DOM answer, or None when unavailable/unsupported."""
        if self.document is None or self.key_map is None:
            return None
        try:
            return dom_reference(expression, self.document, self.key_map)
        except (UnsupportedFeatureError, ReproError):
            return None

    def check_plan(
        self,
        plan: QueryPlan,
        label: str,
        reference: list[FlexKey] | None,
    ) -> tuple[list[FlexKey], list[str]]:
        """Run one plan; cross-check its result against the DOM."""
        problems: list[str] = []
        result = evaluate_plan(plan, self.store)
        if reference is not None and plan.root.distinct:
            mismatch = compare_sequences(
                f"{label} plan vs DOM baseline", result, reference
            )
            if mismatch:
                problems.append(mismatch)
        return result, problems

    # -- the PlanVerifier contract ------------------------------------------

    def discrepancies(
        self, before: QueryPlan, after: QueryPlan, rule: str = ""
    ) -> list[str]:
        """Counterexample descriptions; empty = obligation discharged."""
        expression = before.expression or after.expression
        reference = self.reference(expression) if expression else None
        before_result, problems = self.check_plan(before, "pre-rewrite", reference)
        after_result, after_problems = self.check_plan(
            after, "post-rewrite", reference
        )
        problems.extend(after_problems)
        mismatch = compare_sequences(
            f"rewrite {rule or '?'}: pre vs post result", before_result, after_result
        )
        if mismatch:
            problems.append(mismatch)
        return problems
