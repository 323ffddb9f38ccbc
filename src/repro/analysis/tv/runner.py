"""The translation-validation driver behind ``repro verify-rules``.

For every rewrite rule it builds the rule's *obligations*: each query in
the rule's pool is compiled to a cleaned default plan, the rule is
applied at **every** matching operator (not just the optimizer's pick),
and each (before, after) pair must produce identical ordered FLEX-key
sequences — cross-checked against the DOM baseline — on **every**
document of the corpus.  The corpus is the exhaustive bounded enumeration
of :mod:`repro.analysis.tv.documents` plus seeded random documents beyond
the bound.

Plans are store-independent, so obligations are built once and executed
per document; each document's store, DOM and key map are shared across
all obligations.

A failing obligation is minimized by the shrinker into a
:class:`~repro.analysis.tv.shrinker.Reproducer` that can be written to
``tests/analysis/fixtures/`` and replayed forever.

The run finishes with the estimator-soundness pass: the paper's Q1-Q5
are planned (default and optimized) against a generated XMark document
and every point estimate must fall inside the provable
:mod:`~repro.analysis.tv.bounds` interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import (
    BudgetExceededError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.mass.loader import load_xml
from repro.xmark.generator import XmarkGenerator
from repro.xmlkit.dom import build_dom
from repro.algebra.builder import build_default_plan
from repro.algebra.plan import PlanBase, QueryPlan
from repro.analysis.satisfiability import xmark_schema
from repro.analysis.tv.bounds import check_estimator_soundness
from repro.analysis.tv.documents import (
    DocumentBounds,
    enumerate_documents,
    random_documents,
)
from repro.analysis.tv.oracle import DifferentialOracle, compare_sequences
from repro.analysis.tv.shrinker import Reproducer, count_nodes, shrink_document
from repro.cost.estimator import CostEstimator
from repro.optimizer.cleanup import cleanup_plan
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.rules import DEFAULT_RULES, RewriteRule
from repro.optimizer.util import find_by_id

#: Queries every rule is obligated on (slice vocabulary; a rule with no
#: matching operator on a query discharges that obligation trivially).
GENERIC_QUERIES: tuple[str, ...] = (
    "//person/name",
    "//people/person",
    "//person/address/city",
    "//address/city",
    "//watches/watch",
    "//person/name/text()",
    "//people/person[1]",
    "//person[address]",
)

#: Extra queries aimed at each rule's rewrite pattern.
RULE_QUERIES: dict[str, tuple[str, ...]] = {
    "predicate-pushdown": (
        "//person[name]/address",
        "//people/person[watches]/name",
        "//person[address/city]/watches",
        "//address[city]/city",
    ),
    "reverse-axis": (
        "//watch/ancestor::person",
        "//name/parent::person",
        "//city/ancestor::person/name",
        "/descendant::name/parent::*",
    ),
    "value-index": (
        "//name[text()='v']",
        "//person[name='v']/address",
        "//city[text()='w']",
        "//person[name/text()='w']/name",
    ),
    "duplicate-elimination": (
        "//watches/watch/ancestor::person",
        "//address/city/ancestor::person",
        "//person/name/ancestor::people",
        "//name | //city",
        "//person/name | //people/person/name",
    ),
    "path-fusion": (
        "//people/person/name",
        "//person/name/text()",
        "//people//name",
        "/child::people/child::person/child::name",
        "//people/person/address/city",
        "/descendant-or-self::node()/child::person/descendant::text()",
    ),
}

#: The paper's benchmark queries for the estimator-soundness pass.
SOUNDNESS_QUERIES: dict[str, str] = {
    "Q1": "//person/address",
    "Q2": "//watches/watch/ancestor::person",
    "Q3": "/descendant::name/parent::*/self::person/address",
    "Q4": "//itemref/following-sibling::price/parent::*",
    "Q5": "//province[text()='Vermont']/ancestor::person",
}


@dataclass(frozen=True)
class Obligation:
    """One rewrite site: the rule applied at one operator of one plan."""

    rule: str
    expression: str
    site: str
    before: QueryPlan
    after: QueryPlan


@dataclass
class ObligationFailure:
    """One counterexample, optionally minimized."""

    rule: str
    expression: str
    site: str
    document: str
    discrepancies: tuple[str, ...]
    reproducer: Reproducer | None = None

    def describe(self) -> str:
        lines = [
            f"FAIL {self.rule} on {self.expression!r} at {self.site}:",
            f"  document: {self.document}",
        ]
        lines.extend(f"  {problem}" for problem in self.discrepancies)
        if self.reproducer is not None:
            lines.append(
                f"  shrunk to {self.reproducer.node_count} nodes: "
                f"{self.reproducer.document}"
            )
        return "\n".join(lines)


@dataclass
class VerifyReport:
    """Everything one ``verify-rules`` run established."""

    mode: str = "quick"
    documents: int = 0
    obligations: int = 0
    checked: int = 0
    failures: list[ObligationFailure] = field(default_factory=list)
    soundness_violations: dict[str, list[str]] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures and not any(
            problems for problems in self.soundness_violations.values()
        )

    def describe(self) -> str:
        lines = [
            f"verify-rules ({self.mode}): {self.obligations} obligations x "
            f"{self.documents} documents ({self.checked} checks) in "
            f"{self.elapsed_seconds:.1f}s",
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        for label, problems in sorted(self.soundness_violations.items()):
            for problem in problems:
                lines.append(f"UNSOUND estimate on {label}: {problem}")
        lines.append(
            "all equivalence obligations discharged; estimator sound on "
            + "/".join(sorted(self.soundness_violations))
            if self.ok
            else f"{len(self.failures)} obligation failure(s), "
            + f"{sum(len(p) for p in self.soundness_violations.values())} "
            "unsound estimate(s)"
        )
        return "\n".join(lines)


def build_obligations(
    rules: tuple[RewriteRule, ...] = DEFAULT_RULES,
    extra_queries: tuple[str, ...] = (),
) -> list[Obligation]:
    """Every (rule, query, matching site) triple as a before/after pair.

    Mirrors the optimizer's mechanics exactly — clone, apply at the
    matched operator, cleanup — but applies the rule at *every* matching
    site, so an equivalence bug is exposed even at sites the cost model
    would never pick.
    """
    obligations: list[Obligation] = []
    for rule in rules:
        queries = GENERIC_QUERIES + RULE_QUERIES.get(rule.name, ()) + extra_queries
        for expression in queries:
            plan = build_default_plan(expression)
            cleanup_plan(plan)
            sites = [
                node
                for node in plan.walk()
                if isinstance(node, PlanBase) and rule.matches(plan, node)
            ]
            for site in sites:
                candidate = plan.clone()
                target = find_by_id(candidate, site.op_id)
                if target is None:
                    continue
                rule.apply(candidate, target)
                cleanup_plan(candidate)
                obligations.append(
                    Obligation(
                        rule=rule.name,
                        expression=expression,
                        site=site.describe(),
                        before=plan,
                        after=candidate,
                    )
                )
    return obligations


def corpus(quick: bool = True, seed: int = 7) -> list[str]:
    """The document corpus: exhaustive tier + seeded random tier."""
    if quick:
        bounds = DocumentBounds(max_nodes=7)
        random_count = 24
    else:
        bounds = DocumentBounds(max_nodes=9, max_depth=5, max_width=3)
        random_count = 120
    documents = list(enumerate_documents(bounds))
    documents.extend(random_documents(random_count, seed=seed))
    # The random tier can land inside the exhaustive tier; drop repeats.
    return list(dict.fromkeys(documents))


def check_document(
    xml_text: str, obligations: list[Obligation]
) -> list[ObligationFailure]:
    """Run every obligation against one document."""
    store = load_xml(xml_text, name="tv-corpus")
    oracle = DifferentialOracle(store, build_dom(xml_text))
    failures: list[ObligationFailure] = []
    # The before plan and DOM answer are shared per expression.
    by_expression: dict[str, tuple] = {}
    for obligation in obligations:
        cached = by_expression.get(obligation.expression)
        if cached is None:
            reference = oracle.reference(obligation.expression)
            before_result, before_problems = oracle.check_plan(
                obligation.before, "pre-rewrite", reference
            )
            cached = (reference, before_result, before_problems)
            by_expression[obligation.expression] = cached
        reference, before_result, problems = cached
        problems = list(problems)
        after_result, after_problems = oracle.check_plan(
            obligation.after, "post-rewrite", reference
        )
        problems.extend(after_problems)
        mismatch = compare_sequences(
            f"rewrite {obligation.rule}: pre vs post result",
            before_result,
            after_result,
        )
        if mismatch:
            problems.append(mismatch)
        if problems:
            failures.append(
                ObligationFailure(
                    rule=obligation.rule,
                    expression=obligation.expression,
                    site=obligation.site,
                    document=xml_text,
                    discrepancies=tuple(problems),
                )
            )
    return failures


def _obligation_fails(xml_text: str, obligation: Obligation) -> bool:
    """The shrinker's predicate: does the failure still reproduce?"""
    try:
        return bool(check_document(xml_text, [obligation]))
    except (
        KeyboardInterrupt,
        QueryTimeoutError,
        BudgetExceededError,
        QueryCancelledError,
    ):
        raise
    except Exception:  # noqa: BLE001 - a crash on a shrunk doc still "fails"
        return True


def shrink_failure(
    failure: ObligationFailure, obligation: Obligation
) -> Reproducer:
    """Minimize one failure to its smallest reproducing document."""
    minimal = shrink_document(
        failure.document, lambda xml: _obligation_fails(xml, obligation)
    )
    remaining = check_document(minimal, [obligation])
    discrepancies = (
        remaining[0].discrepancies if remaining else failure.discrepancies
    )
    return Reproducer(
        rule=failure.rule,
        expression=failure.expression,
        document=minimal,
        node_count=count_nodes(minimal),
        discrepancies=discrepancies,
    )


def soundness_pass(quick: bool = True) -> dict[str, list[str]]:
    """Estimator-soundness lint on Q1-Q5 (default and optimized plans)."""
    factor = 0.005 if quick else 0.02
    text = XmarkGenerator(seed=42).generate(factor)
    store = load_xml(text, name="tv-xmark")
    schema = xmark_schema()
    optimizer = Optimizer(store)
    estimator = CostEstimator(store)
    violations: dict[str, list[str]] = {}
    for label, expression in SOUNDNESS_QUERIES.items():
        default = build_default_plan(expression)
        cleanup_plan(default)
        problems = list(check_estimator_soundness(default, store, schema))
        optimized, _trace = optimizer.optimize(build_default_plan(expression))
        estimator.estimate(optimized)
        problems.extend(
            f"(optimized) {problem}"
            for problem in check_estimator_soundness(optimized, store, schema)
        )
        violations[label] = problems
    return violations


def verify_rules(
    quick: bool = True,
    rules: tuple[RewriteRule, ...] = DEFAULT_RULES,
    seed: int = 7,
    shrink: bool = True,
    max_failures: int = 8,
    extra_queries: tuple[str, ...] = (),
    soundness: bool = True,
) -> VerifyReport:
    """Discharge every rewrite rule's equivalence obligation.

    ``quick`` bounds the corpus for CI (< 2 minutes); the exhaustive
    mode widens the node budget and the random tier.  At most one
    failure per (rule, expression) pair is shrunk — the first
    counterexample is what a human debugs.
    """
    started = time.perf_counter()
    report = VerifyReport(mode="quick" if quick else "exhaustive")
    obligations = build_obligations(rules, extra_queries=extra_queries)
    report.obligations = len(obligations)
    seen_failures: set[tuple[str, str]] = set()
    for xml_text in corpus(quick=quick, seed=seed):
        report.documents += 1
        report.checked += len(obligations)
        for failure in check_document(xml_text, obligations):
            key = (failure.rule, failure.expression)
            if key in seen_failures:
                continue
            seen_failures.add(key)
            if shrink and len(report.failures) < max_failures:
                obligation = next(
                    o
                    for o in obligations
                    if o.rule == failure.rule
                    and o.expression == failure.expression
                    and o.site == failure.site
                )
                failure.reproducer = shrink_failure(failure, obligation)
            report.failures.append(failure)
        if len(report.failures) >= max_failures:
            break
    if soundness:
        report.soundness_violations = soundness_pass(quick=quick)
    report.elapsed_seconds = time.perf_counter() - started
    return report
