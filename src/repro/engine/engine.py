"""``VamanaEngine`` — compile, optimize, execute (Figure 2).

The engine is the one object applications touch::

    store = load_xml(document_text)
    engine = VamanaEngine(store)
    result = engine.evaluate("//person/address")
    print(result.labels(), result.metrics.describe())

``evaluate`` runs the full pipeline (default plan → cost-driven
optimization → pipelined index execution) and returns a
:class:`~repro.engine.result.QueryResult` whose metrics separate
optimization overhead from execution cost — the split Figure 14 reports.
"""

from __future__ import annotations

import threading
import time

from repro.errors import (
    BudgetExceededError,
    PlanError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.mass.flexkey import FlexKey
from repro.mass.store import MassStore
from repro.xmark import vocabulary
from repro.xpath import ast
from repro.xpath.parser import parse_xpath
from repro.algebra.builder import build_default_plan, build_expr
from repro.analysis.plan_verifier import PlanVerifier, describe_properties
from repro.analysis.satisfiability import (
    SatisfiabilityAnalyzer,
    SatReport,
    SchemaGraph,
    names_only_schema,
    xmark_schema,
)
from repro.algebra.execution import (
    DEFAULT_BLOCK_SIZE,
    EvalContext,
    ExpressionEvaluator,
    NodeSetValue,
    dedup_document_order,
    execute_plan,
    to_boolean,
    to_number,
    to_string,
)
from repro.algebra.plan import QueryPlan
from repro.cost.estimator import CostEstimator
from repro.engine.result import ExecutionMetrics, QueryResult
from repro.optimizer.optimizer import OptimizationTrace, Optimizer
from repro.optimizer.rules import DEFAULT_RULES, RewriteRule
from repro.resilience.guard import QueryGuard


class VamanaEngine:
    """A cost-driven XPath engine over one MASS store."""

    def __init__(
        self,
        store: MassStore,
        rules: tuple[RewriteRule, ...] = DEFAULT_RULES,
        plan_cache_size: int = 128,
        verify_rewrites: bool = True,
        static_check: bool = True,
        validate_rewrites: bool = False,
    ):
        self.store = store
        #: ``validate_rewrites`` turns on translation validation inside
        #: the optimizer: every proposed rewrite is executed (pre and
        #: post) against this store and rejected on any result
        #: discrepancy.  Expensive — a debugging/validation mode, not a
        #: production default.
        validate = None
        if validate_rewrites:
            from repro.analysis.tv.oracle import DifferentialOracle

            validate = DifferentialOracle(store)
        self.optimizer = Optimizer(
            store, rules, verify=verify_rewrites, validate=validate
        )
        self.estimator = CostEstimator(store)
        #: ``static_check`` enables the satisfiability pre-pass: queries
        #: the schema analysis proves empty are answered without planning
        #: or touching the store.  Disable it for documents whose shape
        #: the analyzer should not reason about at all.
        self.static_check = static_check
        self._schema: SchemaGraph | None = None
        self._schema_epoch = -1
        self._sat_cache: dict[str, SatReport] = {}
        # LRU order: oldest entry first (dicts preserve insertion order; a
        # hit re-inserts its entry at the end).  Plans embed cost decisions
        # made against the store's statistics, so the whole cache is tied
        # to the store epoch it was built under.
        self._plan_cache: dict[
            tuple[str, bool], tuple[QueryPlan, OptimizationTrace | None]
        ] = {}
        self._plan_cache_size = plan_cache_size
        self._plan_cache_epoch = store.epoch
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # One reentrant lock serializes every plan-cache and schema-cache
        # access: the serving layer evaluates through a shared engine from
        # many worker threads at once, and an unguarded LRU dict would
        # corrupt under concurrent re-insertions (and racing misses would
        # compile the same expression twice).  Cache hits only pay a
        # lock/unlock; misses additionally serialize optimization, which
        # is the behaviour we want — one compile per expression, everyone
        # else waits for the cached plan.
        self._plan_lock = threading.RLock()

    # -- compilation -----------------------------------------------------------

    def compile(self, expression: str) -> QueryPlan:
        """Parse and build the default (unoptimized) physical plan."""
        return build_default_plan(expression)

    def optimize(self, plan: QueryPlan) -> tuple[QueryPlan, OptimizationTrace]:
        """Run the cost-driven optimizer; the input plan is untouched."""
        return self.optimizer.optimize(plan)

    def plan(
        self, expression: str, optimize: bool = True
    ) -> tuple[QueryPlan, OptimizationTrace | None]:
        """Cached compile(+optimize) — a genuine LRU keyed on the store epoch.

        Any store mutation bumps the epoch; cached plans were optimized
        against the old statistics, so the first plan request after a
        mutation drops the cache and re-optimizes.

        Thread-safe: the cache (and a miss's compile+optimize) runs under
        the engine's plan lock, so concurrent callers never corrupt the
        LRU order or compile the same expression twice.
        """
        plan, trace, _hit = self._plan_cached(expression, optimize)
        return plan, trace

    def _plan_cached(
        self, expression: str, optimize: bool = True
    ) -> tuple[QueryPlan, OptimizationTrace | None, bool]:
        """:meth:`plan` plus whether the cache answered (for metrics)."""
        with self._plan_lock:
            if self._plan_cache_epoch != self.store.epoch:
                self._plan_cache.clear()
                self._plan_cache_epoch = self.store.epoch
            cache_key = (expression, optimize)
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                # Re-insert to mark this entry most-recently-used.
                del self._plan_cache[cache_key]
                self._plan_cache[cache_key] = cached
                self.plan_cache_hits += 1
                return (*cached, True)
            self.plan_cache_misses += 1
            default = self.compile(expression)
            if optimize:
                # The optimizer must never kill a query: individual rule
                # failures are already sandboxed inside the loop, and if the
                # loop itself dies (estimator bug, pathological plan) we fall
                # back to the default plan with the failure on the trace.
                # Interrupts and query-guard violations must still abort the
                # query, so they pass through the sandbox untouched.
                try:
                    plan, trace = self.optimize(default)
                except (
                    KeyboardInterrupt,
                    QueryTimeoutError,
                    BudgetExceededError,
                    QueryCancelledError,
                ):
                    raise
                except Exception as error:  # noqa: BLE001 - deliberate sandbox
                    trace = OptimizationTrace(expression=expression)
                    trace.failure = f"{type(error).__name__}: {error}"
                    plan = default
            else:
                plan, trace = default, None
            if self._plan_cache_size > 0:
                if len(self._plan_cache) >= self._plan_cache_size:
                    self._plan_cache.pop(next(iter(self._plan_cache)))
                self._plan_cache[cache_key] = (plan, trace)
            return plan, trace, False

    # -- static analysis --------------------------------------------------------

    def schema(self) -> SchemaGraph:
        """The schema graph satisfiability runs against (cached per epoch).

        When the store looks like an XMark document (document element
        ``site`` and every element/attribute name drawn from the generator
        vocabulary) the exhaustive XMark grammar is used; anything else
        falls back to a names-only schema mined from the name index, which
        still prunes unknown-name tests but assumes any structure.
        """
        with self._plan_lock:
            if self._schema is not None and self._schema_epoch == self.store.epoch:
                return self._schema
            elements: set[str] = set()
            attributes: set[str] = set()
            for name in self.store.name_index.distinct_names():
                if name.startswith("@"):
                    attributes.add(name[1:])
                elif not name.startswith(("#", "?")):
                    elements.add(name)
            root = self.store.root_element().name
            xmark_attributes = frozenset().union(
                *vocabulary.SCHEMA_ATTRIBUTES.values()
            )
            if (
                root == vocabulary.SCHEMA_ROOT
                and elements <= vocabulary.SCHEMA_ELEMENTS
                and attributes <= xmark_attributes
            ):
                schema = xmark_schema()
            else:
                schema = names_only_schema(elements, attributes, root=root)
            self._schema = schema
            self._schema_epoch = self.store.epoch
            self._sat_cache.clear()
            return schema

    def satisfiability(self, expression: str) -> SatReport:
        """Judge an expression against the store's schema (cached)."""
        with self._plan_lock:
            schema = self.schema()
            cached = self._sat_cache.get(expression)
            if cached is not None:
                return cached
            report = SatisfiabilityAnalyzer(schema).analyze(parse_xpath(expression))
            self._sat_cache[expression] = report
            return report

    def _statically_empty(self, expression: str) -> SatReport | None:
        """The unsat report for a provably-empty query, else None.

        The analysis is advisory: if it breaks (unparseable corner case,
        schema bug) the query simply runs normally.  Guard violations and
        interrupts still propagate.
        """
        if not self.static_check:
            return None
        try:
            report = self.satisfiability(expression)
        except (
            KeyboardInterrupt,
            QueryTimeoutError,
            BudgetExceededError,
            QueryCancelledError,
        ):
            raise
        except Exception:  # noqa: BLE001 - advisory analysis only
            return None
        return None if report.satisfiable else report

    # -- execution --------------------------------------------------------------

    def _block_size(self, plan: QueryPlan) -> int:
        """The pipeline block size for one plan execution.

        The estimator call is advisory: if it breaks on a pathological
        plan the default block size is used.  Guard violations and
        interrupts still propagate.
        """
        # Plans are cached per expression, so memoizing the size on the
        # plan keeps repeat evaluations from re-walking it (visible on
        # microsecond-scale queries).
        size = getattr(plan, "_block_size_hint", None)
        if size is None:
            try:
                size = self.estimator.suggest_block_size(plan)
            except (
                KeyboardInterrupt,
                QueryTimeoutError,
                BudgetExceededError,
                QueryCancelledError,
            ):
                raise
            except Exception:  # noqa: BLE001 - advisory sizing only
                size = DEFAULT_BLOCK_SIZE
            plan._block_size_hint = size
        return size

    def execute(
        self,
        plan: QueryPlan,
        context: FlexKey | None = None,
        trace: OptimizationTrace | None = None,
        guard: QueryGuard | None = None,
    ) -> QueryResult:
        """Run a plan and collect the result node-set with metrics.

        A :class:`QueryGuard` violation propagates as the matching typed
        :class:`~repro.errors.ExecutionError` subclass; partial results
        are discarded.
        """
        before = self.store.io_snapshot()
        started = time.perf_counter()
        raw_keys = list(
            execute_plan(
                plan, self.store, context, guard=guard,
                block_size=self._block_size(plan),
            )
        )
        elapsed = time.perf_counter() - started
        keys = dedup_document_order(raw_keys) if plan.root.distinct else raw_keys
        after = self.store.io_snapshot()
        metrics = ExecutionMetrics(
            wall_seconds=elapsed,
            optimize_seconds=trace.elapsed_seconds if trace else 0.0,
            tuples_returned=len(keys),
            record_fetches=after["record_fetches"] - before["record_fetches"],
            pages_read=after["pages_read"] - before["pages_read"],
            logical_reads=after["logical_reads"] - before["logical_reads"],
            key_comparisons=after["key_comparisons"] - before["key_comparisons"],
            entries_scanned=after["entries_scanned"] - before["entries_scanned"],
        )
        metrics.counters["raw_tuples"] = len(raw_keys)
        return QueryResult(self.store, keys, metrics, trace, plan.expression)

    def evaluate(
        self,
        expression: str,
        optimize: bool = True,
        context: FlexKey | None = None,
        timeout_ms: float | None = None,
        max_pages: int | None = None,
        max_results: int | None = None,
        guard: QueryGuard | None = None,
    ) -> QueryResult:
        """The full pipeline: compile → optimize → execute.

        ``timeout_ms`` / ``max_pages`` / ``max_results`` build a
        :class:`QueryGuard` for this call; pass a prebuilt ``guard``
        instead to share one (e.g. to cancel from another thread).
        """
        if guard is None and (
            timeout_ms is not None or max_pages is not None or max_results is not None
        ):
            guard = QueryGuard(
                timeout_ms=timeout_ms, max_pages=max_pages, max_results=max_results
            )
        if context is None:
            # Satisfiability pre-pass: a query the schema analysis proves
            # empty is answered right here — no plan, no index I/O.  The
            # check only applies to document-context evaluation; an
            # explicit context node changes what a relative path means.
            report = self._statically_empty(expression)
            if report is not None:
                metrics = ExecutionMetrics(tuples_returned=0)
                metrics.counters["static_empty"] = 1
                return QueryResult(self.store, [], metrics, None, expression)
        plan, trace, cache_hit = self._plan_cached(expression, optimize)
        result = self.execute(plan, context, trace, guard=guard)
        result.metrics.plan_cache_hits = 1 if cache_hit else 0
        result.metrics.plan_cache_misses = 0 if cache_hit else 1
        return result

    def evaluate_value(
        self,
        expression: str,
        context: FlexKey | None = None,
        guard: QueryGuard | None = None,
    ):
        """Evaluate a general (non-node-set) XPath expression.

        Returns a Python bool/float/str, or a list of keys if the
        expression turns out to be a node-set after all.  A ``guard``
        governs the embedded node-set evaluations exactly as in
        :meth:`evaluate` — ``count(//a)`` under a page budget trips the
        same :class:`~repro.errors.BudgetExceededError`.
        """
        tree = parse_xpath(expression)
        if isinstance(tree, (ast.LocationPath, ast.UnionExpr)):
            return list(self.evaluate(expression, context=context, guard=guard))
        if guard is not None:
            guard.bind(self.store)
        expr = build_expr(tree)
        evaluator = ExpressionEvaluator(self.store, guard)
        eval_context = EvalContext(
            self.store,
            context if context is not None else FlexKey.document(),
            guard=guard,
        )
        value = evaluator.evaluate(expr, eval_context)
        if isinstance(value, NodeSetValue):
            return dedup_document_order(value.keys())
        return value

    # -- inspection ---------------------------------------------------------------

    def explain(
        self,
        expression: str,
        optimize: bool = True,
        verify: bool = False,
    ) -> str:
        """The annotated plan tree, plus the optimization trace if any.

        With ``verify=True`` the static analyses run too: the plan is
        checked against every structural invariant (raising
        :class:`~repro.errors.PlanInvariantError` if one is broken), the
        inferred per-operator properties are appended, and the
        satisfiability verdict is reported.
        """
        plan, trace = self.plan(expression, optimize)
        self.estimator.estimate(plan)
        sections = [plan.explain()]
        if trace is not None:
            sections.append(trace.describe())
        if verify:
            PlanVerifier().verify(plan)
            sections.append(describe_properties(plan))
            report = self.satisfiability(expression)
            sections.append(f"invariants: ok\nsatisfiability: {report.describe()}")
        return "\n\n".join(sections)

    def __repr__(self) -> str:
        return f"<VamanaEngine over {self.store!r}>"
