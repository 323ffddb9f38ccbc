"""Translation validation for the optimizer (``repro.analysis.tv``).

The plan verifier of :mod:`repro.analysis.plan_verifier` checks *static*
properties of a rewrite — tree shape, ordering/distinctness flags,
guard threading.  This package discharges the stronger obligation the
paper only argues informally: that every rewrite rule is a true
*equivalence*, returning the same node-set as the plan it replaced on
every document.

Four cooperating parts:

* :mod:`repro.analysis.tv.documents` — a bounded enumerator producing
  every XMark-vocabulary document up to a node budget (bounded model
  checking), plus seeded random documents beyond the bound;
* :mod:`repro.analysis.tv.oracle` — the differential harness: a rewrite's
  pre- and post-plans run through the pipeline at a small block size and
  are cross-checked against the DOM baseline, comparing ordered FLEX-key
  sequences;
* :mod:`repro.analysis.tv.shrinker` — delta debugging: a failing
  (document, query, rule) triple is minimized to a smallest reproducer
  and emitted as a pytest-ready fixture;
* :mod:`repro.analysis.tv.bounds` — abstract interpretation of plans
  into guaranteed ``[lo, hi]`` cardinality intervals, used to lint the
  cost estimator's point estimates (estimator soundness) and to clamp
  :meth:`~repro.cost.estimator.CostEstimator.suggest_block_size`.

:mod:`repro.analysis.tv.runner` drives them all; the CLI front-end is
``repro verify-rules [--quick|--exhaustive]``.
"""

from repro.analysis.tv.bounds import (
    CardinalityInterval,
    check_estimator_soundness,
    derive_intervals,
    soundness_violations,
)
from repro.analysis.tv.documents import (
    DocumentBounds,
    enumerate_documents,
    random_documents,
)
from repro.analysis.tv.oracle import (
    DifferentialOracle,
    dom_key_map,
    dom_reference,
    evaluate_plan,
)
from repro.analysis.tv.runner import VerifyReport, verify_rules
from repro.analysis.tv.shrinker import Reproducer, count_nodes, shrink_document

__all__ = [
    "CardinalityInterval",
    "DifferentialOracle",
    "DocumentBounds",
    "Reproducer",
    "VerifyReport",
    "check_estimator_soundness",
    "count_nodes",
    "derive_intervals",
    "dom_key_map",
    "dom_reference",
    "enumerate_documents",
    "evaluate_plan",
    "random_documents",
    "shrink_document",
    "soundness_violations",
    "verify_rules",
]
