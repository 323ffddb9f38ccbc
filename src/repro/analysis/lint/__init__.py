"""Repo-invariant linter: mechanical checks for contracts tests can't see.

Some of this codebase's correctness rules are *conventions* spread across
many files — exactly the kind of thing a refactor silently breaks and no
unit test notices.  This linter walks the stdlib :mod:`ast` of every
module under ``src/repro`` and enforces them.  The rules live in one
module per family:

:mod:`~repro.analysis.lint.guards`
    ``VAM001`` **guard checkpoint** — every ``next_block``
    implementation must call ``.checkpoint()`` before its
    first ``return`` or ``yield``, and every operator scan generator must
    bound the stretch between checkpoints by an integer cadence ≤ 64.
    ``VAM002`` **no swallowed interrupts** — an ``except Exception``
    handler (or broader) must re-raise or be preceded by a handler that
    re-raises the query-guard errors; bare/``BaseException`` handlers
    must also let ``KeyboardInterrupt`` escape.
    ``VAM004`` **no wall clock in operators** — operator classes must
    not call ``time.time``/``monotonic``/``perf_counter``; time is
    injected through the guard's clock.

:mod:`~repro.analysis.lint.persistence`
    ``VAM003`` **no raw decode errors from persistence** — in
    ``mass/persistence.py`` every ``struct``/``zlib`` decode call must
    convert failures to :class:`StorageError`, transitively through
    private helpers.

:mod:`~repro.analysis.lint.optimizer`
    ``VAM005`` **rewrite-rule hygiene** — concrete rule classes under
    ``optimizer/rules/`` declare a non-empty ``paper_ref``, and rule
    applications outside the library route through ``check_rewrite``.

:mod:`~repro.analysis.lint.serving`
    ``VAM006`` **no leaked snapshot pins** — in the serving package
    every ``.acquire()`` releases on all exits (with-statement,
    try/finally with no pre-try leak window, or ownership-transferring
    return).
    ``VAM011`` **acquire/release refcount pairing** — the repo-wide
    generalization: manager/snapshot-shaped acquires outside serving
    carry the same obligation, and an acquired pin must never be
    released twice on any path (straight-line or try-body + finally).

:mod:`~repro.analysis.lint.concurrency`
    ``VAM007`` **guarded fields stay guarded**, ``VAM008`` **acyclic
    lock order** (whole-repo), ``VAM009`` **no blocking under a lock** —
    implemented in :mod:`repro.analysis.concurrency.static`.

:mod:`~repro.analysis.lint.protocol`
    ``VAM010`` **every emitted frame op is dispatched** — a whole-repo
    cross-module check: every ``"op"`` constant handed to
    ``send_json``/``encode_json`` (inline or via a name-assigned dict)
    must have a matching comparison in some module that calls
    ``recv_frame``/``decode_frame``.
    ``VAM012`` **no raw pipe I/O outside the framing helpers** —
    ``send_bytes``/``recv_bytes`` only in ``sharding/protocol.py``, and
    no pickle-framed ``conn.send()``/``conn.recv()`` in the sharding
    package.

Run it as ``python -m repro.analysis.lint src/repro`` (exit status 0 means
clean, 1 means violations, 2 means bad invocation).  Pass
``--require VAM007,VAM010`` to additionally fail (exit 2) if any named
rule is not registered — CI uses this to prove new rule families are
actually wired in, not silently dropped.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys

from repro.analysis.lint import (
    concurrency as _concurrency,
    guards as _guards,
    optimizer as _optimizer,
    persistence as _persistence,
    protocol as _protocol,
    serving as _serving,
)
from repro.analysis.lint.common import (
    LintViolation,
    _parse_source,
    iter_python_files,
)

__all__ = [
    "LintViolation",
    "CHECKS",
    "REPO_CHECKS",
    "RULE_SUMMARIES",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "main",
]

#: Per-file checks, assembled from every rule-family module.
CHECKS = (
    *_guards.CHECKS,
    *_persistence.CHECKS,
    *_optimizer.CHECKS,
    *_serving.CHECKS,
    *_protocol.CHECKS,
)

#: Repo-level checks: they see every parsed file at once.
REPO_CHECKS = (
    _concurrency.check_lock_order_repo,
    _protocol.check_frame_dispatch,
)

#: Every registered rule, for ``--require`` and the README table.
RULE_SUMMARIES = {
    "VAM001": "guard checkpoint threaded through operators; bounded scan cadence",
    "VAM002": "broad exception handlers must not swallow guard interrupts",
    "VAM003": "persistence converts raw decode errors to StorageError",
    "VAM004": "no wall-clock calls inside operators",
    "VAM005": "rewrite rules cite the paper and route through check_rewrite",
    "VAM006": "snapshot pins released on all exits, no pre-try leak window",
    "VAM007": "lock-guarded fields accessed under their lock everywhere",
    "VAM008": "whole-repo lock acquisition order is acyclic",
    "VAM009": "no blocking operations while holding a lock",
    "VAM010": "every emitted frame op has a dispatch branch in a receive loop",
    "VAM011": "snapshot acquire/release refcount pairing holds repo-wide",
    "VAM012": "no raw pipe reads/writes outside the protocol framing helpers",
}


def _lint_tree(path: str, tree: ast.Module, source: str) -> list[LintViolation]:
    """All per-file checks (everything except the repo-level rules)."""
    violations: list[LintViolation] = []
    for check in CHECKS:
        violations.extend(check(path, tree))
    violations.extend(_concurrency.check_concurrency_file(path, tree, source))
    return violations


def lint_file(path: str) -> list[LintViolation]:
    source, tree, violations = _parse_source(path)
    if tree is None:
        return violations
    return violations + _lint_tree(path, tree, source)


def lint_paths(paths: list[str]) -> list[LintViolation]:
    violations: list[LintViolation] = []
    #: (path, tree, source) for every parseable file — the repo-level
    #: rules (VAM008, VAM010) need the whole set at once to see
    #: relationships that span modules.
    triples: list[tuple[str, ast.Module, str]] = []
    for path in iter_python_files(paths):
        source, tree, parse_violations = _parse_source(path)
        violations.extend(parse_violations)
        if tree is None:
            continue
        violations.extend(_lint_tree(path, tree, source))
        triples.append((path, tree, source))
    for repo_check in REPO_CHECKS:
        violations.extend(repo_check(triples))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Check repo invariants (guard threading, exception "
        "hygiene, persistence error conversion, injectable clocks, "
        "lock discipline, frame dispatch, snapshot refcount pairing).",
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--require",
        metavar="RULES",
        help="comma-separated rule ids (e.g. VAM007,VAM010) that must be "
        "registered in this linter; exit 2 if any is unknown",
    )
    options = parser.parse_args(argv)
    if options.require:
        required = [rule.strip() for rule in options.require.split(",") if rule.strip()]
        unknown = sorted(set(required) - set(RULE_SUMMARIES))
        if unknown:
            print(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                f"(registered: {', '.join(sorted(RULE_SUMMARIES))})",
                file=sys.stderr,
            )
            return 2
    for path in options.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    violations = lint_paths(options.paths)
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0
