"""Guard-threading rules: VAM001 (checkpoints + cadence), VAM002, VAM004.

The query governor only works if every operator cooperates: tuples must
not be emitted before a checkpoint, broad handlers must not swallow the
governor's interrupts, and operators must never read the wall clock
directly (time is injected through the guard so replay is
deterministic).
"""

from __future__ import annotations

import ast

from repro.analysis.lint.common import (
    LintViolation,
    _exception_names,
    _function_defs,
    _has_bare_raise,
    _is_operator_class,
    _module_int_constants,
    _resolve_int,
)

GUARD_ERROR_NAMES = frozenset(
    {"QueryTimeoutError", "BudgetExceededError", "QueryCancelledError"}
)
#: Catching any of these re-raises guard errors by subsumption.
GUARD_ERROR_BASES = frozenset({"ExecutionError", "ReproError"})

WALL_CLOCK_ATTRS = frozenset({"time", "monotonic", "perf_counter", "process_time"})

#: The largest permitted stretch between guard checkpoints in a scan loop.
MAX_CHECKPOINT_CADENCE = 64


# -- VAM001: guard checkpoint in next_block ------------------------------------


def _check_guard_checkpoint(path: str, tree: ast.AST) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for func in _function_defs(tree):
        if func.name != "next_block":
            continue
        first_emit: int | None = None
        first_checkpoint: int | None = None
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if first_emit is None or node.lineno < first_emit:
                    first_emit = node.lineno
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "checkpoint"
            ):
                if first_checkpoint is None or node.lineno < first_checkpoint:
                    first_checkpoint = node.lineno
        if first_emit is None:
            continue  # raise-only body (the abstract base)
        if first_checkpoint is None:
            violations.append(
                LintViolation(
                    path, func.lineno, "VAM001",
                    f"{func.name} at line {func.lineno} never calls "
                    "guard.checkpoint()",
                )
            )
        elif first_checkpoint > first_emit:
            violations.append(
                LintViolation(
                    path, first_emit, "VAM001",
                    f"{func.name} emits a tuple (line "
                    f"{first_emit}) before its first guard.checkpoint() "
                    f"(line {first_checkpoint})",
                )
            )
    return violations


# -- VAM001 (cont.): bounded checkpoint cadence in operator scan generators ----


def _check_scan_cadence(path: str, tree: ast.AST) -> list[LintViolation]:
    constants = _module_int_constants(tree)
    violations: list[LintViolation] = []
    for klass in ast.walk(tree):
        if not (isinstance(klass, ast.ClassDef) and _is_operator_class(klass)):
            continue
        for func in _function_defs(klass):
            if "scan" not in func.name:
                continue
            if not any(
                isinstance(node, (ast.Yield, ast.YieldFrom))
                for node in ast.walk(func)
            ):
                continue
            checkpoints = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "checkpoint"
                for node in ast.walk(func)
            )
            if not checkpoints:
                violations.append(
                    LintViolation(
                        path, func.lineno, "VAM001",
                        f"scan generator {func.name} in operator class "
                        f"{klass.name} never calls guard.checkpoint()",
                    )
                )
                continue
            bounded = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                for operand in operands:
                    cadence = _resolve_int(operand, constants)
                    if cadence is not None and 0 < cadence <= MAX_CHECKPOINT_CADENCE:
                        bounded = True
                        break
                if bounded:
                    break
            if not bounded:
                violations.append(
                    LintViolation(
                        path, func.lineno, "VAM001",
                        f"scan generator {func.name} in operator class "
                        f"{klass.name} has no bounded checkpoint cadence "
                        "(compare a counter against an integer "
                        f"<= {MAX_CHECKPOINT_CADENCE})",
                    )
                )
    return violations


# -- VAM002: broad handlers must not swallow interrupts ------------------------


def _guard_errors_covered(reraised: set[str]) -> bool:
    if reraised & (GUARD_ERROR_BASES | {"Exception", "BaseException"}):
        return True
    return GUARD_ERROR_NAMES <= reraised


def _check_exception_swallowing(path: str, tree: ast.AST) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        reraised: set[str] = set()
        for handler in node.handlers:
            names = _exception_names(handler.type)
            broad = bool(names & {"Exception", "BaseException"})
            if _has_bare_raise(handler):
                reraised.update(names)
                continue
            if not broad:
                continue
            if not _guard_errors_covered(reraised):
                caught = "bare except" if handler.type is None else (
                    "except " + "/".join(sorted(names))
                )
                violations.append(
                    LintViolation(
                        path, handler.lineno, "VAM002",
                        f"{caught} swallows query-guard errors "
                        "(QueryTimeoutError/BudgetExceededError/"
                        "QueryCancelledError): re-raise them in a preceding "
                        "handler or add a bare raise",
                    )
                )
            if "BaseException" in names and not (
                reraised & {"KeyboardInterrupt", "BaseException"}
            ):
                violations.append(
                    LintViolation(
                        path, handler.lineno, "VAM002",
                        "bare/BaseException handler swallows "
                        "KeyboardInterrupt: re-raise it first",
                    )
                )
    return violations


# -- VAM004: no wall-clock calls inside operators ------------------------------


def _check_wall_clock(path: str, tree: ast.AST) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_operator_class(node)):
            continue
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            called = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in WALL_CLOCK_ATTRS
            ):
                called = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in (
                "monotonic", "perf_counter", "process_time"
            ):
                called = func.id
            if called:
                violations.append(
                    LintViolation(
                        path, inner.lineno, "VAM004",
                        f"operator class {node.name} calls {called}(): "
                        "inject time through the guard's clock instead",
                    )
                )
    return violations


CHECKS = (
    _check_guard_checkpoint,
    _check_scan_cadence,
    _check_exception_swallowing,
    _check_wall_clock,
)
