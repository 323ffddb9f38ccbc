"""Shared linter infrastructure: the violation record and AST helpers.

Every rule module imports from here and only from here — ``common`` has
no intra-package imports, so the rule families stay import-cycle-free
(including :mod:`repro.analysis.concurrency.static`, which needs
:class:`LintViolation` while itself being invoked *by* the linter).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def path_segments(path: str) -> list[str]:
    return os.path.normpath(path).split(os.sep)


def _exception_names(node: ast.expr | None) -> set[str]:
    """The (rightmost) names an ``except`` clause type expression mentions."""
    if node is None:
        return {"BaseException"}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        names: set[str] = set()
        for element in node.elts:
            names.update(_exception_names(element))
        return names
    if isinstance(node, ast.Starred):
        return _exception_names(node.value)
    return set()


def _has_bare_raise(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _function_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _module_int_constants(tree: ast.AST) -> dict[str, int]:
    """Module-level ``NAME = <int literal>`` assignments, by name."""
    constants: dict[str, int] = {}
    if not isinstance(tree, ast.Module):
        return constants
    for stmt in tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Constant)
            and type(stmt.value.value) is int
        ):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                constants[target.id] = stmt.value.value
    return constants


def _resolve_int(node: ast.expr, constants: dict[str, int]) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


def _is_operator_class(node: ast.ClassDef) -> bool:
    if node.name.endswith("Operator"):
        return True
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == "next_block"
        for item in node.body
    )


def _scope_nodes(root: ast.AST):
    """Walk ``root`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _stmt_blocks(scope: ast.AST):
    """Yield every statement list in ``scope``, not entering nested defs."""
    nodes = [scope]
    for node in _scope_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested scope's blocks belong to that scope
        nodes.append(node)
    for node in nodes:
        for attr in ("body", "orelse", "finalbody"):
            block = getattr(node, attr, None)
            # IfExp/Lambda reuse the attribute names for single exprs.
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _parse_source(path: str):
    """Read and parse ``path`` → (source, tree | None, violations)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return source, None, [
            LintViolation(path, exc.lineno or 0, "VAM000", f"syntax error: {exc.msg}")
        ]
    return source, tree, []


def iter_python_files(paths: list[str]):
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path
