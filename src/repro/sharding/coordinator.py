"""The scatter-gather coordinator over a shard directory.

:class:`ShardedDatabase` opens a directory written by
:mod:`repro.sharding.partitioner`, spawns one worker process per shard
(each owning its shard's ``.mass`` files and engines), and evaluates
XPath queries fleet-wide:

* **Analyze once** — the expression is parsed at the coordinator; a
  top-level ``count(path)`` short-circuits to summing per-shard exact
  counts (the counted B+-trees answer those without materialising
  results).
* **Prune** — each shard's manifest carries its name vocabulary; the
  satisfiability analyzer proves, per shard, whether the query can
  possibly match there.  Unsatisfiable shards are never contacted
  (``shards_pruned`` in the outcome is the evidence).  The fan-out cost
  model (:func:`repro.cost.estimator.estimate_fanout`) then routes to a
  single shard when per-shard statistics show only one can contribute.
* **Scatter** — survivors get the query over the framed pipe protocol
  with the per-shard budget (deadline / page / result caps enforce
  *inside* each worker via its own ``QueryGuard``).
* **Gather** — result keys stream back as ``sort_bytes`` blocks under
  credit-window flow control; a k-way heap merge interleaves the
  per-shard streams into global ``(document, key)`` order while the
  coordinator buffers at most ``window`` blocks per shard.
* **Capture** — a worker that crashes mid-query (or outlives the gather
  deadline) is captured as a typed per-shard error in the outcome
  (``on_error="capture"`` semantics); surviving shards' results still
  merge, the outcome is marked partial, and the dead worker is respawned
  for the next query.  ``on_error="raise"`` re-raises the first shard
  error instead.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Iterator

from repro.analysis.satisfiability import SatisfiabilityAnalyzer, names_only_schema
from repro.cost.estimator import estimate_fanout
from repro.errors import (
    BudgetExceededError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ShardingError,
    ShardProtocolError,
    ShardWorkerCrashError,
    TransientStorageError,
)
from repro.mass.flexkey import FlexKey, decode_sort_bytes
from repro.sharding import protocol
from repro.sharding.merge import kway_merge
from repro.sharding.partitioner import ShardManifest, ShardSpec, load_manifest
from repro.sharding.protocol import send_json
from repro.sharding.worker import worker_main
from repro.xpath import ast
from repro.xpath.parser import parse_xpath

#: Extra wall-clock grace the coordinator allows beyond the per-shard
#: query deadline before it declares a worker hung.  Workers enforce the
#: deadline themselves; the gather backstop only fires for crashed or
#: wedged processes.
GATHER_GRACE_S = 2.0

#: Gather backstop when the query carries no deadline of its own.
DEFAULT_GATHER_TIMEOUT_S = 60.0

#: Worker → coordinator error names mapped back to typed exceptions.
_ERROR_TYPES: dict[str, type[ReproError]] = {
    cls.__name__: cls
    for cls in (
        QueryTimeoutError,
        BudgetExceededError,
        QueryCancelledError,
        TransientStorageError,
        ExecutionError,
        ShardingError,
    )
}


def revive_error(name: str, message: str) -> ReproError:
    """Best-effort reconstruction of a worker-side typed error.

    The worker ships ``(type name, message)`` over the pipe; the type is
    restored so callers can catch the same exceptions they would see
    in-process.  Structured constructor arguments (for example
    ``BudgetExceededError.resource``) do not survive the trip — only the
    type and the rendered message do.
    """
    cls = _ERROR_TYPES.get(name)
    if cls is None:
        return ExecutionError(f"{name}: {message}")
    try:
        # Classes with structured constructors reject a bare message —
        # TypeError for a wrong arity, ValueError when the message lands
        # in a numeric slot (QueryTimeoutError formats timeout_ms).
        return cls(message)  # type: ignore[call-arg]
    except (TypeError, ValueError):
        error = cls.__new__(cls)
        Exception.__init__(error, message)
        return error


def split_count_expression(expression: str) -> str | None:
    """``count(inner)`` at the top level → ``inner``; else ``None``."""
    try:
        tree = parse_xpath(expression)
    except ReproError:
        return None
    if (
        isinstance(tree, ast.FunctionCall)
        and tree.name == "count"
        and len(tree.args) == 1
        and isinstance(tree.args[0], (ast.LocationPath, ast.UnionExpr))
    ):
        return tree.args[0].unparse()
    return None


def main_path_names(expression: str) -> list[list[str]]:
    """Per union branch, the name-index names required on the main path.

    A shard lacking any one of a branch's names cannot produce results
    for that branch — the routing signal :func:`estimate_fanout` scores.
    Predicates are ignored (they may be disjunctive); the satisfiability
    analyzer covers those soundly.
    """
    try:
        tree = parse_xpath(expression)
    except ReproError:
        return []
    if isinstance(tree, ast.FunctionCall) and tree.args:
        tree = tree.args[0]
    branches: list[ast.LocationPath] = []
    if isinstance(tree, ast.UnionExpr):
        queue = list(tree.branches)
        while queue:
            node = queue.pop()
            if isinstance(node, ast.UnionExpr):
                queue.extend(node.branches)
            elif isinstance(node, ast.LocationPath):
                branches.append(node)
            else:
                return []  # a branch we cannot analyze: no routing signal
    elif isinstance(tree, ast.LocationPath):
        branches.append(tree)
    else:
        return []
    result = []
    for path in branches:
        names = []
        for step in path.steps:
            test = step.test
            name = getattr(test, "name", None)
            if name and name != "*":
                if step.axis is ast.Axis.ATTRIBUTE:
                    names.append(f"@{name}")
                else:
                    names.append(name)
        result.append(names)
    return result


# -- subtree-manifest safety ---------------------------------------------------

#: Axes whose result set spans the whole document from any context node;
#: a range-partitioned worker only sees its own slice, so these can
#: never evaluate correctly shard-locally.
_SPANNING_AXES = (ast.Axis.FOLLOWING, ast.Axis.PRECEDING)

#: Axes that select among a node's siblings — broken when the context
#: node sits at the split depth (its siblings may live on another shard).
_SIBLING_AXES = (ast.Axis.FOLLOWING_SIBLING, ast.Axis.PRECEDING_SIBLING)

#: Subtree split points sit between the document element's children, so
#: every node at depth <= _SPLIT_DEPTH may have siblings (or positional
#: peers) on another shard.  Complete subtrees hang below that depth.
_SPLIT_DEPTH = 2


def _iter_expr_nodes(node: ast.XPathNode):
    """Every node of a predicate/expression tree, including nested paths."""
    yield node
    if isinstance(node, ast.LocationPath):
        for step in node.steps:
            yield from _iter_expr_nodes(step)
    elif isinstance(node, ast.Step):
        for predicate in node.predicates:
            yield from _iter_expr_nodes(predicate)
    elif isinstance(node, (ast.Comparison, ast.AndExpr, ast.OrExpr, ast.BinaryOp)):
        yield from _iter_expr_nodes(node.left)
        yield from _iter_expr_nodes(node.right)
    elif isinstance(node, ast.Negate):
        yield from _iter_expr_nodes(node.operand)
    elif isinstance(node, ast.FunctionCall):
        for arg in node.args:
            yield from _iter_expr_nodes(arg)
    elif isinstance(node, ast.UnionExpr):
        for branch in node.branches:
            yield from _iter_expr_nodes(branch)
    elif isinstance(node, ast.PathExpr):
        yield from _iter_expr_nodes(node.primary)
        for predicate in node.predicates:
            yield from _iter_expr_nodes(predicate)
        for step in node.steps:
            yield from _iter_expr_nodes(step)


def _is_positional(predicate: ast.XPathNode) -> bool:
    """A bare number, or any ``position()``/``last()`` use inside."""
    if isinstance(predicate, ast.NumberLiteral):
        return True
    return any(
        isinstance(node, ast.FunctionCall) and node.name in ("position", "last")
        for node in _iter_expr_nodes(predicate)
    )


def _step_depths(
    axis: ast.Axis, lo: int, hi: int | None
) -> tuple[int, int | None]:
    """Attainable node-depth interval after one step from ``[lo, hi]``.

    ``hi=None`` means unbounded.  The analysis only needs to be sound
    (never under-approximate the interval), not tight.
    """
    if axis in (ast.Axis.CHILD, ast.Axis.ATTRIBUTE, ast.Axis.NAMESPACE):
        return lo + 1, None if hi is None else hi + 1
    if axis is ast.Axis.DESCENDANT:
        return lo + 1, None
    if axis is ast.Axis.DESCENDANT_OR_SELF:
        return lo, None
    if axis is ast.Axis.SELF or axis in _SIBLING_AXES:
        return lo, hi
    if axis is ast.Axis.PARENT:
        return max(lo - 1, 0), None if hi is None else max(hi - 1, 0)
    if axis is ast.Axis.ANCESTOR:
        return 0, None if hi is None else max(hi - 1, 0)
    if axis is ast.Axis.ANCESTOR_OR_SELF:
        return 0, hi
    return 0, None  # following / preceding: anywhere in the document


def _depth_may_reach_split(lo: int, hi: int | None) -> bool:
    return lo <= _SPLIT_DEPTH and (hi is None or hi >= _SPLIT_DEPTH)


def _scan_steps(
    steps: tuple[ast.Step, ...], lo: int, hi: int | None, hazards: list[str]
) -> None:
    for step in steps:
        axis = step.axis
        if axis in _SPANNING_AXES:
            hazards.append(
                f"{axis.value}:: spans the whole document, which is split "
                "across shards"
            )
        node_lo, node_hi = _step_depths(axis, lo, hi)
        if axis in _SIBLING_AXES and _depth_may_reach_split(lo, hi):
            hazards.append(
                f"{axis.value}:: from a node at or above the split depth "
                f"({_SPLIT_DEPTH}) may cross a shard boundary"
            )
        if any(_is_positional(predicate) for predicate in step.predicates):
            if axis in (ast.Axis.DESCENDANT, ast.Axis.DESCENDANT_OR_SELF):
                hazards.append(
                    f"positional predicate on {axis.value}:: counts over the "
                    "whole document, which is split across shards"
                )
            elif _depth_may_reach_split(node_lo, node_hi):
                hazards.append(
                    "positional predicate may select among nodes at or "
                    f"above the split depth ({_SPLIT_DEPTH}), whose peers "
                    "may live on another shard"
                )
        for predicate in step.predicates:
            _scan_expr(predicate, node_lo, node_hi, hazards)
        lo, hi = node_lo, node_hi


def _scan_expr(
    node: ast.XPathNode, lo: int, hi: int | None, hazards: list[str]
) -> None:
    if isinstance(node, ast.LocationPath):
        if node.absolute:
            _scan_steps(node.steps, 0, 0, hazards)
        else:
            _scan_steps(node.steps, lo, hi, hazards)
    elif isinstance(node, (ast.Comparison, ast.AndExpr, ast.OrExpr, ast.BinaryOp)):
        _scan_expr(node.left, lo, hi, hazards)
        _scan_expr(node.right, lo, hi, hazards)
    elif isinstance(node, ast.Negate):
        _scan_expr(node.operand, lo, hi, hazards)
    elif isinstance(node, ast.FunctionCall):
        for arg in node.args:
            _scan_expr(arg, lo, hi, hazards)
    elif isinstance(node, ast.UnionExpr):
        for branch in node.branches:
            _scan_expr(branch, lo, hi, hazards)
    elif isinstance(node, ast.PathExpr):
        _scan_expr(node.primary, lo, hi, hazards)
        # The filter's result depth is unknown: scan conservatively.
        for predicate in node.predicates:
            _scan_expr(predicate, 0, None, hazards)
        _scan_steps(node.steps, 0, None, hazards)


def subtree_hazards(expression: str) -> list[str]:
    """Constructs that break shard-local evaluation on a subtree manifest.

    Range partitioning splits one document at depth-``_SPLIT_DEPTH``
    child boundaries, so each worker evaluates against only its slice of
    the document element's children.  Three construct families would
    silently merge wrong answers and are detected here (by a
    conservative attainable-depth analysis) so the coordinator can
    reject them instead:

    * positional predicates (``[2]``, ``position()``, ``last()``) that
      may select among nodes at or above the split depth, or that count
      over a document-spanning axis — each shard would number its local
      slice from 1;
    * sibling axes from context nodes at or above the split depth — the
      siblings may live on another shard;
    * ``following::`` / ``preceding::`` anywhere — by definition they
      span the whole document.

    Collection-partitioned manifests never split inside a document and
    are unaffected.  Returns human-readable reasons, empty when safe.
    """
    try:
        tree = parse_xpath(expression)
    except ReproError:
        return []  # let evaluation surface the parse error itself
    hazards: list[str] = []
    _scan_expr(tree, 0, 0, hazards)
    return hazards


# -- outcome model -------------------------------------------------------------


@dataclass
class ShardStatus:
    """One shard's fate for one query."""

    shard_id: int
    #: ``ok`` | ``pruned`` | ``skipped`` | ``error`` | ``crashed`` | ``timeout``
    state: str
    reason: str = ""
    error: ReproError | None = None
    keys: int = 0
    #: ``(document, error type name, message)`` captured per document.
    doc_errors: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def contacted(self) -> bool:
        return self.state not in ("pruned", "skipped")


@dataclass
class ShardedOutcome:
    """What a fleet-wide evaluation produced.

    For key queries ``rows`` is the merged result in global
    ``(document, key)`` order; ``keys()`` decodes them back to
    :class:`FlexKey`.  For a short-circuited ``count()`` only ``count``
    and ``per_document_counts`` are populated.
    """

    expression: str
    mode: str  # "keys" | "count"
    rows: list[tuple[str, bytes]] = field(default_factory=list)
    count: float | None = None
    per_document_counts: dict[str, float] = field(default_factory=dict)
    shard_status: list[ShardStatus] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: Each contacted shard's work counters (the fleet metrics satellite:
    #: per-worker ``io_snapshot`` totals, keyed by shard id).  Their max
    #: is the scatter's critical path; their sum equals ``counters``.
    per_shard_counters: dict[int, dict[str, int]] = field(default_factory=dict)
    route: str = "scatter"
    route_reason: str = ""
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        if self.mode == "count":
            return int(self.count or 0)
        return len(self.rows)

    def keys(self) -> list[tuple[str, FlexKey]]:
        return [(doc, decode_sort_bytes(blob)) for doc, blob in self.rows]

    def labels(self, limit: int | None = None) -> list[str]:
        """Row labels; ``limit`` decodes only the first ``limit`` rows
        (the :meth:`QueryResult.labels <repro.engine.result.QueryResult.labels>`
        contract the wire front end relies on)."""
        if self.mode == "count":
            return [f"count() = {self.count:g}"]
        return [
            f"{doc}:{decode_sort_bytes(blob).pretty()}"
            for doc, blob in self.rows[:limit]
        ]

    @property
    def shards_contacted(self) -> int:
        return sum(1 for status in self.shard_status if status.contacted)

    @property
    def shards_pruned(self) -> int:
        return sum(1 for status in self.shard_status if not status.contacted)

    @property
    def failures(self) -> list[ShardStatus]:
        return [
            status
            for status in self.shard_status
            if status.error is not None or status.doc_errors
        ]

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_error(self) -> ReproError | None:
        for status in self.shard_status:
            if status.error is not None:
                return status.error
            if status.doc_errors:
                doc, name, message = status.doc_errors[0]
                return revive_error(name, f"document {doc!r}: {message}")
        return None

    def describe(self) -> str:
        lines = [
            f"{self.expression}: {self.mode} via {self.route} "
            f"({self.shards_contacted} contacted, {self.shards_pruned} pruned)"
            + (f" — {self.route_reason}" if self.route_reason else "")
        ]
        if self.mode == "count":
            lines.append(f"  count = {self.count:g}")
        else:
            lines.append(f"  {len(self.rows)} result keys")
        for status in self.shard_status:
            line = f"  shard {status.shard_id}: {status.state}"
            if status.reason:
                line += f" ({status.reason})"
            if status.state == "ok":
                line += f", {status.keys} keys"
            if status.error is not None:
                line += f" [{type(status.error).__name__}: {status.error}]"
            lines.append(line)
            for doc, name, message in status.doc_errors:
                lines.append(f"    {doc}: {name}: {message}")
        return "\n".join(lines)


# -- worker handles ------------------------------------------------------------


class _WorkerHandle:
    """One shard's child process and its coordinator-side pipe end."""

    def __init__(
        self,
        spec: ShardSpec,
        directory: str,
        fault_config: dict,
        tracer=None,
    ):
        self.spec = spec
        self.directory = directory
        self.fault_config = fault_config
        #: Optional protocol probe: one dict per send/recv/lifecycle
        #: event, in coordinator-observed order.  The conformance checker
        #: replays these against the shard protocol model.
        self.tracer = tracer
        self.process: multiprocessing.Process | None = None
        self.conn = None
        self.respawns = -1  # first spawn brings it to 0
        self.spawn()

    def spawn(self) -> None:
        parent, child = multiprocessing.Pipe(duplex=True)
        config = {
            "shard_id": self.spec.shard_id,
            "directory": self.directory,
            "documents": self.spec.documents,
            "range_lo": self.spec.range_lo,
            "range_hi": self.spec.range_hi,
            **self.fault_config,
        }
        # Decorrelate the workers' chaos schedules: same base seed, but
        # each shard (and each respawn) draws its own failure sequence.
        config["fault_seed"] = (
            int(config.get("fault_seed", 0))
            + 1000 * self.spec.shard_id
            + (self.respawns + 1)
        )
        process = multiprocessing.Process(
            target=worker_main,
            args=(child, config),
            name=f"repro-shard-{self.spec.shard_id}",
            daemon=True,
        )
        process.start()
        child.close()
        self.process = process
        self.conn = parent
        self.respawns += 1
        # The hello doubles as a liveness and protocol-version handshake.
        if not parent.poll(30.0):
            raise ShardWorkerCrashError(self.spec.shard_id, "no hello from worker")
        kind, payload = protocol.recv_frame(parent)
        if kind != "json" or payload.get("op") != "hello":
            raise ShardProtocolError(
                f"shard {self.spec.shard_id}: expected hello, got {payload!r}"
            )
        if payload.get("version") != protocol.PROTOCOL_VERSION:
            raise ShardProtocolError(
                f"shard {self.spec.shard_id}: protocol version "
                f"{payload.get('version')} != {protocol.PROTOCOL_VERSION}"
            )
        if self.tracer is not None:
            # Traced only after the hello handshake: a spawn event in the
            # trace means the worker is provably alive and version-checked.
            self.tracer(
                {
                    "ev": "spawn",
                    "shard": self.spec.shard_id,
                    "respawns": self.respawns,
                }
            )

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def respawn(self) -> None:
        self.shutdown(grace_s=0.5)
        self.spawn()

    def shutdown(self, grace_s: float = 5.0) -> None:
        if self.conn is not None:
            try:
                send_json(self.conn, {"op": "close"})
            except (OSError, ValueError):
                pass
            else:
                if self.tracer is not None:
                    self.tracer(
                        {"ev": "send", "shard": self.spec.shard_id,
                         "op": "close"}
                    )
                self._drain_closed_ack(grace_s)
        if self.process is not None:
            self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=grace_s)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=grace_s)
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        self.conn = None
        self.process = None

    def _drain_closed_ack(self, grace_s: float) -> None:
        """Consume frames until the worker acknowledges the close.

        The worker confirms an orderly shutdown with ``{"op": "closed"}``
        before exiting its run loop; stragglers from a cancelled query
        (late blocks, a trailing done) may sit ahead of it in the pipe.
        Draining them here keeps shutdown observable — a worker that
        never acks within the grace period is escalated to terminate()
        by the caller — instead of racing close against a pipe teardown.
        """
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            try:
                if not self.conn.poll(max(0.0, deadline - time.monotonic())):
                    return
                kind, payload = protocol.recv_frame(self.conn)
            except (OSError, EOFError, ValueError, ShardProtocolError):
                return
            if kind == "json" and payload.get("op") == "closed":
                # Stragglers ahead of the ack are just dropped; only the
                # ack itself is a protocol event worth recording.
                if self.tracer is not None:
                    self.tracer(
                        {"ev": "recv", "shard": self.spec.shard_id,
                         "op": "closed"}
                    )
                return


class _ShardRun:
    """Per-query, per-shard gather state feeding the k-way merge."""

    def __init__(
        self,
        handle: _WorkerHandle,
        request_id: int,
        status: ShardStatus,
        budget_ms: float | None = None,
    ):
        self.handle = handle
        self.request_id = request_id
        self.status = status
        self.budget_ms = budget_ms
        self.blocks: deque[deque[tuple[str, bytes]]] = deque()
        self.current_doc: str | None = None
        self.finished = False
        #: A tainted worker (hung past the gather deadline) may have
        #: stale frames in its pipe; it is replaced after the query.
        self.tainted = False
        self.counters: dict[str, int] = {}
        self.count_total: float | None = None
        self.per_doc: dict[str, float] = {}

    def fail(self, error: ReproError, state: str) -> None:
        self.status.error = error
        self.status.state = state
        self.finished = True

    def has_items(self) -> bool:
        return bool(self.blocks)

    def pop_item(self) -> tuple[str, bytes]:
        head = self.blocks[0]
        item = head.popleft()
        if not head:
            self.blocks.popleft()
            # Block fully consumed: grant the worker one more credit.
            if not self.finished and self.handle.conn is not None:
                try:
                    send_json(
                        self.handle.conn,
                        {"op": "credit", "id": self.request_id, "n": 1},
                    )
                except (OSError, ValueError):
                    pass
                else:
                    if self.handle.tracer is not None:
                        self.handle.tracer(
                            {"ev": "send", "shard": self.status.shard_id,
                             "op": "credit", "id": self.request_id}
                        )
        return item


# -- the coordinator -----------------------------------------------------------


class ShardedDatabase:
    """A shard directory fronted by one worker process per shard."""

    def __init__(
        self,
        directory: str,
        fault_rates: dict[str, float] | None = None,
        fault_seed: int = 0,
        fault_max_failures: int | None = None,
        gather_timeout_s: float = DEFAULT_GATHER_TIMEOUT_S,
        tracer=None,
    ):
        self._closed = False
        #: Optional protocol probe shared with every worker handle; see
        #: repro.analysis.statespace.conformance for the event schema.
        self.tracer = tracer
        self.workers: list[_WorkerHandle] = []
        self._workers_by_id: dict[int, _WorkerHandle] = {}
        self.manifest: ShardManifest = load_manifest(directory)
        self.directory = directory
        self.gather_timeout_s = gather_timeout_s
        self._request_id = 0
        self._analyzers: dict[int, SatisfiabilityAnalyzer] = {}
        self._fleet_totals: dict[str, int] = {}
        self._queries = 0
        self._crashes_captured = 0
        fault_config = {
            "fault_rates": dict(fault_rates or {}),
            "fault_seed": fault_seed,
            "fault_max_failures": fault_max_failures,
        }
        try:
            for spec in self.manifest.shards:
                handle = _WorkerHandle(spec, directory, fault_config, tracer)
                self.workers.append(handle)
                # Shards are addressed by manifest id, never list position
                # — a hand-edited or reordered manifest must still route
                # each query to the worker that owns the shard.
                self._workers_by_id[spec.shard_id] = handle
        except ReproError:
            self.close()  # don't leak the workers that did spawn
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop every worker; idempotent, leaves no child running."""
        if self._closed:
            return
        self._closed = True
        for handle in self.workers:
            handle.shutdown()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort: tests use close() explicitly
        try:
            self.close()
        except (OSError, ValueError, RuntimeError, ReproError):
            pass

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardingError("sharded database is closed")

    def _worker(self, shard_id: int) -> _WorkerHandle:
        handle = self._workers_by_id.get(shard_id)
        if handle is None:
            raise ShardingError(f"manifest names no shard with id {shard_id}")
        return handle

    def _check_supported(self, expression: str) -> None:
        """Reject constructs a range-partitioned fleet cannot answer."""
        if not self.manifest.is_range_partitioned:
            return
        hazards = subtree_hazards(expression)
        if hazards:
            raise ShardingError(
                f"{expression!r} is not supported on a subtree-partitioned "
                f"shard directory: {hazards[0]}.  Positional predicates, "
                "sibling axes near the split depth, and following::/"
                "preceding:: would evaluate against one shard's slice of "
                "the document; evaluate against the unsharded store instead."
            )

    # -- pruning / routing --------------------------------------------------

    def _analyzer(self, spec: ShardSpec) -> SatisfiabilityAnalyzer:
        analyzer = self._analyzers.get(spec.shard_id)
        if analyzer is None:
            root = spec.roots[0] if len(spec.roots) == 1 else ""
            schema = names_only_schema(
                frozenset(spec.elements), frozenset(spec.attributes), root=root
            )
            analyzer = SatisfiabilityAnalyzer(schema)
            self._analyzers[spec.shard_id] = analyzer
        return analyzer

    def plan_route(self, expression: str) -> tuple[list[ShardStatus], list[int]]:
        """Decide, per shard, prune vs contact; returns statuses + targets."""
        statuses: list[ShardStatus] = []
        survivors: list[ShardSpec] = []
        try:
            tree = parse_xpath(expression)
        except ReproError:
            tree = None
        if isinstance(tree, ast.FunctionCall) and tree.args:
            sat_target = tree.args[0]
        else:
            sat_target = tree
        for spec in self.manifest.shards:
            if spec.total_nodes == 0:
                statuses.append(
                    ShardStatus(spec.shard_id, "pruned", reason="empty shard")
                )
                continue
            if sat_target is not None and isinstance(
                sat_target, (ast.LocationPath, ast.UnionExpr, ast.PathExpr)
            ):
                report = self._analyzer(spec).analyze(sat_target)
                if not report.satisfiable:
                    reason = report.reasons[0] if report.reasons else "unsatisfiable"
                    statuses.append(
                        ShardStatus(spec.shard_id, "pruned", reason=reason)
                    )
                    continue
            statuses.append(ShardStatus(spec.shard_id, "ok"))
            survivors.append(spec)
        decision = estimate_fanout(
            {spec.shard_id: spec.name_counts for spec in survivors},
            main_path_names(expression),
        )
        dropped = {spec.shard_id for spec in survivors} - set(decision.shard_ids)
        for status in statuses:
            if status.shard_id in dropped:
                status.state = "skipped"
                status.reason = "fan-out model: no matching names"
        return statuses, list(decision.shard_ids)

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self,
        expression: str,
        timeout_ms: float | None = None,
        max_pages: int | None = None,
        max_results: int | None = None,
        on_error: str = "capture",
        block_keys: int = protocol.DEFAULT_BLOCK_KEYS,
        window: int = protocol.DEFAULT_WINDOW,
    ) -> ShardedOutcome:
        """Scatter one query, gather and merge; budgets apply per shard."""
        self._ensure_open()
        self._check_supported(expression)
        started = time.monotonic()
        self._queries += 1
        self._request_id += 1
        request_id = self._request_id
        inner = split_count_expression(expression)
        mode = "count" if inner is not None else "keys"
        statuses, targets = self.plan_route(expression)
        outcome = ShardedOutcome(expression=expression, mode=mode)
        outcome.shard_status = statuses
        if len(targets) <= 1:
            outcome.route = "single" if targets else "empty"
        outcome.route_reason = (
            f"{len(targets)}/{self.manifest.shard_count} shards after "
            "pruning + fan-out costing"
        )
        by_id = {status.shard_id: status for status in statuses}
        runs: list[_ShardRun] = []
        for shard_id in targets:
            handle = self._worker(shard_id)
            status = by_id[shard_id]
            if not handle.alive:
                try:
                    handle.respawn()
                except ReproError as error:
                    status.error = ShardWorkerCrashError(shard_id, str(error))
                    status.state = "crashed"
                    continue
            run = _ShardRun(handle, request_id, status, budget_ms=timeout_ms)
            message = {
                "op": "query",
                "id": request_id,
                "expr": expression,
                "mode": mode,
                "timeout_ms": timeout_ms,
                "max_pages": max_pages,
                "max_results": max_results,
                "block": block_keys,
                "window": window,
            }
            if inner is not None:
                message["inner"] = inner
            try:
                send_json(handle.conn, message)
            except (OSError, ValueError) as error:
                run.fail(ShardWorkerCrashError(shard_id, str(error)), "crashed")
            else:
                if self.tracer is not None:
                    self.tracer(
                        {"ev": "send", "shard": shard_id, "op": "query",
                         "id": request_id, "window": window}
                    )
            runs.append(run)
        deadline = started + (
            timeout_ms / 1000.0 + GATHER_GRACE_S
            if timeout_ms is not None
            else self.gather_timeout_s
        )
        if mode == "count":
            self._gather_counts(runs, deadline, outcome)
        else:
            outcome.rows = list(
                kway_merge([self._shard_stream(run, runs, deadline) for run in runs])
            )
        for run in runs:
            if isinstance(run.status.error, ShardWorkerCrashError):
                self._crashes_captured += 1
            if run.tainted or isinstance(run.status.error, ShardWorkerCrashError):
                try:
                    run.handle.respawn()
                except ReproError:
                    # Next query will retry the respawn; the trace must
                    # record the skip so stale frames in the surviving
                    # pipe have an explanation.
                    if self.tracer is not None:
                        self.tracer(
                            {"ev": "respawn_failed",
                             "shard": run.status.shard_id}
                        )
            if run.counters:
                outcome.per_shard_counters[run.status.shard_id] = dict(run.counters)
            for counter, value in run.counters.items():
                outcome.counters[counter] = outcome.counters.get(counter, 0) + value
        for counter, value in outcome.counters.items():
            self._fleet_totals[counter] = self._fleet_totals.get(counter, 0) + value
        outcome.elapsed_s = time.monotonic() - started
        if on_error == "raise":
            error = outcome.first_error()
            if error is not None:
                raise error
        return outcome

    # -- gather machinery ---------------------------------------------------

    def _shard_stream(
        self, run: _ShardRun, runs: list[_ShardRun], deadline: float
    ) -> Iterator[tuple[str, bytes]]:
        """Lazy per-shard item stream; pumps the shared pipes on demand."""
        while True:
            while not run.has_items():
                if run.finished:
                    return
                self._pump(runs, deadline)
            yield run.pop_item()

    def _pump(self, runs: list[_ShardRun], deadline: float) -> None:
        """Receive at least one frame for *some* unfinished run."""
        active = {
            run.handle.conn: run
            for run in runs
            if not run.finished and run.handle.conn is not None
        }
        if not active:
            return
        remaining = deadline - time.monotonic()
        ready = connection_wait(list(active), max(0.0, remaining)) if remaining > 0 else []
        if not ready:
            # Backstop deadline: every unfinished shard is declared hung.
            for run in active.values():
                cancelled = True
                try:
                    send_json(run.handle.conn, {"op": "cancel", "id": run.request_id})
                except (OSError, ValueError):
                    cancelled = False
                budget = run.budget_ms or self.gather_timeout_s * 1000.0
                run.fail(QueryTimeoutError(budget), "timeout")
                run.tainted = True  # pipe may hold stale frames: replace it
                if self.tracer is not None:
                    self.tracer(
                        {"ev": "timeout", "shard": run.status.shard_id,
                         "id": run.request_id}
                    )
                    if cancelled:
                        self.tracer(
                            {"ev": "send", "shard": run.status.shard_id,
                             "op": "cancel", "id": run.request_id}
                        )
            return
        for conn in ready:
            run = active[conn]
            try:
                kind, payload = protocol.recv_frame(conn)
            except (EOFError, OSError):
                run.fail(
                    ShardWorkerCrashError(
                        run.status.shard_id,
                        f"pipe closed (exit code {run.handle.process.exitcode})"
                        if run.handle.process is not None
                        else "pipe closed",
                    ),
                    "crashed",
                )
                if self.tracer is not None:
                    self.tracer(
                        {"ev": "crash", "shard": run.status.shard_id,
                         "id": run.request_id}
                    )
                continue
            except ShardProtocolError as error:
                run.fail(error, "error")
                continue
            if self.tracer is not None:
                self._trace_frame(run, kind, payload)
            self._apply_frame(run, kind, payload)

    def _trace_frame(self, run: _ShardRun, kind: str, payload) -> None:
        """Record one received frame, flagging staleness the way
        _apply_frame will judge it."""
        if kind == "block":
            request_id, keys = payload
            self.tracer(
                {"ev": "recv_block", "shard": run.status.shard_id,
                 "id": request_id, "keys": len(keys),
                 "stale": request_id != run.request_id}
            )
            return
        frame_id = payload.get("id")
        self.tracer(
            {"ev": "recv", "shard": run.status.shard_id,
             "op": payload.get("op"), "id": frame_id,
             "stale": frame_id not in (None, run.request_id)}
        )

    def _apply_frame(self, run: _ShardRun, kind: str, payload) -> None:
        if kind == "block":
            request_id, keys = payload
            if request_id != run.request_id:
                return  # straggler from a cancelled request
            doc = run.current_doc or ""
            run.blocks.append(deque((doc, blob) for blob in keys))
            run.status.keys += len(keys)
            return
        op = payload.get("op")
        if payload.get("id") not in (None, run.request_id):
            return  # stale control message
        if op == "doc":
            run.current_doc = payload.get("doc", "")
        elif op == "doc_error":
            run.status.doc_errors.append(
                (
                    payload.get("doc", ""),
                    payload.get("error", "ExecutionError"),
                    payload.get("message", ""),
                )
            )
        elif op == "count_result":
            run.count_total = float(payload.get("total", 0.0))
            run.per_doc = {
                doc: float(value)
                for doc, value in (payload.get("per_doc") or {}).items()
            }
            for entry in payload.get("errors") or ():
                run.status.doc_errors.append(
                    (
                        entry.get("doc", ""),
                        entry.get("error", "ExecutionError"),
                        entry.get("message", ""),
                    )
                )
        elif op == "done":
            run.counters = {
                str(k): int(v) for k, v in (payload.get("counters") or {}).items()
            }
            run.finished = True

    def _gather_counts(
        self, runs: list[_ShardRun], deadline: float, outcome: ShardedOutcome
    ) -> None:
        while any(not run.finished for run in runs):
            self._pump(runs, deadline)
        total = 0.0
        for run in runs:
            if run.count_total is None:
                continue
            total += run.count_total
            for doc, value in run.per_doc.items():
                outcome.per_document_counts[doc] = (
                    outcome.per_document_counts.get(doc, 0.0) + value
                )
        outcome.count = total

    # -- inspection ---------------------------------------------------------

    def explain(self, expression: str, timeout_s: float = 30.0) -> str:
        """Routing decision plus each contacted shard's plan."""
        self._ensure_open()
        self._check_supported(expression)
        statuses, targets = self.plan_route(expression)
        lines = [f"route: {len(targets)}/{self.manifest.shard_count} shards"]
        for status in statuses:
            lines.append(
                f"  shard {status.shard_id}: "
                + ("contact" if status.shard_id in targets else status.state)
                + (f" ({status.reason})" if status.reason else "")
            )
        sections = ["\n".join(lines)]
        self._request_id += 1
        request_id = self._request_id
        deadline = time.monotonic() + timeout_s
        for shard_id in targets:
            handle = self._worker(shard_id)
            if not handle.alive:
                continue
            try:
                send_json(
                    handle.conn,
                    {"op": "explain", "id": request_id, "expr": expression},
                )
                text = None
                while text is None and time.monotonic() < deadline:
                    if not handle.conn.poll(deadline - time.monotonic()):
                        break
                    kind, payload = protocol.recv_frame(handle.conn)
                    if kind == "json" and payload.get("op") == "explained":
                        text = payload.get("text", "")
                if text is not None:
                    sections.append(f"shard {shard_id}:\n{text}")
            except (EOFError, OSError, ShardProtocolError):
                sections.append(f"shard {shard_id}: worker unavailable")
        return "\n\n".join(sections)

    def stats(self) -> dict:
        """Fleet-level metrics: cumulative counters, crash/respawn counts."""
        return {
            "shards": self.manifest.shard_count,
            "scheme": self.manifest.scheme,
            "documents": len(self.manifest.document_names()),
            "total_nodes": self.manifest.total_nodes,
            "queries": self._queries,
            "crashes_captured": self._crashes_captured,
            "respawns": sum(handle.respawns for handle in self.workers),
            "workers_alive": sum(1 for handle in self.workers if handle.alive),
            "fleet_counters": dict(self._fleet_totals),
        }

    def ping(self, timeout_s: float = 5.0) -> dict[int, bool]:
        """Liveness probe per shard."""
        self._ensure_open()
        alive: dict[int, bool] = {}
        for handle in self.workers:
            ok = False
            if handle.alive and handle.conn is not None:
                try:
                    send_json(handle.conn, {"op": "ping"})
                    if handle.conn.poll(timeout_s):
                        kind, payload = protocol.recv_frame(handle.conn)
                        ok = kind == "json" and payload.get("op") == "pong"
                except (EOFError, OSError, ShardProtocolError):
                    ok = False
            alive[handle.spec.shard_id] = ok
        return alive
