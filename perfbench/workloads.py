"""The six benchmark workloads and the four rigs that drive them.

A *rig* sets the program up the way a user would (``start``), runs
closed-loop cycles of a fixed operation mixture against it for a given
time (``run``) and tears it down (``close``).  Every cycle of a rig is
the same sequence of operations, so work counters per operation repeat
exactly however many cycles fit into the run.

``run`` has two modes.  Without a tracer it makes only the user-level
call and times it.  With a tracer it makes the same operation out of
the layers' public functions, records a span around each, and returns
the per-layer numbers the operation itself exposes.

Inputs come from ``repro.xmark.generate_document(factor, seed)``; the
program only ever sees the generated text.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from oracle import digest_rows, digest_value, is_value_query

from repro.algebra.plan import FusedPathScanNode
from repro.engine.database import Database
from repro.engine.engine import VamanaEngine
from repro.errors import ReproError
from repro.mass.loader import load_events, load_xml
from repro.mass.persistence import fsck_store, open_store, save_store
from repro.serving import QueryServer
from repro.sharding import ShardedDatabase, build_shards
from repro.xmark.generator import generate_document
from repro.xmlkit.parser import parse_events

# -- queries -------------------------------------------------------------------

#: The paper's Q1-Q5 (Section VIII), two value-predicate queries, the
#: deep descendant chains, an index-only count, a rooted path and the
#: one query only the non-XMark document can answer.
QUERIES = {
    "Q1": "//person/address",
    "Q2": "//watches/watch/ancestor::person",
    "Q3": "/descendant::name/parent::*/self::person/address",
    "Q4": "//itemref/following-sibling::price/parent::*",
    "Q5": "//province[text()='Vermont']/ancestor::person",
    "P1": "//person[address/province='Vermont']/name",
    "P3": "//item[location='United States']/name",
    "D1": "//item//text",
    "D2": "//open_auction//description//text",
    "D3": "//node()//text()",
    "D4": "//node()//description//text()",
    "D5": "//site//node()//text()",
    "C1": "count(//item)",
    "S1": "/site/regions/africa/item/name",
    "X1": "//book/title",
}

#: Queries that get their own ``engine.q.<label>.p50_ms`` metric.
NAMED = ("Q1", "Q2", "Q3", "Q4", "Q5", "P1", "P3", "D1", "D2", "D3", "D4", "D5", "C1")

#: Sub-5 ms queries whose fleet latency is nearly all fixed scatter cost.
FLOOR = ("Q5", "C1", "S1")

LIBRARY_DOCUMENT = (
    "<library><shelf><book><title>Partitioned Execution</title></book>"
    "<book><title>Byte-Order Merges</title></book></shelf></library>"
)


def mix_of(*labels: str) -> list[tuple[str, str]]:
    return [(label, QUERIES[label]) for label in labels]


def shuffled(mix: list[tuple[str, str]], seed: int) -> list[tuple[str, str]]:
    order = list(mix)
    random.Random(seed).shuffle(order)
    return order


# -- recording -----------------------------------------------------------------


class Recorder:
    """One client's operations: latencies by label, failures, busy time.

    ``expected`` maps a check key to the baseline's digest; an operation
    whose key is absent (a probe outside the workload's own checks) is
    timed but not compared.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.latencies: dict[str, list[float]] = {}
        self.failed = 0
        self.errors: list[str] = []
        #: Time this client spent waiting on the program (operations plus
        #: any other calls of its loop, such as publishing an update).
        self.busy_s = 0.0

    def record(self, label: str, key: str, seconds: float, digest: str) -> None:
        self.latencies.setdefault(label, []).append(seconds)
        self.busy_s += seconds
        want = self.expected.get(key)
        if want is not None and digest != want:
            self.fail(f"{key}: answer {digest}, baseline {want}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def error(self, label: str, seconds: float, error: Exception) -> None:
        self.latencies.setdefault(label, []).append(seconds)
        self.busy_s += seconds
        self.fail(f"{label}: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    def all_latencies(self) -> list[float]:
        return [value for values in self.latencies.values() for value in values]

    def ops_per_s(self) -> float:
        """Correct operations per second of this client's busy time."""
        return (self.attempted - self.failed) / self.busy_s if self.busy_s else 0.0

    @classmethod
    def merged(cls, clients: "list[Recorder]") -> "Recorder":
        """All clients' samples in one recorder (its busy time is their sum)."""
        merged = cls(clients[0].expected)
        for client in clients:
            for label, values in client.latencies.items():
                merged.latencies.setdefault(label, []).extend(values)
            merged.failed += client.failed
            merged.errors.extend(client.errors)
            merged.busy_s += client.busy_s
        return merged


def run_cycles(seconds: float, cycle) -> int:
    """Run whole cycles until ``seconds`` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        cycle()
        cycles += 1
        if time.perf_counter() >= deadline:
            return cycles


def result_digest(document: str, result) -> str:
    return digest_rows((document, key.sort_bytes) for key in result.keys)


def evaluate_fully(engine, expression: str, **limits):
    """The user-level operation: evaluate and materialise the answer.

    Returns the number of a value query, else the ``QueryResult``.
    """
    if is_value_query(expression):
        return engine.evaluate_value(expression)
    result = engine.evaluate(expression, **limits)
    for _record in result.records():
        pass
    return result


def answer_digest(document: str, answer) -> str:
    if isinstance(answer, float):
        return digest_value(answer)
    return result_digest(document, answer)


# -- engine rig: paper_seek, deep_scan, adhoc_plan -----------------------------


class EngineRig:
    """One document, one ``VamanaEngine``, one client."""

    def __init__(self, document, order, expected, store_options=None):
        self.name, self.text = document
        self.order = order
        self.expected = expected
        self.store_options = store_options or {}
        self.store = None
        self.engine = None
        #: Node count of every document loaded, by name.
        self.nodes: dict[str, int] = {}

    def start(self) -> None:
        self.store = load_xml(self.text, name=self.name, **self.store_options)
        self.nodes[self.name] = len(self.store.node_index)
        self.engine = VamanaEngine(self.store)
        self.run(0.0)  # warm-up cycle, discarded

    def close(self) -> None:
        self.store = self.engine = None

    def run(self, seconds: float, tracer=None) -> tuple[list[Recorder], dict]:
        rec = Recorder(self.expected)
        if tracer is None:
            run_cycles(seconds, lambda: self._cycle(rec))
            return [rec], {}
        return [rec], engine_profile(
            self.engine, self.name, self.order, seconds, rec, tracer
        )

    def _cycle(self, rec: Recorder) -> None:
        engine = self.engine
        for label, expression in self.order:
            started = time.perf_counter()
            try:
                answer = evaluate_fully(engine, expression)
            except ReproError as error:
                rec.error(label, time.perf_counter() - started, error)
                continue
            elapsed = time.perf_counter() - started
            rec.record(label, label, elapsed, answer_digest(self.name, answer))


def engine_profile(engine, document, order, seconds, rec, tracer) -> dict:
    """Traced cycles of ``order`` on ``engine``: the SXSI three-way split.

    Each operation is ``VamanaEngine.evaluate`` spelled out in its public
    parts — satisfiability pre-pass and cached plan (construct), execute
    (run), record materialisation (materialise) — with a span around each
    and the store's own counters read before and after.
    """
    store = engine.store
    tally = {"ops": 0, "rows": 0, "raw": 0, "static": 0, "fused": 0}

    def cycle() -> None:
        for label, expression in order:
            plan = result = error = None
            with tracer.span("op:" + label, op=tally["ops"]) as op_span:
                try:
                    if is_value_query(expression):
                        with tracer.span("engine.run"):
                            value = engine.evaluate_value(expression)
                    else:
                        plan, result = traced_evaluate(engine, expression, tracer)
                except ReproError as caught:
                    error = caught
            tally["ops"] += 1
            if error is not None:
                rec.error(label, op_span.seconds, error)
            elif is_value_query(expression):
                rec.record(label, label, op_span.seconds, digest_value(value))
            elif plan is None:
                tally["static"] += 1
                rec.record(label, label, op_span.seconds, digest_rows(()))
            else:
                tally["rows"] += len(result)
                tally["raw"] += result.metrics.counters.get("raw_tuples", 0)
                tally["fused"] += any(
                    isinstance(node, FusedPathScanNode) for node in plan.walk()
                )
                rec.record(label, label, op_span.seconds, result_digest(document, result))

    before = store.io_snapshot()
    hits, misses = engine.plan_cache_hits, engine.plan_cache_misses
    run_cycles(seconds, cycle)
    after = store.io_snapshot()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    ops = tally["ops"]
    hits = engine.plan_cache_hits - hits
    planned = hits + engine.plan_cache_misses - misses
    metrics = counters_per_op(delta, ops, tally["rows"])
    metrics.update(
        {
            "engine.plan_cache_hit_ratio": hits / planned if planned else 0.0,
            "engine.static_empty_share": tally["static"] / ops,
            "algebra.fused_plan_share": tally["fused"] / ops,
            "algebra.raw_tuples_per_result": (
                tally["raw"] / tally["rows"] if tally["rows"] else 0.0
            ),
        }
    )
    for part in ("construct", "run", "materialise"):
        metrics[f"engine.{part}_ms"] = tracer.total(f"engine.{part}") / ops * 1000.0
    return metrics


def traced_evaluate(engine, expression, tracer):
    """``(plan, result)``; ``(None, None)`` when the pre-pass proves it empty."""
    with tracer.span("engine.construct"):
        if engine.static_check and not engine.satisfiability(expression).satisfiable:
            return None, None
        plan, trace = engine.plan(expression)
    with tracer.span("engine.run"):
        result = engine.execute(plan, None, trace)
    with tracer.span("engine.materialise"):
        for _record in result.records():
            pass
    return plan, result


def counters_per_op(delta: dict, ops: int, rows: int) -> dict:
    """The ``mass.*`` work counters from an ``io_snapshot`` delta."""
    logical = delta.get("logical_reads", 0)
    descents = delta.get("root_descents", 0)
    resumes = delta.get("cursor_resumes", 0)
    return {
        "mass.logical_reads_per_op": logical / ops,
        "mass.pages_read_per_op": delta.get("pages_read", 0) / ops,
        "mass.buffer_hit_ratio": (
            delta.get("buffer_hits", 0) / logical if logical else 0.0
        ),
        "mass.key_comparisons_per_op": delta.get("key_comparisons", 0) / ops,
        "mass.entries_scanned_per_op": delta.get("entries_scanned", 0) / ops,
        "mass.record_fetches_per_op": delta.get("record_fetches", 0) / ops,
        "mass.root_descents_per_op": descents / ops,
        "mass.cursor_resume_ratio": (
            resumes / (resumes + descents) if resumes + descents else 0.0
        ),
        "mass.entries_scanned_per_result": (
            delta.get("entries_scanned", 0) / rows if rows else 0.0
        ),
    }


# -- ingest rig: ingest_edit ---------------------------------------------------

INSERTS = 20
DELETES = 5


class IngestRig:
    """Load, edit, save, reopen and verify each document of a pool."""

    def __init__(self, documents, expected, seed, directory):
        self.documents = documents
        self.expected = expected
        self.seed = seed
        self.directory = directory
        self.nodes: dict[str, int] = {}

    def start(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        self.run(0.0)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    def run(self, seconds: float, tracer=None) -> tuple[list[Recorder], dict]:
        rec = Recorder(self.expected)
        #: Sums over the run: bytes in and out, nodes loaded, answer rows,
        #: and both stores' work counters.
        sums: dict[str, int] = {}

        def cycle() -> None:
            for index, (name, text) in enumerate(self.documents):
                self._op(index, name, text, rec, tracer, sums)

        run_cycles(seconds, cycle)
        if tracer is None:
            return [rec], {}
        ops = rec.attempted
        metrics = counters_per_op(sums, ops, sums["rows"])
        metrics.update(
            {
                "xmlkit.parse_mb_per_s": (
                    sums["xml_bytes"] / 1e6 / tracer.total("xmlkit.parse")
                ),
                "mass.load_nodes_per_s": sums["nodes"] / tracer.total("mass.load"),
                "mass.update_us": (
                    tracer.total("mass.update") / (ops * (INSERTS + DELETES)) * 1e6
                ),
                "mass.save_mb_per_s": (
                    sums["stored_bytes"] / 1e6 / tracer.total("mass.save")
                ),
                "mass.open_mb_per_s": (
                    sums["stored_bytes"] / 1e6 / tracer.total("mass.open")
                ),
                "mass.stored_bytes_per_xml_byte": (
                    sums["stored_bytes"] / sums["xml_bytes"]
                ),
            }
        )
        return [rec], metrics

    def _op(self, index, name, text, rec, tracer, sums) -> None:
        path = os.path.join(self.directory, f"doc-{index}.mass")
        rng = random.Random(self.seed * 1000 + index)
        started = time.perf_counter()
        try:
            if tracer is None:
                store = load_xml(text, name=name)
                self.nodes[name] = len(store.node_index)
                self._edit(store, rng)
                written = save_store(store, path)
                reopened = open_store(path)
            else:
                with tracer.span("op:ingest", op=rec.attempted):
                    with tracer.span("xmlkit.parse"):
                        events = list(parse_events(text))
                    with tracer.span("mass.load"):
                        store = load_events(events, name=name)
                    with tracer.span("mass.update"):
                        self._edit(store, rng)
                    with tracer.span("mass.save"):
                        written = save_store(store, path)
                    with tracer.span("mass.open"):
                        reopened = open_store(path)
            elapsed = time.perf_counter() - started
            digest = self._verify(name, store, reopened, path)
        except ReproError as error:
            rec.error("ingest", time.perf_counter() - started, error)
            return
        rec.record("ingest", f"Q1@{name}", elapsed, digest)
        tallies = [
            store.io_snapshot(),
            reopened.io_snapshot(),
            {
                "xml_bytes": len(text.encode("utf-8")),
                "stored_bytes": written,
                "nodes": len(store.node_index),
                "rows": int(digest.split(":")[0]),
            },
        ]
        for tally in tallies:
            for key, value in tally.items():
                sums[key] = sums.get(key, 0) + value

    @staticmethod
    def _edit(store, rng) -> None:
        # Edits touch items and descriptions only, so the person/address
        # answer checked afterwards is still the unedited document's.
        items = [key for key, _kind in store.name_index.scan("item")]
        descriptions = [key for key, _kind in store.name_index.scan("description")]
        for number in range(INSERTS):
            store.insert_element(rng.choice(items), "bench_note", text=f"note {number}")
        for key in rng.sample(descriptions, DELETES):
            store.delete_subtree(key)

    @staticmethod
    def _verify(name, store, reopened, path) -> str:
        """The reopened store must equal the edited one; returns its Q1 digest."""
        if len(reopened.node_index) != len(store.node_index):
            raise ReproError(
                f"{name}: reopened {len(reopened.node_index)} nodes, "
                f"saved {len(store.node_index)}"
            )
        notes = VamanaEngine(reopened).evaluate("//bench_note")
        if len(notes) != INSERTS:
            raise ReproError(f"{name}: {len(notes)} inserted notes survive, not {INSERTS}")
        report = fsck_store(path)
        if not report.ok:
            raise ReproError(f"{name}: fsck: {report.errors[:1]}")
        digest = result_digest(name, VamanaEngine(reopened).evaluate(QUERIES["Q1"]))
        in_memory = result_digest(name, VamanaEngine(store).evaluate(QUERIES["Q1"]))
        if digest != in_memory:
            raise ReproError(f"{name}: reopened Q1 {digest} != in-memory {in_memory}")
        return digest


# -- serve rig: serve_mixed ----------------------------------------------------

WORKERS = 2
CLIENTS = 2


def insert_marker(store) -> None:
    store.insert_element(store.root_element().key, "bench_marker")


class ServeRig:
    """A ``QueryServer`` read by two clients while one of them publishes."""

    def __init__(self, document, mix, expected, seed, publish_every=48):
        self.name, self.text = document
        self.orders = [shuffled(mix, seed + client) for client in range(CLIENTS)]
        self.expected = expected
        self.publish_every = publish_every
        self.server = None
        self.nodes: dict[str, int] = {}

    def start(self) -> None:
        store = load_xml(self.text, name=self.name)
        self.nodes[self.name] = len(store.node_index)
        self.server = QueryServer(
            store, workers=WORKERS, max_queue_depth=2, shed_cost_limit=None
        )
        self.run(0.0)

    def close(self) -> None:
        if self.server is None:
            return
        self.server.close()
        pinned = self.server.stats()["snapshots"]["pinned"]
        if pinned:
            raise ReproError(f"{pinned} snapshot pins leaked after close()")

    def run(self, seconds: float, tracer=None) -> tuple[list[Recorder], dict]:
        recs = [Recorder(self.expected) for _ in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)
        samples = {"queued": [], "service": [], "handoff": [], "publish": [], "live": [1]}
        threads = [
            threading.Thread(
                target=self._client,
                args=(client, recs[client], seconds, barrier, samples, tracer),
            )
            for client in range(CLIENTS)
        ]
        before = self.server.stats()
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if tracer is None:
            return recs, {}
        after = self.server.stats()
        submitted = after["requests"]["submitted"] - before["requests"]["submitted"]
        shed = after["requests"]["shed"] - before["requests"]["shed"]
        return recs, {
            "serving.queue_wait_ms_p50": median_ms(samples["queued"]),
            "serving.service_ms_p50": median_ms(samples["service"]),
            "serving.handoff_ms_p50": median_ms(samples["handoff"]),
            "serving.worker_busy_ratio": sum(samples["service"]) / (WORKERS * wall),
            "serving.publish_p50_ms": median_ms(samples["publish"]),
            "serving.updates_published": (
                after["snapshots"]["publishes"] - before["snapshots"]["publishes"]
            ),
            "serving.live_versions_max": max(samples["live"]),
            "serving.shed_share": shed / submitted if submitted else 0.0,
        }

    def _client(self, client, rec, seconds, barrier, samples, tracer) -> None:
        server = self.server
        last_epoch = -1
        barrier.wait()
        deadline = time.perf_counter() + seconds
        while True:
            for label, expression in self.orders[client]:
                started = time.perf_counter()
                try:
                    outcome = server.evaluate(expression)
                    if outcome.ok:
                        for _record in outcome.result.records():
                            pass
                    elapsed = time.perf_counter() - started
                    outcome.raise_for_error()
                except ReproError as error:
                    rec.error(label, time.perf_counter() - started, error)
                    continue
                rec.record(label, label, elapsed, result_digest(self.name, outcome.result))
                if outcome.epoch < last_epoch:
                    rec.fail(f"{label}: epoch {outcome.epoch} after {last_epoch}")
                last_epoch = outcome.epoch
                if tracer is not None:
                    samples["queued"].append(outcome.queued_s)
                    samples["service"].append(outcome.service_s)
                    samples["handoff"].append(
                        elapsed - outcome.queued_s - outcome.service_s
                    )
                    span = tracer.add(
                        "op:" + label, started, elapsed,
                        op=client * 1_000_000 + rec.attempted,
                    )
                    tracer.add("serving.queue_wait", started, outcome.queued_s, span)
                    tracer.add(
                        "serving.service",
                        started + outcome.queued_s,
                        outcome.service_s,
                        span,
                    )
                if client == 0 and rec.attempted % self.publish_every == 0:
                    self._publish(rec, samples)
            if time.perf_counter() >= deadline:
                return

    def _publish(self, rec, samples) -> None:
        started = time.perf_counter()
        try:
            self.server.apply_update(insert_marker)
        except ReproError as error:
            rec.fail(f"publish: {type(error).__name__}: {error}")
        elapsed = time.perf_counter() - started
        rec.busy_s += elapsed
        samples["publish"].append(elapsed)
        samples["live"].append(self.server.manager.live_versions())


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


# -- shard rig: shard_scatter --------------------------------------------------

SHARDS = 2

#: The machine-independent work a shard did for one query.
WORK_COUNTERS = ("logical_reads", "entries_scanned", "key_comparisons")


class ShardRig:
    """A two-worker ``ShardedDatabase`` over the documents, one client."""

    def __init__(self, documents, order, expected, directory, single_shard=()):
        self.documents = documents
        self.order = order
        self.expected = expected
        self.directory = directory
        #: Labels that vocabulary pruning must route to exactly one shard.
        self.single_shard = set(single_shard)
        self.stores = []
        self.db = None
        self.build_s = self.spawn_ready_s = 0.0
        self.nodes: dict[str, int] = {}

    def start(self) -> None:
        self.stores = [
            (name, load_xml(text, name=name)) for name, text in self.documents
        ]
        self.nodes = {name: len(store.node_index) for name, store in self.stores}
        started = time.perf_counter()
        build_shards(self.stores, self.directory, shards=SHARDS, scheme="round_robin")
        built = time.perf_counter()
        self.db = ShardedDatabase(self.directory)
        ready = self.db.ping(timeout_s=120.0)
        self.build_s = built - started
        self.spawn_ready_s = time.perf_counter() - built
        if not all(ready.values()):
            raise ReproError(f"shard workers never became ready: {ready}")
        self.run(0.0)

    def close(self) -> None:
        try:
            if self.db is not None:
                self.db.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    def evaluate(self, expression: str):
        """One fleet operation: scatter, gather, consume the merged stream."""
        started = time.perf_counter()
        outcome = self.db.evaluate(expression)
        for _row in outcome.rows:
            pass
        elapsed = time.perf_counter() - started
        error = outcome.first_error()
        if error is not None:
            raise error
        if outcome.mode == "count":
            return outcome, elapsed, digest_value(outcome.count)
        return outcome, elapsed, digest_rows(outcome.rows)

    def run(self, seconds: float, tracer=None) -> tuple[list[Recorder], dict]:
        rec = Recorder(self.expected)
        tally = {"contacted": 0, "pruned": 0, "single": 0, "rows": 0, "critical": []}
        totals: dict[str, int] = {}

        def cycle() -> None:
            for label, expression in self.order:
                started = time.perf_counter()
                try:
                    outcome, elapsed, digest = self.evaluate(expression)
                except ReproError as error:
                    rec.error(label, time.perf_counter() - started, error)
                    continue
                rec.record(label, label, elapsed, digest)
                if label in self.single_shard and outcome.shards_contacted != 1:
                    rec.fail(f"{label}: contacted {outcome.shards_contacted} shards, not 1")
                if tracer is None:
                    continue
                span = tracer.add("op:" + label, started, elapsed, op=rec.attempted)
                tracer.add("sharding.coordinator", started, outcome.elapsed_s, span)
                tally["contacted"] += outcome.shards_contacted
                tally["pruned"] += outcome.shards_pruned
                tally["single"] += outcome.route == "single"
                tally["rows"] += len(outcome.rows)
                for key, value in outcome.counters.items():
                    totals[key] = totals.get(key, 0) + value
                work = [
                    sum(counters.get(name, 0) for name in WORK_COUNTERS)
                    for counters in outcome.per_shard_counters.values()
                ]
                if sum(work):
                    tally["critical"].append(max(work) / sum(work))

        run_cycles(seconds, cycle)
        if tracer is None:
            return [rec], {}
        ops = rec.attempted
        metrics = counters_per_op(totals, ops, tally["rows"])
        metrics.update(
            {
                "sharding.build_s": self.build_s,
                "sharding.spawn_ready_s": self.spawn_ready_s,
                "sharding.shards_contacted_per_op": tally["contacted"] / ops,
                "sharding.shards_pruned_per_op": tally["pruned"] / ops,
                "sharding.single_route_share": tally["single"] / ops,
                "sharding.critical_path_work_ratio": (
                    statistics.fmean(tally["critical"]) if tally["critical"] else 0.0
                ),
            }
        )
        metrics.update(self._against_in_process(rec))
        return [rec], metrics

    def _against_in_process(self, rec: Recorder) -> dict:
        """Fleet latency beside the same stores evaluated in this process."""
        whole = Database()
        parts = {spec.shard_id: Database() for spec in self.db.manifest.shards}
        stores = dict(self.stores)
        for spec in self.db.manifest.shards:
            for entry in spec.documents:
                parts[spec.shard_id].add_store(entry["name"], stores[entry["name"]])
                whole.add_store(entry["name"], stores[entry["name"]])
        overheads, speedups = [], []
        for label, expression in dict(self.order).items():
            fleet = statistics.median(rec.latencies[label])
            slowest_part = max(
                in_process_seconds(part, expression)[0] for part in parts.values()
            )
            seconds, digest = in_process_seconds(whole, expression)
            if digest != self.expected.get(label, digest):
                rec.fail(f"{label}: in-process Database answers {digest}")
            overheads.append(fleet - slowest_part)
            speedups.append(seconds / fleet)
        floor = [
            self.evaluate(QUERIES[label])[1] for label in FLOOR for _repeat in range(10)
        ]
        return {
            "sharding.overhead_ms_p50": statistics.median(overheads) * 1000.0,
            "sharding.speedup_2w": statistics.median(speedups),
            "sharding.scatter_floor_ms": statistics.median(floor) * 1000.0,
        }


def in_process_seconds(database: Database, expression: str, repeats: int = 3):
    """Median time and digest of ``expression`` over a ``Database``'s documents."""
    times = []
    for _repeat in range(repeats):
        rows: list[tuple[str, bytes]] = []
        total = 0.0
        started = time.perf_counter()
        for name in sorted(database.documents()):
            if is_value_query(expression):
                total += database.engine(name).evaluate_value(expression)
            else:
                result = database.evaluate(expression, document=name)[name]
                for _record in result.records():
                    pass
                rows.extend((name, key.sort_bytes) for key in result.keys)
        times.append(time.perf_counter() - started)
    digest = digest_value(total) if is_value_query(expression) else digest_rows(rows)
    return statistics.median(times), digest


# -- the workloads -------------------------------------------------------------


@dataclass
class Workload:
    """A named configuration of one rig.

    ``factor`` is the XMark scale of each document (``smoke_factor`` for
    the tiny smoke sizes); ``mix`` the operations of one cycle.
    """

    name: str
    rig: str
    why: str
    factor: float
    smoke_factor: float
    documents_full: int = 1
    documents_smoke: int = 1
    mix: list[tuple[str, str]] = field(default_factory=list)
    #: ``draws(seed, smoke)`` makes the cycle instead of shuffling ``mix``.
    draws: "Callable[[int, bool], list[tuple[str, str]]] | None" = None
    store_options: dict = field(default_factory=dict)
    smoke_store_options: dict = field(default_factory=dict)

    def documents(self, seed: int, smoke: bool) -> list[tuple[str, str]]:
        count = self.documents_smoke if smoke else self.documents_full
        factor = self.smoke_factor if smoke else self.factor
        if count == 1:
            return [("auctions", generate_document(factor, seed))]
        documents = [
            (f"auctions-{index:02d}", generate_document(factor, seed + index))
            for index in range(count)
        ]
        if self.rig == "shard":
            documents.append(("library", LIBRARY_DOCUMENT))
        return documents

    def order(self, seed: int, smoke: bool) -> list[tuple[str, str]]:
        """The operations of one cycle, in their seeded order."""
        if self.draws is not None:
            return self.draws(seed, smoke)
        return shuffled(self.mix, seed)

    def checks(self, seed: int, smoke: bool, documents) -> list[tuple[str, tuple, str]]:
        """``(key, document names, expression)`` for every distinct answer."""
        names = tuple(name for name, _text in documents)
        if self.rig == "ingest":
            return [(f"Q1@{name}", (name,), QUERIES["Q1"]) for name in names]
        distinct = dict(self.order(seed, smoke))
        return [(label, names, expression) for label, expression in distinct.items()]

    def node_set_queries(self, seed: int, smoke: bool) -> list[tuple[str, str]]:
        """The workload's distinct node-set queries, in first-use order."""
        if self.rig == "ingest":
            return mix_of("Q1")
        distinct = {
            label: expression
            for label, expression in self.order(seed, smoke)
            if not is_value_query(expression)
        }
        return list(distinct.items())

    def probe_mix(self, seed: int, smoke: bool, documents, expected):
        """Up to nine of those queries, for the layer probes on the first
        document, with that document's digests where the checks have them."""
        mix = self.node_set_queries(seed, smoke)[:9]
        if self.rig == "ingest":
            return mix, {"Q1": expected[f"Q1@{documents[0][0]}"]}
        if len(documents) > 1:
            return mix, {}
        return mix, {label: expected[label] for label, _expression in mix}

    def open(self, documents, seed: int, smoke: bool, expected, directory):
        order = self.order(seed, smoke)
        if self.rig == "engine":
            options = self.smoke_store_options if smoke else self.store_options
            return EngineRig(documents[0], order, expected, options)
        if self.rig == "ingest":
            return IngestRig(documents, expected, seed, os.path.join(directory, "ingest"))
        if self.rig == "serve":
            return ServeRig(
                documents[0], self.mix, expected, seed, publish_every=12 if smoke else 48
            )
        return ShardRig(
            documents, order, expected, os.path.join(directory, "shards"), ("X1",)
        )


# -- adhoc_plan: an application that inlines literals --------------------------

_ADHOC_TEMPLATES = {
    "person": (
        "/site/people/person[@id='person{n}']/name",
        "/site/people/person[@id='person{n}']/emailaddress",
        "/site/people/person[@id='person{n}']/address/city",
        "/site/people/person[@id='person{n}']/profile/interest",
        "/site/people/person[@id='person{n}']/watches/watch",
        "//person[@id='person{n}']/name/parent::person/emailaddress",
        "//personref[@person='person{n}']/ancestor::open_auction/current",
        "//buyer[@person='person{n}']/parent::closed_auction/price",
        "//seller[@person='person{n}']/following-sibling::quantity",
    ),
    "item": (
        "//item[@id='item{n}']/name",
        "//item[@id='item{n}']/location",
        "//item[@id='item{n}']/description//text",
        "//item[@id='item{n}']/incategory",
        "//itemref[@item='item{n}']/parent::open_auction/current",
        "//itemref[@item='item{n}']/preceding-sibling::buyer",
        "/site/closed_auctions/closed_auction[itemref/@item='item{n}']/price",
    ),
    "open_auction": (
        "/site/open_auctions/open_auction[@id='open_auction{n}']/initial",
        "/site/open_auctions/open_auction[@id='open_auction{n}']/bidder/increase",
        "/site/open_auctions/open_auction[@id='open_auction{n}']/itemref",
        "//open_auction[@id='open_auction{n}']/interval/end",
        "//watch[@open_auction='open_auction{n}']/ancestor::person/name",
    ),
}

#: Shapes the XMark schema rules out: answered by the satisfiability
#: pre-pass without a plan.
_ADHOC_EMPTY = (
    "//person[@id='person{n}']/bidder",
    "//item[@id='item{n}']/watches",
    "/site/people/item[@id='item{n}']",
    "//open_auction[@id='open_auction{n}']/address",
)


def adhoc_strings(distinct: int, seed: int) -> list[str]:
    """``distinct`` different query strings, about 5 % provably empty."""
    rng = random.Random(seed)
    # Ids run past what a 0.1 MB-label document holds (26 persons, 22
    # items, 12 open auctions), so some look-ups find nothing.
    limits = {"person": 40, "item": 34, "open_auction": 18}
    pool = [
        template.format(n=n)
        for kind, templates in _ADHOC_TEMPLATES.items()
        for template in templates
        for n in range(limits[kind])
    ]
    empty = [template.format(n=n) for template in _ADHOC_EMPTY for n in range(40)]
    rng.shuffle(pool)
    rng.shuffle(empty)
    share = max(1, distinct // 20)
    strings = pool[: distinct - share] + empty[:share]
    rng.shuffle(strings)
    return strings


def adhoc_draws(seed: int, smoke: bool) -> list[tuple[str, str]]:
    """One cycle: Zipf(0.5) draws from the distinct strings."""
    distinct, draws = (60, 90) if smoke else (600, 1000)
    strings = adhoc_strings(distinct, seed)
    weights = [1.0 / (rank + 1) ** 0.5 for rank in range(len(strings))]
    chosen = random.Random(seed + 1).choices(strings, weights, k=draws)
    return [(expression, expression) for expression in chosen]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper_seek",
            rig="engine",
            why="paper's Q1-Q5 plus value predicates: selective index seeks, "
            "buffer pool holds the document, plans cached, no fusion",
            factor=0.02,
            smoke_factor=0.002,
            mix=mix_of("Q1", "Q2", "Q3", "Q4", "Q5", "P1", "P3"),
        ),
        Workload(
            name="deep_scan",
            rig="engine",
            why="deep descendant chains: fused document-order scans larger "
            "than the buffer pool, zig-zag seeks, one index-only count",
            factor=0.02,
            smoke_factor=0.002,
            # C1 twice: with seven operations a cycle the median latency
            # falls inside one query's samples, not between two queries'.
            mix=mix_of("D1", "D2", "D3", "D4", "D5", "C1", "C1"),
            store_options={"buffer_capacity": 1024},
            smoke_store_options={"buffer_capacity": 96},
        ),
        Workload(
            name="adhoc_plan",
            rig="engine",
            why="literal-inlined look-ups, more distinct strings than the plan "
            "cache holds: parse, build, optimize and cost dominate",
            factor=0.001,
            smoke_factor=0.001,
            draws=adhoc_draws,
        ),
        Workload(
            name="ingest_edit",
            rig="ingest",
            why="the write side: parse, key assignment, bulk load, in-place "
            "updates, fsynced save, reopen and verify",
            factor=0.0005,
            smoke_factor=0.0005,
            documents_full=10,
            documents_smoke=2,
        ),
        Workload(
            name="serve_mixed",
            rig="serve",
            why="two clients read through the query server while one publishes "
            "updates: queue wait, snapshot pins, clone per publish",
            factor=0.01,
            smoke_factor=0.002,
            mix=mix_of("Q1", "Q2", "Q3", "Q4", "Q5", "D2", "P1"),
        ),
        Workload(
            name="shard_scatter",
            rig="shard",
            why="nine documents over a two-worker fleet: scatter fixed cost, "
            "framing, k-way merge, vocabulary pruning to one shard",
            factor=0.005,
            smoke_factor=0.001,
            documents_full=8,
            documents_smoke=2,
            mix=mix_of("Q1", "Q2", "Q3", "Q4", "Q5", "D2", "C1", "S1", "X1"),
        ),
    )
}
