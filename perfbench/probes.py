"""Direct probes of single layers, run at the end of a traced run.

The workload's own traced cycles give per-layer numbers only for the
layers on its path.  These probes call the remaining layers' public
functions directly, on the workload's first document and on contexts,
expressions and key streams harvested from its own queries, so that
every traced run yields the full layer profile.  Where both exist the
workload's own number is the one reported.
"""

from __future__ import annotations

import math
import os
import random
import socket
import statistics
import time

from oracle import is_value_query
from tracing import Tracer
from workloads import (
    LIBRARY_DOCUMENT,
    NAMED,
    QUERIES,
    EngineRig,
    Recorder,
    ServeRig,
    ShardRig,
    engine_profile,
    evaluate_fully,
    median_ms,
)

from repro.engine.engine import VamanaEngine
from repro.mass.flexkey import FlexKey
from repro.mass.loader import load_events, load_xml
from repro.mass.persistence import open_store, save_store
from repro.mass.records import NodeKind
from repro.serving.frontend import TcpFrontend
from repro.sharding import kway_merge
from repro.sharding.protocol import DEFAULT_BLOCK_KEYS, decode_frame, encode_block
from repro.xmark.generator import generate_document
from repro.xmlkit.parser import parse_events
from repro.xpath import ast
from repro.xpath.parser import parse_xpath

#: How long the serving and sharding probes drive their rigs.
PROBE_SECONDS = 1.0
SMOKE_PROBE_SECONDS = 0.1


def timed(call):
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


def storage_probe(name: str, text: str, directory: str, seed: int) -> tuple[dict, object]:
    """Parse, load, key encoding, clone/freeze, updates, save and reopen."""
    parse_s, events = timed(lambda: list(parse_events(text)))
    load_s, store = timed(lambda: load_events(events, name=name))
    nodes = len(store.node_index)
    keys = [record.key for record in store.node_index.scan(None, None)]
    rng = random.Random(seed)
    sample = rng.sample(keys, min(5000, len(keys)))

    components = [key.components for key in sample]
    encode_s, _ = timed(lambda: [FlexKey(parts).sort_bytes for parts in components])
    get_s, _ = timed(lambda: [store.node_index.get(key) for key in sample])

    names = sorted(store.name_index.distinct_names())
    contexts = [key for key in sample if not key.is_document()][:500]
    def range_counts():
        for index_name in names:
            store.name_index.count(index_name)
        for index, context in enumerate(contexts):
            store.name_index.count_between(
                names[index % len(names)], context, context.subtree_upper_bound()
            )
    count_s, _ = timed(range_counts)

    clone_s, clone = timed(store.clone)
    elements = [
        key
        for key in sample
        if key.depth >= 3 and store.node_index.get(key).kind is NodeKind.ELEMENT
    ][:40]
    def updates():
        for number, parent in enumerate(elements[:30]):
            clone.insert_element(parent, "bench_note", text=f"note {number}")
        for key in elements[30:]:
            if clone.node_index.get(key) is not None:
                clone.delete_subtree(key)
    update_s, _ = timed(updates)
    freeze_s, _ = timed(clone.freeze)

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "probe.mass")
    save_s, written = timed(lambda: save_store(store, path))
    open_s, _ = timed(lambda: open_store(path))
    os.remove(path)
    xml_bytes = len(text.encode("utf-8"))
    return {
        "xmlkit.parse_mb_per_s": xml_bytes / 1e6 / parse_s,
        "mass.load_nodes_per_s": nodes / load_s,
        "mass.flexkey_encode_ns": encode_s / len(sample) * 1e9,
        "mass.point_get_us": get_s / len(sample) * 1e6,
        "mass.range_count_us": count_s / (len(names) + len(contexts)) * 1e6,
        "mass.clone_ms": clone_s * 1000.0,
        "mass.freeze_ms": freeze_s * 1000.0,
        "mass.update_us": update_s / len(elements) * 1e6,
        "mass.save_mb_per_s": written / 1e6 / save_s,
        "mass.open_mb_per_s": written / 1e6 / open_s,
        "mass.stored_bytes_per_xml_byte": written / xml_bytes,
    }, store


def path_steps(expression: str) -> list[ast.Step]:
    tree = parse_xpath(expression)
    return list(tree.steps) if isinstance(tree, ast.LocationPath) else []


def axis_probe(store, expressions: list[str]) -> dict:
    """``axis_records`` for every (axis, test) the queries use.

    Contexts are harvested by walking each path step by step (predicates
    ignored), keeping at most 200 evenly spaced contexts per step.
    """
    seconds = 0.0
    records = 0
    for expression in expressions:
        contexts = [FlexKey.document()]
        for step in path_steps(expression):
            found = {}
            started = time.perf_counter()
            for context in contexts:
                for record in store.axis_records(context, step.axis, step.test):
                    found[record.key.sort_bytes] = record.key
                    records += 1
            seconds += time.perf_counter() - started
            ordered = [found[blob] for blob in sorted(found)]
            stride = max(1, len(ordered) // 200)
            contexts = ordered[::stride][:200]
    return {"mass.axis_scan_ns_per_record": seconds / max(records, 1) * 1e9}


def planning_probe(engine, expressions: list[str]) -> dict:
    """Parse, build, optimize and cost each expression once, uncached."""
    store = engine.store
    parse, build, optimize, estimate = [], [], [], []
    fired = failures = 0
    counts_before = store.metrics.count_calls
    for expression in expressions:
        parse_s, _ = timed(lambda: parse_xpath(expression))
        compile_s, plan = timed(lambda: engine.compile(expression))
        estimate_s, _ = timed(lambda: engine.estimator.estimate(plan))
        optimize_s, (_plan, trace) = timed(lambda: engine.optimize(plan))
        parse.append(parse_s)
        build.append(max(compile_s - parse_s, 0.0))
        estimate.append(estimate_s)
        optimize.append(optimize_s)
        fired += len(trace.entries)
        failures += len(trace.rule_failures)
    queries = len(expressions)
    return {
        "xpath.parse_us": statistics.median(parse) * 1e6,
        "algebra.build_us": statistics.median(build) * 1e6,
        "optimizer.optimize_us": statistics.median(optimize) * 1e6,
        "optimizer.rules_fired_per_query": fired / queries,
        "optimizer.rule_failures": failures,
        "cost.estimate_us": statistics.median(estimate) * 1e6,
        "cost.count_calls_per_query": (
            (store.metrics.count_calls - counts_before) / queries
        ),
    }


def evaluate_seconds(engine, expression: str, **limits) -> float:
    return timed(lambda: evaluate_fully(engine, expression, **limits))[0]


def named_panel(engine) -> dict:
    """Median latency of each named query on this document, plans cached."""
    metrics = {}
    for label in NAMED:
        evaluate_seconds(engine, QUERIES[label])
        metrics[f"engine.q.{label}.p50_ms"] = median_ms(
            [evaluate_seconds(engine, QUERIES[label]) for _repeat in range(3)]
        )
    return metrics


def guard_probe(engine, expressions: list[str]) -> dict:
    """The same queries with and without a deadline and a page budget."""
    plain = guarded = 0.0
    for expression in expressions:
        plain += statistics.median(
            evaluate_seconds(engine, expression) for _repeat in range(3)
        )
        guarded += statistics.median(
            evaluate_seconds(engine, expression, timeout_ms=600_000.0, max_pages=10**9)
            for _repeat in range(3)
        )
    return {"resilience.guard_overhead_ratio": guarded / plain}


def scale_probe(factor: float, seed: int, mix, engine) -> dict:
    """Log-log slope of the mix's cycle time against node count.

    Three documents at a quarter, a half and the whole of the workload's
    scale; the paper's claim is a slope near one.
    """
    points = []
    for share in (0.25, 0.5, 1.0):
        if share < 1.0:
            engine = VamanaEngine(load_xml(generate_document(factor * share, seed)))
        cycles = []
        for _repeat in range(4):
            cycles.append(sum(evaluate_seconds(engine, expr) for _label, expr in mix))
        points.append(
            (math.log(len(engine.store.node_index)), math.log(statistics.median(cycles[1:])))
        )
    mean_x = statistics.fmean(x for x, _y in points)
    mean_y = statistics.fmean(y for _x, y in points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _y in points
    )
    return {"engine.scale_exponent": slope}


def serving_extras(rig: ServeRig) -> dict:
    """Pin cost and one TCP connection's round trips, on the rig's server."""
    manager = rig.server.manager
    def pins():
        for _repeat in range(2000):
            manager.acquire().release()
    pin_s, _ = timed(pins)
    request = (QUERIES["Q5"] + "\n").encode("utf-8")
    with TcpFrontend(rig.server) as frontend:
        with socket.create_connection(frontend.address, timeout=30.0) as connection:
            reader = connection.makefile("rb")
            trips = []
            for _repeat in range(200):
                started = time.perf_counter()
                connection.sendall(request)
                reader.readline()
                trips.append(time.perf_counter() - started)
            connection.sendall(b"!quit\n")
    return {
        "serving.pin_us": pin_s / 2000 * 1e6,
        "serving.frontend_roundtrip_us": statistics.median(trips) * 1e6,
    }


def framing_probe(rig: ShardRig) -> dict:
    """Block framing and the k-way merge on the fleet's own key streams."""
    streams: dict[int, list[tuple[str, bytes]]] = {}
    for spec in rig.db.manifest.shards:
        owned = {entry["name"] for entry in spec.documents}
        engines = {
            name: VamanaEngine(store) for name, store in rig.stores if name in owned
        }
        rows = []
        for _label, expression in rig.order:
            if is_value_query(expression):
                continue
            for name in sorted(engines):
                rows.extend(
                    (name, key.sort_bytes) for key in engines[name].evaluate(expression)
                )
        streams[spec.shard_id] = sorted(set(rows))
    blobs = [blob for rows in streams.values() for _name, blob in rows]
    keys = max(len(blobs), 1)
    blocks = [
        blobs[start : start + DEFAULT_BLOCK_KEYS]
        for start in range(0, len(blobs), DEFAULT_BLOCK_KEYS)
    ]
    encode_s, frames = timed(lambda: [encode_block(1, block) for block in blocks])
    decode_s, _ = timed(lambda: [decode_frame(frame) for frame in frames])
    merge_s, _ = timed(
        lambda: list(kway_merge([iter(rows) for rows in streams.values()]))
    )
    return {
        "sharding.frame_encode_ns_per_key": encode_s / keys * 1e9,
        "sharding.frame_decode_ns_per_key": decode_s / keys * 1e9,
        "sharding.merge_ns_per_key": merge_s / keys * 1e9,
    }


def probe_all(workload, documents, seed, smoke, expected, directory, rig, in_situ) -> dict:
    """Every per-layer metric: the probes' numbers, then the rig's own.

    ``rig`` is the workload's rig, still open, for the probes that need a
    live server or fleet; ``in_situ`` what its traced cycles produced.
    """
    name, text = documents[0]
    mix, wanted = workload.probe_mix(seed, smoke, documents, expected)
    expressions = [expression for _label, expression in mix]
    seconds = SMOKE_PROBE_SECONDS if smoke else PROBE_SECONDS
    metrics, store = storage_probe(name, text, directory, seed)
    engine = VamanaEngine(store)
    metrics.update(axis_probe(store, expressions))
    planned = [expr for _label, expr in workload.node_set_queries(seed, smoke)[:50]]
    metrics.update(planning_probe(engine, planned))
    metrics.update(named_panel(engine))
    metrics.update(guard_probe(engine, expressions))
    factor = workload.smoke_factor if smoke else workload.factor
    metrics.update(scale_probe(factor, seed, mix, engine))

    if not isinstance(rig, EngineRig):
        engine_profile(engine, name, mix, 0.0, Recorder({}), Tracer())  # warm-up
        metrics.update(engine_profile(engine, name, mix, 0.0, Recorder({}), Tracer()))
    if isinstance(rig, ServeRig):
        metrics.update(serving_extras(rig))
    else:
        probe = ServeRig((name, text), mix, wanted, seed, publish_every=2 * len(mix))
        probe.start()
        try:
            metrics.update(probe.run(seconds, Tracer())[1])
            metrics.update(serving_extras(probe))
        finally:
            probe.close()
    if isinstance(rig, ShardRig):
        metrics.update(framing_probe(rig))
    else:
        if len(documents) == 1:
            fleet, checked = [*documents, ("library", LIBRARY_DOCUMENT)], wanted
        else:
            fleet, checked = documents, {}
        probe = ShardRig(fleet, mix, checked, os.path.join(directory, "probe-shards"))
        probe.start()
        try:
            fleet_metrics = probe.run(seconds, Tracer())[1]
            # The fleet's work counters describe the probe, not the workload.
            metrics.update(
                {k: v for k, v in fleet_metrics.items() if k.startswith("sharding.")}
            )
            metrics.update(framing_probe(probe))
        finally:
            probe.close()
    metrics.update(in_situ)
    publish_ms = metrics["serving.publish_p50_ms"]
    metrics["serving.publish_clone_share"] = (
        metrics["mass.clone_ms"] / publish_ms if publish_ms else 0.0
    )
    return metrics
