"""Serving benchmark: throughput and tail latency under concurrent load.

The serving layer's claim is not "queries get faster" — on one store a
worker pool cannot beat a single uncontended engine — but "tail latency
stays bounded as offered load grows".  This harness measures exactly
that: the paper's Q1-Q5 issued by 1, 8 and 64 concurrent clients against
a :class:`~repro.serving.QueryServer`, while a writer continuously
publishes update batches (so every level exercises snapshot isolation,
not a read-only fast path).

Per level it reports QPS, p50/p99 over the *successful* paper queries,
and the shed/degraded/update counts that explain them.  Admission
control is the mechanism under test: the wait queue is capped at the
worker count and one deliberately expensive query (``//node()//text()``)
is mixed in with a shed-cost limit between Q1-Q5's estimated cost and
its own, so under pressure the server rejects work early (typed, with a
retry hint) instead of queueing into unbounded latency.  The headline
criterion — checked into the report as ``criteria`` — is that the
8-client p99 stays within 3x the 1-client p99 on Q1-Q5.

Entry points: :func:`run_serving_bench` (returns the report dict) and
``repro bench-serving`` (writes ``BENCH_serving.json``).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

from repro.bench.corpus import PAPER_QUERIES
from repro.cost.estimator import plan_cost
from repro.engine.engine import VamanaEngine
from repro.errors import ReproError, ServerOverloadedError
from repro.mass.loader import load_xml
from repro.serving.server import QueryServer
from repro.xmark.generator import generate_document
from repro.xmark.profile import factor_for_megabytes

#: The deliberately expensive query that cost shedding should catch.
HEAVY_QUERY = ("H", "//node()//text()")

#: Every HEAVY_EVERY-th request a client issues is the heavy query.
HEAVY_EVERY = 6

CLIENT_LEVELS = (1, 8, 64)

FULL_SIZE_MB = 0.5
QUICK_SIZE_MB = 0.05
FULL_TOTAL_REQUESTS = 240
QUICK_TOTAL_REQUESTS = 60


def default_workers() -> int:
    """Worker threads: bounded by cores, at least one (CI runs on 1)."""
    return max(1, min(4, os.cpu_count() or 1))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of unsorted values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _estimated_costs(store) -> dict[str, int]:
    engine = VamanaEngine(store)
    costs: dict[str, int] = {}
    for name, expression in list(PAPER_QUERIES.items()) + [HEAVY_QUERY]:
        plan, _trace = engine.plan(expression)
        engine.estimator.estimate(plan)
        costs[name] = plan_cost(plan)
    return costs


def _run_level(
    store,
    clients: int,
    requests_per_client: int,
    shed_cost_limit: int | None,
    workers: int,
    seed: int,
    writer_period_s: float,
    timeout_ms: float,
) -> dict:
    server = QueryServer(
        store,
        workers=workers,
        max_queue_depth=workers,
        default_timeout_ms=timeout_ms,
        shed_cost_limit=shed_cost_limit,
        shed_policy="reject",
    )
    names = list(PAPER_QUERIES)
    records: list[tuple[str, str, float]] = []  # (query, status, latency_s)
    records_lock = threading.Lock()
    stop_writer = threading.Event()

    def client(index: int) -> None:
        rng = random.Random(seed * 10_007 + index)
        for request_no in range(requests_per_client):
            if request_no % HEAVY_EVERY == HEAVY_EVERY - 1:
                name, expression = HEAVY_QUERY
            else:
                name = rng.choice(names)
                expression = PAPER_QUERIES[name]
            started = time.perf_counter()
            try:
                outcome = server.evaluate(expression)
            except ServerOverloadedError as error:
                with records_lock:
                    records.append(
                        (name, "shed", time.perf_counter() - started)
                    )
                # Back off briefly so rejected clients don't spin.
                time.sleep(rng.uniform(0.0, max(error.retry_after_s, 0.001)))
                continue
            except ReproError:
                with records_lock:
                    records.append(
                        (name, "error", time.perf_counter() - started)
                    )
                continue
            latency = time.perf_counter() - started
            if outcome.ok:
                status = "ok"
            elif isinstance(outcome.error, ServerOverloadedError):
                status = "shed"
            else:
                status = "error"
            with records_lock:
                records.append((name, status, latency))

    def writer() -> None:
        batch = 0
        while not stop_writer.is_set():
            suffix = batch
            try:
                server.apply_update(
                    lambda s: s.insert_element(
                        s.root_element().key, "bench_marker", text=str(suffix)
                    )
                )
            except ReproError:
                pass
            batch += 1
            stop_writer.wait(writer_period_s)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    writer_thread = threading.Thread(target=writer, name="bench-writer")
    wall_start = time.perf_counter()
    writer_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stop_writer.set()
    writer_thread.join()
    wall = time.perf_counter() - wall_start
    server.close()

    ok_paper = [
        latency * 1000.0
        for name, status, latency in records
        if status == "ok" and name != HEAVY_QUERY[0]
    ]
    ok_all = [lat * 1000.0 for _n, status, lat in records if status == "ok"]
    counts = {"ok": 0, "shed": 0, "error": 0}
    heavy = {"ok": 0, "shed": 0, "error": 0}
    for name, status, _latency in records:
        counts[status] += 1
        if name == HEAVY_QUERY[0]:
            heavy[status] += 1
    stats = server.stats()
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "issued": len(records),
        "completed": counts["ok"],
        "shed": counts["shed"],
        "errors": counts["error"],
        "heavy_query": heavy,
        "wall_s": round(wall, 4),
        "qps": round(counts["ok"] / wall, 2) if wall > 0 else 0.0,
        "p50_ms": round(percentile(ok_all, 50.0), 3),
        "p99_ms": round(percentile(ok_all, 99.0), 3),
        "paper_p50_ms": round(percentile(ok_paper, 50.0), 3),
        "paper_p99_ms": round(percentile(ok_paper, 99.0), 3),
        "updates_published": stats["requests"]["updates_applied"],
        "final_epoch": stats["snapshots"]["epoch"],
        "pinned_after_close": stats["snapshots"]["pinned"],
    }


def run_serving_bench(
    quick: bool = False,
    seed: int = 42,
    levels: tuple[int, ...] = CLIENT_LEVELS,
    size_mb: float | None = None,
    workers: int | None = None,
) -> dict:
    size = size_mb if size_mb is not None else (
        QUICK_SIZE_MB if quick else FULL_SIZE_MB
    )
    total_requests = QUICK_TOTAL_REQUESTS if quick else FULL_TOTAL_REQUESTS
    factor = factor_for_megabytes(size)
    text = generate_document(factor, seed=seed)
    store = load_xml(text, name=f"serving-{size}mb")
    costs = _estimated_costs(store)
    paper_max = max(costs[name] for name in PAPER_QUERIES)
    heavy_cost = costs[HEAVY_QUERY[0]]
    # Admit everything up to the costliest paper query; the heavy query
    # is shed only under pressure (and only if it is in fact costlier).
    shed_cost_limit = paper_max
    worker_count = workers if workers is not None else default_workers()
    writer_period_s = 0.01 if quick else 0.05

    level_reports = {}
    for clients in levels:
        per_client = max(4, total_requests // clients)
        level_reports[str(clients)] = _run_level(
            store,
            clients=clients,
            requests_per_client=per_client,
            shed_cost_limit=shed_cost_limit,
            workers=worker_count,
            seed=seed + clients,
            writer_period_s=writer_period_s,
            timeout_ms=60_000.0,
        )

    report = {
        "schema": "serving-bench/1",
        "config": {
            "quick": quick,
            "seed": seed,
            "size_mb": size,
            "workers": worker_count,
            "levels": list(levels),
            "heavy_query": HEAVY_QUERY[1],
            "heavy_every": HEAVY_EVERY,
            "shed_cost_limit": shed_cost_limit,
            "writer_period_s": writer_period_s,
        },
        "document": {
            "bytes": len(text),
            "nodes": len(store.node_index),
            "factor": factor,
        },
        "estimated_costs": costs,
        "cost_shedding_active": heavy_cost > shed_cost_limit,
        "levels": level_reports,
    }
    if "1" in level_reports and "8" in level_reports:
        base = level_reports["1"]["paper_p99_ms"]
        loaded = level_reports["8"]["paper_p99_ms"]
        ratio = loaded / base if base > 0 else 0.0
        report["criteria"] = {
            "paper_p99_1_client_ms": base,
            "paper_p99_8_clients_ms": loaded,
            "p99_ratio_8_vs_1": round(ratio, 3),
            "threshold": 3.0,
            "ok": ratio <= 3.0,
        }
    return report


def summarize(report: dict) -> str:
    lines = [
        f"serving bench: {report['document']['nodes']} nodes, "
        f"{report['config']['workers']} worker(s), "
        f"shed limit {report['config']['shed_cost_limit']} "
        f"(heavy query cost {report['estimated_costs']['H']})"
    ]
    for clients, level in report["levels"].items():
        lines.append(
            f"  {clients:>2} client(s): {level['qps']:>8.1f} qps  "
            f"p50 {level['paper_p50_ms']:>7.2f} ms  "
            f"p99 {level['paper_p99_ms']:>7.2f} ms  "
            f"({level['completed']} ok / {level['shed']} shed / "
            f"{level['errors']} err, epoch {level['final_epoch']})"
        )
    criteria = report.get("criteria")
    if criteria:
        verdict = "OK" if criteria["ok"] else "FAILED"
        lines.append(
            f"  p99 ratio 8v1 = {criteria['p99_ratio_8_vs_1']}x "
            f"(threshold {criteria['threshold']}x): {verdict}"
        )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
