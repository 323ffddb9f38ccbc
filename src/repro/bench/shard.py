"""Scatter-gather benchmark: the partitioned fleet vs one engine.

The workload is a collection of XMark auction documents (paper-style
aggregate label: full mode 100 nominal MB over 16 documents) plus one
deliberately non-XMark document, hash-partitioned over 1 / 2 / 4 / 8
shards.  Per shard count it runs the paper's Q1-Q5, a deep
descendant chain, an aggregate ``count()`` and one query only the odd
document can answer, and records for each:

* wall-clock latency at the coordinator,
* the *machine-independent* work picture: each worker's logical reads
  and entries scanned (from the fleet-metrics aggregation), whose sum is
  the total work and whose max is the scatter's **critical path** —
  what the wall clock would track given one core per worker,
* routing evidence: ``shards_contacted`` / ``shards_pruned`` per query.

Speedup is reported on two bases and the report says which one the
criteria used (``speedup_basis``): ``wall`` when the host has at least
as many cores as workers, else ``critical_path`` — on a 1-core host the
workers time-slice one CPU, so wall clock cannot show the scatter win,
while the per-shard work counters are exact on any machine (the same
philosophy as the hot-path bench: counters are the reproducible part).

Criteria (recorded in the report, exit status of ``repro bench-shard``):

* at least 2 scatterable queries reach >= 2.5x speedup at 4 workers on
  the stated basis, and
* the pruned query contacts exactly one shard while the scatter queries
  contact all of them (the satisfiability pruning evidence).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.bench.corpus import PAPER_QUERIES
from repro.mass.loader import load_xml
from repro.sharding import ShardedDatabase, build_shards
from repro.xmark.generator import generate_document
from repro.xmark.profile import factor_for_megabytes

WORKER_COUNTS = (1, 2, 4, 8)

#: Aggregate nominal size (paper-style label) and document count.
FULL_TOTAL_MB = 100.0
FULL_DOCUMENTS = 16
QUICK_TOTAL_MB = 1.6
QUICK_DOCUMENTS = 4

#: The non-XMark document: pruning should route its query to one shard.
ODD_DOCUMENT = (
    "<library><shelf><book><title>Partitioned Execution</title></book>"
    "<book><title>Byte-Order Merges</title></book></shelf></library>"
)

DEEP_QUERY = ("D1", "//open_auction//description//text()")
COUNT_QUERY = ("C1", "count(//item)")
PRUNED_QUERY = ("P1", "//book/title")

#: The machine-independent work metric (summed per worker).
WORK_COUNTERS = ("logical_reads", "entries_scanned", "key_comparisons")


def _work(counters: dict[str, int]) -> int:
    return sum(int(counters.get(name, 0)) for name in WORK_COUNTERS)


def build_collection(quick: bool, seed: int) -> list[tuple[str, object]]:
    total_mb = QUICK_TOTAL_MB if quick else FULL_TOTAL_MB
    documents = QUICK_DOCUMENTS if quick else FULL_DOCUMENTS
    factor = factor_for_megabytes(total_mb / documents)
    stores = []
    for index in range(documents):
        name = f"auctions-{index:02d}"
        xml = generate_document(factor=factor, seed=seed + index)
        stores.append((name, load_xml(xml, name=name)))
    stores.append(("library", load_xml(ODD_DOCUMENT, name="library")))
    return stores


def run_shard_bench(
    quick: bool = False,
    seed: int = 42,
    worker_counts: tuple[int, ...] = WORKER_COUNTS,
    timeout_ms: float | None = None,
) -> dict:
    started = time.perf_counter()
    stores = build_collection(quick, seed)
    queries = dict(PAPER_QUERIES)
    queries[DEEP_QUERY[0]] = DEEP_QUERY[1]
    queries[COUNT_QUERY[0]] = COUNT_QUERY[1]
    queries[PRUNED_QUERY[0]] = PRUNED_QUERY[1]
    results: dict[str, dict] = {}
    root = tempfile.mkdtemp(prefix="repro-shard-bench-")
    try:
        for workers in worker_counts:
            directory = os.path.join(root, f"w{workers}")
            build_started = time.perf_counter()
            # Round-robin placement: the bench measures scatter scaling,
            # so documents must spread evenly (hash placement is stable
            # under churn but can skew small collections).
            build_shards(stores, directory, shards=workers, scheme="round_robin")
            build_s = time.perf_counter() - build_started
            db = ShardedDatabase(directory)
            per_query: dict[str, dict] = {}
            try:
                # Wait until every worker has opened its stores (the pong
                # certifies warmth) so measurements never pay store
                # deserialization; generous cap for the big collections.
                ready = db.ping(timeout_s=900.0)
                if not all(ready.values()):
                    raise RuntimeError(f"workers never became ready: {ready}")
                for label, expression in queries.items():
                    # Warm the per-worker plan caches, then measure.
                    db.evaluate(expression, timeout_ms=timeout_ms)
                    t0 = time.perf_counter()
                    outcome = db.evaluate(expression, timeout_ms=timeout_ms)
                    wall_s = time.perf_counter() - t0
                    works = {
                        str(shard): _work(counters)
                        for shard, counters in outcome.per_shard_counters.items()
                    }
                    per_query[label] = {
                        "wall_ms": round(wall_s * 1000.0, 3),
                        "rows": len(outcome),
                        "shards_contacted": outcome.shards_contacted,
                        "shards_pruned": outcome.shards_pruned,
                        "route": outcome.route,
                        "work_per_shard": works,
                        "work_total": sum(works.values()),
                        "work_critical_path": max(works.values(), default=0),
                        "ok": outcome.ok,
                    }
            finally:
                db.close()
            results[str(workers)] = {
                "build_s": round(build_s, 3),
                "queries": per_query,
            }
    finally:
        shutil.rmtree(root, ignore_errors=True)

    host_cores = os.cpu_count() or 1
    basis = "wall" if host_cores >= max(worker_counts) else "critical_path"
    scaling: dict[str, dict] = {}
    scatter_labels = [label for label in queries if label != PRUNED_QUERY[0]]
    base = results.get("1", {}).get("queries", {})
    for label in queries:
        per_workers = {}
        for workers in worker_counts:
            entry = results[str(workers)]["queries"][label]
            baseline = base.get(label)
            if not baseline:
                continue
            wall = (
                baseline["wall_ms"] / entry["wall_ms"]
                if entry["wall_ms"] > 0
                else 0.0
            )
            critical = (
                baseline["work_total"] / entry["work_critical_path"]
                if entry["work_critical_path"] > 0
                else 0.0
            )
            per_workers[str(workers)] = {
                "wall_speedup": round(wall, 3),
                "critical_path_speedup": round(critical, 3),
            }
        scaling[label] = per_workers

    check_at = "4" if 4 in worker_counts else str(max(worker_counts))
    speedups = {
        label: scaling[label][check_at][
            "wall_speedup" if basis == "wall" else "critical_path_speedup"
        ]
        for label in scatter_labels
        if check_at in scaling.get(label, {})
    }
    fast_enough = [label for label, value in speedups.items() if value >= 2.5]
    pruned_entry = results[check_at]["queries"][PRUNED_QUERY[0]]
    pruning_ok = pruned_entry["shards_contacted"] == 1
    criteria = {
        "basis": basis,
        "checked_at_workers": int(check_at),
        "threshold": 2.5,
        "queries_at_threshold": sorted(fast_enough),
        "speedups": speedups,
        "pruned_query_shards_contacted": pruned_entry["shards_contacted"],
        "pruning_ok": pruning_ok,
        "ok": len(fast_enough) >= 2 and pruning_ok,
    }
    return {
        "bench": "shard",
        "quick": quick,
        "seed": seed,
        "host_cores": host_cores,
        "speedup_basis": basis,
        "collection": {
            "documents": len(stores),
            "nominal_mb_total": QUICK_TOTAL_MB if quick else FULL_TOTAL_MB,
            "total_nodes": sum(len(store.node_index) for _, store in stores),
        },
        "worker_counts": list(worker_counts),
        "results": results,
        "scaling": scaling,
        "criteria": criteria,
        "elapsed_s": round(time.perf_counter() - started, 3),
    }


def summarize(report: dict) -> str:
    lines = [
        f"shard bench ({'quick' if report['quick'] else 'full'}): "
        f"{report['collection']['documents']} documents, "
        f"{report['collection']['total_nodes']} nodes, "
        f"host cores {report['host_cores']}, basis {report['speedup_basis']}"
    ]
    criteria = report["criteria"]
    at = str(criteria["checked_at_workers"])
    header = f"  {'query':<6} {'1w ms':>9} {at + 'w ms':>9} {'wall x':>7} {'cpath x':>8} {'contact':>8}"
    lines.append(header)
    for label, per_workers in report["scaling"].items():
        if at not in per_workers:
            continue
        one = report["results"]["1"]["queries"][label]
        entry = report["results"][at]["queries"][label]
        lines.append(
            f"  {label:<6} {one['wall_ms']:>9.1f} {entry['wall_ms']:>9.1f} "
            f"{per_workers[at]['wall_speedup']:>7.2f} "
            f"{per_workers[at]['critical_path_speedup']:>8.2f} "
            f"{entry['shards_contacted']:>4}/{entry['shards_contacted'] + entry['shards_pruned']}"
        )
    lines.append(
        f"criteria[{criteria['basis']}@{at}w >= {criteria['threshold']}x]: "
        f"{sorted(criteria['speedups'].items())} -> "
        f"{'PASS' if criteria['ok'] else 'FAIL'} "
        f"(pruned query contacted {criteria['pruned_query_shards_contacted']} shard(s))"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
