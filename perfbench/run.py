#!/usr/bin/env python3
"""The repo benchmark: one command, six workloads, every metric by name.

    python3 perfbench/run.py --workload paper_seek --seed 42 --seconds 5 --trace 0

runs one workload and prints its end-to-end metrics (``--trace 1``: its
per-layer metrics), then, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The metric
names, units and regression bounds are the ones ``BENCHMARK.json``
declares.  See ``perfbench/README.md`` for the glossary and the other modes
(``--workload all``, ``--smoke``, ``--compare``, ``--selfcheck``,
``--regen-golden``).

Each run is three processes' worth of work kept apart: this driver
generates the inputs and asks the DOM baseline for the expected answers;
a fresh child process sets the program up, drives it and checks every
answer; and the child's own children are the program's shard workers.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SOURCE = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Hard cap on one child process, well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150.0
#: Workloads whose work counters must repeat exactly (one client).
SINGLE_CLIENT = ("paper_seek", "deep_scan", "adhoc_plan", "ingest_edit")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- child: set up, drive, check ----------------------------------------------


def percentile(ordered: list[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1)]


def child_main() -> None:
    """Run one workload as told on standard input; report on standard output."""
    from probes import probe_all
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    job = json.load(sys.stdin)
    workload = WORKLOADS[job["workload"]]
    seed, seconds, smoke = job["seed"], job["seconds"], job["smoke"]
    expected = job["expected"]
    documents = workload.documents(seed, smoke)
    directory = os.path.join(OUT, f"tmp-{os.getpid()}")
    setups: list[float] = []
    metrics: dict[str, float] = {}
    rig = None
    try:
        for _attempt in range(1 if smoke else SETUPS):
            if rig is not None:
                rig.close()
                rig = None
                gc.collect()
            rig = workload.open(documents, seed, smoke, expected, directory)
            started = time.perf_counter()
            rig.start()
            setups.append(time.perf_counter() - started)
        gc.collect()
        if not job["trace"]:
            clients, _ = rig.run(seconds)
        else:
            plain, _ = rig.run(seconds / 2)
            tracer = Tracer()
            clients, in_situ = rig.run(seconds / 2, tracer)
            metrics = probe_all(
                workload, documents, seed, smoke, expected, directory, rig, in_situ
            )
            untraced = sum(client.ops_per_s() for client in plain)
            traced = sum(client.ops_per_s() for client in clients)
            metrics["bench.trace_overhead_ratio"] = untraced / traced
            ordered = sorted(Recorder.merged(plain).all_latencies())
            metrics["op_p99_ms"] = percentile(ordered, 0.99) * 1000.0
            os.makedirs(OUT, exist_ok=True)
            tracer.write(os.path.join(OUT, f"trace-{workload.name}.json"))
        nodes = dict(rig.nodes)
    finally:
        if rig is not None:
            rig.close()
        shutil.rmtree(directory, ignore_errors=True)
    survivors = multiprocessing.active_children()
    merged = Recorder.merged(clients)
    if survivors:
        merged.fail(f"{len(survivors)} worker processes survive close()")
    if job["trace"]:
        if workload.rig == "engine":
            # Named queries inside the mixture report their in-mixture median.
            for label, values in merged.latencies.items():
                if f"engine.q.{label}.p50_ms" in metrics:
                    metrics[f"engine.q.{label}.p50_ms"] = (
                        statistics.median(values) * 1000.0
                    )
    else:
        ordered = sorted(merged.all_latencies())
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": sum(client.ops_per_s() for client in clients),
            "op_p50_ms": statistics.median(ordered) * 1000.0,
            "op_p90_ms": percentile(ordered, 0.90) * 1000.0,
            "peak_rss_mb": (own + children) / 1024.0,
        }
    json.dump(
        {
            "attempted": merged.attempted,
            "failed": merged.failed,
            "errors": merged.errors,
            "metrics": metrics,
            "nodes": nodes,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")


# -- driver: inputs, expected answers, one child per run -----------------------


def run_once(name, seed, seconds, trace, smoke=False, regen=False) -> dict:
    """One run of one workload in one mode, in a fresh child process."""
    from oracle import (
        GOLDEN_SEEDS,
        check_input_pins,
        describe_inputs,
        expected_digests,
    )
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    documents = workload.documents(seed, smoke)
    inputs = describe_inputs(documents)
    pin_key = f"{name}/{seed}" if seed in GOLDEN_SEEDS and not smoke else None
    if pin_key and not regen:
        check_input_pins(pin_key, inputs)
    started = time.perf_counter()
    expected = expected_digests(
        documents, workload.checks(seed, smoke, documents), regen=regen
    )
    oracle_s = time.perf_counter() - started
    job = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "expected": expected,
    }
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        output, _ = child.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
        problem = None if child.returncode == 0 else f"child exited {child.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        outlived = kill_group(child.pid)
        child.wait()
        shutil.rmtree(os.path.join(OUT, f"tmp-{child.pid}"), ignore_errors=True)
    if problem is not None:
        # A run that died or hung answered nothing: every operation failed.
        result = {"attempted": 1, "failed": 1, "errors": [problem], "metrics": {}}
    else:
        result = json.loads(output.strip().splitlines()[-1])
        if outlived:
            result["failed"] += 1
            result["errors"].append("a process of the run outlived it and was killed")
    if trace and result["metrics"]:
        result["metrics"]["bench.oracle_s"] = oracle_s
    for entry in inputs:
        entry["nodes"] = result.get("nodes", {}).get(entry["name"])
    if pin_key and problem is None:
        check_input_pins(pin_key, inputs, regen=regen)
    result["inputs"] = inputs
    return result


def kill_group(pgid: int) -> bool:
    """Kill whatever is left of a child's process group; was anything?"""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def declared(spec: dict, trace: int) -> dict[str, str]:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def report_metrics(spec: dict, name: str, trace: int, result: dict) -> dict:
    """The declared metrics of one run, each with its unit; prints them."""
    shown = {}
    for metric, unit in declared(spec, trace).items():
        if metric not in result["metrics"]:
            continue
        value = result["metrics"][metric]
        shown[metric] = {"value": value, "unit": unit}
        print(f"{name:14s} {metric:40s} {value:18.6f} {unit}")
    for error in result["errors"]:
        print(f"{name:14s} FAILED {error}")
    return shown


def environment(seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_set(spec, names, seed, seconds, traces, smoke=False, regen=False, repeat=1) -> dict:
    """Every named workload in every asked mode; the full report."""
    report = {"meta": environment(seed, seconds), "workloads": {}}
    for name in names:
        entry = report["workloads"][name] = {"runs": []}
        for _repeat in range(repeat):
            run = {"attempted": 0, "failed": 0, "errors": [], "metrics": {}}
            for trace in traces:
                result = run_once(name, seed, seconds, trace, smoke, regen)
                run["metrics"].update(report_metrics(spec, name, trace, result))
                run["attempted"] += result["attempted"]
                run["failed"] += result["failed"]
                run["errors"] += result["errors"]
                run["inputs"] = result["inputs"]
            entry["runs"].append(run)
    return report


def final_line(report: dict, single: bool) -> str:
    runs = [run for entry in report["workloads"].values() for run in entry["runs"]]
    body = {
        "correct": all(run["failed"] == 0 for run in runs),
        "attempted": max(1, sum(run["attempted"] for run in runs)),
        "failed": sum(run["failed"] for run in runs),
    }
    if single:
        body["metrics"] = runs[0]["metrics"]
    else:
        body["workloads"] = {
            name: entry["runs"][-1]["metrics"]
            for name, entry in report["workloads"].items()
        }
    return json.dumps(body)


# -- comparing two reports -----------------------------------------------------


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def compare(spec: dict, base: dict, new: dict) -> int:
    """One row per workload and end-to-end metric; 1 if anything is worse."""
    status = 0
    print(
        f"{'workload':14s} {'metric':12s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'bound':>6s}  verdict"
    )
    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            olds = [run["metrics"][key]["value"] for run in entry["runs"] if key in run["metrics"]]
            news = [run["metrics"][key]["value"] for run in other["runs"] if key in run["metrics"]]
            if not olds or not news:
                continue
            old, now = statistics.median(olds), statistics.median(news)
            change = (now - old) / old
            if metric["better"] == "higher":
                change = -change
            if max(spread(olds), spread(news)) > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
                status = 1
            elif change < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            print(
                f"{name:14s} {key:12s} {old:12.4f} {now:12.4f} "
                f"{now / old:9.3f} {metric['bound']:6.2f}  {verdict}"
            )
        old_failed = sum(run["failed"] / max(run["attempted"], 1) for run in entry["runs"])
        new_failed = sum(run["failed"] / max(run["attempted"], 1) for run in other["runs"])
        if new_failed / len(other["runs"]) > old_failed / len(entry["runs"]):
            print(f"{name:14s} failed fraction rose: worse")
            status = 1
    return status


def selfcheck(spec: dict, seed: int, seconds: float) -> int:
    """Two sets back to back must agree; single-client counters exactly."""
    names = [workload["name"] for workload in spec["workloads"]]
    first = run_set(spec, names, seed, seconds, (0, 1))
    second = run_set(spec, names, seed, seconds, (0, 1))
    status = max(compare(spec, first, second), compare(spec, second, first))
    for name in SINGLE_CLIENT:
        one = first["workloads"][name]["runs"][0]["metrics"]
        two = second["workloads"][name]["runs"][0]["metrics"]
        for metric in one:
            if metric.endswith("_per_op") and one[metric] != two[metric]:
                print(f"{name:14s} {metric} differs: {one[metric]} vs {two[metric]}")
                status = 1
    failed = sum(
        run["failed"]
        for report in (first, second)
        for entry in report["workloads"].values()
        for run in entry["runs"]
    )
    print("selfcheck", "FAILED" if status or failed else "OK")
    return 1 if status or failed else 0


# -- command line --------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="measured time per run")
    parser.add_argument(
        "--trace", nargs="?", const="1", default="0", choices=("0", "1", "both"),
        help="0: end-to-end metrics; 1: per-layer metrics; both: one run of each",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--smoke", action="store_true", help="all workloads, tiny sizes")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"the program's source is not at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SOURCE)
    if args.child:
        child_main()
        return 0
    spec = load_spec()
    if args.compare:
        reports = []
        for path in args.compare:
            with open(path, "r", encoding="utf-8") as handle:
                reports.append(json.load(handle))
        return compare(spec, *reports)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.selfcheck:
        return selfcheck(spec, args.seed, seconds)

    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    traces = {"0": (0,), "1": (1,), "both": (0, 1)}[args.trace]
    if args.smoke:
        traces, seconds = (0, 1), 0.2 if args.seconds is None else seconds
    if args.regen_golden:
        from oracle import GOLDEN_SEEDS

        for seed in GOLDEN_SEEDS:
            run_set(spec, names, seed, 0.2, (0,), regen=True)
        return 0
    report = run_set(
        spec, names, args.seed, seconds, traces, smoke=args.smoke, repeat=args.repeat
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=1)
    print(final_line(report, single=len(names) == 1 and len(traces) == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
