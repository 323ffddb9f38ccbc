"""Smoke test of the benchmark itself.

Run with ``python -m pytest perfbench/tests -q`` (the repo's tier-1
``testpaths`` does not include this directory).
"""

import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

#: Workloads with one client: their work counters must repeat exactly.
SINGLE_CLIENT = ("paper_seek", "deep_scan", "adhoc_plan", "ingest_edit")


def smoke_run() -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_reports_exactly_the_declared_metrics_and_repeats():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    first, second = smoke_run(), smoke_run()
    assert first["correct"] and first["failed"] == 0
    assert second["correct"] and second["failed"] == 0
    assert set(first["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, metrics in first["workloads"].items():
        assert set(metrics) == set(units), name
        for metric, entry in metrics.items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))
    for name in SINGLE_CLIENT:
        for metric, entry in first["workloads"][name].items():
            if metric.endswith("_per_op"):
                assert entry == second["workloads"][name][metric], (name, metric)
