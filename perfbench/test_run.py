"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench/test_run.py -q

Runs every workload once untraced and once traced with --small, and checks
that each run passes its own output checks and reports every metric
BENCHMARK.json names, with its unit, and that the deterministic counts of
two runs on one seed agree.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((HERE / "manifest.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)


def results(workload: str, trace: int, seed: int = 3) -> dict:
    return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared}
    samples = {name: m["samples"] for name, m in results(workload, trace)["metrics"].items()}
    if trace:
        measured_here = {name for module in MANIFEST["modules"]
                         for name, on in module["metrics"].items() if workload in on}
        measured_here.add("trace.overhead_s")
    else:
        measured_here = set(samples)
    assert all(samples[name] >= 1 for name in measured_here)
    # differences of two timings, and counts of things that should not happen
    may_be_zero = {"trace.overhead_s", "windex.query_s.k10", "windex.query_s.k20",
                   "engine.undefined_rho", "engine.empty_rankings"}
    assert all(result["metrics"][name]["value"] > 0 for name in measured_here - may_be_zero)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs(workload):
    counts = []
    for _ in range(2):
        done = run(workload, 0, seed=5)
        assert done.returncode == 0, done.stderr
        counts.append(results(workload, 0, seed=5)["counts"])
    assert counts[0] and counts[0] == counts[1]


def test_refuses_to_run_without_the_library():
    (HERE / "out").mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out"))
        done = run("cohort_e2e", 0, root=root)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(root)
