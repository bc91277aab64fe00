"""Self-checks of the benchmark.

    python3 -m pytest benches/test_bench.py

The generator reproduces the ROADMAP baseline, traced counts repeat exactly
for a seed, layers a workload does not use stay at zero, failures are
counted rather than dropped, and ``BENCHMARK.json`` names what the harness
reports.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from csibn import cutset, graphs, inference  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from generator import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = [name for name, unit in harness.PER_LAYER if unit in ("count", "log2")]


@pytest.mark.parametrize("n, arcs, branches", [(30, 44, 288), (40, 59, 2304)])
def test_generator_reproduces_roadmap_baseline(n, arcs, branches):
    net = generate(1, n)
    assert len(net.edges()) == arcs
    assert len(cutset.branch_contexts(cutset.build_conditional_cutset(net))) == branches


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_for_a_seed(name):
    workload = WORKLOADS[name]
    first = harness.traced_run(workload, seed=7, n_ops=workload.cycle)
    second = harness.traced_run(workload, seed=7, n_ops=workload.cycle)
    assert first["failed"] == 0
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}


def test_layers_a_workload_does_not_use_stay_at_zero():
    loopy = harness.traced_run(WORKLOADS["cutset_loopy"], seed=3, n_ops=2)["metrics"]
    large = harness.traced_run(WORKLOADS["ve_large"], seed=3, n_ops=2)["metrics"]
    assert loopy["graphs.min_fill_order.calls"] == 0
    assert loopy["graphs.two_core.calls"] > 0
    assert large["csi.reduce_network.calls"] == 0
    assert large["cutset.branches_per_query"] == 0
    assert large["graphs.min_fill_order.calls"] == 2


def test_failed_operations_are_counted(monkeypatch):
    def fail(net, query):
        raise inference.ImpossibleEvidenceError("evidence has probability zero")

    monkeypatch.setattr(inference, "variable_elimination", fail)
    result = harness.traced_run(WORKLOADS["ve_large"], seed=3, n_ops=2)
    assert result["failed"] == 2
    assert result["failures"] == {"ImpossibleEvidenceError": 2}


def test_tracer_restores_the_library():
    before = graphs.two_core
    with tracing.Tracer():
        assert graphs.two_core is not before
    assert graphs.two_core is before


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benches", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run(
        [sys.executable, "benches/run.py", "--workload", "ve_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
