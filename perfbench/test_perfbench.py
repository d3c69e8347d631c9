"""Smoke test of the benchmark on tiny inputs.

Checks that every metric BENCHMARK.json names comes out with its unit for
every workload, that traced counts repeat exactly, that the correctness
check trips on a wrong truth model, that the tracer wraps every function
cli.py calls in another module, and that the benchmark refuses to run
without the rangevar sources.
"""

import ast
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = result_of("--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics_and_repeats_counts(workload):
    first = result_of("--workload", workload, "--trace", "1")
    second = result_of("--workload", workload, "--trace", "1")
    assert first["correct"] and second["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["fit.iterations"]["value"] > 0
    assert first["metrics"]["preprocess.screen_calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_correctness_check_trips_on_a_wrong_truth_model(workload):
    result = result_of("--workload", workload, "--perturb-truth")
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_benchmark_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tracer_wraps_every_cross_module_call_in_cli():
    cli = workloads.cli
    aliases = {"calibrate_mod": "calibrate", "evaluate_mod": "evaluate", "fit_mod": "fit",
               "ingest": "ingest", "preprocess": "preprocess", "simulate": "simulate"}
    called = {
        (aliases[node.func.value.id], node.func.attr)
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases
    }
    functions = {
        (module, attr) for module, attr in called
        if inspect.isfunction(getattr(workloads.MODULES[module], attr))
    }
    assert functions, "no cross-module calls found in cli.py"
    assert functions <= {(module, attr) for module, attr, _, _ in spans.TIMED}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
