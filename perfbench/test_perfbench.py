"""Self-test of the benchmark: tiny runs, generator purity, trace accounting.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    if trace:
        # layer self times never add up to more than the traced batches took
        record = json.loads((ROOT / ".perfbench" /
                             f"results-{workload}-seed1-trace1.json").read_text())
        walls = record["batch_walls"][1:]   # the first batch runs untraced
        self_total = sum(m["value"] for name, m in result["metrics"].items()
                         if name.startswith("layer.")) * len(walls)
        assert 0.0 < self_total <= sum(walls)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(workload):
    first = workloads.generate(workload, 11)
    random.seed(12345)   # global random state must not leak in
    assert workloads.generate(workload, 11) == first
    assert workloads.generate(workload, 12) != first
    assert workloads.generate(workload, 11, tiny=True) == \
        workloads.generate(workload, 11, tiny=True)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "survey", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
