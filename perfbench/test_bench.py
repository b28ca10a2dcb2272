"""Tests of the benchmark itself: every workload runs at smoke size with
its checks, and each workload's check rejects a deliberately wrong
output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import Forest, Score  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    folder = Path(tempfile.mkdtemp(prefix="test-", dir=base))
    yield folder
    shutil.rmtree(folder, ignore_errors=True)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["score", "forest"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_checks_and_prints_every_metric(workload, trace):
    proc, lines = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                            "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    provenance = json.loads(next(x for x in lines if x.startswith("provenance "))[11:])
    assert provenance["lane"] and provenance["input_digest"] and provenance["seed"] == 3


def test_refuses_to_run_without_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = run_bench("--workload", "score", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _ran(workload, folder):
    workload.setup(folder)
    workload.load(folder)
    assert all(op.fn() for op in workload.round())
    failures, _ = workload.check()
    assert failures == []
    return workload


def test_score_check_rejects_a_perturbed_report(workdir):
    w = _ran(Score(seed=4, smoke=True), workdir)
    reports = w._reports()
    reports[(1, 2)]["gt_miou"] += 1e-4
    failures, _ = w.check(reports)
    assert any(f.startswith("gt_miou d1 m2") for f in failures)

    reports = w._reports()
    reports[(w.seed % 4, 0)]["index_miou"] -= 1e-4
    failures, _ = w.check(reports)
    assert any(f.startswith("index_miou") for f in failures)


def test_forest_check_rejects_a_swapped_tree_threshold(workdir):
    w = _ran(Forest(seed=4, smoke=True), workdir)
    X = w.heldout_sample()
    predictions = {j: f.predict_matrix(X) for j, f in w.forests.items()}
    tree = w.forests[1].trees[0]
    internal = np.nonzero(tree.feature >= 0)[0]
    a, b = internal[0], internal[-1]
    tree.threshold[[a, b]] = tree.threshold[[b, a]]
    failures, _ = w.check(predictions=predictions)
    assert any(f.startswith("op 1: own traversal") for f in failures)


def test_forest_check_rejects_a_flipped_tile_label(workdir):
    w = _ran(Forest(seed=4, smoke=True), workdir)
    labels = w.outputs[w.check_scene][1]
    labels.codes[5, 7] = (labels.codes[5, 7] + 1) % 4
    failures, _ = w.check()
    assert any("tiled argmax differs" in f for f in failures)
