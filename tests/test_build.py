"""The compiled lane builds from a clean copy of the sources and passes the
kernel and lane-parity tests, the pinned forest digests and the
block-wise and tiled prediction tests, so Tier-1 exercises it even where
the working tree holds no build."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_compiled_lane_builds_and_passes_kernel_tests(tmp_path):
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler found ({cc})")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    build = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stdout[-2000:] + build.stderr[-2000:]

    env = dict(os.environ, XFERKIT_BACKEND="compiled", PYTHONPATH=str(tmp_path / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_kernels.py"),
         str(ROOT / "tests" / "test_kernel_parity.py"),
         # the C tree_apply against the pinned predict_matrix digest
         str(ROOT / "tests" / "test_forest.py") + "::TestTraining::test_forest_bytes_pinned",
         # row blocks on concurrent workers: ctypes releases the GIL
         str(ROOT / "tests" / "test_forest.py")
         + "::TestPrediction::test_blocks_equal_predict_matrix_bytes",
         str(ROOT / "tests" / "test_transfer.py") + "::TestPredictTiled"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    assert "skipped" not in run.stdout
