#!/usr/bin/env python3
"""xferkit benchmark: the `score` and `forest` workloads.

    python3 perfbench/run.py --workload score --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Set-up runs several times, each in a fresh process; the timed
phase runs whole rounds of operations until `--seconds` have passed,
then the outputs are checked. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics of BENCHMARK.json, or with `--trace 1` its per-layer
metrics). See README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread and the default worker count, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("XFERKIT_THREADS", None)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WARMUP_OPS = 2
SETUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("score", "forest", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own tests")
    p.add_argument("--setup", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def input_digest(folder: Path) -> str:
    """sha256 over every generated file; .npz archives by their arrays, since
    the archive itself stamps the time of writing."""
    import numpy as np
    h = hashlib.sha256()
    for path in sorted(folder.iterdir()):
        h.update(path.name.encode())
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                for key in sorted(arrays.files):
                    h.update(key.encode() + str(arrays[key].shape).encode()
                             + arrays[key].tobytes())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def run_setup(args, workload) -> int:
    """Child process: build the inputs into --setup and report the time."""
    import xferkit.cli  # noqa: F401  (imports every module before the clock starts)
    from xferkit import synth

    from spans import Tracer
    tracer = Tracer()
    if args.trace:
        tracer.wrap(synth, "generate_scene", "synth.generate_scene")
    start = time.perf_counter()
    workload.setup(Path(args.setup))
    setup_s = time.perf_counter() - start
    tracer.restore()
    print(json.dumps({"setup_s": setup_s, "digest": input_digest(Path(args.setup)),
                      "synth_s": tracer.self_seconds().get("synth.generate_scene", 0.0)}))
    return 0


def instrument(tracer) -> None:
    """Wrap the public functions of every layer at the names their callers use."""
    from xferkit import _kernels, _parallel, cli, forest, indices, transfer, xras
    count = tracer.count
    w = tracer.wrap
    for fn in ("reconstruct_dilation", "grey_erode_square", "glcm_feature_image"):
        w(_kernels, fn, f"kernels.{fn}")
    w(_kernels, "best_split", "kernels.best_split",
      lambda a, r: (count("best_split.calls"), count("best_split.ok", bool(r[2]))))
    w(_kernels, "tree_apply", "kernels.tree_apply",
      lambda a, r: count("tree_apply.calls"))
    for fn in ("otsu_threshold", "ndvi", "ndwi", "mbi_h", "fuse_pseudo_labels"):
        w(indices, fn, f"indices.{fn}")
    w(transfer, "pseudo_labels", "transfer.pseudo_labels",
      lambda a, r: count("pseudo_labels.calls"))
    for fn in ("assess_scenes", "rank_models", "correlate_predictors", "predict_tiled"):
        w(transfer, fn, f"transfer.{fn}")
    w(transfer, "confusion", "metrics.confusion")
    w(transfer, "miou", "metrics.miou")
    w(transfer, "rf_predict", "forest.rf_predict")
    w(transfer, "plan_tiles", "raster.plan_tiles",
      lambda a, r: (count("tile_px", sum(t.width * t.height for t in r.windows)),
                    count("scene_px", a[0] * a[1])))
    w(transfer, "merge_probability_patches", "raster.merge_probability_patches")
    tracer.wrap_parallel_map(transfer, "parallel_map", "parallel.parallel_map",
                             _parallel.worker_count)
    w(xras, "read_xras", "xras.read_xras",
      lambda a, r: count("read_bytes", len(a[0]) if isinstance(a[0], (bytes, bytearray))
                         else os.path.getsize(a[0])))
    for fn in ("write_xras", "write_report"):
        w(xras, fn, f"xras.{fn}")
    w(cli, "main", "cli.main")
    w(forest, "rf_train", "forest.rf_train",
      lambda a, r: (count("rf_train.calls"), count("tree_nodes", sum(t.n_nodes for t in r.trees))))
    for fn in ("sample_pixels", "glcm_features", "stack_features"):
        w(forest, fn, f"forest.{fn}")


def layer_values(tracer, setups, n_ops: int, scene_rounds: int) -> dict:
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{name}.s": s for name, s in tracer.self_seconds().items()}
    values.update({
        "kernels.best_split.calls": ratio(c["best_split.calls"], n_ops),
        "kernels.best_split.ok_ratio": ratio(c["best_split.ok"], c["best_split.calls"]),
        "kernels.tree_apply.calls": ratio(c["tree_apply.calls"], n_ops),
        "forest.tree_nodes": ratio(c["tree_nodes"], c["rf_train.calls"]),
        "transfer.pseudo_labels.calls_per_scene": ratio(c["pseudo_labels.calls"], scene_rounds),
        "xras.read_mb": ratio(c["read_bytes"] / 1e6, n_ops),
        "raster.tile_px_ratio": ratio(c["tile_px"], c["scene_px"]),
        "parallel.busy_ratio": ratio(c["parallel.parallel_map.item_s"],
                                     c["parallel.parallel_map.capacity_s"]),
        "synth.generate_scene.s": statistics.median(s["synth_s"] for s in setups),
    })
    return values


def timed_phase(workload, seconds: float, between_rounds):
    """Whole rounds until `seconds` of rounds have run after the warm-up ops.

    `between_rounds(measured)` runs after each round, off the clock, with
    the round seconds measured so far.
    """
    latencies, attempted, failed, pixels, rounds = [], 0, 0, 0, 0
    warm, measured = WARMUP_OPS, 0.0
    while warm or measured < seconds:
        start = time.perf_counter()
        for op in workload.round():
            t0 = time.perf_counter()
            try:
                ok = bool(op.fn())
            except Exception:
                traceback.print_exc()
                ok = False
            t1 = time.perf_counter()
            attempted += 1
            failed += not ok
            if warm:
                warm -= 1
                start = t1
                continue
            if op.latency:
                latencies.append(t1 - t0)
                pixels += op.pixels
        measured += time.perf_counter() - start
        rounds += 1
        between_rounds(measured)
    return latencies, attempted, failed, pixels, measured, rounds


def run_workload(args, workload) -> int:
    import numpy as np
    import scipy

    import xferkit
    from xferkit import _parallel
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    setups = []
    reps = 1 if args.smoke else SETUP_REPS
    # Set-up repetitions are spread over the run: one before the timed
    # phase, one after it, and the rest between rounds at even shares of
    # it, so that setup_s sees the same drift in machine speed as the ops.
    due = [args.seconds * k / (reps - 1) for k in range(1, reps - 1)]

    def set_up(keep: bool = False) -> None:
        folder = work / f"setup{len(setups)}"
        folder.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup", str(folder),
               "--workload", workload.name, "--seed", str(args.seed),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if not keep:
            shutil.rmtree(folder)

    def between_rounds(measured: float) -> None:
        while due and measured >= due[0]:
            due.pop(0)
            set_up()

    try:
        set_up(keep=True)
        workload.load(work / "setup0")
        tracer = Tracer()
        if args.trace:
            instrument(tracer)
        try:
            latencies, attempted, failed, pixels, wall, rounds = \
                timed_phase(workload, args.seconds, between_rounds)
        finally:
            tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setups) < reps:
            set_up()

        try:
            failures, accuracy = workload.check()
        except Exception as exc:
            traceback.print_exc()
            failures, accuracy = [f"check raised {exc!r}"], {}
        if len({s["digest"] for s in setups}) != 1:
            failures.append("set-up repetitions generated different inputs")

        tail_pct = workload.tail_pct
        beyond = len(latencies) * (100 - tail_pct) / 100
        if beyond < 10:
            print(f"warning: only {beyond:.0f} ops beyond p{tail_pct}", file=sys.stderr)
        provenance = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "lane": xferkit.BACKEND,
            "xferkit_threads": _parallel.worker_count(), "nproc": os.cpu_count(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "input_digest": setups[0]["digest"],
            "setup_s_reps": [round(s["setup_s"], 4) for s in setups], "rounds": rounds,
            "timed_ops": len(latencies), "tail": f"p{tail_pct}",
        }
        end_to_end = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "mpix_per_s": pixels / 1e6 / wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": float(np.percentile(latencies, tail_pct)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        print("provenance " + json.dumps(provenance))
        print("reference " + json.dumps(accuracy))
        if args.trace:
            print("traced end_to_end " + json.dumps(end_to_end))
            n_ops = sum(op.latency for op in workload.round()) * rounds
            values = layer_values(tracer, setups, n_ops, workload.scenes_per_round * rounds)
            tracer.write(str(base / f"trace-{workload.name}-seed{args.seed}.jsonl"), provenance)
        else:
            values = end_to_end
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in ("score", "forest"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xferkit" / "__init__.py").is_file():
        print(f"error: no xferkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.setup:
        return run_setup(args, workload)
    return run_workload(args, workload)


if __name__ == "__main__":
    sys.exit(main())
