#!/usr/bin/env python3
"""Time each hot kernel on representative inputs.

Prints a table of per-call wall times. Reconstruction and tree traversal
have a compiled lane as well as the pure-numpy one: for them the table
gives both, the speedup, and flags outputs that differ. Erosion, GLCM
and split search have one implementation, `pure`, timed alone. GLCM runs
at window 13 on a random level image (every level pair present, its
worst case) and on a synthetic scene, and at window 31 on the scene,
where the pure lane counts pairs in int32 rather than uint8. The lanes
are called directly, past the checked front in `xferkit._kernels`, so the
inputs are built in the dtypes the front would pass. Usage:

    python benchmarks/bench_kernels.py [--size 256] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from xferkit import forest, synth
from xferkit._kernels import FALLBACK_REASON, compiled, pure


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def serpentine_dsm(size):
    """Worst case for reconstruction: a one-pixel corridor winding through
    every even row, joined at alternating ends, with the marker high only
    at its start. Returns (marker, dsm); the reconstruction equals the dsm."""
    dsm = np.zeros((size, size), dtype=np.float32)
    dsm[0::2] = 10.0
    for k, y in enumerate(range(1, size - 1, 2)):
        dsm[y, size - 1 if k % 2 == 0 else 0] = 10.0
    marker = np.zeros_like(dsm)
    marker[0, 0] = 10.0
    return marker, dsm


def median_tree(X, depth):
    """Pre-order tree that splits every node at the median of its rows on
    feature (depth mod d), down to `depth`: a bushy worst case for routing,
    where every one of the 2^(depth+1) - 1 nodes receives rows."""
    feature, threshold, left, right = [], [], [], []

    def grow(rows, level):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if level < depth:
            f = level % X.shape[1]
            t = float(np.median(X[rows, f]))
            go_left = X[rows, f] <= t
            feature[node], threshold[node] = f, t
            left[node] = grow(rows[go_left], level + 1)
            right[node] = grow(rows[~go_left], level + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return (np.array(feature, dtype=np.int32), np.array(threshold),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32))


def bench(size, repeats):
    rng = np.random.default_rng(99)
    dsm = rng.uniform(0, 40, (size, size)).astype(np.float32)
    dsm += (rng.uniform(size=(size, size)) < 0.02) * 15.0
    # GLCM cost grows with the number of level pairs present: a random
    # image holds all 528 of 32 levels, a synthetic scene's luminance far fewer
    levels_img = rng.integers(0, 32, (size, size)).astype(np.int32)
    rgbn, _, _ = synth.generate_scene(synth.DomainSpec(width=size, height=size), 0)
    scene_levels = forest.quantize_luminance(rgbn, 32)
    offsets = np.array([(0, 1), (1, 0), (1, 1), (-1, 1)], dtype=np.int64)

    n, d = 40_000, 11
    X = rng.normal(size=(n, d)).astype(np.float32)
    y = rng.integers(0, 4, n).astype(np.uint8)
    feats = np.arange(4, dtype=np.int64)
    # a tree's root: its bootstrap's distinct rows and their counts, at
    # 40k rows and at the study's 50k samples (min_samples_leaf 20)
    roots = {}
    for n_root in (40_000, 50_000):
        Xs = rng.normal(size=(n_root, d)).astype(np.float32)
        ys = rng.integers(0, 4, n_root).astype(np.uint8)
        drawn = np.bincount(rng.integers(0, n_root, n_root), minlength=n_root)
        rows = np.flatnonzero(drawn)
        roots[n_root] = (Xs, ys, rows, drawn[rows], feats, 20, 4)

    n_nodes = 2047                      # full binary tree of depth 10
    feature = np.full(n_nodes, -1, dtype=np.int32)
    internal = np.arange(n_nodes // 2)
    feature[internal] = (internal % d).astype(np.int32)
    threshold = rng.normal(size=n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int32)
    right = np.full(n_nodes, -1, dtype=np.int32)
    left[internal] = 2 * internal + 1
    right[internal] = 2 * internal + 2
    bushy = median_tree(X, 11)          # 4095 nodes, leaves of about 20 rows

    marker = pure.grey_erode_square(dsm, 31)
    serp = {n: serpentine_dsm(n) for n in (128, 256)}
    # (name, call, has a compiled lane)
    cases = [
        ("erode 31x31", lambda impl: impl.grey_erode_square(dsm, 31), False),
        ("reconstruct", lambda impl: impl.reconstruct_dilation(marker, dsm), True),
        ("recon serp 128", lambda impl: impl.reconstruct_dilation(*serp[128]), True),
        ("recon serp 256", lambda impl: impl.reconstruct_dilation(*serp[256]), True),
        ("glcm w13 l32", lambda impl: impl.glcm_feature_image(
            levels_img, 13, 32, offsets), False),
        ("glcm w13 scene", lambda impl: impl.glcm_feature_image(
            scene_levels, 13, 32, offsets), False),
        ("glcm w31 scene", lambda impl: impl.glcm_feature_image(
            scene_levels, 31, 32, offsets), False),
        ("best_split 40k", lambda impl: impl.best_split(*roots[40_000]), False),
        ("best_split 50k", lambda impl: impl.best_split(*roots[50_000]), False),
        ("tree_apply 40k", lambda impl: impl.tree_apply(
            feature, threshold, left, right, X), True),
        ("tree_apply bushy", lambda impl: impl.tree_apply(*bushy, X), True),
    ]

    print(f"input size {size}x{size}, best of {repeats}")
    print(f"{'kernel':<16} {'pure':>10} {'compiled':>10} {'speedup':>9}")
    for name, call, two_lanes in cases:
        t_pure, out_pure = timeit(lambda: call(pure), repeats)
        if compiled is None or not two_lanes:
            print(f"{name:<16} {t_pure:>9.3f}s {'n/a':>10} {'n/a':>9}")
            continue
        t_comp, out_comp = timeit(lambda: call(compiled), repeats)
        # both two-lane kernels are exact: their lanes agree bit for bit
        flag = "" if np.array_equal(out_pure, out_comp) else "  RESULTS DIFFER"
        print(f"{name:<16} {t_pure:>9.3f}s {t_comp:>9.3f}s {t_pure / t_comp:>8.1f}x{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if compiled is None:
        print(f"compiled lane not available ({FALLBACK_REASON}); "
              "timing the pure lane only")
    bench(args.size, args.repeats)


if __name__ == "__main__":
    main()
