"""GLCM texture features and the random-forest pixel classifier used as
the traditional desk-scale baseline."""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernels as kernels
from ._parallel import parallel_map
from .raster import (N_CLASSES, BandRole, LabelMap, MultibandRaster,
                     ProbabilityMap, height_role)

GLCM_STAT_NAMES = ("contrast", "dissimilarity", "homogeneity",
                   "energy", "entropy", "correlation")
DEFAULT_OFFSETS = ((0, 1), (1, 0), (1, 1), (-1, 1))   # (dy, dx), symmetrized

_LUMA = (0.299, 0.587, 0.114)


@dataclass
class GlcmParams:
    window: int = 13
    levels: int = 32
    offsets: tuple[tuple[int, int], ...] = DEFAULT_OFFSETS

    def __post_init__(self):
        if self.window < 3 or self.window % 2 != 1:
            raise ValueError("GLCM window must be odd and >= 3")
        if self.levels < 2:
            raise ValueError("need at least 2 gray levels")
        if not self.offsets:
            raise ValueError("need at least one offset")


@dataclass
class RfHyperparams:
    n_trees: int = 500
    max_depth: int = 20
    min_samples_leaf: int = 1000
    min_samples_split: int = 4000
    features_per_split: int | None = None    # default ceil(sqrt(d))
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("need at least one tree")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1 (or None for ceil(sqrt(d)))")
        if self.min_samples_split < 2 * self.min_samples_leaf:
            raise ValueError("min_samples_split must be >= 2 * min_samples_leaf")

    def k_features(self, d: int) -> int:
        if self.features_per_split is not None:
            return min(self.features_per_split, d)
        return min(d, math.ceil(math.sqrt(d)))


@dataclass
class PixelDataset:
    features: np.ndarray    # (n, d) float32
    labels: np.ndarray      # (n,) uint8, classes 0..3 only

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.features.ndim != 2 or self.labels.ndim != 1 or \
                self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features must be (n, d) with matching labels")
        if self.labels.size and self.labels.max() >= N_CLASSES:
            raise ValueError("void labels are not trainable")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite: a NaN or infinite value "
                             "cannot be ordered against a split threshold")

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=N_CLASSES).astype(np.int64)


@dataclass
class Tree:
    feature: np.ndarray     # int32, -1 at leaves
    threshold: np.ndarray   # float64
    left: np.ndarray        # int32
    right: np.ndarray       # int32
    counts: np.ndarray      # int64 (n_nodes, 4); zero rows at internal nodes
    leaf_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.feature = np.ascontiguousarray(self.feature, dtype=np.int32)
        self.threshold = np.ascontiguousarray(self.threshold, dtype=np.float64)
        self.left = np.ascontiguousarray(self.left, dtype=np.int32)
        self.right = np.ascontiguousarray(self.right, dtype=np.int32)
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        totals = self.counts.sum(axis=1)
        leaves = self.feature < 0
        if np.any(totals[leaves] == 0):
            raise ValueError("leaf histograms must be non-empty")
        probs = np.zeros((self.feature.size, N_CLASSES), dtype=np.float64)
        probs[leaves] = self.counts[leaves] / totals[leaves, None]
        self.leaf_probs = probs

    @property
    def n_nodes(self) -> int:
        return self.feature.size


@dataclass
class Forest:
    trees: list[Tree]
    d: int
    n_classes: int = N_CLASSES

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Mean of per-tree leaf class distributions; float32 (n, 4)."""
        X = np.ascontiguousarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"feature dimensionality {X.shape} does not match d={self.d}")
        acc = np.zeros((X.shape[0], self.n_classes), dtype=np.float64)
        for tree in self.trees:
            leaf = kernels.tree_apply(tree.feature, tree.threshold,
                                      tree.left, tree.right, X)
            acc += tree.leaf_probs[leaf]
        acc /= self.n_trees
        return acc.astype(np.float32)


# ---------------------------------------------------------------------------
# GLCM features
# ---------------------------------------------------------------------------

def quantize_luminance(raster: MultibandRaster, levels: int) -> np.ndarray:
    """Quantize 0.299R + 0.587G + 0.114B into `levels` bins; -1 where any
    of the three bands is nodata. Expects a raster normalized to [0, 1]."""
    r = raster.band(BandRole.RED).astype(np.float64)
    g = raster.band(BandRole.GREEN).astype(np.float64)
    b = raster.band(BandRole.BLUE).astype(np.float64)
    luma = np.clip(_LUMA[0] * r + _LUMA[1] * g + _LUMA[2] * b, 0.0, 1.0)
    q = np.minimum((luma * levels).astype(np.int32), levels - 1)
    valid = raster.valid_mask((BandRole.RED, BandRole.GREEN, BandRole.BLUE))
    q[~valid] = -1
    return q


def glcm_feature_image(levels_img: np.ndarray, params: GlcmParams) -> np.ndarray:
    """Windowed GLCM statistics at float64 precision, (6, h, w)."""
    return kernels.glcm_feature_image(levels_img, params.window,
                                      params.levels, params.offsets)


def glcm_features(raster: MultibandRaster,
                  params: GlcmParams | None = None) -> MultibandRaster:
    """Six-band float32 texture feature raster (see GLCM_STAT_NAMES).

    Border pixels use the window cropped to the image; pixels whose
    cropped window holds no valid pair get all six features set to 0.
    """
    params = params or GlcmParams()
    if params.window > min(raster.height, raster.width):
        raise ValueError("GLCM window larger than the raster")
    q = quantize_luminance(raster, params.levels)
    feats = glcm_feature_image(q, params)
    return MultibandRaster(feats.astype(np.float32),
                           (BandRole.OTHER,) * 6, gsd=raster.gsd)


def stack_features(raster: MultibandRaster, glcm: MultibandRaster | np.ndarray,
                   height: MultibandRaster | np.ndarray | None = None) -> np.ndarray:
    """Per-pixel feature stack: R, G, B, NIR, six GLCM statistics, and the
    height plane last when present (d = 10 or 11), float32 (d, h, w)."""
    bands = [raster.band(role) for role in
             (BandRole.RED, BandRole.GREEN, BandRole.BLUE, BandRole.NIR)]
    glcm_data = glcm.data if isinstance(glcm, MultibandRaster) else np.asarray(glcm)
    if glcm_data.shape[0] != 6:
        raise ValueError("expected a 6-band GLCM feature stack")
    planes = [b.astype(np.float32) for b in bands]
    planes.extend(glcm_data.astype(np.float32))
    if height is not None:
        if isinstance(height, MultibandRaster):
            plane = height.band(height_role(height))
        else:
            plane = np.asarray(height)
        planes.append(plane.astype(np.float32))
    shapes = {p.shape for p in planes}
    if len(shapes) != 1:
        raise ValueError("feature planes are not co-registered")
    return np.ascontiguousarray(np.stack(planes, axis=0))


# ---------------------------------------------------------------------------
# sampling and training
# ---------------------------------------------------------------------------

def sample_pixels(feature_stacks: Sequence[np.ndarray],
                  labels: Sequence[LabelMap], n_samples: int, seed: int,
                  stratified: bool = False) -> PixelDataset:
    """Random sample without replacement over non-void pixels of all scenes.

    Deterministic given the seed. Asks for more samples than exist and you
    get the full set plus a warning. `stratified` allocates the budget
    proportionally to class frequencies.
    """
    if len(feature_stacks) != len(labels) or not feature_stacks:
        raise ValueError("need matching, non-empty feature and label lists")
    flats, pixels, labs = [], [], []
    for stack, lab in zip(feature_stacks, labels):
        stack = np.asarray(stack)
        if stack.shape[1:] != lab.codes.shape:
            raise ValueError("features and labels are not co-registered")
        flats.append(stack.reshape(stack.shape[0], -1))
        pixels.append(np.flatnonzero(lab.valid_mask()))
        labs.append(lab.codes.ravel()[pixels[-1]])
    y = np.concatenate(labs, axis=0)
    total = y.size
    if total == 0:
        raise ValueError("no non-void pixels to sample")
    rng = np.random.default_rng(seed)
    if n_samples >= total:
        if n_samples > total:
            warnings.warn(f"requested {n_samples} samples but only {total} "
                          "non-void pixels exist; using all of them")
        pick = np.arange(total)
    elif not stratified:
        pick = np.sort(rng.choice(total, size=n_samples, replace=False))
    else:
        counts = np.bincount(y, minlength=N_CLASSES)
        quota = np.floor(n_samples * counts / total).astype(np.int64)
        frac = n_samples * counts / total - quota
        for c in np.argsort(-frac, kind="stable"):
            if quota.sum() >= n_samples:
                break
            if quota[c] < counts[c]:
                quota[c] += 1
        picks = []
        for c in range(N_CLASSES):
            pool = np.nonzero(y == c)[0]
            if quota[c] > 0:
                picks.append(pool[rng.choice(pool.size, size=int(quota[c]),
                                             replace=False)])
        pick = np.sort(np.concatenate(picks))
    # the draw needs only the labels: gather just the picked feature rows
    starts = np.cumsum([0] + [p.size for p in pixels])
    parts = np.split(pick, np.searchsorted(pick, starts[1:-1]))
    rows = [flat[:, pix[part - start]].T
            for flat, pix, part, start in zip(flats, pixels, parts, starts)]
    return PixelDataset(np.concatenate(rows, axis=0), y[pick])


def _grow_tree(X: np.ndarray, y: np.ndarray, hp: RfHyperparams, k: int,
               rng: np.random.Generator) -> Tree:
    n, d = X.shape
    drawn = np.bincount(rng.integers(0, n, size=n, dtype=np.int64), minlength=n)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    counts: list[np.ndarray] = []

    def grow(rows: np.ndarray, mult: np.ndarray, depth: int) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        hist = np.bincount(y[rows], weights=mult, minlength=N_CLASSES).astype(np.int64)
        counts.append(hist)
        pure = int((hist > 0).sum()) <= 1
        if depth >= hp.max_depth or hist.sum() < hp.min_samples_split or pure:
            return node
        feats = rng.choice(d, size=k, replace=False)
        f, thr, ok = kernels.best_split(X, y, rows, mult, feats,
                                        hp.min_samples_leaf, N_CLASSES)
        if not ok:
            return node
        # compare in float64, as best_split scored and tree_apply routes:
        # a float32 comparison would round the midpoint onto a data value
        go_left = X[rows, f] <= np.float64(thr)
        feature[node] = f
        threshold[node] = thr
        counts[node] = np.zeros(N_CLASSES, dtype=np.int64)
        left[node] = grow(rows[go_left], mult[go_left], depth + 1)
        right[node] = grow(rows[~go_left], mult[~go_left], depth + 1)
        return node

    rows = np.flatnonzero(drawn)
    grow(rows, drawn[rows], 0)
    return Tree(np.array(feature, dtype=np.int32),
                np.array(threshold, dtype=np.float64),
                np.array(left, dtype=np.int32),
                np.array(right, dtype=np.int32),
                np.stack(counts).astype(np.int64))


def rf_train(data: PixelDataset, hp: RfHyperparams) -> Forest:
    """Train the forest: per-tree bootstrap, CART splits minimizing Gini
    over a random feature subset per node, midpoint thresholds.

    A tree's bootstrap draws n rows with replacement and is carried as
    counts: each drawn row once, with the number of times it was drawn.
    Node sizes, class histograms and both sample limits count those
    multiplicities, so the trees are those grown on the repeated rows.

    Deterministic under a fixed seed; tree i draws from its own stream
    seeded (seed, i), so the first k trees of any run coincide.
    """
    if data.n == 0:
        raise ValueError("empty training set")
    if data.n < hp.min_samples_split:
        warnings.warn("training set smaller than min_samples_split; "
                      "trees degenerate to single leaves")
    k = hp.k_features(data.d)
    trees = [
        _grow_tree(data.features, data.labels, hp, k,
                   np.random.default_rng([hp.seed, i]))
        for i in range(hp.n_trees)
    ]
    return Forest(trees, d=data.d)


PREDICT_BLOCK_ROWS = 1 << 16


def rf_predict(forest: Forest, features: np.ndarray | MultibandRaster) -> ProbabilityMap:
    """Pixel-wise class probabilities for a (d, h, w) feature stack, in blocks
    of `PREDICT_BLOCK_ROWS` pixels on XFERKIT_THREADS workers, so working
    memory is bounded whatever the scene size. A pixel depends on its own
    features only: the bytes are the same for any block size or worker count."""
    stack = features.data if isinstance(features, MultibandRaster) else np.asarray(features)
    if stack.ndim != 3 or stack.shape[0] != forest.d:
        raise ValueError(f"feature stack shaped {stack.shape} does not match d={forest.d}")
    d, h, w = stack.shape
    flat = stack.reshape(d, h * w)
    probs = np.empty((N_CLASSES, h * w), dtype=np.float32)

    def block(start: int) -> None:
        rows = slice(start, start + PREDICT_BLOCK_ROWS)
        probs[:, rows] = forest.predict_matrix(flat[:, rows].T).T

    parallel_map(block, range(0, h * w, PREDICT_BLOCK_ROWS))
    return ProbabilityMap(probs.reshape(N_CLASSES, h, w))


# ---------------------------------------------------------------------------
# serialization: versioned binary container plus a JSON debug dump
# ---------------------------------------------------------------------------

FOREST_MAGIC = b"XRFC"
FOREST_VERSION = 1
_F_HEADER = struct.Struct("<4sHHIH")
_NODE_INTERNAL = struct.Struct("<BHd")
_NODE_LEAF = struct.Struct("<B4Q")


def _emit_tree(tree: Tree, out: bytearray) -> None:
    """The tree's nodes in pre-order, from an explicit stack, so a tree of
    any depth is written."""
    out.extend(struct.pack("<I", tree.n_nodes))
    stack = [0]
    while stack:
        node = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            out.extend(_NODE_LEAF.pack(1, *(int(c) for c in tree.counts[node])))
            continue
        out.extend(_NODE_INTERNAL.pack(0, f, float(tree.threshold[node])))
        stack += (int(tree.right[node]), int(tree.left[node]))


def save_forest(forest: Forest, path: str | Path | None = None) -> bytes:
    out = bytearray()
    out += _F_HEADER.pack(FOREST_MAGIC, FOREST_VERSION, forest.d,
                          forest.n_trees, forest.n_classes)
    for tree in forest.trees:
        _emit_tree(tree, out)
    blob = bytes(out)
    if path is not None:
        Path(path).write_bytes(blob)
    return blob


def load_forest(src: str | Path | bytes) -> Forest:
    buf = src if isinstance(src, (bytes, bytearray)) else Path(src).read_bytes()
    if len(buf) < _F_HEADER.size:
        raise ValueError("corrupt file: shorter than the header")
    magic, version, d, n_trees, n_classes = _F_HEADER.unpack_from(buf, 0)
    if magic != FOREST_MAGIC or version != FOREST_VERSION:
        raise ValueError("unsupported format")
    if n_classes != N_CLASSES:
        raise ValueError("unsupported format: class count mismatch")
    pos = _F_HEADER.size
    trees = []
    for _ in range(n_trees):
        try:
            (n_nodes,) = struct.unpack_from("<I", buf, pos)
        except struct.error:
            raise ValueError("corrupt file: truncated tree header") from None
        pos += 4
        # bound the arrays below by the bytes left, at the smallest node's size
        if n_nodes > (len(buf) - pos) // _NODE_INTERNAL.size:
            raise ValueError("corrupt file: more nodes declared than the file holds")
        feature = np.full(n_nodes, -1, dtype=np.int32)
        threshold = np.zeros(n_nodes, dtype=np.float64)
        left = np.full(n_nodes, -1, dtype=np.int32)
        right = np.full(n_nodes, -1, dtype=np.int32)
        counts = np.zeros((n_nodes, N_CLASSES), dtype=np.int64)
        # Nodes come in pre-order: a node's left child is the next node, and
        # its right child follows the left subtree. The stack holds the child
        # slots still to fill, (parent, left or right), the next one on top.
        slots: list[tuple[int, np.ndarray | None]] = [(-1, None)]
        next_id = 0
        while slots:
            parent, side = slots.pop()
            if pos >= len(buf):
                raise ValueError("corrupt file: truncated node stream")
            node = next_id
            next_id += 1
            if node >= n_nodes:
                raise ValueError("corrupt file: more nodes than declared")
            if side is not None:
                side[parent] = node
            kind = buf[pos]
            try:
                if kind == 0:
                    _, feature[node], threshold[node] = _NODE_INTERNAL.unpack_from(buf, pos)
                    pos += _NODE_INTERNAL.size
                    slots += ((node, right), (node, left))
                elif kind == 1:
                    counts[node] = _NODE_LEAF.unpack_from(buf, pos)[1:]
                    pos += _NODE_LEAF.size
                else:
                    raise ValueError("corrupt file: unknown node kind")
            except struct.error:
                raise ValueError("corrupt file: truncated node stream") from None
        if next_id != n_nodes:
            raise ValueError("corrupt file: node count mismatch")
        trees.append(Tree(feature, threshold, left, right, counts))
    if pos != len(buf):
        raise ValueError("corrupt file: trailing bytes")
    return Forest(trees, d=d)


def forest_to_json(forest: Forest) -> str:
    arrays = ("feature", "threshold", "left", "right", "counts")
    doc = {"version": FOREST_VERSION, "d": forest.d, "n_trees": forest.n_trees,
           "n_classes": forest.n_classes,
           "trees": [{k: getattr(tree, k).tolist() for k in arrays} for tree in forest.trees]}
    return json.dumps(doc, indent=2, sort_keys=True)
