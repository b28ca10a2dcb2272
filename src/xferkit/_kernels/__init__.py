"""The hot kernels, behind one checked front.

Two kernels have two lanes with one contract (see `pure`):
`reconstruct_dilation` and `tree_apply` run the C loops of `kernels.c` on
the `compiled` lane and numpy on the `pure` lane. The other three,
`grey_erode_square`, `glcm_feature_image` and `best_split`, have one
implementation, numpy in `pure`, which every lane calls: numpy outruns
plain C loops on them. The compiled lane is used when its library
loads, and `FALLBACK_REASON` keeps why it did not; set
``XFERKIT_BACKEND=pure`` (or ``compiled``) to force a lane. `compiled`
means the C kernel where one exists.

The functions below coerce dtypes and contiguity and check every contract
once, then call the kernel. The kernels check nothing: the C loops index
memory with what they are given. `best_split` takes its node as distinct
rows with their counts (a bootstrap without its copies), and counts every
size and tally with that multiplicity.
"""

from __future__ import annotations

import os

import numpy as np

from . import pure

FALLBACK_REASON: str | None = None
try:
    from . import compiled
except ImportError as exc:  # library not built
    compiled = None
    FALLBACK_REASON = str(exc)

_requested = os.environ.get("XFERKIT_BACKEND", "").strip().lower()
if _requested not in ("", "auto", "pure", "compiled"):
    raise ImportError(f"unknown XFERKIT_BACKEND value: {_requested!r}")
if _requested == "compiled" and compiled is None:
    raise ImportError(f"XFERKIT_BACKEND=compiled but the compiled lane is "
                      f"unavailable: {FALLBACK_REASON}")
_lane = pure if _requested == "pure" or compiled is None else compiled
BACKEND = _lane.NAME
# the lane each kernel runs on
LANES = {"reconstruct_dilation": BACKEND, "tree_apply": BACKEND,
         "grey_erode_square": pure.NAME, "glcm_feature_image": pure.NAME,
         "best_split": pure.NAME}

# best_split's limits come from the sort key of `pure.best_split`: the low
# uint32 of each key packs a row's count into its `_COUNT_BITS` = 28 low
# bits and the row's class into the 4 bits above them
MAX_CLASSES = 16         # classes 0..15: class 15 sets the top bit
MAX_COUNT = 2**28 - 1    # node size with multiplicity: so every count fits
                         # its 28 bits, and squared tallies fit int64
MAX_LEVELS = 46340       # GLCM pair codes a*levels+b must fit a 32-bit int


def _in_range(a: np.ndarray, lo: int, hi: int) -> bool:
    """Every value of `a` lies in [lo, hi)."""
    return a.size == 0 or (a.min() >= lo and a.max() < hi)


def _image(a, dtype, name: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array")
    return a


def grey_erode_square(img, size: int) -> np.ndarray:
    """Minimum filter with a size x size square structuring element; float32."""
    img = _image(img, np.float32, "img")
    if size < 1 or size % 2 != 1:
        raise ValueError("structuring element size must be odd and >= 1")
    if np.isnan(img).any():
        raise ValueError("img must not hold NaN")
    return pure.grey_erode_square(img, int(size))


def reconstruct_dilation(marker, mask) -> np.ndarray:
    """Reconstruction by dilation of `marker` under `mask` (8-connected); float32."""
    marker = _image(marker, np.float32, "marker")
    mask = _image(mask, np.float32, "mask")
    if marker.shape != mask.shape:
        raise ValueError("marker and mask shapes differ")
    if not np.all(marker <= mask):     # also false wherever either is NaN
        raise ValueError("marker must be <= mask everywhere, and neither may hold NaN")
    return _lane.reconstruct_dilation(marker, mask)


def glcm_feature_image(levels_img, window: int, levels: int, offsets) -> np.ndarray:
    """Per-pixel Haralick statistics from a symmetric windowed GLCM; float64
    (6, h, w). `levels_img` holds gray levels in [0, levels), -1 invalid."""
    q = np.asarray(levels_img)
    if not 1 <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must lie in [1, {MAX_LEVELS}]")
    if not _in_range(q, -1, levels):
        raise ValueError("levels_img holds a level outside [-1, levels)")
    if window < 1 or window % 2 != 1:
        raise ValueError("GLCM window must be odd and >= 1")
    offsets = np.ascontiguousarray(offsets, dtype=np.int64).reshape(-1, 2)
    return pure.glcm_feature_image(_image(q, np.int32, "levels_img"), int(window),
                                   int(levels), offsets)


def best_split(X, y, rows, counts, feats, min_leaf: int, n_classes: int = 4):
    """Best Gini split for the node holding row rows[i] of X counts[i]
    times; returns (feature, threshold, found). See `pure.best_split` for
    the contract.

    The node is the multiset of rows, so a bootstrap is passed as its
    distinct rows and their multiplicities, and the result equals that of
    the node with every row repeated. Node sizes, `min_leaf` and the class
    tallies count multiplicity: each side of a split holds at least
    `min_leaf` rows counted so. A `min_leaf` below 1 is clamped to 1,
    which changes nothing. Every count must be >= 1, and the counts may
    sum to at most `MAX_COUNT`.
    """
    X = _image(X, np.float32, "X")
    y = np.asarray(y)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    # sorted once here: ties go to the lower feature index in both lanes
    feats = np.sort(np.asarray(feats, dtype=np.int64))
    n, d = X.shape
    if y.shape != (n,) or rows.ndim != 1 or feats.ndim != 1:
        raise ValueError("best_split needs X (n, d), y (n,), and 1-D rows and feats")
    if counts.shape != rows.shape:
        raise ValueError("counts must be shaped like rows")
    if not 1 <= n_classes <= MAX_CLASSES:
        raise ValueError(f"n_classes must lie in [1, {MAX_CLASSES}]")
    if not _in_range(rows, 0, n):
        raise ValueError("rows holds a row outside [0, n)")
    if not _in_range(counts, 1, MAX_COUNT + 1) or counts.sum() > MAX_COUNT:
        raise ValueError(f"counts must be >= 1 and sum to at most {MAX_COUNT}")
    if feats.size and (feats[0] < 0 or feats[-1] >= d):
        raise ValueError("feats holds a feature outside [0, d)")
    if not _in_range(y[rows], 0, n_classes):
        raise ValueError("a label of the node lies outside [0, n_classes)")
    return pure.best_split(X, np.ascontiguousarray(y, dtype=np.uint8), rows, counts,
                           feats, max(int(min_leaf), 1), int(n_classes))


def tree_apply(feature, threshold, left, right, X) -> np.ndarray:
    """Route every row of X to its leaf; returns int32 node indices.

    Node i is a leaf where feature[i] < 0. An internal node's children must
    lie after it and inside the tree, as pre-order growth gives: that rules
    out both out-of-range reads and cycles.
    """
    feature, left, right = (np.ascontiguousarray(a, dtype=np.int32)
                            for a in (feature, left, right))
    threshold = np.ascontiguousarray(threshold, dtype=np.float64)
    X = _image(X, np.float32, "X")
    n_nodes = feature.size
    if n_nodes == 0 or any(a.shape != (n_nodes,) for a in (feature, threshold, left, right)):
        raise ValueError("tree arrays must be 1-D, non-empty and of one length")
    internal = np.flatnonzero(feature >= 0)
    if not _in_range(feature[internal], 0, X.shape[1]):
        raise ValueError("tree references a feature >= X.shape[1]")
    for child in (left[internal], right[internal]):
        if np.any(child <= internal) or not _in_range(child, 0, n_nodes):
            raise ValueError("a child index must exceed its node's and be < n_nodes")
    return _lane.tree_apply(feature, threshold, left, right, X)


__all__ = ["BACKEND", "FALLBACK_REASON", "best_split", "glcm_feature_image",
           "grey_erode_square", "pure", "reconstruct_dilation", "tree_apply"]
