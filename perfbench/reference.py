"""Reference computations the benchmark checks xferkit's outputs against.

Nothing here imports xferkit. Each function follows the method's
definition directly (explicit scans, fixed-point iteration, per-pixel
enumeration) so that a fault in the program cannot hide in a shared
helper.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import ndimage

N_CLASSES = 4
TREE, BUILDING, WATER, GROUND = 1, 2, 3, 0
LUMA = (0.299, 0.587, 0.114)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def miou(pred: np.ndarray, ref: np.ndarray) -> float:
    """Mean IoU over the classes present in either map; void (>= 4) ignored."""
    keep = (pred < N_CLASSES) & (ref < N_CLASSES)
    cm = np.bincount(ref[keep].astype(np.int64) * N_CLASSES + pred[keep],
                     minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)
    inter = np.diag(cm).astype(np.float64)
    union = cm.sum(axis=0) + cm.sum(axis=1) - np.diag(cm)
    present = union > 0
    return float((inter[present] / union[present]).mean())


def pooled_miou(pairs) -> float:
    """mIoU of several (pred, ref) pairs pooled into one confusion matrix."""
    preds = np.concatenate([p.ravel() for p, _ in pairs])
    refs = np.concatenate([r.ravel() for _, r in pairs])
    return miou(preds, refs)


def pearson_r(xs, ys) -> float:
    return float(np.corrcoef(np.asarray(xs, float), np.asarray(ys, float))[0, 1])


def six_digit_tolerance(value: float) -> float:
    """Largest error a value printed at 6 significant digits can carry."""
    if value == 0.0:
        return 1e-12
    return 0.5 * 10.0 ** (np.floor(np.log10(abs(value))) - 5) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# pseudo truth
# ---------------------------------------------------------------------------

def clipped_normalized_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max(0, (a - b) / (a + b)) as float32, 0 where a + b == 0."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    den = a + b
    out = np.zeros_like(den)
    np.divide(a - b, den, out=out, where=den != 0)
    return np.maximum(out.astype(np.float32), np.float32(0))


def otsu_exhaustive(values: np.ndarray, bins: int = 256) -> float:
    """Upper edge of the histogram bin that maximizes between-class
    variance, scanning every candidate with exact rational arithmetic;
    ties go to the lower edge."""
    v = values.astype(np.float64).ravel()
    hist = np.bincount(np.minimum((v * bins).astype(np.int64), bins - 1),
                       minlength=bins).tolist()
    occupied = [i for i, c in enumerate(hist) if c]
    if len(occupied) == 1:
        return (occupied[0] + 1) / bins
    n = sum(hist)
    total = sum(i * c for i, c in enumerate(hist))
    best_k, best = None, None
    for k in range(bins - 1):
        w0 = sum(hist[:k + 1])
        w1 = n - w0
        if w0 == 0 or w1 == 0:
            continue
        s0 = sum(i * hist[i] for i in range(k + 1))
        between = Fraction(w0 * w1) * (Fraction(s0, w0) - Fraction(total - s0, w1)) ** 2
        if best is None or between > best:
            best_k, best = k, between
    return (best_k + 1) / bins


def dsm_tophat(dsm: np.ndarray, se_size: int) -> np.ndarray:
    """DSM minus its reconstruction by dilation from a square erosion:
    scipy erosion, then 3x3 geodesic dilation under the DSM iterated to
    a fixed point."""
    dsm = dsm.astype(np.float32)
    j = ndimage.grey_erosion(dsm, size=(se_size, se_size), mode="nearest")
    while True:
        nxt = np.minimum(ndimage.grey_dilation(j, size=(3, 3), mode="nearest"), dsm)
        if np.array_equal(nxt, j):
            return dsm - j
        j = nxt


def pseudo_truth(rgbn: np.ndarray, dsm: np.ndarray, se_size: int = 63,
                 t_height: float = 2.0) -> np.ndarray:
    """4-class pseudo labels of an RGBN scene and its DSM: Otsu on
    clipped NDVI and NDWI, a DSM top-hat rule, priority fusion
    tree > building > water > ground."""
    red, green, _, nir = rgbn
    ndvi = clipped_normalized_difference(nir, red)
    ndwi = clipped_normalized_difference(green, nir)
    t_ndvi = otsu_exhaustive(ndvi)
    t_ndwi = otsu_exhaustive(ndwi)
    height = dsm_tophat(dsm, se_size)
    return np.select([ndvi > t_ndvi, height > t_height, ndwi > t_ndwi],
                     [TREE, BUILDING, WATER], GROUND).astype(np.uint8)


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------

def tree_depth(left: np.ndarray, right: np.ndarray) -> int:
    depth, stack = 0, [(0, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if left[node] >= 0:
            stack.append((int(left[node]), d + 1))
            stack.append((int(right[node]), d + 1))
    return depth


def forest_proba(trees, X: np.ndarray) -> np.ndarray:
    """Mean leaf class distribution over trees, walking each row down each
    tree one node at a time. `trees` holds (feature, threshold, left,
    right, counts) arrays."""
    out = np.zeros((X.shape[0], N_CLASSES), dtype=np.float64)
    for feature, threshold, left, right, counts in trees:
        feature, threshold = feature.tolist(), threshold.tolist()
        left, right = left.tolist(), right.tolist()
        for row, x in enumerate(X.tolist()):
            node = 0
            while feature[node] >= 0:
                node = left[node] if x[feature[node]] <= threshold[node] else right[node]
            leaf = counts[node]
            out[row] += leaf / leaf.sum()
    return (out / len(trees)).astype(np.float32)


# ---------------------------------------------------------------------------
# GLCM texture
# ---------------------------------------------------------------------------

def quantized_luminance(rgbn: np.ndarray, levels: int) -> np.ndarray:
    r, g, b = (rgbn[i].astype(np.float64) for i in range(3))
    luma = np.clip(LUMA[0] * r + LUMA[1] * g + LUMA[2] * b, 0.0, 1.0)
    return np.minimum((luma * levels).astype(np.int64), levels - 1)


def glcm_stats_at(q: np.ndarray, cy: int, cx: int, window: int, levels: int,
                  offsets) -> np.ndarray:
    """Contrast, dissimilarity, homogeneity, energy, entropy, correlation
    of the symmetric co-occurrence matrix of every pixel pair inside the
    window centred on (cy, cx), cropped to the image."""
    h, w = q.shape
    r = window // 2
    y0, y1, x0, x1 = max(0, cy - r), min(h, cy + r + 1), max(0, cx - r), min(w, cx + r + 1)
    glcm = np.zeros((levels, levels))
    for dy, dx in offsets:
        for y in range(y0, y1):
            for x in range(x0, x1):
                if y0 <= y + dy < y1 and x0 <= x + dx < x1:
                    a, b = q[y, x], q[y + dy, x + dx]
                    glcm[a, b] += 1
                    glcm[b, a] += 1
    p = glcm / glcm.sum()
    i, j = np.indices(p.shape)
    mu = (i * p).sum()
    var = ((i - mu) ** 2 * p).sum()
    nz = p[p > 0]
    return np.array([
        ((i - j) ** 2 * p).sum(),
        (np.abs(i - j) * p).sum(),
        (p / (1.0 + (i - j) ** 2)).sum(),
        (p ** 2).sum(),
        -(nz * np.log(nz)).sum(),
        ((i - mu) * (j - mu) * p).sum() / var if var > 0 else 1.0,
    ])
