"""Numpy implementations of the hot kernels.

This is the fallback lane used when the compiled library is unavailable.
The front in `xferkit._kernels` coerces and checks every argument first,
so these functions hold only the algorithms. Each has the same contract as
its compiled twin:

* `grey_erode_square`, `reconstruct_dilation` and `tree_apply` are exact
  (comparison-only arithmetic), so both lanes return bit-identical arrays.
* `best_split` evaluates the split score with the same float64 operation
  order as the compiled lane, so grown trees are bit-identical too.
* `glcm_feature_image` tallies identical integer pair counts; the derived
  statistics may differ from the compiled lane by float64 summation order
  only (well below 1e-9).
"""

from __future__ import annotations

import numpy as np

NAME = "pure"


# ---------------------------------------------------------------------------
# grayscale morphology
# ---------------------------------------------------------------------------

def grey_erode_square(img: np.ndarray, size: int) -> np.ndarray:
    """Minimum filter with a size x size square structuring element.

    Out-of-bounds positions are ignored (equivalent to replicate padding
    for a minimum). Separable: one sliding-min pass per axis.
    """
    r = size // 2
    for axis in (0, 1):
        padded = np.pad(img, [(r, r) if a == axis else (0, 0) for a in (0, 1)],
                        mode="constant", constant_values=np.inf)
        acc = None
        for k in range(size):
            sl = [slice(None), slice(None)]
            sl[axis] = slice(k, k + img.shape[axis])
            view = padded[tuple(sl)]
            acc = view.copy() if acc is None else np.minimum(acc, view)
        img = acc
    return img


def _sweep(lines, inner, mask, order, buf) -> None:
    """One wavefront sweep over the lines (rows or columns) of an image.

    `lines[i]` is line i with its -inf border cells, `inner[i]` the same
    line without them and `mask[i]` the mask line. Lines are visited in
    `order`; each takes the max of itself and min(mask line, max of its
    three neighbours in the line visited just before), so a value travels
    the whole sweep in one pass.
    """
    prev = lines[order[0]]
    for i in order[1:]:
        np.maximum(prev[:-2], prev[2:], out=buf)
        np.maximum(buf, prev[1:-1], out=buf)
        np.minimum(buf, mask[i], out=buf)
        np.maximum(inner[i], buf, out=inner[i])
        prev = lines[i]


def reconstruct_dilation(marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Morphological reconstruction by dilation, 8-connectivity.

    Vectorised wavefront sweeps, repeated until stable: rows top to bottom
    (each row takes its N, NW and NE neighbours, clipped by the mask), rows
    bottom to top, then columns left to right and right to left. After
    each round, one whole-image geodesic dilation, min(mask, 3x3 max), is
    the stop test: the loop ends when it raises no pixel, which is the
    definition of the fixed point.

    Exact: every update is an elementary geodesic dilation, so no pixel
    ever exceeds the reconstruction, and a fixed point above the marker
    cannot lie below it. Only max/min comparisons are used.
    """
    h, w = mask.shape
    if mask.size == 0:
        return marker.copy()
    # a -inf border turns every neighbour lookup into a plain slice
    pad = np.full((h + 2, w + 2), -np.inf, dtype=np.float32)
    j = pad[1:-1, 1:-1]
    j[...] = marker
    # per-line views, made once: indexing a 2-D array per line costs more
    rows, cols = list(pad[1:-1]), list(pad[:, 1:-1].T)
    j_rows, j_cols = list(j), list(j.T)
    m_rows, m_cols = list(mask), list(mask.T)
    row_buf = np.empty(w, dtype=np.float32)
    col_buf = np.empty(h, dtype=np.float32)
    dil = np.empty((h, w), dtype=np.float32)
    while True:
        _sweep(rows, j_rows, m_rows, range(h), row_buf)
        _sweep(rows, j_rows, m_rows, range(h - 1, -1, -1), row_buf)
        _sweep(cols, j_cols, m_cols, range(w), col_buf)
        _sweep(cols, j_cols, m_cols, range(w - 1, -1, -1), col_buf)
        # stop test: one geodesic dilation of the whole image
        np.maximum(pad[:-2, :-2], pad[2:, 2:], out=dil)
        for dy, dx in ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)):
            np.maximum(dil, pad[dy:dy + h, dx:dx + w], out=dil)
        np.minimum(dil, mask, out=dil)
        if np.array_equal(dil, j):
            return j.copy()
        j[...] = dil


# ---------------------------------------------------------------------------
# GLCM windowed statistics
# ---------------------------------------------------------------------------

def _box_gather(integral: np.ndarray, r: int, dy: int, dx: int) -> np.ndarray:
    """Per-center sum of an anchor image over the window-constrained box.

    For direction (dy, dx) the anchors p contributing to center c satisfy
    both p and p+d inside the centered (2r+1)^2 window, i.e.
    p in [c - r + max(0, -d), c + r - max(0, d)] per axis.
    """
    h = integral.shape[0] - 1
    w = integral.shape[1] - 1
    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.clip(ys - r + max(0, -dy), 0, h)
    y1 = np.clip(ys + r - max(0, dy) + 1, 0, h)
    x0 = np.clip(xs - r + max(0, -dx), 0, w)
    x1 = np.clip(xs + r - max(0, dx) + 1, 0, w)
    y1 = np.maximum(y1, y0)
    x1 = np.maximum(x1, x0)
    return (integral[np.ix_(y1, x1)] - integral[np.ix_(y0, x1)]
            - integral[np.ix_(y1, x0)] + integral[np.ix_(y0, x0)])


def _integral(img: np.ndarray) -> np.ndarray:
    out = np.zeros((img.shape[0] + 1, img.shape[1] + 1), dtype=img.dtype)
    np.cumsum(img, axis=0, out=out[1:, 1:])
    np.cumsum(out[1:, 1:], axis=1, out=out[1:, 1:])
    return out


def glcm_feature_image(levels_img: np.ndarray, window: int, levels: int,
                       offsets: np.ndarray) -> np.ndarray:
    """Per-pixel Haralick statistics from a symmetric windowed GLCM.

    `levels_img` holds quantized gray levels, -1 marking invalid pixels.
    Returns a float64 (6, h, w) stack ordered contrast, dissimilarity,
    homogeneity, energy, entropy, correlation. Pixels whose window holds
    no valid pair get all six set to 0.
    """
    q = np.asarray(levels_img, dtype=np.int64)
    h, w = q.shape
    r = window // 2

    tot = np.zeros((h, w), dtype=np.int64)
    s_con = np.zeros((h, w), dtype=np.int64)
    s_dis = np.zeros((h, w), dtype=np.int64)
    s_hom = np.zeros((h, w), dtype=np.float64)
    s_x = np.zeros((h, w), dtype=np.int64)
    s_xx = np.zeros((h, w), dtype=np.int64)
    s_xy = np.zeros((h, w), dtype=np.int64)

    codes = []          # per-offset int image of a*levels+b, -1 invalid anchor
    present: set[tuple[int, int]] = set()
    for dy, dx in offsets:
        a = np.full((h, w), -1, dtype=np.int64)
        b = np.full((h, w), -1, dtype=np.int64)
        ys = slice(max(0, -dy), h - max(0, dy))
        xs = slice(max(0, -dx), w - max(0, dx))
        ys2 = slice(max(0, dy), h - max(0, -dy))
        xs2 = slice(max(0, dx), w - max(0, -dx))
        a[ys, xs] = q[ys, xs]
        b[ys, xs] = q[ys2, xs2]
        valid = (a >= 0) & (b >= 0)
        av = np.where(valid, a, 0)
        bv = np.where(valid, b, 0)
        code = np.where(valid, av * levels + bv, -1)
        codes.append(code)
        for c in np.unique(code[valid]):
            i, jx = divmod(int(c), levels)
            present.add((min(i, jx), max(i, jx)))

        vi = valid.astype(np.int64)
        diff = av - bv
        cnt = _box_gather(_integral(vi), r, dy, dx)
        tot += 2 * cnt
        s_con += 2 * _box_gather(_integral(vi * diff * diff), r, dy, dx)
        s_dis += 2 * _box_gather(_integral(vi * np.abs(diff)), r, dy, dx)
        s_hom += 2.0 * _box_gather(
            _integral(np.where(valid, 1.0 / (1.0 + (diff * diff)), 0.0)), r, dy, dx)
        s_x += _box_gather(_integral(vi * (av + bv)), r, dy, dx)
        s_xx += _box_gather(_integral(vi * (av * av + bv * bv)), r, dy, dx)
        s_xy += 2 * _box_gather(_integral(vi * av * bv), r, dy, dx)

    # energy/entropy need the joint histogram; stream one unordered level
    # pair at a time so memory stays O(image)
    a2 = np.zeros((h, w), dtype=np.float64)
    alog = np.zeros((h, w), dtype=np.float64)
    for i, jx in sorted(present):
        cell = np.zeros((h, w), dtype=np.int64)
        for k, (dy, dx) in enumerate(offsets):
            code = codes[k]
            cell += _box_gather(_integral((code == i * levels + jx).astype(np.int64)),
                                r, dy, dx)
            if i != jx:
                cell += _box_gather(_integral((code == jx * levels + i).astype(np.int64)),
                                    r, dy, dx)
        if i == jx:
            cell = 2 * cell          # diagonal cell tallies both directions
            mult = 1.0
        else:
            mult = 2.0               # off-diagonal cell and its transpose
        cf = cell.astype(np.float64)
        a2 += mult * cf * cf
        nz = cell > 0
        alog[nz] += mult * cf[nz] * np.log(cf[nz])

    ok = tot > 0
    totf = np.where(ok, tot, 1).astype(np.float64)
    out = np.zeros((6, h, w), dtype=np.float64)
    out[0] = np.where(ok, s_con / totf, 0.0)
    out[1] = np.where(ok, s_dis / totf, 0.0)
    out[2] = np.where(ok, s_hom / totf, 0.0)
    out[3] = np.where(ok, a2 / (totf * totf), 0.0)
    out[4] = np.where(ok, np.log(totf) - alog / totf, 0.0)
    mu = s_x / totf
    var = s_xx / totf - mu * mu
    cov = s_xy / totf - mu * mu
    corr = np.where(var > 0, cov / np.where(var > 0, var, 1.0), 1.0)
    out[5] = np.where(ok, corr, 0.0)
    return out


# ---------------------------------------------------------------------------
# CART split search and tree traversal
# ---------------------------------------------------------------------------

def best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
               feats: np.ndarray, min_leaf: int, n_classes: int = 4):
    """Best Gini split for the node holding rows `idx` of X.

    Maximizes sum(c_left^2)/n_left + sum(c_right^2)/n_right over midpoint
    thresholds of candidate features; ties go to the lower feature index,
    then the lower threshold. Returns (feature, threshold, found).
    """
    m = idx.size
    yv = y[idx]
    onehot_base = np.equal(yv[:, None], np.arange(n_classes)[None, :]).astype(np.int64)
    best_feat = -1
    best_thr = 0.0
    best_score = -np.inf
    for f in feats:
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        boundary = np.nonzero(sv[1:] != sv[:-1])[0]
        if boundary.size == 0:
            continue
        nl = boundary + 1
        nr = m - nl
        keep = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(keep):
            continue
        boundary = boundary[keep]
        nl = nl[keep]
        nr = nr[keep]
        prefix = np.cumsum(onehot_base[order], axis=0)
        total = prefix[-1]
        left = prefix[boundary]
        right = total[None, :] - left
        sl = np.sum(left * left, axis=1)
        sr = np.sum(right * right, axis=1)
        score = sl / nl + sr / nr
        j = int(np.argmax(score))
        if score[j] > best_score:
            best_score = float(score[j])
            best_feat = int(f)
            i = int(boundary[j])
            best_thr = 0.5 * (float(sv[i]) + float(sv[i + 1]))
    return best_feat, best_thr, best_feat >= 0


def tree_apply(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
               right: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Route every row of X to its leaf; returns int32 node indices."""
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int32)
    while True:
        feat = feature[node]
        live = np.nonzero(feat >= 0)[0]
        if live.size == 0:
            return node
        cur = node[live]
        v = X[live, feat[live]]
        go_left = v <= threshold[cur]
        node[live] = np.where(go_left, left[cur], right[cur])
