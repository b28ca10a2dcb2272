"""Numpy implementations of the hot kernels.

This is the fallback lane used when the compiled library is unavailable.
The front in `xferkit._kernels` coerces and checks every argument first,
so these functions hold only the algorithms. Each has the same contract as
its compiled twin:

* `grey_erode_square`, `reconstruct_dilation` and `tree_apply` are exact
  (comparison-only arithmetic), so both lanes return bit-identical arrays.
  `tree_apply` partitions the rows node by node instead of walking each
  row; every row still meets exactly the comparisons of its walk.
* `best_split` evaluates the split score with the same float64 operation
  order as the compiled lane, so grown trees are bit-identical too. It
  scores all candidate features from one unstable sort: at a value
  boundary neither the class counts nor the midpoint depend on the order
  of equal values, and non-boundaries are never scored.
* `glcm_feature_image` tallies identical integer pair counts: the anchor
  sums by box sums over summed-area tables, the count of each level pair
  by sliding-window run sums of its 8-bit indicator image (Huang, Yang &
  Tang 1979). Its statistics may differ from the compiled lane by float64
  summation order only (well below 1e-9). Within the lane the per-pair
  terms are looked up from the exact counts and folded in sorted pair
  order, so neither the counting method nor the block size changes a bit.
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

# Padded image cells per block of level pairs in `_energy_entropy_sums`:
# the block's temporaries take a few bytes per cell.
BLOCK_CELLS = 1 << 16


def _box_sums(img: np.ndarray, r: int, dy: int, dx: int, dtype=None) -> np.ndarray:
    """Per-center sum of an anchor image (over its last two axes) over the
    window-constrained box, from a summed-area table (Crow 1984).

    For direction (dy, dx) the anchors p contributing to center c satisfy
    both p and p+d inside the centered (2r+1)^2 window, i.e.
    p in [c - r + max(0, -d), c + r - max(0, d)] per axis, clipped to the
    image. The table has a zero first row and column and is edge-padded by
    r on every side, so the clipped corners are plain slices. Needs
    |dy|, |dx| <= 2r.
    """
    h, w = img.shape[-2:]
    sat = np.zeros(img.shape[:-2] + (h + 2 * r + 1, w + 2 * r + 1), dtype or img.dtype)
    core = sat[..., r + 1:r + 1 + h, r + 1:r + 1 + w]
    np.cumsum(img, axis=-2, dtype=sat.dtype, out=core)
    np.cumsum(core, axis=-1, out=core)
    sat[..., r + 1:r + 1 + h, r + 1 + w:] = core[..., -1:]
    sat[..., r + 1 + h:, :] = sat[..., r + h:r + h + 1, :]
    y0, y1 = max(0, -dy), 2 * r + 1 - max(0, dy)
    x0, x1 = max(0, -dx), 2 * r + 1 - max(0, dx)
    y0, y1, x0, x1 = (slice(y0, y0 + h), slice(y1, y1 + h),
                      slice(x0, x0 + w), slice(x1, x1 + w))
    return (sat[..., y1, x1] - sat[..., y0, x1]
            - sat[..., y1, x0] + sat[..., y0, x0])


def _add_offset_sums(q: np.ndarray, levels: int, r: int, dy: int, dx: int,
                     sums: np.ndarray, s_hom: np.ndarray) -> np.ndarray:
    """Add the windowed sums of the pairs (p, p+d) to `sums` and `s_hom`;
    return the image of their pair codes min*levels+max, -1 where p+d is
    outside the image or either level is invalid."""
    h, w = q.shape
    b = np.full((h, w), -1, dtype=np.int64)
    b[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)] = \
        q[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)]
    valid = (q >= 0) & (b >= 0)
    av = np.where(valid, q, 0)
    bv = np.where(valid, b, 0)
    diff = av - bv
    # tot, contrast, dissimilarity, x, xx and xy, each with its factor: a
    # pair counts in both directions, and in the x sum as its two levels
    anchor_sums = ((2, valid), (2, diff * diff), (2, np.abs(diff)),
                   (1, av + bv), (1, av * av + bv * bv), (2, av * bv))
    for acc, (f, img) in zip(sums, anchor_sums):
        acc += f * _box_sums(img * valid, r, dy, dx, np.int64)
    s_hom += 2.0 * _box_sums(np.where(valid, 1.0 / (1.0 + (diff * diff)), 0.0), r, dy, dx)
    pair = np.minimum(av, bv) * levels + np.maximum(av, bv)
    return np.where(valid, pair, -1).astype(np.int32)   # levels <= MAX_LEVELS


def _run_sums(a: np.ndarray, n: int, axis: int, count: int) -> np.ndarray:
    """Sums of n consecutive cells along `axis` of `a`, for the `count` runs
    that start at 0, 1, ...: a run of 2^(k+1) cells is two runs of 2^k,
    and a run of n cells is one run per binary digit of n. Keeps a's dtype."""
    def cut(x, lo, size):
        return x[(slice(None),) * axis + (slice(lo, lo + size),)]

    part, span, pos, out = cut(a, 0, count + n - 1), 1, 0, None
    while True:
        if n & span:
            piece = cut(part, pos, count)
            out = piece.copy() if out is None else np.add(out, piece, out=out)
            pos += span
        if 2 * span > n:
            return out
        size = part.shape[axis] - span
        part = cut(part, 0, size) + cut(part, span, size)
        span *= 2


def _energy_entropy_sums(codes: list, levels: int, r: int, shape: tuple):
    """Per-center sums of c^2 and c*log(c) over the GLCM cells c.

    Per offset, a window holds a level pair as often as the anchors of its
    window-constrained box hold that pair's code. Each pair-code image is
    padded by r cells of -1, so every center's box is a plain run of
    2r+1-|dy| rows by 2r+1-|dx| columns of it, and the counts of a block of
    present pairs (at most `BLOCK_CELLS` padded cells, or one pair) are
    run sums (`_run_sums`) of their uint8 indicator images. All counts are
    exact integers: per offset a box holds at most (2r+1)^2 anchors, which
    fits uint8 up to window 15, and the sum over the offsets then fits
    uint16 (up to 290 offsets); wider windows, or more offsets, count in
    int32.

    c^2 and c*log(c) are looked up in tables built once per call with the
    float64 expressions (m*c)*c and (m*c)*log(max(c, 1)), where m = 2
    counts a cell and its transpose and a diagonal cell's count is doubled
    instead, as it tallies both directions. The looked-up values are
    folded into the float64 sums one pair at a time in sorted pair order,
    so the sums do not depend on how the pairs were counted or blocked.
    """
    h, w = shape
    a2 = np.zeros(shape, dtype=np.float64)
    alog = np.zeros(shape, dtype=np.float64)
    present = np.unique(np.concatenate([c[c >= 0] for _, _, c in codes] or [[]]))
    box = min(2 * r + 1, h) * min(2 * r + 1, w)     # most anchors per offset
    most = len(codes) * box
    small = box <= 0xFF and most <= 0xFFFF
    cell_dtype = np.uint16 if small else np.int32
    padded = [(dy, dx, np.pad(code, r, constant_values=-1)) for dy, dx, code in codes]
    # tables[0]: off the diagonal, m = 2; tables[1]: on it, count doubled
    c = np.arange(most + 1, dtype=np.float64)
    cd = 2.0 * c
    sq_table = np.stack([(2.0 * c) * c, (1.0 * cd) * cd])
    log_table = np.stack([(2.0 * c) * np.log(np.maximum(c, 1.0)),
                          (1.0 * cd) * np.log(np.maximum(cd, 1.0))])
    H, W = h + 2 * r, w + 2 * r
    step = max(1, BLOCK_CELLS // (H * W))
    buf = np.empty(shape, dtype=np.float64)
    for start in range(0, present.size, step):
        block = present[start:start + step]
        n = block.size * H * W
        # The column runs go along the flat block, so each numpy call is one
        # long loop; a run that crosses a row end lands in a column >= w,
        # which no center reads. The 2r tail cells feed the last row's runs.
        flat = np.zeros(n + 2 * r, dtype=np.uint8)
        cell = np.zeros((block.size, h, W), dtype=cell_dtype)
        for dy, dx, pad in padded:
            np.equal(pad, block[:, None, None], out=flat[:n].view(np.bool_).reshape(-1, H, W))
            hit = flat if small else flat.astype(np.int32)
            cols = _run_sums(hit[max(0, -dx):], 2 * r + 1 - abs(dx), 0, n).reshape(-1, H, W)
            cell += _run_sums(cols[:, max(0, -dy):], 2 * r + 1 - abs(dy), 1, h)
        diagonal = (block // levels == block % levels).astype(np.intp)
        # counts <= most, so "clip" changes no index and skips the bounds check
        for t in range(block.size):
            counts = cell[t, :, :w]
            a2 += np.take(sq_table[diagonal[t]], counts, mode="clip", out=buf)
            alog += np.take(log_table[diagonal[t]], counts, mode="clip", out=buf)
    return a2, alog


def glcm_feature_image(levels_img: np.ndarray, window: int, levels: int,
                       offsets: np.ndarray) -> np.ndarray:
    """Per-pixel Haralick statistics from a symmetric windowed GLCM.

    `levels_img` holds quantized gray levels, -1 marking invalid pixels.
    Returns a float64 (6, h, w) stack ordered contrast, dissimilarity,
    homogeneity, energy, entropy, correlation. Pixels whose window holds
    no valid pair get all six set to 0. An offset as long as the window or
    the image adds no pair.

    The six anchor sums are box sums over summed-area tables, one table
    per offset and summed quantity. Energy and entropy need the count of
    each present level pair; these are counted a block of pairs at a time
    by run sums, which caps the temporaries at `BLOCK_CELLS` cells (one
    pair's on a larger scene).
    """
    q = np.asarray(levels_img, dtype=np.int64)
    h, w = q.shape
    r = window // 2
    sums = np.zeros((6, h, w), dtype=np.int64)
    s_hom = np.zeros((h, w), dtype=np.float64)
    codes = []
    for dy, dx in offsets:
        if abs(dy) < min(window, h) and abs(dx) < min(window, w):
            codes.append((dy, dx, _add_offset_sums(q, levels, r, dy, dx, sums, s_hom)))
    a2, alog = _energy_entropy_sums(codes, levels, r, (h, w))
    tot, s_con, s_dis, s_x, s_xx, s_xy = sums

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
    thresholds of candidate features, with at least `min_leaf` >= 1 rows
    on each side; ties go to the lower feature index, then the lower
    threshold. Returns (feature, threshold, found).

    All k candidate features are scored in one batch: one unstable sort
    of the (k, m) value matrix, per-class prefix counts along each row,
    and one row-major argmax, whose first maximum is the lowest feature
    row, then the lowest threshold. Only value boundaries are scored, and
    there the left counts are those of every value <= the boundary and
    the midpoint is of two distinct values, whatever order equal values
    took, so the unstable sort changes nothing. A boundary at sorted
    position i has i + 1 rows on its left; those with at least `min_leaf`
    on each side form the one slice [lo, hi) of every row.
    """
    m = idx.size
    lo, hi = min_leaf - 1, m - min_leaf
    if feats.size == 0 or lo >= hi:
        return -1, 0.0, False
    V = X[idx][:, feats].T
    order = np.argsort(V, axis=1)
    SV = np.take_along_axis(V, order, axis=1)
    YO = y[idx][order]
    total = np.bincount(YO[0], minlength=n_classes)
    sl = np.zeros((feats.size, hi - lo), dtype=np.int64)
    sr = np.zeros_like(sl)
    for c in np.flatnonzero(total):
        left = np.cumsum(YO == c, axis=1)[:, lo:hi]
        sl += left * left
        left -= total[c]
        sr += left * left
    nl = np.arange(lo + 1, hi + 1)
    score = sl / nl + sr / (m - nl)
    score[SV[:, lo:hi] == SV[:, lo + 1:hi + 1]] = -np.inf
    row, col = divmod(int(np.argmax(score)), hi - lo)
    if score[row, col] == -np.inf:
        return -1, 0.0, False
    i = lo + col
    return int(feats[row]), 0.5 * (float(SV[row, i]) + float(SV[row, i + 1])), True


def tree_apply(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
               right: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Route every row of X to its leaf; returns int32 node indices.

    Partitioned evaluation (Asadi, Lin & de Vries, IEEE TKDE 2014): the
    rows that reach a node are split between its children by one compare
    of one feature column, and a leaf takes the rows it receives. Each
    row meets the comparisons of its root-to-leaf walk and no other, so
    it lands on that walk's leaf; nodes no row reaches cost nothing.

    The walk compares the float32 value with the float64 threshold t. For
    a float32 v, v <= t exactly when v <= the largest float32 not above t,
    so each threshold is rounded down to float32 once and the column
    compares stay in float32. NaN compares false and goes right.
    """
    with np.errstate(over="ignore"):    # a threshold beyond float32's range
        t32 = threshold.astype(np.float32)
        t32 = np.where(t32 > threshold, np.nextafter(t32, np.float32(-np.inf)), t32)
    cols, feat, thr = list(X.T), feature.tolist(), list(t32)
    lefts, rights = left.tolist(), right.tolist()
    out = np.empty(X.shape[0], dtype=np.int32)
    todo = [(0, np.arange(X.shape[0]))]
    while todo:
        node, rows = todo.pop()
        f = feat[node]
        if f < 0:
            out[rows] = node
            continue
        go_left = cols[f][rows] <= thr[node]
        for child, part in ((lefts[node], rows[go_left]), (rights[node], rows[~go_left])):
            if part.size:
                todo.append((child, part))
    return out
