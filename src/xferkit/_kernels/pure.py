"""Numpy implementations of the hot kernels.

The front in `xferkit._kernels` coerces and checks every argument first,
so these functions hold only the algorithms.

* `reconstruct_dilation` and `tree_apply` are the fallback lane, used when
  the compiled library is unavailable. Like their C twins in `kernels.c`
  they are exact (comparison-only arithmetic), so both lanes return
  bit-identical arrays. `tree_apply` partitions the rows node by node
  instead of walking each row; every row still meets exactly the
  comparisons of its walk.
* `grey_erode_square`, `best_split` and `glcm_feature_image` are the only
  implementation of their kernels, called on every lane. Erosion is exact
  (min only).
* `best_split` takes a node as distinct rows with counts and evaluates
  the split score from exact integer tallies, so grown trees are
  bit-identical on every lane. It scores all candidate features from one
  unstable sort: at a value boundary neither the class counts nor the
  midpoint depend on the order of equal values, and non-boundaries are
  never scored.
* `glcm_feature_image` takes every window sum by sliding-window run sums
  (Huang, Yang & Tang 1979): the anchor sums, and the count of each level
  pair from its 8-bit indicator image. Each sum is taken in an order
  local to its window, so neither the image's origin nor the block size
  changes a bit: the per-pair terms are looked up from the exact counts
  and folded in sorted pair order.
"""

from __future__ import annotations

import sys

import numpy as np

NAME = "pure"


# ---------------------------------------------------------------------------
# grayscale morphology
# ---------------------------------------------------------------------------

def grey_erode_square(img: np.ndarray, size: int) -> np.ndarray:
    """Minimum filter with a size x size square structuring element.

    Out-of-bounds positions are ignored (equivalent to replicate padding
    for a minimum). Separable, and by doubling along each axis: the min of
    a run of 2^(j+1) cells is the min of two runs of 2^j, and a window of
    `size` cells is the min of the two runs of the largest power of two
    p <= size that start at its two ends. Min is idempotent, so their
    overlap changes nothing: each axis takes floor(log2(size)) + 1 passes
    of np.minimum, and the result is exact. A window of 2n - 1 cells
    already covers an axis of n cells from every cell, so a wider one is
    cut to that: the padding, and the memory, stay bounded by the image.
    """
    for axis in (0, 1):
        def cut(a, lo, n):
            return a[(slice(None),) * axis + (slice(lo, lo + n),)]

        n = img.shape[axis]
        k = min(size, 2 * n - 1)
        run = np.pad(img, [(k // 2, k // 2) if a == axis else (0, 0) for a in (0, 1)],
                     mode="constant", constant_values=np.inf)
        span = 1
        while 2 * span <= k:
            m = run.shape[axis] - span
            run = np.minimum(cut(run, 0, m), cut(run, span, m))
            span *= 2
        img = np.minimum(cut(run, 0, n), cut(run, k - span, n))
    return img


def _sweep(left, right, inner, mask, order, buf,
           maximum=np.maximum, minimum=np.minimum) -> None:
    """One wavefront sweep over the lines (rows or columns) of an image.

    `inner[i]` is line i, and `left[i]` and `right[i]` the same line
    shifted by one cell through its -inf border; `mask[i]` is the mask
    line. Lines are visited in `order`; each takes the max of itself and
    min(mask line, max of its three neighbours in the line visited just
    before), so a value travels the whole sweep in one pass. The views
    are made once per image and the ufuncs bound as defaults: per line,
    the four ufunc calls are then all the work there is.
    """
    it = iter(order)
    p = next(it)
    for i in it:
        maximum(left[p], right[p], out=buf)
        maximum(buf, inner[p], out=buf)
        minimum(buf, mask[i], out=buf)
        maximum(inner[i], buf, out=inner[i])
        p = i


def _finish(pad: np.ndarray, mask: np.ndarray, raised: np.ndarray, steps: int) -> bool:
    """Up to `steps` geodesic dilations of `pad` (the image inside a -inf
    border, updated in place) under `mask`, each evaluated only next to
    the pixels the one before raised, starting from the pixels `raised`.
    Returns whether the last one raised nothing: the fixed point.

    A pixel none of whose neighbours rose would take the same
    min(mask, 3x3 max) as the dilation before, which it already holds or
    exceeds, so leaving it out changes nothing.
    """
    w = pad.shape[1]
    flat = pad.ravel()
    m = np.full_like(pad, -np.inf)
    m[1:-1, 1:-1] = mask
    m = m.ravel()
    inner = np.zeros(pad.shape, dtype=bool)
    inner[1:-1, 1:-1] = True
    inner = inner.ravel()
    offsets = (np.arange(-1, 2)[:, None] * w + np.arange(-1, 2)).ravel()
    ys, xs = np.nonzero(raised)
    front = (ys + 1) * w + xs + 1
    for _ in range(steps):
        if front.size == 0:
            return True
        near = np.unique((front[:, None] + offsets).ravel())
        near = near[inner[near]]
        new = np.minimum(flat[near[:, None] + offsets].max(axis=1), m[near])
        up = new > flat[near]
        front = near[up]
        flat[front] = new[up]
    return front.size == 0


def reconstruct_dilation(marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Morphological reconstruction by dilation, 8-connectivity.

    Rounds of vectorised wavefront sweeps: rows top to bottom (each row
    takes its N, NW and NE neighbours, clipped by the mask), rows bottom to
    top, then columns left to right and right to left. After each round,
    one whole-image geodesic dilation, min(mask, 3x3 max), is the stop
    test: the loop ends when it raises no pixel, which is the definition
    of the fixed point. The first time it raises only a few pixels, the
    dilations go on next to the raised pixels only (`_finish`); such
    stragglers mostly settle in a few steps, for a fraction of the round
    that would otherwise check them. If they do not, rounds go on.

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
    # per-line views, made once: slicing a line per step costs more
    rows, cols = pad[1:-1], pad[:, 1:-1].T
    row_views = list(rows[:, :-2]), list(rows[:, 2:]), list(j), list(mask)
    col_views = list(cols[:, :-2]), list(cols[:, 2:]), list(j.T), list(mask.T)
    row_buf = np.empty(w, dtype=np.float32)
    col_buf = np.empty(h, dtype=np.float32)
    row_max = np.empty((h + 2, w), dtype=np.float32)
    dil = np.empty((h, w), dtype=np.float32)
    few = (h + w) // 8 + 1      # most raised pixels `_finish` takes, and its steps
    while True:
        _sweep(*row_views, range(h), row_buf)
        _sweep(*row_views, range(h - 1, -1, -1), row_buf)
        _sweep(*col_views, range(w), col_buf)
        _sweep(*col_views, range(w - 1, -1, -1), col_buf)
        # stop test: one geodesic dilation of the whole image, its 3x3
        # max taken along rows, then along columns
        np.maximum(pad[:, :-2], pad[:, 2:], out=row_max)
        np.maximum(row_max, pad[:, 1:-1], out=row_max)
        np.maximum(row_max[:-2], row_max[2:], out=dil)
        np.maximum(dil, row_max[1:-1], out=dil)
        np.minimum(dil, mask, out=dil)
        raised = dil != j
        n_raised = np.count_nonzero(raised)
        if n_raised == 0:
            return j.copy()
        j[...] = dil
        if n_raised <= few:
            if _finish(pad, mask, raised, few):
                return j.copy()
            few = 0             # they did not settle: rounds only from here


# ---------------------------------------------------------------------------
# GLCM windowed statistics
# ---------------------------------------------------------------------------

# Padded image cells per block of level pairs in `_energy_entropy_sums`:
# the block's temporaries take a few bytes per cell.
BLOCK_CELLS = 1 << 16


def _window_sums(img: np.ndarray, r: int, dy: int, dx: int) -> np.ndarray:
    """Per-center sum of an anchor image over the box of direction (dy, dx):
    the anchors p with p and p+d in the (2r+1)^2 window of center c, i.e.
    p in [c - r + max(0, -d), c + r - max(0, d)] per axis, clipped to the
    image. Padded by r zeros, the box is a run of 2r+1-|d| cells from
    max(0, -d) per axis: run sums along the columns, then the rows, in
    img's dtype and in an order local to the box. Needs |dy|, |dx| <= 2r.
    """
    h, w = img.shape
    cols = _run_sums(np.pad(img, r)[:, max(0, -dx):], 2 * r + 1 - abs(dx), 1, w)
    return _run_sums(cols[max(0, -dy):], 2 * r + 1 - abs(dy), 0, h)


def _add_offset_sums(q: np.ndarray, levels: int, r: int, dy: int, dx: int,
                     sums: np.ndarray, s_hom: np.ndarray) -> np.ndarray:
    """Add the windowed sums of the pairs (p, p+d) to `sums` and `s_hom`;
    return the image of their pair codes min*levels+max, -1 where p+d is
    outside the image or either level is invalid. The integer sums are
    in q's dtype."""
    h, w = q.shape
    b = np.full((h, w), -1, dtype=q.dtype)
    b[max(0, -dy):h - max(0, dy), max(0, -dx):w - max(0, dx)] = \
        q[max(0, dy):h - max(0, -dy), max(0, dx):w - max(0, -dx)]
    valid = (q >= 0) & (b >= 0)
    av = np.where(valid, q, 0)
    bv = np.where(valid, b, 0)
    diff = av - bv
    # tot, contrast, dissimilarity, x, xx and xy, each with its factor: a
    # pair counts in both directions, and in the x sum as its two levels;
    # every image is 0 wherever the pair is invalid
    anchors = (2 * valid.astype(q.dtype), 2 * diff * diff, 2 * np.abs(diff),
               av + bv, av * av + bv * bv, 2 * av * bv)
    for acc, img in zip(sums, anchors):
        acc += _window_sums(img, r, dy, dx)
    s_hom += 2.0 * _window_sums(np.where(valid, 1.0 / (1.0 + (diff * diff)), 0.0), r, dy, dx)
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

    The six anchor sums are run sums over each offset's box, so a row
    strip with an r-row halo gives the whole image's bits. Per offset they
    are int32 when 2*(levels-1)^2 per anchor over (2r+1)^2 anchors fits,
    else int64. Energy and entropy need the count of each present level
    pair; these are counted a block of pairs at a time by run sums, which
    caps the temporaries at `BLOCK_CELLS` cells (one pair's on a larger
    scene).
    """
    r = window // 2
    fits32 = 2 * (levels - 1) ** 2 * (2 * r + 1) ** 2 < 2 ** 31
    q = np.asarray(levels_img, dtype=np.int32 if fits32 else np.int64)
    h, w = q.shape
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

# best_split's sort keys: the value's order-preserving bits in the high 32,
# then the class (4 bits) and the row's count (28 bits)
_COUNT_BITS = 28
_HI, _LO = (1, 0) if sys.byteorder == "little" else (0, 1)


def _ordered_bits(v: np.ndarray) -> np.ndarray:
    """int32 that orders as the float32 bits `v` (as int32) do as floats:
    negative floats have their magnitude bits flipped. An involution."""
    return v ^ ((v >> 31) & 0x7FFFFFFF)


def best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray, counts: np.ndarray,
               feats: np.ndarray, min_leaf: int, n_classes: int = 4):
    """Best Gini split for the node holding row rows[i] of X counts[i] times.

    Maximizes sum(c_left^2)/n_left + sum(c_right^2)/n_right over midpoint
    thresholds of candidate features, with at least `min_leaf` >= 1 rows
    on each side; ties go to the lower feature index, then the lower
    threshold. Returns (feature, threshold, found). Every size and class
    tally counts each row with its multiplicity, so the result is that of
    the node with every row repeated: the same boundaries, the same
    integer tallies and so the same float64 scores.

    All k candidate features are scored in one batch from one sort of
    int64 keys per feature row: the value's order-preserving bits (-0.0
    folded to +0.0, which it equals), the row's class and its count. A
    row's class and count ride along, so no argsort or label gather is
    needed. Only value boundaries are scored, where the left tallies are
    those of every value <= the boundary and the midpoint is of two
    distinct values, whatever order equal values took. Prefix sums along
    each row give the left size n_left, L_c per present class but the
    last (which is n_left less the others), and sum(T_c * L_c), so the
    right side's sum((T_c - L_c)^2) is sum(T^2) - 2 sum(T_c L_c) +
    sum(L_c^2) in exact int64. One row-major argmax then takes the first
    maximum: the lowest feature row, then the lowest threshold.
    """
    yr = y[rows]
    totals = np.bincount(yr, weights=counts, minlength=n_classes).astype(np.int64)
    size = int(totals.sum())
    k, m = feats.size, rows.size
    if k == 0 or m < 2 or size < 2 * min_leaf:
        return -1, 0.0, False
    keys = np.empty((k, m), dtype=np.int64)
    half = keys.view(np.uint32).reshape(k, m, 2)
    bits = (np.take(X, rows, axis=0)[:, feats].T + np.float32(0.0)).view(np.int32)
    half[..., _HI] = _ordered_bits(bits)
    half[..., _LO] = (yr.astype(np.uint32) << _COUNT_BITS) | counts.astype(np.uint32)
    keys.sort(axis=1)
    low = half[..., _LO]
    w = low & ((1 << _COUNT_BITS) - 1)
    cls = low >> _COUNT_BITS
    n_left = np.cumsum(w, axis=1, dtype=np.int64)[:, :-1]
    lt = np.cumsum(np.take(totals, cls) * w, axis=1)[:, :-1]
    present = np.flatnonzero(totals)
    rest = n_left.copy()
    sl = np.zeros_like(n_left)
    for c in present[:-1]:
        left = np.cumsum(np.multiply(w, cls == c), axis=1, dtype=np.int64)[:, :-1]
        rest -= left
        left *= left
        sl += left
    rest *= rest
    sl += rest
    sr = totals @ totals - 2 * lt + sl
    score = sl / n_left + sr / (size - n_left)
    value = half[..., _HI].view(np.int32)
    score[(value[:, 1:] == value[:, :-1]) | (n_left < min_leaf)
          | (n_left > size - min_leaf)] = -np.inf
    row, col = divmod(int(np.argmax(score)), m - 1)
    if score[row, col] == -np.inf:
        return -1, 0.0, False
    a, b = _ordered_bits(value[row, col:col + 2]).view(np.float32)
    return int(feats[row]), 0.5 * (float(a) + float(b)), True


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
