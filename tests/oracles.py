"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately naive (direct definitions, explicit
enumeration, fixed-point iteration) and shares no code with the package
implementations it checks.
"""

from fractions import Fraction

import numpy as np


def sort_truncation_oracle(values, lower_pct, upper_pct):
    """Pooled sort; cut floor(n*pct/100) samples from each end."""
    pool = np.sort(np.concatenate([np.asarray(v).ravel() for v in values]))
    n = pool.size
    k_lo = int(np.floor(n * lower_pct / 100.0))
    k_hi = int(np.floor(n * upper_pct / 100.0))
    return float(pool[k_lo]), float(pool[max(k_lo, n - 1 - k_hi)])


def naive_reconstruction(marker, mask):
    """Geodesic dilation (3x3 max then min with the mask) iterated to the
    fixed point."""
    j = np.minimum(marker, mask).astype(np.float32)
    while True:
        padded = np.pad(j, 1, mode="constant", constant_values=-np.inf)
        dilated = j.copy()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                view = padded[1 + dy:1 + dy + j.shape[0],
                              1 + dx:1 + dx + j.shape[1]]
                dilated = np.maximum(dilated, view)
        nxt = np.minimum(dilated, mask)
        if np.array_equal(nxt, j):
            return j
        j = nxt


def naive_tophat(dsm, se_size):
    r = se_size // 2
    padded = np.pad(dsm, r, mode="edge")
    eroded = np.full_like(dsm, np.inf)
    for dy in range(se_size):
        for dx in range(se_size):
            eroded = np.minimum(
                eroded, padded[dy:dy + dsm.shape[0], dx:dx + dsm.shape[1]])
    return dsm - naive_reconstruction(eroded.astype(np.float32),
                                      dsm.astype(np.float32))


def otsu_oracle_float(samples, bins=256):
    """Exhaustive scan of all candidate bin edges; per-candidate statistics
    computed from scratch in float64."""
    hist, _ = np.histogram(samples, bins=bins, range=(0.0, 1.0))
    n = hist.sum()
    centers = np.arange(bins, dtype=np.float64)
    best_k, best_score = None, -1.0
    for k in range(bins - 1):
        w0 = float(hist[:k + 1].sum())
        w1 = float(hist[k + 1:].sum())
        if w0 == 0.0 or w1 == 0.0:
            continue
        mu0 = float((hist[:k + 1] * centers[:k + 1]).sum()) / w0
        mu1 = float((hist[k + 1:] * centers[k + 1:]).sum()) / w1
        score = (w0 / n) * (w1 / n) * (mu0 - mu1) ** 2
        if score > best_score:
            best_k, best_score = k, score
    return (best_k + 1) / bins


def otsu_oracle_exact(hist, bins):
    """Exhaustive scan with exact rational arithmetic over a histogram."""
    n = sum(hist)
    total_sum = sum(i * h for i, h in enumerate(hist))
    best_k, best = None, None
    for k in range(bins - 1):
        w0 = sum(hist[:k + 1])
        w1 = n - w0
        if w0 == 0 or w1 == 0:
            continue
        s0 = sum(i * h for i, h in enumerate(hist[:k + 1]))
        mu0 = Fraction(s0, w0)
        mu1 = Fraction(total_sum - s0, w1)
        score = Fraction(w0 * w1) * (mu0 - mu1) ** 2
        if best is None or score > best:
            best_k, best = k, score
    return (best_k + 1) / bins


def brute_force_miou(pred, ref):
    """Per-class pixel-set intersection over union; absent classes excluded
    from the mean."""
    valid = (pred != 255) & (ref != 255)
    ious = []
    for c in range(4):
        inter = int(((pred == c) & (ref == c) & valid).sum())
        union = int((((pred == c) | (ref == c)) & valid).sum())
        if union > 0:
            ious.append(inter / union)
    if not ious:
        raise ValueError("no scoreable classes")
    return sum(ious) / len(ious)


def glcm_window_oracle(q, window, levels, offsets, cy, cx):
    """Explicit pair enumeration for the window centered at (cy, cx),
    cropped to the image; symmetric matrix, then the six statistics from
    their definitions."""
    q = np.asarray(q)
    h, w = q.shape
    r = window // 2
    y0, y1 = max(0, cy - r), min(h - 1, cy + r)
    x0, x1 = max(0, cx - r), min(w - 1, cx + r)
    T = np.zeros((levels, levels), dtype=np.float64)
    for dy, dx in offsets:
        for py in range(y0, y1 + 1):
            for px in range(x0, x1 + 1):
                qy, qx = py + dy, px + dx
                if not (y0 <= qy <= y1 and x0 <= qx <= x1):
                    continue
                a, b = int(q[py, px]), int(q[qy, qx])
                if a < 0 or b < 0:
                    continue
                T[a, b] += 1
                T[b, a] += 1
    tot = T.sum()
    if tot == 0:
        return np.zeros(6)
    P = T / tot
    ii, jj = np.meshgrid(np.arange(levels), np.arange(levels), indexing="ij")
    contrast = float((P * (ii - jj) ** 2).sum())
    dissim = float((P * np.abs(ii - jj)).sum())
    homog = float((P / (1.0 + (ii - jj) ** 2)).sum())
    energy = float((P ** 2).sum())
    nz = P > 0
    entropy = float(-(P[nz] * np.log(P[nz])).sum())
    marginal = P.sum(axis=1)
    mu = float((np.arange(levels) * marginal).sum())
    var = float((np.arange(levels) ** 2 * marginal).sum()) - mu * mu
    if var <= 0:
        corr = 1.0
    else:
        corr = (float((ii * jj * P).sum()) - mu * mu) / var
    return np.array([contrast, dissim, homog, energy, entropy, corr])


def best_split_oracle(X, y, idx, feats, min_leaf, n_classes=4):
    """Every midpoint between two adjacent distinct values of every
    candidate feature, scored from scratch as
    sum(c_left^2)/n_left + sum(c_right^2)/n_right; a split needs at least
    `min_leaf` rows on each side. Features are tried in ascending order
    and only a strictly higher score replaces the best, so ties keep the
    lower feature, then the lower threshold. Returns (feature, threshold,
    found)."""
    rows = [int(i) for i in idx]
    best, best_score = (-1, 0.0, False), None
    for f in sorted(int(f) for f in feats):
        values = sorted({float(X[i, f]) for i in rows})
        for a, b in zip(values, values[1:]):
            left = [0] * n_classes
            right = [0] * n_classes
            for i in rows:
                side = left if float(X[i, f]) <= a else right
                side[int(y[i])] += 1
            n_left, n_right = sum(left), sum(right)
            if n_left < min_leaf or n_right < min_leaf:
                continue
            score = (sum(c * c for c in left) / n_left
                     + sum(c * c for c in right) / n_right)
            if best_score is None or score > best_score:
                best, best_score = (f, 0.5 * (a + b), True), score
    return best


def tree_walk_oracle(feature, threshold, left, right, X):
    """Walk each row from the root, comparing its value as a float64 with
    the node's threshold (NaN compares false and goes right)."""
    out = []
    for row in X:
        node = 0
        while feature[node] >= 0:
            go_left = float(row[feature[node]]) <= float(threshold[node])
            node = int(left[node] if go_left else right[node])
        out.append(node)
    return np.array(out, dtype=np.int32)
