"""Kernel checks against brute force and the oracles.

Each test calls the checked front in `xferkit._kernels`, so the contract
checks run as in production. Reconstruction and tree traversal run on
every lane present (the `kernels` fixture): the pure lane always, the
compiled lane when its library is built. Erosion, GLCM and split search
have one implementation, `pure`, on every lane, so their tests run once
(the `front` fixture). Lane-against-lane agreement lives in
test_kernel_parity.py.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from oracles import (best_split_oracle, glcm_window_oracle, naive_reconstruction,
                     tree_walk_oracle)
from xferkit import _kernels, forest, synth
from xferkit._kernels import pure

LANES = [pytest.param(pure, id="pure")]
if _kernels.compiled is not None:
    LANES.append(pytest.param(_kernels.compiled, id="compiled"))

OFFSETS = np.array([(0, 1), (1, 0), (1, 1), (-1, 1)], dtype=np.int64)


@pytest.fixture(params=LANES)
def kernels(request, monkeypatch):
    """The front in `xferkit._kernels`, calling the lane under test."""
    monkeypatch.setattr(_kernels, "_lane", request.param)
    return _kernels


@pytest.fixture(params=[pytest.param(pure, id="pure")])
def front():
    """The front in `xferkit._kernels`, for the kernels that call `pure`
    whatever the lane: one run, named after that implementation."""
    return _kernels


def serpentine(h, w, rng):
    """One-pixel corridor winding through the image: every even row, joined
    at alternating ends through the odd rows; zero walls elsewhere. Returns
    (marker, mask) with the marker high only at the corridor's start."""
    mask = np.zeros((h, w), dtype=np.float32)
    mask[0::2] = rng.uniform(5, 10, mask[0::2].shape)
    for k, y in enumerate(range(1, h - 1, 2)):
        x = w - 1 if k % 2 == 0 else 0
        mask[y, x] = rng.uniform(5, 10)
    marker = np.zeros_like(mask)
    marker[0, 0] = mask[0, 0]
    return marker, mask


def brute_erode(img, size):
    """The minimum over each pixel's size x size window, clipped to the image."""
    r = size // 2
    h, w = img.shape
    return np.array([[img[max(0, y - r):y + r + 1, max(0, x - r):x + r + 1].min()
                      for x in range(w)] for y in range(h)], dtype=np.float32)


def test_erode_matches_brute_force(front, rng):
    img = rng.uniform(0, 10, (11, 13)).astype(np.float32)
    np.testing.assert_array_equal(front.grey_erode_square(img, 5), brute_erode(img, 5))


@pytest.mark.parametrize("size", [1, 3, 7, 9, 15, 27, 63])
def test_erode_any_size_matches_brute_force(front, size, rng):
    """Window sizes that are and are not powers of two plus one, and wider
    than the 11 x 13 image, over -inf pixels and ties."""
    img = np.round(rng.uniform(0, 10, (11, 13))).astype(np.float32)
    img[rng.uniform(size=img.shape) < 0.05] = -np.inf
    np.testing.assert_array_equal(front.grey_erode_square(img, size), brute_erode(img, size))


@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (23, 31)])
@pytest.mark.parametrize("size", [1, 3, 7])
def test_erode_thin_images_match_brute_force(front, shape, size, rng):
    """Single rows, columns and pixels, and negative values."""
    img = rng.uniform(-5, 40, shape).astype(np.float32)
    np.testing.assert_array_equal(front.grey_erode_square(img, size), brute_erode(img, size))


@pytest.mark.parametrize("size", [4001, 2 * 64 + 1])
def test_erode_wider_than_the_image_is_bounded(front, size, rng):
    """A window wider than 2n - 1 cells gives every pixel the global
    minimum, with memory bounded by the image, not by the window."""
    img = rng.uniform(0, 10, (48, 64)).astype(np.float32)
    tracemalloc.start()
    try:
        out = front.grey_erode_square(img, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, np.full_like(img, img.min()))
    assert peak < 256 * 1024


def test_reconstruction_rejects_bad_marker(kernels):
    mask = np.zeros((3, 3), dtype=np.float32)
    marker = np.ones((3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="marker"):
        kernels.reconstruct_dilation(marker, mask)


@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (13, 29), (64, 64)])
def test_reconstruction_matches_oracle_random(kernels, shape, rng):
    for _ in range(5):
        mask = rng.uniform(0, 30, shape).astype(np.float32)
        marker = np.minimum(mask, rng.uniform(0, 30, shape).astype(np.float32))
        got = kernels.reconstruct_dilation(marker, mask)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))


@pytest.mark.parametrize("shape", [(9, 9), (20, 37)])
def test_reconstruction_matches_oracle_plateaus(kernels, shape, rng):
    # few distinct levels: wide plateaus, and ties between marker and mask
    for _ in range(5):
        mask = rng.integers(0, 4, shape).astype(np.float32)
        marker = np.where(rng.uniform(size=shape) < 0.1, mask, 0).astype(np.float32)
        got = kernels.reconstruct_dilation(marker, mask)
        np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))


@pytest.mark.parametrize("shape", [(31, 33), (32, 2), (2, 32)])
def test_reconstruction_matches_oracle_serpentine(kernels, shape, rng):
    marker, mask = serpentine(*shape, rng)
    got = kernels.reconstruct_dilation(marker, mask)
    np.testing.assert_array_equal(got, naive_reconstruction(marker, mask))
    # the marker's value reaches the far end of the corridor: corridor k
    # (row 2k) runs left to right when k is even
    last = (shape[0] - 1) // 2 * 2
    assert got[last, shape[1] - 1 if (last // 2) % 2 == 0 else 0] > 0


def test_reconstruction_stragglers_both_ways(rng, monkeypatch):
    """Pure lane: the few pixels a round leaves settle next to the raised
    pixels (random mask), or outlast those steps and go back to rounds
    (a corridor); either way the result is the oracle's."""
    settled = []
    finish = pure._finish
    monkeypatch.setattr(pure, "_finish", lambda *a: settled.append(finish(*a)) or settled[-1])
    mask = rng.uniform(0, 30, (64, 64)).astype(np.float32)
    marker = np.minimum(mask, rng.uniform(0, 30, mask.shape).astype(np.float32))
    for marker, mask in ((marker, mask), serpentine(31, 33, rng)):
        np.testing.assert_array_equal(pure.reconstruct_dilation(marker, mask),
                                      naive_reconstruction(marker, mask))
    assert settled == [True, False]


# ---------------------------------------------------------------------------
# GLCM
# ---------------------------------------------------------------------------

def glcm_scene():
    """64x64 random levels in [0, 32) with a few invalid pixels: nearly all
    528 level pairs are present, so the pure lane counts them in many
    blocks under its default budget."""
    q = np.random.default_rng(5).integers(0, 32, (64, 64)).astype(np.int32)
    q[np.random.default_rng(6).uniform(size=q.shape) < 0.03] = -1
    return q


@pytest.mark.parametrize("window", [3, 13])
@pytest.mark.parametrize("offset", [(12, 0), (0, 11), "window"])
def test_glcm_long_offset_adds_no_pair(front, window, offset, rng):
    """An offset as long as the image or the window adds no pair: alone it
    leaves all six statistics 0, and beside a short offset it changes no
    value. At window 13 every offset here is longer than the image."""
    q = rng.integers(-1, 8, (10, 10)).astype(np.int32)
    long = (0, window) if offset == "window" else offset
    alone = front.glcm_feature_image(q, window, 8, np.array([long]))
    assert alone.shape == (6, 10, 10) and not alone.any()
    short = front.glcm_feature_image(q, window, 8, np.array([(1, 1)]))
    both = front.glcm_feature_image(q, window, 8, np.array([(1, 1), long]))
    np.testing.assert_array_equal(both, short)


def test_glcm_matches_oracle_across_blocks(front, rng):
    q = glcm_scene()
    feats = front.glcm_feature_image(q, 13, 32, OFFSETS)
    centers = [(0, 0), (0, 63), (63, 0), (63, 63)]
    centers += [tuple(c) for c in rng.integers(0, 64, (8, 2))]
    for cy, cx in centers:
        expect = glcm_window_oracle(q, 13, 32, OFFSETS, cy, cx)
        np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


@pytest.mark.parametrize("window,levels", [(3, 4), (5, 8)])
def test_glcm_small_windows_match_oracle(front, window, levels, rng):
    """Narrow windows and few levels, from int16 levels with invalid
    pixels: every pixel against the oracle."""
    q = rng.integers(-1, levels, size=(17, 19)).astype(np.int16)
    feats = front.glcm_feature_image(q, window, levels, OFFSETS)
    for cy in range(17):
        for cx in range(19):
            expect = glcm_window_oracle(q, window, levels, OFFSETS, cy, cx)
            np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


@pytest.mark.parametrize("window", [15, 17, 31, 37])
def test_glcm_wide_windows_match_oracle(front, window, rng):
    """Wide windows on an image with invalid pixels: 15 is the widest whose
    per-offset counts the pure lane keeps in uint8; 17, 31 and 37 (as
    wide as the image) count in int32. A constant 20x20 corner makes one
    pair's count pass 255 in the wider windows, as at center (10, 10)."""
    q = rng.integers(0, 8, (40, 37)).astype(np.int32)
    q[rng.uniform(size=q.shape) < 0.05] = -1
    q[:20, :20] = 3
    feats = front.glcm_feature_image(q, window, 8, OFFSETS)
    centers = [(0, 0), (0, 36), (39, 0), (39, 36), (10, 10)]
    centers += [tuple(c) for c in rng.integers(0, (40, 37), (6, 2))]
    for cy, cx in centers:
        expect = glcm_window_oracle(q, window, 8, OFFSETS, cy, cx)
        np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


def test_glcm_int64_sums_match_oracle(front, rng):
    """Levels just above the int32 bound, 2*(levels-1)^2 * window^2 >= 2^31,
    and pixels near levels-1: a full box's xx and xy sums pass 2^31 per
    offset, so they must be taken in int64."""
    window, levels = 31, 1100
    assert 2 * (levels - 1) ** 2 * window ** 2 >= 2 ** 31
    q = rng.integers(levels - 4, levels, (40, 38)).astype(np.int32)
    q[0, 0] = -1
    feats = front.glcm_feature_image(q, window, levels, OFFSETS)
    centers = [(0, 0), (19, 18), (20, 20), (39, 37)]
    for cy, cx in centers:
        expect = glcm_window_oracle(q, window, levels, OFFSETS, cy, cx)
        np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


@pytest.mark.parametrize("rows", [1, 5, 16, 23])
@pytest.mark.parametrize("offsets", [OFFSETS] + [OFFSETS[i:i + 1] for i in range(4)],
                         ids=["all", "east", "south", "southeast", "northeast"])
def test_glcm_row_strips_equal_whole_image(front, rows, offsets):
    """Each strip of output rows, computed from its rows and r rows of
    halo on either side, equals the whole image's rows in all six float64
    planes, bit for bit: every sum is taken inside its own window."""
    q = glcm_scene()
    r = 13 // 2
    whole = front.glcm_feature_image(q, 13, 32, offsets)
    for y0 in range(0, q.shape[0], rows):
        y1 = min(y0 + rows, q.shape[0])
        top = max(0, y0 - r)
        strip = front.glcm_feature_image(q[top:y1 + r], 13, 32, offsets)
        np.testing.assert_array_equal(strip[:, y0 - top:y1 - top], whole[:, y0:y1])


@pytest.mark.parametrize("image, digest", [
    ("random", "cf527e186f5afd58de334794ca37cc23b6c371c34f64730ab3b83db2d39a4687"),
    ("scene", "8cfb9573f466418a91a50ae67663060aeed43b79c76e8dfd96d47fc9c0e12c12"),
], ids=["random", "scene"])
def test_glcm_bytes_pinned(image, digest):
    """The pure lane's statistics, bit for bit, on `glcm_scene()` and on
    the luminance levels of a 128x128 synthetic scene. The digests were
    recorded when every window sum became a run sum; summed-area tables
    had given homogeneity other last bits (by up to 3.2e-14 here)."""
    if image == "random":
        q = glcm_scene()
    else:
        rgbn, _, _ = synth.generate_scene(synth.DomainSpec(width=128, height=128, seed=3), 0)
        q = forest.quantize_luminance(rgbn, 32)
    feats = _kernels.glcm_feature_image(q, 13, 32, OFFSETS)
    assert hashlib.sha256(feats.tobytes()).hexdigest() == digest


def test_glcm_block_size_does_not_change_output(monkeypatch):
    """The pure lane's pair blocks change no bit of the output: one pair
    per block, five per block (the last one partial) and the default."""
    q = glcm_scene()
    table = (64 + 12) ** 2                  # padded cells of one pair
    assert 1 < pure.BLOCK_CELLS // table < 528 // 4
    default = _kernels.glcm_feature_image(q, 13, 32, OFFSETS)
    for cells in (1, 5 * table):
        monkeypatch.setattr(pure, "BLOCK_CELLS", cells)
        assert np.array_equal(_kernels.glcm_feature_image(q, 13, 32, OFFSETS), default)


# ---------------------------------------------------------------------------
# CART split search and tree traversal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ties,n_classes", [
    (False, 4), (True, 4),
    (False, _kernels.MAX_CLASSES), (True, _kernels.MAX_CLASSES),
], ids=["distinct", "tied", "distinct-16-classes", "tied-16-classes"])
def test_best_split_matches_oracle(front, ties, n_classes):
    """Random nodes of 2 to 60 rows drawn with duplicates from n rows, a
    constant column, every k from 1 to d, and min_leaf from 1 to a third
    of the node; `ties` rounds the values to a few integers. With 16
    classes every third row is class 15, whose bits top the sort key of
    `pure.best_split`."""
    rng = np.random.default_rng(17 + ties + n_classes - 4)
    for _ in range(12):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)).astype(np.float32)
        if ties:
            X = np.round(X)
        X[:, rng.integers(d)] = 0.25
        y = rng.integers(0, n_classes, n).astype(np.uint8)
        if n_classes == _kernels.MAX_CLASSES:
            y[::3] = n_classes - 1
        idx = rng.integers(0, n, int(rng.integers(2, 61)))
        rows, counts = np.unique(idx, return_counts=True)
        for k in range(1, d + 1):
            feats = rng.choice(d, size=k, replace=False)
            min_leaf = int(rng.integers(1, max(2, idx.size // 3)))
            assert front.best_split(X, y, rows, counts, feats, min_leaf, n_classes) == \
                best_split_oracle(X, y, idx, feats, min_leaf, n_classes)


@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_best_split_counts_match_repeated_rows(front, ties):
    """Distinct rows with counts 1 to 5 score as the node with each row
    repeated: the oracle on np.repeat(rows, counts). Each X has a constant
    column and one mixing -0.0 and +0.0 (equal values: no boundary between
    them) with a few other values; `ties` rounds the rest to integers."""
    rng = np.random.default_rng(29 + ties)
    for _ in range(12):
        n, d = int(rng.integers(3, 40)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d)).astype(np.float32)
        if ties:
            X = np.round(X)
        zeros = rng.choice([-0.0, 0.0, 0.5, -1.5], size=n, p=[0.4, 0.4, 0.1, 0.1])
        X[:, 0] = zeros.astype(np.float32)
        X[:, rng.integers(1, d)] = -2.0
        y = rng.integers(0, 4, n).astype(np.uint8)
        rows = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        counts = rng.integers(1, 6, rows.size)
        node = np.repeat(rows, counts)
        for k in range(1, d + 1):
            feats = rng.choice(d, size=k, replace=False)
            min_leaf = int(rng.integers(1, max(2, node.size // 3)))
            assert front.best_split(X, y, rows, counts, feats, min_leaf) == \
                best_split_oracle(X, y, node, feats, min_leaf)


@pytest.mark.parametrize("count,found", [(20, True), (19, False)])
def test_best_split_min_leaf_counts_multiplicity(front, count, found):
    """Three distinct rows of count 20 split at min_leaf 20, as the 60 rows
    they stand for do; at count 19 no side can hold 20."""
    X = np.array([[0.0], [1.0], [2.0]], dtype=np.float32)
    y = np.array([0, 1, 1], dtype=np.uint8)
    rows, counts = np.arange(3), np.full(3, count)
    got = front.best_split(X, y, rows, counts, [0], 20)
    assert got == best_split_oracle(X, y, np.repeat(rows, counts), [0], 20)
    assert got == ((0, 0.5, True) if found else (-1, 0.0, False))


def test_best_split_tie_rule(front):
    """Columns 0 and 1 are equal, and their thresholds 0.5 and 2.5 score
    the same: the lower feature, then the lower threshold, wins."""
    X = np.repeat(np.arange(4, dtype=np.float32)[:, None], 2, axis=1)
    y = np.array([0, 1, 1, 0], dtype=np.uint8)
    idx = np.arange(4)
    assert best_split_oracle(X, y, idx, [1, 0], 1) == (0, 0.5, True)
    assert front.best_split(X, y, idx, np.ones(4), [1, 0], 1) == (0, 0.5, True)


@pytest.mark.parametrize("m", [39, 40])
def test_best_split_min_leaf_edges(front, m):
    """min_leaf 0 acts as 1; at m // 2 only the middle boundaries remain;
    a node with m < 2 * min_leaf has no split."""
    X, y, rows, counts, feats = split_input()
    idx, counts = rows[:m], counts[:m]
    one = front.best_split(X, y, idx, counts, feats, 1)
    assert one[2] and one == best_split_oracle(X, y, idx, feats, 1)
    assert front.best_split(X, y, idx, counts, feats, 0) == one
    half = m // 2
    got = front.best_split(X, y, idx, counts, feats, half)
    assert got[2] and got == best_split_oracle(X, y, idx, feats, half)
    assert front.best_split(X, y, idx, counts, feats, half + 1) == (-1, 0.0, False)


def random_tree(rng, d, depth, cuts):
    """Random pre-order tree: the root's left child is a leaf, its chain of
    right children splits down to `depth`, and every other node splits
    with probability 0.6 down to depth + 2. Thresholds are drawn from
    `cuts`."""
    feature, threshold, left, right = [], [], [], []

    def grow(level, kind):
        node = len(feature)
        split = kind == "spine" and level < depth or \
            kind == "random" and level < depth + 2 and rng.random() < 0.6
        feature.append(int(rng.integers(d)) if split else -1)
        threshold.append(float(rng.choice(cuts)) if split else 0.0)
        left.append(-1)
        right.append(-1)
        if split:
            left[node] = grow(level + 1, "leaf" if level == 0 else "random")
            right[node] = grow(level + 1, kind)
        return node

    grow(0, "spine")
    return (np.array(feature, dtype=np.int32), np.array(threshold),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32))


def test_tree_apply_matches_row_walk(kernels, rng):
    """Depth-9 trees whose thresholds hit data values exactly (ties go
    left), sit at the float64 midpoint of two adjacent float32 values that
    both occur (half of these round up in float32), or are arbitrary
    float64; whole rows and single values are NaN."""
    X = np.round(rng.normal(size=(200, 4)), 1).astype(np.float32)
    X = np.concatenate([X, np.nextafter(X, np.float32(np.inf))])
    vals = X[:200].ravel().astype(np.float64)
    cuts = np.concatenate([vals, 0.5 * (vals + X[200:].ravel()), rng.normal(size=50)])
    X[::7] = np.nan
    X[rng.uniform(size=X.shape) < 0.05] = np.nan
    for _ in range(5):
        tree = random_tree(rng, 4, 9, cuts)
        assert tree[0][1] == -1 and tree[0][0] >= 0
        got = kernels.tree_apply(*tree, X)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, tree_walk_oracle(*tree, X))


# ---------------------------------------------------------------------------
# contract checks: the front raises ValueError before any lane runs
# ---------------------------------------------------------------------------

def glcm_input(levels=8):
    return np.random.default_rng(0).integers(-1, levels, (9, 11)).astype(np.int32)


def split_input():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3)).astype(np.float32)
    y = rng.integers(0, 4, 40).astype(np.uint8)
    return (X, y, np.arange(40, dtype=np.int64), np.ones(40, dtype=np.int64),
            np.arange(3, dtype=np.int64))


def tree_input():
    """Root splits on feature 0 into node 1 (split on feature 1 into leaves
    3 and 4) and leaf 2."""
    return (np.array([0, 1, -1, -1, -1], dtype=np.int32),
            np.array([0.5, -0.2, 0.0, 0.0, 0.0]),
            np.array([1, 3, -1, -1, -1], dtype=np.int32),
            np.array([2, 4, -1, -1, -1], dtype=np.int32))


@pytest.mark.parametrize("size,value", [(4, 1.0), (0, 1.0), (3, np.nan)])
def test_erode_rejects_bad_size_or_nan(front, size, value):
    img = np.ones((6, 7), dtype=np.float32)
    img[2, 3] = value
    with pytest.raises(ValueError):
        front.grey_erode_square(img, size)


@pytest.mark.parametrize("where", ["marker", "mask"])
def test_reconstruction_rejects_nan(kernels, where):
    arrays = {"marker": np.zeros((4, 4), dtype=np.float32),
              "mask": np.full((4, 4), 5.0, dtype=np.float32)}
    arrays[where][1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        kernels.reconstruct_dilation(arrays["marker"], arrays["mask"])


@pytest.mark.parametrize("level", [8, 100, -2])
def test_glcm_rejects_level_out_of_range(front, level):
    q = glcm_input(levels=8)
    q[4, 5] = level
    with pytest.raises(ValueError, match="level"):
        front.glcm_feature_image(q, 3, 8, OFFSETS)


@pytest.mark.parametrize("window", [0, 4, -3])
def test_glcm_rejects_bad_window(front, window):
    with pytest.raises(ValueError, match="window"):
        front.glcm_feature_image(glcm_input(), window, 8, OFFSETS)


@pytest.mark.parametrize("levels", [0, _kernels.MAX_LEVELS + 1])
def test_glcm_rejects_levels_that_overflow(front, levels):
    with pytest.raises(ValueError, match="levels must lie"):
        front.glcm_feature_image(np.zeros((5, 5), dtype=np.int32), 3, levels, OFFSETS)


@pytest.mark.parametrize("row", [-1, 40])
def test_best_split_rejects_idx_out_of_range(front, row):
    X, y, rows, counts, feats = split_input()
    rows[7] = row
    with pytest.raises(ValueError, match="rows"):
        front.best_split(X, y, rows, counts, feats, 2)


@pytest.mark.parametrize("where,value", [
    (7, 0), (7, -2), (7, _kernels.MAX_COUNT + 1),
    (slice(None), _kernels.MAX_COUNT // 39),     # each fits, the sum does not
])
def test_best_split_rejects_bad_counts(front, where, value):
    X, y, rows, counts, feats = split_input()
    counts[where] = value
    with pytest.raises(ValueError, match="counts must be >= 1"):
        front.best_split(X, y, rows, counts, feats, 2)


@pytest.mark.parametrize("shape", [(39,), (41,), (40, 1)])
def test_best_split_rejects_counts_unlike_rows(front, shape):
    X, y, rows, _, feats = split_input()
    with pytest.raises(ValueError, match="counts must be shaped like rows"):
        front.best_split(X, y, rows, np.ones(shape, dtype=np.int64), feats, 2)


@pytest.mark.parametrize("feat", [-1, 3])
def test_best_split_rejects_feature_out_of_range(front, feat):
    X, y, rows, counts, feats = split_input()
    feats[1] = feat
    with pytest.raises(ValueError, match="feats"):
        front.best_split(X, y, rows, counts, feats, 2)


def test_best_split_rejects_label_out_of_range(front):
    X, y, rows, counts, feats = split_input()
    y[5] = 4
    with pytest.raises(ValueError, match="label"):
        front.best_split(X, y, rows, counts, feats, 2, n_classes=4)


@pytest.mark.parametrize("n_classes", [0, 17])
def test_best_split_rejects_bad_class_count(front, n_classes):
    X, y, rows, counts, feats = split_input()
    with pytest.raises(ValueError, match="n_classes"):
        front.best_split(X, y, rows, counts, feats, 2, n_classes=n_classes)


def test_tree_apply_rejects_feature_out_of_range(kernels):
    feature, threshold, left, right = tree_input()
    feature[1] = 2
    X = np.zeros((6, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="feature"):
        kernels.tree_apply(feature, threshold, left, right, X)


@pytest.mark.parametrize("node,side,child", [
    (2, "left", 1),      # backward edge: node 2 made internal, pointing to 1
    (0, "left", -1),
    (1, "right", 5),     # == n_nodes
])
def test_tree_apply_rejects_bad_child(kernels, node, side, child):
    feature, threshold, left, right = tree_input()
    if feature[node] < 0:
        feature[node], left[node], right[node] = 0, 3, 4
    {"left": left, "right": right}[side][node] = child
    X = np.zeros((6, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="child"):
        kernels.tree_apply(feature, threshold, left, right, X)
