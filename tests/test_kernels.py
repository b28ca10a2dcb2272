"""Kernel checks against brute force and the oracles, on every lane present.

Each test calls the checked front in `xferkit._kernels` with the lane under
test selected, so the contract checks run as in production. The pure lane
is always tested; the compiled lane joins when its library is built.
Lane-against-lane agreement lives in test_kernel_parity.py.
"""

import hashlib

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


def test_erode_matches_brute_force(kernels, rng):
    img = rng.uniform(0, 10, (11, 13)).astype(np.float32)
    size, r = 5, 2
    expect = np.empty_like(img)
    for y in range(11):
        for x in range(13):
            expect[y, x] = img[max(0, y - r):y + r + 1,
                               max(0, x - r):x + r + 1].min()
    np.testing.assert_array_equal(kernels.grey_erode_square(img, size), expect)


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
def test_glcm_long_offset_adds_no_pair(kernels, window, offset, rng):
    """An offset as long as the image or the window adds no pair: alone it
    leaves all six statistics 0, and beside a short offset it changes no
    value. At window 13 every offset here is longer than the image."""
    q = rng.integers(-1, 8, (10, 10)).astype(np.int32)
    long = (0, window) if offset == "window" else offset
    alone = kernels.glcm_feature_image(q, window, 8, np.array([long]))
    assert alone.shape == (6, 10, 10) and not alone.any()
    short = kernels.glcm_feature_image(q, window, 8, np.array([(1, 1)]))
    both = kernels.glcm_feature_image(q, window, 8, np.array([(1, 1), long]))
    np.testing.assert_array_equal(both, short)


def test_glcm_matches_oracle_across_blocks(kernels, rng):
    q = glcm_scene()
    feats = kernels.glcm_feature_image(q, 13, 32, OFFSETS)
    centers = [(0, 0), (0, 63), (63, 0), (63, 63)]
    centers += [tuple(c) for c in rng.integers(0, 64, (8, 2))]
    for cy, cx in centers:
        expect = glcm_window_oracle(q, 13, 32, OFFSETS, cy, cx)
        np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


@pytest.mark.parametrize("window", [15, 17, 31, 37])
def test_glcm_wide_windows_match_oracle(kernels, window, rng):
    """Wide windows on an image with invalid pixels: 15 is the widest whose
    per-offset counts the pure lane keeps in uint8; 17, 31 and 37 (as
    wide as the image) count in int32. A constant 20x20 corner makes one
    pair's count pass 255 in the wider windows, as at center (10, 10)."""
    q = rng.integers(0, 8, (40, 37)).astype(np.int32)
    q[rng.uniform(size=q.shape) < 0.05] = -1
    q[:20, :20] = 3
    feats = kernels.glcm_feature_image(q, window, 8, OFFSETS)
    centers = [(0, 0), (0, 36), (39, 0), (39, 36), (10, 10)]
    centers += [tuple(c) for c in rng.integers(0, (40, 37), (6, 2))]
    for cy, cx in centers:
        expect = glcm_window_oracle(q, window, 8, OFFSETS, cy, cx)
        np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)


@pytest.mark.parametrize("image, digest", [
    ("random", "a6c50c50081bf3578ad8c303cdf5576a906ab7e9b5e4b61754853649a56aa6f2"),
    ("scene", "5d4776644957a602a2239744beaf04790ccdbdced6b15bb32a6a2baa1ea3cc54"),
])
def test_glcm_bytes_pinned(monkeypatch, image, digest):
    """The pure lane's statistics, bit for bit, on `glcm_scene()` and on
    the luminance levels of a 128x128 synthetic scene. The digests were
    recorded when the pair counts were box sums over summed-area tables."""
    monkeypatch.setattr(_kernels, "_lane", pure)
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
    monkeypatch.setattr(_kernels, "_lane", pure)
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

@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_best_split_matches_oracle(kernels, ties):
    """Random nodes of 2 to 60 rows drawn with duplicates from n rows, a
    constant column, every k from 1 to d, and min_leaf from 1 to a third
    of the node; `ties` rounds the values to a few integers."""
    rng = np.random.default_rng(17 + ties)
    for _ in range(12):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        X = rng.normal(size=(n, d)).astype(np.float32)
        if ties:
            X = np.round(X)
        X[:, rng.integers(d)] = 0.25
        y = rng.integers(0, 4, n).astype(np.uint8)
        idx = rng.integers(0, n, int(rng.integers(2, 61)))
        for k in range(1, d + 1):
            feats = rng.choice(d, size=k, replace=False)
            min_leaf = int(rng.integers(1, max(2, idx.size // 3)))
            assert kernels.best_split(X, y, idx, feats, min_leaf) == \
                best_split_oracle(X, y, idx, feats, min_leaf)


def test_best_split_tie_rule(kernels):
    """Columns 0 and 1 are equal, and their thresholds 0.5 and 2.5 score
    the same: the lower feature, then the lower threshold, wins."""
    X = np.repeat(np.arange(4, dtype=np.float32)[:, None], 2, axis=1)
    y = np.array([0, 1, 1, 0], dtype=np.uint8)
    idx = np.arange(4)
    assert best_split_oracle(X, y, idx, [1, 0], 1) == (0, 0.5, True)
    assert kernels.best_split(X, y, idx, [1, 0], 1) == (0, 0.5, True)


@pytest.mark.parametrize("m", [39, 40])
def test_best_split_min_leaf_edges(kernels, m):
    """min_leaf 0 acts as 1; at m // 2 only the middle boundaries remain;
    a node with m < 2 * min_leaf has no split."""
    X, y, idx, feats = split_input()
    idx = idx[:m]
    one = kernels.best_split(X, y, idx, feats, 1)
    assert one[2] and one == best_split_oracle(X, y, idx, feats, 1)
    assert kernels.best_split(X, y, idx, feats, 0) == one
    half = m // 2
    got = kernels.best_split(X, y, idx, feats, half)
    assert got[2] and got == best_split_oracle(X, y, idx, feats, half)
    assert kernels.best_split(X, y, idx, feats, half + 1) == (-1, 0.0, False)


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
    return X, y, np.arange(40, dtype=np.int64), np.arange(3, dtype=np.int64)


def tree_input():
    """Root splits on feature 0 into node 1 (split on feature 1 into leaves
    3 and 4) and leaf 2."""
    return (np.array([0, 1, -1, -1, -1], dtype=np.int32),
            np.array([0.5, -0.2, 0.0, 0.0, 0.0]),
            np.array([1, 3, -1, -1, -1], dtype=np.int32),
            np.array([2, 4, -1, -1, -1], dtype=np.int32))


@pytest.mark.parametrize("size,value", [(4, 1.0), (0, 1.0), (3, np.nan)])
def test_erode_rejects_bad_size_or_nan(kernels, size, value):
    img = np.ones((6, 7), dtype=np.float32)
    img[2, 3] = value
    with pytest.raises(ValueError):
        kernels.grey_erode_square(img, size)


@pytest.mark.parametrize("where", ["marker", "mask"])
def test_reconstruction_rejects_nan(kernels, where):
    arrays = {"marker": np.zeros((4, 4), dtype=np.float32),
              "mask": np.full((4, 4), 5.0, dtype=np.float32)}
    arrays[where][1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        kernels.reconstruct_dilation(arrays["marker"], arrays["mask"])


@pytest.mark.parametrize("level", [8, 100, -2])
def test_glcm_rejects_level_out_of_range(kernels, level):
    q = glcm_input(levels=8)
    q[4, 5] = level
    with pytest.raises(ValueError, match="level"):
        kernels.glcm_feature_image(q, 3, 8, OFFSETS)


@pytest.mark.parametrize("window", [0, 4, -3])
def test_glcm_rejects_bad_window(kernels, window):
    with pytest.raises(ValueError, match="window"):
        kernels.glcm_feature_image(glcm_input(), window, 8, OFFSETS)


@pytest.mark.parametrize("levels", [0, _kernels.MAX_LEVELS + 1])
def test_glcm_rejects_levels_that_overflow(kernels, levels):
    with pytest.raises(ValueError, match="levels must lie"):
        kernels.glcm_feature_image(np.zeros((5, 5), dtype=np.int32), 3, levels, OFFSETS)


@pytest.mark.parametrize("row", [-1, 40])
def test_best_split_rejects_idx_out_of_range(kernels, row):
    X, y, idx, feats = split_input()
    idx[7] = row
    with pytest.raises(ValueError, match="idx"):
        kernels.best_split(X, y, idx, feats, 2)


@pytest.mark.parametrize("feat", [-1, 3])
def test_best_split_rejects_feature_out_of_range(kernels, feat):
    X, y, idx, feats = split_input()
    feats[1] = feat
    with pytest.raises(ValueError, match="feats"):
        kernels.best_split(X, y, idx, feats, 2)


def test_best_split_rejects_label_out_of_range(kernels):
    X, y, idx, feats = split_input()
    y[5] = 4
    with pytest.raises(ValueError, match="label"):
        kernels.best_split(X, y, idx, feats, 2, n_classes=4)


@pytest.mark.parametrize("n_classes", [0, 17])
def test_best_split_rejects_bad_class_count(kernels, n_classes):
    X, y, idx, feats = split_input()
    with pytest.raises(ValueError, match="n_classes"):
        kernels.best_split(X, y, idx, feats, 2, n_classes=n_classes)


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
