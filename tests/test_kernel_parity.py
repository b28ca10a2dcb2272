"""Compiled vs pure kernel lanes must agree (see lane contracts in
xferkit._kernels.pure). Both lanes are called through the checked front in
`xferkit._kernels`. Checks of each lane on its own are in test_kernels.py."""

import numpy as np
import pytest

from xferkit import _kernels
from xferkit._kernels import pure

compiled = _kernels.compiled
if compiled is None:
    pytest.skip(f"compiled lane not built: {_kernels.FALLBACK_REASON}",
                allow_module_level=True)


@pytest.fixture
def both(monkeypatch):
    """Call a kernel through the front on each lane: (pure, compiled)."""
    def call(name, *args):
        results = []
        for lane in (pure, compiled):
            monkeypatch.setattr(_kernels, "_lane", lane)
            results.append(getattr(_kernels, name)(*args))
        return results
    return call


@pytest.mark.parametrize("shape", [(1, 1), (1, 17), (9, 9), (23, 31)])
@pytest.mark.parametrize("size", [1, 3, 7])
def test_erode_bit_identical(both, shape, size, rng):
    img = rng.uniform(-5, 40, shape).astype(np.float32)
    np.testing.assert_array_equal(*both("grey_erode_square", img, size))


@pytest.mark.parametrize("shape", [(1, 8), (16, 16), (13, 29)])
def test_reconstruction_bit_identical(both, shape, rng):
    mask = rng.uniform(0, 30, shape).astype(np.float32)
    marker = np.minimum(mask, rng.uniform(0, 30, shape).astype(np.float32))
    np.testing.assert_array_equal(*both("reconstruct_dilation", marker, mask))


@pytest.mark.parametrize("window,levels,shape", [
    (3, 4, (17, 19)), (5, 8, (17, 19)), (13, 32, (17, 19)),
    (13, 32, (64, 64)),     # many blocks of level pairs in the pure lane
], ids=["3-4", "5-8", "13-32", "13-32-64x64"])
def test_glcm_lanes_agree(both, window, levels, shape, rng):
    q = rng.integers(-1, levels, size=shape).astype(np.int16)
    offsets = np.array([(0, 1), (1, 0), (1, 1), (-1, 1)], dtype=np.int64)
    a, b = both("glcm_feature_image", q, window, levels, offsets)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)


def test_best_split_identical_results(both, rng):
    for trial in range(30):
        n = int(rng.integers(4, 300))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d)).astype(np.float32)
        if trial % 3 == 0:
            X = np.round(X)         # heavy value ties
        y = rng.integers(0, 4, size=n).astype(np.uint8)
        rows, counts = np.unique(rng.integers(0, n, size=n), return_counts=True)
        k = int(rng.integers(1, d + 1))
        feats = rng.choice(d, size=k, replace=False).astype(np.int64)
        min_leaf = int(rng.integers(1, max(2, n // 4)))
        a, b = both("best_split", X, y, rows, counts, feats, min_leaf)
        assert a == b


def test_tree_apply_identical(both, rng):
    feature = np.array([0, 1, -1, -1, -1], dtype=np.int32)
    threshold = np.array([0.5, -0.2, 0.0, 0.0, 0.0])
    left = np.array([1, 3, -1, -1, -1], dtype=np.int32)
    right = np.array([2, 4, -1, -1, -1], dtype=np.int32)
    X = rng.normal(size=(500, 3)).astype(np.float32)
    np.testing.assert_array_equal(
        *both("tree_apply", feature, threshold, left, right, X))


def test_forest_training_bit_identical_across_lanes(monkeypatch, rng):
    from xferkit import forest as rf

    X = rng.normal(size=(800, 5)).astype(np.float32)
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.uint8) + \
        (X[:, 2] > 1).astype(np.uint8)
    data = rf.PixelDataset(X, y)
    hp = rf.RfHyperparams(n_trees=4, max_depth=7, min_samples_leaf=5,
                          min_samples_split=10, seed=21)

    blobs = {}
    for name, impl in (("pure", pure), ("compiled", compiled)):
        monkeypatch.setattr(_kernels, "_lane", impl)
        model = rf.rf_train(data, hp)
        blobs[name] = rf.save_forest(model)
        probs = model.predict_matrix(X[:64])
        blobs[name + "_probs"] = probs.tobytes()
    assert blobs["pure"] == blobs["compiled"]
    assert blobs["pure_probs"] == blobs["compiled_probs"]
