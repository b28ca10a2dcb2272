"""Compiled vs pure kernel lanes must agree (see lane contracts in
xferkit._kernels.pure). Both lanes are called through the checked front in
`xferkit._kernels`. Only reconstruction and tree traversal have two lanes;
a forest trained and applied on each lane must still be bit-identical.
Checks of each lane on its own are in test_kernels.py."""

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


@pytest.mark.parametrize("shape", [(1, 8), (16, 16), (13, 29)])
def test_reconstruction_bit_identical(both, shape, rng):
    mask = rng.uniform(0, 30, shape).astype(np.float32)
    marker = np.minimum(mask, rng.uniform(0, 30, shape).astype(np.float32))
    np.testing.assert_array_equal(*both("reconstruct_dilation", marker, mask))


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
