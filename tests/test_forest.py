"""GLCM features and the random-forest baseline."""

import hashlib
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import const_rgbn, rgbn_raster
from oracles import glcm_window_oracle
from xferkit import _kernels
from xferkit import forest as rf
from xferkit.indices import mbi_h
from xferkit.raster import BandRole, LabelMap, MultibandRaster


class TestGlcm:
    def test_constant_window_statistics(self):
        q = np.full((7, 7), 5, dtype=np.int16)
        feats = rf.glcm_feature_image(q, rf.GlcmParams(window=5, levels=8))
        center = feats[:, 3, 3]
        assert center[0] == 0.0                # contrast
        assert center[1] == 0.0                # dissimilarity
        assert center[2] == 1.0                # homogeneity
        assert center[3] == 1.0                # energy
        assert center[4] == 0.0                # entropy
        assert center[5] == 1.0                # correlation (degenerate)

    def test_checkerboard_contrast_one(self):
        q = np.indices((8, 8)).sum(axis=0) % 2
        params = rf.GlcmParams(window=5, levels=2, offsets=((0, 1),))
        feats = rf.glcm_feature_image(q.astype(np.int16), params)
        # horizontally adjacent levels always differ by 1
        assert feats[0, 4, 4] == pytest.approx(1.0)

    def test_matches_pair_enumeration_oracle(self, rng):
        params = rf.GlcmParams(window=5, levels=8)
        for _ in range(20):
            q = rng.integers(0, 8, size=(5, 5)).astype(np.int16)
            feats = rf.glcm_feature_image(q, params)
            expect = glcm_window_oracle(q, 5, 8, params.offsets, 2, 2)
            np.testing.assert_allclose(feats[:, 2, 2], expect, atol=1e-9)

    def test_border_pixels_use_cropped_windows(self, rng):
        params = rf.GlcmParams(window=5, levels=4)
        q = rng.integers(0, 4, size=(9, 9)).astype(np.int16)
        feats = rf.glcm_feature_image(q, params)
        for cy, cx in ((0, 0), (0, 8), (8, 0), (8, 8), (0, 4)):
            expect = glcm_window_oracle(q, 5, 4, params.offsets, cy, cx)
            np.testing.assert_allclose(feats[:, cy, cx], expect, atol=1e-9)

    def test_invalid_pixels_skipped(self):
        q = np.full((5, 5), 2, dtype=np.int16)
        q[2, 2] = -1
        params = rf.GlcmParams(window=3, levels=4)
        feats = rf.glcm_feature_image(q, params)
        expect = glcm_window_oracle(q, 3, 4, params.offsets, 2, 2)
        np.testing.assert_allclose(feats[:, 2, 2], expect, atol=1e-9)

    def test_statistic_ranges(self, rng):
        q = rng.integers(0, 16, size=(12, 12)).astype(np.int16)
        feats = rf.glcm_feature_image(q, rf.GlcmParams(window=7, levels=16))
        assert feats[3].min() > 0.0 and feats[3].max() <= 1.0   # energy
        assert feats[4].min() >= 0.0                            # entropy
        assert feats[2].min() > 0.0 and feats[2].max() <= 1.0   # homogeneity

    def test_quantize_luminance(self):
        raster = rgbn_raster([[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]],
                             [[0.0, 0.0]])
        q = rf.quantize_luminance(raster, 32)
        assert q[0, 0] == 31 and q[0, 1] == 0
        masked = rgbn_raster([[1.0, -1.0]], [[1.0, 1.0]], [[1.0, 1.0]],
                             [[0.0, 0.0]], nodata=-1.0)
        assert rf.quantize_luminance(masked, 32)[0, 1] == -1

    def test_window_larger_than_raster_rejected(self):
        raster = const_rgbn((4, 4), 0.5, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="window larger"):
            rf.glcm_features(raster, rf.GlcmParams(window=5, levels=8))

    def test_feature_raster_shape(self):
        raster = const_rgbn((8, 9), 0.5, 0.4, 0.3, 0.6)
        feats = rf.glcm_features(raster, rf.GlcmParams(window=3, levels=8))
        assert feats.data.shape == (6, 8, 9)
        assert feats.data.dtype == np.float32


class TestStackAndSample:
    def test_stack_dimensions(self):
        raster = const_rgbn((6, 6), 0.5, 0.4, 0.3, 0.6)
        glcm = rf.glcm_features(raster, rf.GlcmParams(window=3, levels=8))
        assert rf.stack_features(raster, glcm).shape == (10, 6, 6)
        agl = np.zeros((6, 6), dtype=np.float32)
        assert rf.stack_features(raster, glcm, agl).shape == (11, 6, 6)

    def test_height_band_read_as_mbi_h_reads_it(self, rng):
        """With both a DSM and an AGL band, the feature stack and the height
        index read the same band: the AGL one."""
        raster = const_rgbn((6, 6), 0.5, 0.4, 0.3, 0.6)
        glcm = rf.glcm_features(raster, rf.GlcmParams(window=3, levels=8))
        bands = rng.uniform(0, 20, (2, 6, 6)).astype(np.float32)
        height = MultibandRaster(bands, (BandRole.DSM, BandRole.AGL))
        plane = rf.stack_features(raster, glcm, height)[-1]
        np.testing.assert_array_equal(plane, bands[1])
        np.testing.assert_array_equal(mbi_h(height).values, plane)

    def test_exhaustive_when_requesting_all(self, rng):
        stack = rng.uniform(0, 1, (3, 4, 4)).astype(np.float32)
        labels = LabelMap(rng.integers(0, 4, (4, 4)).astype(np.uint8))
        data = rf.sample_pixels([stack], [labels], 16, seed=1)
        assert data.n == 16
        flat = stack.reshape(3, -1).T
        np.testing.assert_array_equal(np.sort(data.features, axis=0),
                                      np.sort(flat.astype(np.float32), axis=0))

    def test_void_excluded_and_over_request_warns(self, rng):
        stack = rng.uniform(0, 1, (2, 3, 3)).astype(np.float32)
        codes = rng.integers(0, 4, (3, 3)).astype(np.uint8)
        codes[0, 0] = 255
        with pytest.warns(UserWarning, match="non-void"):
            data = rf.sample_pixels([stack], [LabelMap(codes)], 100, seed=0)
        assert data.n == 8

    def test_deterministic_given_seed(self, rng):
        stack = rng.uniform(0, 1, (4, 32, 32)).astype(np.float32)
        labels = LabelMap(rng.integers(0, 4, (32, 32)).astype(np.uint8))
        a = rf.sample_pixels([stack], [labels], 200, seed=42)
        b = rf.sample_pixels([stack], [labels], 200, seed=42)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_proportions_close_to_population(self, rng):
        codes = rng.choice([0, 0, 0, 1, 1, 2, 3], size=(320, 320)).astype(np.uint8)
        stack = rng.uniform(0, 1, (2,) + codes.shape).astype(np.float32)
        labels = LabelMap(codes)
        data = rf.sample_pixels([stack], [labels], 10_000, seed=5)
        pop = np.bincount(codes.ravel(), minlength=4) / codes.size
        got = data.class_counts() / data.n
        assert np.abs(got - pop).max() < 0.02

    def test_stratified_matches_quota(self, rng):
        codes = rng.choice([0, 1, 2, 3], size=(64, 64),
                           p=[0.7, 0.1, 0.1, 0.1]).astype(np.uint8)
        stack = rng.uniform(0, 1, (2,) + codes.shape).astype(np.float32)
        data = rf.sample_pixels([stack], [LabelMap(codes)], 1000, seed=9,
                                stratified=True)
        assert data.n == 1000
        pop = np.bincount(codes.ravel(), minlength=4) / codes.size
        got = data.class_counts() / data.n
        assert np.abs(got - pop).max() < 0.005


    @pytest.mark.parametrize("stratified", [False, True])
    def test_matches_concatenate_first_draw(self, rng, stratified):
        """Drawing from the labels, then gathering the picked rows scene by
        scene, returns the bytes of the concatenate-first construction: the
        valid rows of all scenes stacked into one void-free scene."""
        stacks, labels = [], []
        for shape in ((9, 13), (12, 7), (10, 10)):
            stacks.append(rng.normal(size=(5,) + shape).astype(np.float32))
            codes = rng.choice([0, 1, 1, 2, 3, 255], size=shape).astype(np.uint8)
            labels.append(LabelMap(codes))
        rows = np.concatenate([s.reshape(5, -1).T[lab.valid_mask().ravel()]
                               for s, lab in zip(stacks, labels)])
        codes = np.concatenate([lab.codes[lab.valid_mask()] for lab in labels])
        one_scene = ([rows.T[:, :, None]], [LabelMap(codes[:, None])])
        for n in (1, 57, 200, codes.size):
            got = rf.sample_pixels(stacks, labels, n, seed=3, stratified=stratified)
            want = rf.sample_pixels(*one_scene, n, seed=3, stratified=stratified)
            assert got.features.shape == want.features.shape == (n, 5)
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()


def xor_dataset(n=4000, seed=0, sigma=0.15):
    rng = np.random.default_rng(seed)
    centers = np.array([(0, 0), (1, 1), (0, 1), (1, 0)], dtype=np.float64)
    labels = np.array([0, 0, 1, 1], dtype=np.uint8)
    which = rng.integers(0, 4, size=n)
    X = centers[which] + rng.normal(0, sigma, size=(n, 2))
    return X.astype(np.float32), labels[which]


XOR_HP = rf.RfHyperparams(n_trees=50, max_depth=8, min_samples_leaf=5,
                          min_samples_split=10, seed=3)


class TestTraining:
    def test_pure_node_single_leaf(self):
        X = np.random.default_rng(0).uniform(size=(50, 3)).astype(np.float32)
        data = rf.PixelDataset(X, np.full(50, 2, dtype=np.uint8))
        model = rf.rf_train(data, rf.RfHyperparams(
            n_trees=3, max_depth=5, min_samples_leaf=1, min_samples_split=2, seed=0))
        for tree in model.trees:
            assert tree.n_nodes == 1
            np.testing.assert_array_equal(tree.leaf_probs[0], [0, 0, 1, 0])

    def test_xor_training_accuracy(self):
        X, y = xor_dataset()
        model = rf.rf_train(rf.PixelDataset(X, y), XOR_HP)
        pred = np.argmax(model.predict_matrix(X), axis=1)
        assert (pred == y).mean() >= 0.95

    def test_xor_held_out_accuracy(self):
        X, y = xor_dataset()
        model = rf.rf_train(rf.PixelDataset(X, y), XOR_HP)
        Xh, yh = xor_dataset(n=2000, seed=1)
        pred = np.argmax(model.predict_matrix(Xh), axis=1)
        assert (pred == yh).mean() >= 0.9

    def test_deterministic_serialization(self):
        X, y = xor_dataset(n=600)
        hp = rf.RfHyperparams(n_trees=5, max_depth=6, min_samples_leaf=5,
                              min_samples_split=10, seed=7)
        one = rf.save_forest(rf.rf_train(rf.PixelDataset(X, y), hp))
        two = rf.save_forest(rf.rf_train(rf.PixelDataset(X, y), hp))
        assert one == two

    def test_tree_prefix_property(self):
        X, y = xor_dataset(n=600)
        data = rf.PixelDataset(X, y)

        def hp(n):
            return rf.RfHyperparams(n_trees=n, max_depth=6, min_samples_leaf=5,
                                    min_samples_split=10, seed=7)

        small = rf.rf_train(data, hp(4))
        large = rf.rf_train(data, hp(9))
        for ta, tb in zip(small.trees, large.trees[:4]):
            np.testing.assert_array_equal(ta.feature, tb.feature)
            np.testing.assert_array_equal(ta.threshold, tb.threshold)
            np.testing.assert_array_equal(ta.counts, tb.counts)

    def test_min_leaf_respected(self):
        X, y = xor_dataset(n=800)
        hp = rf.RfHyperparams(n_trees=4, max_depth=10, min_samples_leaf=30,
                              min_samples_split=60, seed=2)
        model = rf.rf_train(rf.PixelDataset(X, y), hp)
        for tree in model.trees:
            leaves = tree.feature < 0
            assert tree.counts[leaves].sum(axis=1).min() >= 30

    def test_training_routes_like_prediction_at_float32_midpoint(self):
        # a and b are adjacent float32 values whose float64 midpoint (the
        # split threshold) rounds up to b in float32
        a = np.float32(1.0) + np.float32(2.0 ** -23)
        b = np.nextafter(a, np.float32(2.0))
        assert np.float32(0.5 * (float(a) + float(b))) == b
        X = np.array([a] * 30 + [b] * 30 + [2.0] * 4, dtype=np.float32)[:, None]
        y = np.array([0] * 30 + [1] * 34, dtype=np.uint8)
        hp = rf.RfHyperparams(n_trees=1, max_depth=1, min_samples_leaf=5,
                              min_samples_split=10, seed=3)
        tree = rf.rf_train(rf.PixelDataset(X, y), hp).trees[0]
        assert tree.feature[0] == 0 and float(a) < tree.threshold[0] < float(b)
        # tree i bootstraps first from its own stream (seed, i)
        boot = np.random.default_rng([hp.seed, 0]).integers(
            0, y.size, size=y.size, dtype=np.int64)
        leaf = _kernels.tree_apply(tree.feature, tree.threshold, tree.left,
                                   tree.right, X[boot])
        for node in np.nonzero(tree.feature < 0)[0]:
            routed = np.bincount(y[boot][leaf == node], minlength=rf.N_CLASSES)
            np.testing.assert_array_equal(tree.counts[node], routed)
            assert routed.sum() >= hp.min_samples_leaf

    def test_non_finite_features_rejected(self):
        X = np.random.default_rng(0).normal(size=(400, 3)).astype(np.float32)
        X[::3, 0] = np.nan
        y = (X[:, 1] > 0).astype(np.uint8)
        with pytest.raises(ValueError, match="features must be finite"):
            rf.rf_train(rf.PixelDataset(X, y), XOR_HP)
        X[::3, 0] = np.inf
        with pytest.raises(ValueError, match="features must be finite"):
            rf.PixelDataset(X, y)

    def test_forest_bytes_pinned(self):
        """A fixed-seed forest on fixed data (tied and constant columns,
        noisy labels, deep trees): the digests of its serialized bytes and
        of its probabilities are those of the row-by-row split search and
        tree walk, on either lane."""
        rng = np.random.default_rng(20240607)
        X = rng.normal(size=(2000, 6)).astype(np.float32)
        X[:, 2] = np.round(X[:, 2] * 2)
        X[:, 4] = 1.5
        y = ((X[:, 0] > 0).astype(np.uint8) + (X[:, 1] > 0.5) + (X[:, 2] > 1)).astype(np.uint8)
        flip = rng.random(2000) < 0.15
        y[flip] = rng.integers(0, 4, int(flip.sum()))
        hp = rf.RfHyperparams(n_trees=6, max_depth=12, min_samples_leaf=2,
                              min_samples_split=6, features_per_split=3, seed=17)
        model = rf.rf_train(rf.PixelDataset(X, y), hp)
        assert [t.n_nodes for t in model.trees] == [317, 397, 291, 325, 343, 321]
        assert hashlib.sha256(rf.save_forest(model)).hexdigest() == \
            "77f75a826e68dafbd1f3a161fcbe15bc857083b98ba1611c39f7baee89fb1409"
        assert hashlib.sha256(model.predict_matrix(X).tobytes()).hexdigest() == \
            "94340ca632181aef3bb28b55a596985231822d75c280f999a86344f3bbbba877"

    def test_small_dataset_warns_single_leaf(self):
        X, y = xor_dataset(n=20)
        hp = rf.RfHyperparams(n_trees=2, max_depth=4, min_samples_leaf=50,
                              min_samples_split=100, seed=0)
        with pytest.warns(UserWarning, match="single leaves"):
            model = rf.rf_train(rf.PixelDataset(X, y), hp)
        assert all(t.n_nodes == 1 for t in model.trees)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError, match="min_samples_split"):
            rf.RfHyperparams(min_samples_leaf=100, min_samples_split=150)
        assert rf.RfHyperparams().k_features(11) == math.ceil(math.sqrt(11))

    @pytest.mark.parametrize("field,value", [
        ("features_per_split", 0), ("features_per_split", -1),
        ("min_samples_leaf", 0), ("min_samples_leaf", -3)])
    def test_degenerate_hyperparams_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            rf.RfHyperparams(**{field: value})

    def test_bootstrap_reaches_best_split_as_counts(self, monkeypatch):
        """The root's split search gets each drawn row once: as many rows
        as the bootstrap drew distinct ones, with counts summing to n."""
        X, y = xor_dataset(n=600)
        calls = []

        def spy(X, y, rows, counts, *args):
            calls.append((np.asarray(rows).copy(), np.asarray(counts).copy()))
            return best_split(X, y, rows, counts, *args)

        best_split = _kernels.best_split
        monkeypatch.setattr(_kernels, "best_split", spy)
        hp = rf.RfHyperparams(n_trees=1, max_depth=3, min_samples_leaf=5,
                              min_samples_split=10, seed=4)
        rf.rf_train(rf.PixelDataset(X, y), hp)
        boot = np.random.default_rng([hp.seed, 0]).integers(0, y.size, size=y.size)
        rows, counts = calls[0]
        np.testing.assert_array_equal(rows, np.unique(boot))
        assert rows.size < y.size and counts.sum() == y.size
        np.testing.assert_array_equal(counts, np.bincount(boot)[rows])


def _leaf_tree(counts):
    return rf.Tree(np.array([-1], dtype=np.int32), np.zeros(1),
                   np.array([-1], dtype=np.int32), np.array([-1], dtype=np.int32),
                   np.array([counts], dtype=np.int64))


class TestPrediction:
    def test_single_leaf_forest(self):
        model = rf.Forest([_leaf_tree([0, 0, 5, 0])], d=3)
        stack = np.zeros((3, 2, 2), dtype=np.float32)
        pmap = rf.rf_predict(model, stack)
        np.testing.assert_array_equal(pmap.probs[2], 1.0)
        np.testing.assert_array_equal(pmap.argmax_labels().codes, 2)

    def test_two_tree_tie_takes_lowest_class(self):
        model = rf.Forest([_leaf_tree([5, 0, 0, 0]), _leaf_tree([0, 5, 0, 0])],
                          d=2)
        pmap = rf.rf_predict(model, np.zeros((2, 1, 1), dtype=np.float32))
        assert pmap.probs[0, 0, 0] == pytest.approx(0.5)
        assert pmap.argmax_labels().codes[0, 0] == 0

    def test_rows_sum_to_one(self):
        X, y = xor_dataset(n=500)
        model = rf.rf_train(rf.PixelDataset(X, y), XOR_HP)
        probs = model.predict_matrix(X[:100])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_blocks_equal_predict_matrix_bytes(self, rng, monkeypatch):
        """Many blocks, the last one short, on one and two workers: the
        bytes of `predict_matrix` on the whole X."""
        X, y = xor_dataset(n=700)
        model = rf.rf_train(rf.PixelDataset(X, y), XOR_HP)
        stack = rng.uniform(-1, 1, size=(X.shape[1], 37, 29)).astype(np.float32)
        whole = model.predict_matrix(stack.reshape(X.shape[1], -1).T)
        expect = whole.T.tobytes()
        monkeypatch.setattr(rf, "PREDICT_BLOCK_ROWS", 100)      # 11 blocks, the last of 73
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)     # interleave the workers' slice writes
        try:
            for threads in ("1", "2"):
                monkeypatch.setenv("XFERKIT_THREADS", threads)
                assert rf.rf_predict(model, stack).probs.tobytes() == expect
        finally:
            sys.setswitchinterval(interval)

    def test_dimension_mismatch(self):
        model = rf.Forest([_leaf_tree([1, 0, 0, 0])], d=4)
        with pytest.raises(ValueError, match="does not match d"):
            rf.rf_predict(model, np.zeros((3, 2, 2), dtype=np.float32))


class TestSerialization:
    def test_roundtrip_bytes_and_predictions(self):
        X, y = xor_dataset(n=700)
        hp = rf.RfHyperparams(n_trees=6, max_depth=6, min_samples_leaf=5,
                              min_samples_split=10, seed=5)
        model = rf.rf_train(rf.PixelDataset(X, y), hp)
        blob = rf.save_forest(model)
        loaded = rf.load_forest(blob)
        assert rf.save_forest(loaded) == blob
        np.testing.assert_array_equal(loaded.predict_matrix(X[:50]),
                                      model.predict_matrix(X[:50]))

    def test_bad_magic_and_truncation(self):
        model = rf.Forest([_leaf_tree([1, 2, 3, 4])], d=2)
        blob = rf.save_forest(model)
        with pytest.raises(ValueError, match="unsupported format"):
            rf.load_forest(b"YYYY" + blob[4:])
        with pytest.raises(ValueError, match="corrupt file"):
            rf.load_forest(blob[:-4])

    def test_deep_chain_loads_and_saves_byte_for_byte(self):
        """A valid tree 1,500 internal nodes deep, deeper than Python's
        recursion limit: each internal node's left child is a leaf and its
        right child the next internal node."""
        depth = 1500
        leaf = struct.pack("<B4Q", 1, 1, 2, 3, 4)
        nodes = b"".join(struct.pack("<BHd", 0, i % 3, i / depth) + leaf
                         for i in range(depth)) + leaf
        blob = (struct.pack("<4sHHIH", b"XRFC", 1, 3, 1, 4)
                + struct.pack("<I", 2 * depth + 1) + nodes)
        loaded = rf.load_forest(blob)
        assert loaded.trees[0].n_nodes == 2 * depth + 1
        assert rf.save_forest(loaded) == blob

    def test_declared_node_count_is_bounded_before_allocating(self):
        """A 51-byte file that declares 10**6 nodes holds room for at most
        3: it is refused before the node arrays are allocated."""
        leaf = struct.pack("<B4Q", 1, 1, 2, 3, 4)
        blob = (struct.pack("<4sHHIH", b"XRFC", 1, 2, 1, 4)
                + struct.pack("<I", 10**6) + leaf)
        assert len(blob) == 51
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="corrupt file: more nodes declared"):
                rf.load_forest(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_json_dump_parses(self):
        import json
        model = rf.Forest([_leaf_tree([1, 0, 0, 0])], d=2)
        doc = json.loads(rf.forest_to_json(model))
        assert doc["n_trees"] == 1 and doc["d"] == 2
        assert doc["trees"][0]["counts"] == [[1, 0, 0, 0]]
