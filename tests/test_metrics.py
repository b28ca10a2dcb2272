"""Confusion/mIoU machinery, confidence baseline, agreement, Pearson."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_miou
from xferkit.metrics import (ConfusionMatrix, agreement_probability, confusion,
                             mean_posterior_confidence, miou, pearson)
from xferkit.raster import LabelMap, ProbabilityMap


def labelmap(rows):
    return LabelMap(np.asarray(rows, dtype=np.uint8))


class TestConfusion:
    def test_identity_is_diagonal(self):
        maps = labelmap([[0, 1], [2, 3]])
        conf = confusion(maps, maps)
        assert np.trace(conf.counts) == 4
        assert conf.counts.sum() == 4
        assert conf.valid_pixels == 4

    def test_hand_tally(self):
        ref = labelmap([[0, 1]])
        pred = labelmap([[1, 1]])
        conf = confusion(pred, ref)
        assert conf.counts[0][1] == 1
        assert conf.counts[1][1] == 1
        assert conf.valid_pixels == 2

    def test_void_excluded(self):
        ref = labelmap([[255, 255]])
        pred = labelmap([[0, 1]])
        conf = confusion(pred, ref)
        assert conf.counts.sum() == 0
        assert conf.valid_pixels == 0

    def test_transpose_property(self, rng):
        a = labelmap(rng.integers(0, 4, (16, 16)))
        b = labelmap(rng.integers(0, 4, (16, 16)))
        np.testing.assert_array_equal(confusion(a, b).counts,
                                      confusion(b, a).counts.T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            confusion(labelmap([[0]]), labelmap([[0, 1]]))

    def test_pooling_adds(self, rng):
        a1, b1 = (labelmap(rng.integers(0, 4, (8, 8))) for _ in range(2))
        a2, b2 = (labelmap(rng.integers(0, 4, (8, 8))) for _ in range(2))
        pooled = confusion(a1, b1) + confusion(a2, b2)
        both = confusion(labelmap(np.hstack([a1.codes, a2.codes])),
                         labelmap(np.hstack([b1.codes, b2.codes])))
        np.testing.assert_array_equal(pooled.counts, both.counts)


class TestMiou:
    def test_perfect_prediction(self):
        maps = labelmap([[0, 1, 2, 3]])
        result = miou(confusion(maps, maps))
        assert result.miou == 1.0
        assert result.per_class_iou == (1.0, 1.0, 1.0, 1.0)
        assert result.n_classes_scored == 4

    def test_two_class_hand_case(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 3
        counts[0, 1] = 1
        counts[1, 0] = 1
        counts[1, 1] = 3
        result = miou(ConfusionMatrix(counts))
        assert result.per_class_iou[0] == pytest.approx(0.6)
        assert result.per_class_iou[1] == pytest.approx(0.6)
        assert result.per_class_iou[2] is None
        assert result.miou == pytest.approx(0.6)
        assert result.miou_strict == pytest.approx(0.3)

    def test_absent_classes_excluded(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 10
        result = miou(ConfusionMatrix(counts))
        assert result.miou == 1.0
        assert result.n_classes_scored == 1
        assert result.per_class_iou[1:] == (None, None, None)

    def test_no_scoreable_classes(self):
        with pytest.raises(ValueError, match="no scoreable classes"):
            miou(ConfusionMatrix.zero())

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(20):
            pred = rng.integers(0, 4, (64, 64)).astype(np.uint8)
            ref = rng.integers(0, 4, (64, 64)).astype(np.uint8)
            pred[rng.uniform(size=pred.shape) < 0.1] = 255
            ref[rng.uniform(size=ref.shape) < 0.1] = 255
            got = miou(confusion(LabelMap(pred), LabelMap(ref))).miou
            assert got == pytest.approx(brute_force_miou(pred, ref), abs=1e-12)


class TestConfidence:
    def test_one_hot_is_one(self):
        probs = np.zeros((4, 2, 2), dtype=np.float32)
        probs[2] = 1.0
        pmap = ProbabilityMap(probs, np.ones((2, 2), dtype=np.int32))
        assert mean_posterior_confidence(pmap) == 1.0

    def test_uniform_is_quarter(self):
        probs = np.full((4, 3, 3), 0.25, dtype=np.float32)
        pmap = ProbabilityMap(probs, np.ones((3, 3), dtype=np.int32))
        assert mean_posterior_confidence(pmap) == 0.25

    def test_hand_mean(self):
        probs = np.zeros((4, 1, 2), dtype=np.float32)
        probs[:, 0, 0] = (0.9, 0.1, 0.0, 0.0)
        probs[:, 0, 1] = (0.5, 0.5, 0.0, 0.0)
        pmap = ProbabilityMap(probs, np.ones((1, 2), dtype=np.int32))
        assert mean_posterior_confidence(pmap) == pytest.approx(0.7)

    def test_no_valid_pixels(self):
        pmap = ProbabilityMap(np.zeros((4, 1, 1), dtype=np.float32),
                              np.zeros((1, 1), dtype=np.int32))
        with pytest.raises(ValueError, match="no valid pixels"):
            mean_posterior_confidence(pmap)


class TestAgreement:
    def test_examples(self):
        assert agreement_probability(1.0, 1.0) == 1.0
        assert agreement_probability(0.5, 0.123) == pytest.approx(0.5)
        assert agreement_probability(0.8, 0.9) == pytest.approx(0.74)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            agreement_probability(1.2, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        p = agreement_probability(a, b)
        assert p == pytest.approx(agreement_probability(b, a))
        assert 0.0 <= p <= 1.0
        if (a >= 0.5 and b >= 0.5) or (a <= 0.5 and b <= 0.5):
            assert p >= 0.5 - 1e-12

    def test_monte_carlo_single_pair(self):
        rng = np.random.default_rng(77)
        n = 100_000
        p_sup, p_index = 0.7, 0.85
        agree = ((rng.uniform(size=n) < p_sup) ==
                 (rng.uniform(size=n) < p_index)).mean()
        assert abs(agree - agreement_probability(p_sup, p_index)) < 0.01


class TestPearson:
    def test_identity_line(self):
        xs = [0.1, 0.4, 0.9]
        stats = pearson(xs, xs)
        assert stats.r == pytest.approx(1.0)
        assert stats.slope == pytest.approx(1.0)
        assert stats.intercept == pytest.approx(0.0, abs=1e-12)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 5.0]
        ys = [-x + 3 for x in xs]
        assert pearson(xs, ys).r == pytest.approx(-1.0)

    def test_hand_case(self):
        stats = pearson([1, 2, 3], [2, 2, 4])
        assert stats.r == pytest.approx(np.sqrt(3) / 2)
        assert stats.r2 == pytest.approx(stats.r * stats.r, abs=1e-12)
        assert stats.n == 3

    def test_affine_invariance(self, rng):
        xs = rng.uniform(0, 1, 12)
        ys = rng.uniform(0, 1, 12)
        base = pearson(xs, ys)
        scaled = pearson(3.0 * xs + 0.7, ys)
        assert scaled.r == pytest.approx(base.r, abs=1e-12)
        ranking = np.argsort(xs)
        np.testing.assert_array_equal(ranking, np.argsort(3.0 * xs + 0.7))

    def test_errors(self):
        with pytest.raises(ValueError, match="correlation undefined"):
            pearson([1.0], [2.0])
        with pytest.raises(ValueError, match="correlation undefined"):
            pearson([1.0, 1.0], [2.0, 3.0])
