"""Transferability orchestration: pseudo labels, assess, ranking,
correlation, tiled prediction."""

import hashlib
import json

import numpy as np
import pytest

from xferkit import _kernels, synth, transfer, xras
from xferkit import forest as rf
from xferkit.raster import (LABEL_BUILDING, LABEL_VOID, BandRole, LabelMap,
                            MultibandRaster, ProbabilityMap)


@pytest.fixture(scope="module")
def scene():
    spec = synth.DomainSpec(width=96, height=96, seed=3)
    return synth.generate_scene(spec, 0)


class TestPseudoLabels:
    def test_requires_nir(self):
        data = np.zeros((3, 4, 4), dtype=np.float32)
        raster = MultibandRaster(
            data, (BandRole.RED, BandRole.GREEN, BandRole.BLUE))
        with pytest.raises(ValueError, match="NIR"):
            transfer.pseudo_labels(raster)

    def test_agrees_with_synthetic_ground_truth(self, scene):
        rgbn, agl, gt = scene
        result = transfer.pseudo_labels(rgbn, agl)
        agree = (result.labels.codes == gt.codes).mean()
        assert agree > 0.9
        assert result.thresholds.source == "otsu"

    def test_no_height_never_creates_building(self, scene):
        rgbn, agl, _ = scene
        with_h = transfer.pseudo_labels(rgbn, agl).labels
        without = transfer.pseudo_labels(rgbn, None).labels
        assert not np.any(without.codes == LABEL_BUILDING)
        was_building = with_h.codes == LABEL_BUILDING
        np.testing.assert_array_equal(with_h.codes[~was_building],
                                      without.codes[~was_building])


class TestAssess:
    def test_self_agreement_is_one(self, scene):
        rgbn, agl, _ = scene
        pseudo = transfer.pseudo_labels(rgbn, agl).labels
        report = transfer.assess(pseudo, rgbn, agl, model_id="m",
                                 domain_id="d", timestamp="t0")
        assert report.index_miou == 1.0

    def test_cyclic_shift_scores_zero(self, scene):
        rgbn, agl, _ = scene
        pseudo = transfer.pseudo_labels(rgbn, agl).labels
        rotated = pseudo.codes.copy()
        live = rotated != LABEL_VOID
        rotated[live] = (rotated[live] + 1) % 4
        report = transfer.assess(LabelMap(rotated), rgbn, agl, model_id="m",
                                 domain_id="d", timestamp="t0")
        assert report.index_miou == 0.0

    def test_single_changed_pixel_drops_below_one(self, scene):
        rgbn, agl, _ = scene
        pseudo = transfer.pseudo_labels(rgbn, agl).labels
        tweaked = pseudo.codes.copy()
        live = np.argwhere(tweaked != LABEL_VOID)[0]
        tweaked[tuple(live)] = (tweaked[tuple(live)] + 1) % 4
        report = transfer.assess(LabelMap(tweaked), rgbn, agl, model_id="m",
                                 domain_id="d", timestamp="t0")
        assert report.index_miou < 1.0

    def test_deterministic_and_digest_tracks_config(self, scene):
        rgbn, agl, gt = scene
        pred = transfer.pseudo_labels(rgbn, agl).labels
        kw = dict(model_id="m", domain_id="d", gt=gt, timestamp="t0")
        one = transfer.assess(pred, rgbn, agl, **kw)
        two = transfer.assess(pred, rgbn, agl, **kw)
        assert xras.canonical_json(one) == xras.canonical_json(two)
        other = transfer.assess(pred, rgbn, agl,
                                config=transfer.PseudoTruthConfig(se_size=31), **kw)
        assert other.config_digest != one.config_digest

    def test_gt_fields_present_iff_supplied(self, scene):
        rgbn, agl, gt = scene
        pred = transfer.pseudo_labels(rgbn, agl).labels
        bare = transfer.assess(pred, rgbn, agl, model_id="m", domain_id="d",
                               timestamp="t0")
        rich = transfer.assess(pred, rgbn, agl, model_id="m", domain_id="d",
                               gt=gt, timestamp="t0")
        bare_doc = json.loads(xras.canonical_json(bare))
        rich_doc = json.loads(xras.canonical_json(rich))
        assert "gt_miou" not in bare_doc
        assert "mean_confidence" not in bare_doc
        assert "gt_miou" in rich_doc
        roundtrip = xras.read_record(transfer.TransferReport, rich_doc)
        assert roundtrip.gt_miou == pytest.approx(rich.gt_miou, abs=1e-6)

    def test_multi_scene_pooling(self, scene):
        rgbn, agl, gt = scene
        pseudo = transfer.pseudo_labels(rgbn, agl).labels
        scenes = [transfer.Scene(rgbn, agl, gt)] * 2
        [report] = transfer.assess_scenes(
            scenes, {"m": [transfer.Prediction(pseudo)] * 2}, domain_id="d",
            timestamp="t0")
        assert report.index_miou == 1.0
        assert len(report.thresholds) == 2
        assert report.per_scene_index_miou == (1.0, 1.0)

    def test_misregistered_prediction_rejected(self, scene):
        rgbn, agl, _ = scene
        small = LabelMap(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="co-registered"):
            transfer.assess(small, rgbn, agl, model_id="m", domain_id="d")

    def test_misregistered_probabilities_rejected(self, scene):
        rgbn, agl, gt = scene
        small = ProbabilityMap(np.full((4, 8, 8), 0.25, dtype=np.float32),
                               np.ones((8, 8), dtype=np.int32))
        with pytest.raises(ValueError, match="co-registered"):
            transfer.assess(gt, rgbn, agl, model_id="m", domain_id="d",
                            probs=small)

    @pytest.mark.xfail(strict=True, reason="no absent-class guard yet (ROADMAP item 3)")
    def test_absent_class_does_not_cost_a_perfect_prediction(self):
        """A scene with no water: Otsu still cuts NDWI, labels a few pixels
        water, and the ground truth itself scores index mIoU 0.7458, water
        IoU 0.0, against a gt mIoU of 1.0. Remove the marker with the guard."""
        rgbn, agl, gt = synth.generate_scene(synth.DomainSpec(seed=1, water_fraction=0.0), 0)
        report = transfer.assess(gt, rgbn, agl, model_id="gt", domain_id="d", gt=gt,
                                 timestamp="t0")
        assert report.gt_miou == 1.0
        assert report.index_miou >= 0.99


def _noisy(gt, rate, seed, with_probs=True):
    rng = np.random.default_rng(seed)
    wrong = (gt.codes + rng.integers(1, 4, gt.codes.shape)) % 4
    codes = np.where(rng.random(gt.codes.shape) < rate, wrong,
                     gt.codes).astype(np.uint8)
    codes[gt.codes == LABEL_VOID] = LABEL_VOID
    if not with_probs:
        return transfer.Prediction(LabelMap(codes))
    conf = 0.55 + 0.4 * rng.random(codes.shape)
    onehot = np.arange(4)[:, None, None] == codes[None]
    probs = np.where(onehot, conf, (1.0 - conf) / 3.0).astype(np.float32)
    probs[:, codes == LABEL_VOID] = 0.0         # void pixels are uncovered
    return transfer.Prediction(LabelMap(codes), ProbabilityMap(probs))


class TestAssessScenes:
    """Several models over several scenes of one domain in one call."""

    @pytest.fixture(scope="class")
    def domain(self):
        spec = synth.DomainSpec(width=64, height=56, seed=8)
        triples = synth.generate_domain(spec, 2)
        # the second scene has no ground truth
        scenes = [transfer.Scene(rgbn, agl, gt if i == 0 else None)
                  for i, (rgbn, agl, gt) in enumerate(triples)]
        predictions = {
            f"m{m}": [_noisy(gt, 0.1 + 0.2 * m, 10 * m + i, with_probs=m != 2)
                      for i, (_, _, gt) in enumerate(triples)]
            for m in range(3)
        }
        return scenes, predictions

    def test_one_pseudo_truth_per_scene(self, domain, monkeypatch):
        scenes, predictions = domain
        calls = []
        real = transfer.pseudo_labels

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, "pseudo_labels", counted)
        reports = transfer.assess_scenes(scenes, predictions, domain_id="d",
                                         timestamp="t0")
        assert len(calls) == len(scenes) == 2
        assert [r.model_id for r in reports] == list(predictions)

    def test_each_report_equals_its_single_model_call(self, domain):
        scenes, predictions = domain
        kw = dict(domain_id="d", timestamp="t0")
        reports = transfer.assess_scenes(scenes, predictions, **kw)
        assert len(reports) == 3
        for (model_id, preds), report in zip(predictions.items(), reports):
            [alone] = transfer.assess_scenes(scenes, {model_id: preds}, **kw)
            assert xras.canonical_json(report) == xras.canonical_json(alone)
            assert report == alone
        assert reports[0].per_scene_gt_miou is not None
        assert len(reports[0].per_scene_gt_miou) == 1
        assert reports[2].mean_confidence is None

    def test_mixed_agl_and_dsm_heights_refused(self, domain):
        scenes, predictions = domain
        dsm = MultibandRaster(scenes[1].height.data, (BandRole.DSM,))
        mixed = [scenes[0], scenes[1]._replace(height=dsm)]
        with pytest.raises(ValueError, match="mix AGL and DSM"):
            transfer.assess_scenes(mixed, predictions, domain_id="d")

    def test_digest_reads_the_height_kind_from_the_band_role(self, domain):
        """The digest is the sha256 of the config record's fields and the
        derived keys; an AGL band makes height_is_agl true, a DSM band false."""
        scenes, predictions = domain
        config = transfer.PseudoTruthConfig(se_size=31, mbih_threshold=2.5)
        as_dsm = [s._replace(height=MultibandRaster(s.height.data, (BandRole.DSM,)))
                  for s in scenes]
        for heights, is_agl in ((scenes, True), (as_dsm, False)):
            [report] = transfer.assess_scenes(heights, {"m0": predictions["m0"]},
                                              domain_id="d", config=config)
            doc = {"se_size": 31, "mbih_threshold": 2.5, "otsu_bins": 256,
                   "height_is_agl": is_agl, "clip_negative_indices": True,
                   "domain_id": "d", "n_scenes": 2, "model_id": "m0"}
            digest = hashlib.sha256(xras.canonical_json(doc).encode()).hexdigest()
            assert report.config_digest == digest

    def test_prediction_count_must_match_scenes(self, domain):
        scenes, predictions = domain
        with pytest.raises(ValueError, match="one prediction per scene"):
            transfer.assess_scenes(scenes, {"m": predictions["m0"][:1]},
                                   domain_id="d")


class TestEvaluateGt:
    def test_identity(self):
        maps = LabelMap(np.array([[0, 1], [2, 3]], dtype=np.uint8))
        assert transfer.evaluate_gt(maps, maps).miou == 1.0

    def test_two_class_case(self):
        ref = LabelMap(np.array([[0] * 4 + [1] * 4], dtype=np.uint8))
        pred = LabelMap(np.array([[0, 0, 0, 1, 0, 1, 1, 1]], dtype=np.uint8))
        assert transfer.evaluate_gt(pred, ref).miou == pytest.approx(0.6)

    def test_all_void_reference(self):
        pred = LabelMap(np.zeros((2, 2), dtype=np.uint8))
        gt = LabelMap(np.full((2, 2), 255, dtype=np.uint8))
        with pytest.raises(ValueError, match="no scoreable classes"):
            transfer.evaluate_gt(pred, gt)


def _report(model_id, domain_id, index_miou, gt=None, conf=None):
    return transfer.TransferReport(
        model_id=model_id, domain_id=domain_id, index_miou=index_miou,
        index_miou_strict=index_miou, index_per_class_iou=(1.0, None, None, None),
        thresholds=(), valid_pixels=10, config_digest="x", timestamp="t",
        mean_confidence=conf, gt_miou=gt,
        gt_miou_strict=gt, gt_per_class_iou=None)


class TestRanking:
    def test_two_model_sort(self):
        ranking = transfer.rank_models(
            [_report("A", "d", 0.6), _report("B", "d", 0.4)])
        assert ranking.entries == [("A", 0.6, 1), ("B", 0.4, 2)]

    def test_ties_share_rank_ordered_by_id(self):
        ranking = transfer.rank_models(
            [_report("B", "d", 0.5), _report("A", "d", 0.5)])
        assert ranking.entries == [("A", 0.5, 1), ("B", 0.5, 1)]

    def test_mixed_domains_rejected(self):
        with pytest.raises(ValueError, match="domains"):
            transfer.rank_models([_report("A", "d1", 0.5),
                                  _report("B", "d2", 0.5)])

    def test_duplicate_model_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate model ids: \\['A'\\]"):
            transfer.rank_models([_report("A", "d", 0.5), _report("B", "d", 0.4),
                                  _report("A", "d", 0.3)])

    def test_confidence_kind(self):
        ranking = transfer.rank_models(
            [_report("A", "d", 0.1, conf=0.5), _report("B", "d", 0.9, conf=0.7)],
            by="confidence")
        assert [m for m, _, _ in ranking.entries] == ["B", "A"]
        with pytest.raises(ValueError, match="mean_confidence"):
            transfer.rank_models([_report("A", "d", 0.1)], by="confidence")

    def test_order_invariant_under_increasing_transform(self):
        reports = [_report(m, "d", s) for m, s in
                   (("A", 0.61), ("B", 0.22), ("C", 0.47))]
        base = [m for m, _, _ in transfer.rank_models(reports).entries]
        squeezed = [_report(r.model_id, "d", 0.1 + 0.5 * r.index_miou)
                    for r in reports]
        assert [m for m, _, _ in transfer.rank_models(squeezed).entries] == base


class TestCorrelate:
    def test_identity_r2_one(self):
        reports = [_report(f"m{i}", "d", v, gt=v, conf=0.5 + 0.01 * i)
                   for i, v in enumerate((0.2, 0.5, 0.8))]
        index_stats, conf_stats = transfer.correlate_predictors(reports)
        assert index_stats.r2 == pytest.approx(1.0)
        assert index_stats.slope == pytest.approx(1.0)

    def test_two_points_flagged_low_n(self):
        reports = [_report("a", "d", 0.2, gt=0.3, conf=0.5),
                   _report("b", "d", 0.4, gt=0.9, conf=0.6)]
        index_stats, conf_stats = transfer.correlate_predictors(reports)
        assert abs(index_stats.r) == pytest.approx(1.0)
        assert index_stats.low_n and conf_stats.low_n

    def test_needs_ground_truth(self):
        with pytest.raises(ValueError, match="ground truth"):
            transfer.correlate_predictors([_report("a", "d", 0.2)])


class TestPredictTiled:
    @pytest.fixture(scope="class")
    def fitted(self, scene):
        rgbn, agl, gt = scene
        glcm = rf.glcm_features(rgbn, rf.GlcmParams(window=5, levels=8))
        stack = rf.stack_features(rgbn, glcm, agl)
        data = rf.sample_pixels([stack], [gt], 2000, seed=4)
        hp = rf.RfHyperparams(n_trees=5, max_depth=8, min_samples_leaf=5,
                              min_samples_split=10, seed=4)
        return rf.rf_train(data, hp), stack

    def test_equals_full_image(self, fitted, monkeypatch):
        model, stack = fitted
        full = rf.rf_predict(model, stack)
        for threads in ("1", "2"):
            monkeypatch.setenv("XFERKIT_THREADS", threads)
            pmap, labels = transfer.predict_tiled(model, stack, patch_size=64,
                                                  overlap=0.5)
            assert pmap.probs.tobytes() == full.probs.tobytes()
            np.testing.assert_array_equal(labels.codes,
                                          full.argmax_labels().codes)

    def test_each_pixel_routed_once(self, fitted, monkeypatch):
        """At overlap 0.5 the windows hold 2.25x the scene's pixels; every
        tree still routes each pixel once."""
        model, stack = fitted
        rows = []
        tree_apply = _kernels.tree_apply

        def counting(*args):
            rows.append(args[-1].shape[0])
            return tree_apply(*args)

        monkeypatch.setattr(_kernels, "tree_apply", counting)
        transfer.predict_tiled(model, stack, patch_size=64, overlap=0.5)
        assert sum(rows) == model.n_trees * stack.shape[1] * stack.shape[2]
