"""Transferability assessment: pseudo-label generation, index-based
scoring of model predictions, the confidence baseline, optional
ground-truth scoring, model ranking and report emission."""

from __future__ import annotations

import hashlib
import operator
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from functools import reduce
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import indices as idx
from ._parallel import parallel_map
from .forest import Forest, rf_predict
from .metrics import (ConfusionMatrix, CorrelationStats, EvalResult,
                      confusion, miou, pearson, posterior_confidence_sum)
from .raster import (N_CLASSES, BandRole, LabelMap, MultibandRaster, ProbabilityMap,
                     Window, extract_patch, plan_tiles)
from .raster import merge_probability_patches  # noqa: F401  (perfbench wraps it at this name)
from .xras import canonical_json


class PseudoLabelResult(NamedTuple):
    labels: LabelMap
    thresholds: idx.ThresholdSet
    ndvi: idx.IndexRaster
    ndwi: idx.IndexRaster
    mbih: idx.IndexRaster | None


def pseudo_labels(raster: MultibandRaster,
                  height: MultibandRaster | None = None, *,
                  height_is_agl: bool = False,
                  se_size: int = 63,
                  mbih_threshold: float = 2.0,
                  otsu_bins: int = 256) -> PseudoLabelResult:
    """Index-derived pseudo ground truth for one scene.

    NDVI/NDWI are clipped at 0 and thresholded by Otsu over the scene's
    valid pixels; the height rule (threshold in meters) applies only when
    a height raster is supplied, so scenes without height never produce
    building pixels.
    """
    if not raster.has_band(BandRole.NIR):
        raise ValueError("index-based assessment requires a NIR band")
    ndvi_r = idx.ndvi(raster).clipped()
    ndwi_r = idx.ndwi(raster).clipped()
    t_ndvi = idx.otsu_threshold(ndvi_r.valid_values(), bins=otsu_bins)
    t_ndwi = idx.otsu_threshold(ndwi_r.valid_values(), bins=otsu_bins)
    mbih_r = None
    if height is not None:
        mbih_r = idx.mbi_h(height, idx.MorphParams(se_size=se_size),
                           height_is_agl=height_is_agl)
    thresholds = idx.ThresholdSet(t_ndvi.threshold, t_ndwi.threshold,
                                  mbih_threshold, source="otsu")
    labels = idx.fuse_pseudo_labels(ndvi_r, ndwi_r, mbih_r, thresholds)
    return PseudoLabelResult(labels, thresholds, ndvi_r, ndwi_r, mbih_r)


class Scene(NamedTuple):
    """One scene of a domain: the imagery, with optional height and ground
    truth. Its pseudo truth depends on nothing else."""

    raster: MultibandRaster
    height: MultibandRaster | None = None
    gt: LabelMap | None = None


class Prediction(NamedTuple):
    """One model's output on one scene, with optional probabilities."""

    labels: LabelMap
    probs: ProbabilityMap | None = None


@dataclass
class TransferReport:
    """Per (model, domain) record of the transferability predictors."""

    model_id: str
    domain_id: str
    index_miou: float
    index_miou_strict: float
    index_per_class_iou: tuple[float | None, ...]
    thresholds: tuple[idx.ThresholdSet, ...]        # one per scene
    valid_pixels: int
    config_digest: str
    timestamp: str
    mean_confidence: float | None = None
    gt_miou: float | None = None
    gt_miou_strict: float | None = None
    gt_per_class_iou: tuple[float | None, ...] | None = None
    per_scene_index_miou: tuple[float, ...] | None = None
    per_scene_gt_miou: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        """Fields in declaration order; None fields are omitted and tuples
        become lists."""
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "thresholds":
                value = [t.to_dict() for t in value]
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferReport":
        """Inverse of `to_dict`; a missing required key raises KeyError."""
        kw = {f.name: doc[f.name] for f in fields(cls)
              if f.name in doc or f.default is MISSING}
        for name, value in kw.items():
            if name == "thresholds":
                kw[name] = tuple(idx.ThresholdSet(**t) for t in value)
            elif isinstance(value, list):
                kw[name] = tuple(value)
        return cls(**kw)


@dataclass
class ModelRanking:
    entries: list[tuple[str, float, int]]       # (model_id, score, rank)
    score_kind: str


def assess_scenes(scenes: Sequence[Scene],
                  predictions: Mapping[str, Sequence[Prediction]], *,
                  domain_id: str, height_is_agl: bool = False,
                  se_size: int = 63, mbih_threshold: float = 2.0,
                  otsu_bins: int = 256,
                  timestamp: str | None = None) -> list[TransferReport]:
    """Score every model's predictions on a domain against index-derived
    pseudo labels: one report per model, in mapping order.

    `predictions` maps each model id to one prediction per scene. Each
    scene's pseudo truth is built once and shared by all models.
    Confusion matrices pool across all scenes of the domain before the
    mIoU is computed (micro-average); per-scene values are kept alongside
    when more than one scene is supplied. Deterministic: identical inputs
    and configuration give identical reports apart from the timestamp.
    """
    if not scenes:
        raise ValueError("need at least one scene")
    for preds in predictions.values():
        if len(preds) != len(scenes):
            raise ValueError("need one prediction per scene for every model")
        for scene, pred in zip(scenes, preds):
            shape = (scene.raster.height, scene.raster.width)
            if pred.labels.codes.shape != shape or (
                    pred.probs is not None
                    and (pred.probs.height, pred.probs.width) != shape):
                raise ValueError("prediction is not co-registered with the raster")

    def truth(scene: Scene):
        pseudo = pseudo_labels(scene.raster, scene.height,
                               height_is_agl=height_is_agl, se_size=se_size,
                               mbih_threshold=mbih_threshold,
                               otsu_bins=otsu_bins)
        return pseudo.labels, pseudo.thresholds

    truths, thresholds = zip(*parallel_map(truth, scenes))
    config = {
        "domain_id": domain_id,
        "height_is_agl": height_is_agl,
        "se_size": se_size,
        "mbih_threshold": mbih_threshold,
        "otsu_bins": otsu_bins,
        "clip_negative_indices": True,
        "n_scenes": len(scenes),
    }
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    multi = len(scenes) > 1

    def report(model_id: str, preds: Sequence[Prediction]) -> TransferReport:
        confs = [confusion(p.labels, t) for p, t in zip(preds, truths)]
        gt_confs = [confusion(p.labels, s.gt) for p, s in zip(preds, scenes)
                    if s.gt is not None]
        sums = [posterior_confidence_sum(p.probs) for p in preds
                if p.probs is not None]
        index_eval = miou(sum(confs, ConfusionMatrix.zero()))
        gt_eval = miou(sum(gt_confs, ConfusionMatrix.zero())) if gt_confs else None
        mean_conf = None
        if sums:
            n = sum(k for _, k in sums)
            if n == 0:
                raise ValueError("no valid pixels")
            # a left fold from 0.0: `sum` of floats is compensated from Python 3.12
            mean_conf = reduce(operator.add, (s for s, _ in sums), 0.0) / n
        return TransferReport(
            model_id=model_id,
            domain_id=domain_id,
            index_miou=index_eval.miou,
            index_miou_strict=index_eval.miou_strict,
            index_per_class_iou=index_eval.per_class_iou,
            thresholds=thresholds,
            valid_pixels=index_eval.valid_pixels,
            config_digest=hashlib.sha256(canonical_json(
                {**config, "model_id": model_id}).encode()).hexdigest(),
            timestamp=timestamp,
            mean_confidence=mean_conf,
            gt_miou=gt_eval.miou if gt_eval else None,
            gt_miou_strict=gt_eval.miou_strict if gt_eval else None,
            gt_per_class_iou=gt_eval.per_class_iou if gt_eval else None,
            per_scene_index_miou=tuple(miou(c).miou for c in confs) if multi else None,
            per_scene_gt_miou=tuple(miou(c).miou for c in gt_confs)
            if multi and gt_confs else None,
        )

    return [report(model_id, preds) for model_id, preds in predictions.items()]


def assess(prediction: LabelMap, raster: MultibandRaster,
           height: MultibandRaster | None = None, *, model_id: str,
           domain_id: str, probs: ProbabilityMap | None = None,
           gt: LabelMap | None = None, height_is_agl: bool = False,
           se_size: int = 63, mbih_threshold: float = 2.0,
           otsu_bins: int = 256, timestamp: str | None = None) -> TransferReport:
    """Single-scene, single-model transferability assessment (see
    `assess_scenes`)."""
    [report] = assess_scenes(
        [Scene(raster, height, gt)], {model_id: [Prediction(prediction, probs)]},
        domain_id=domain_id, height_is_agl=height_is_agl, se_size=se_size,
        mbih_threshold=mbih_threshold, otsu_bins=otsu_bins, timestamp=timestamp)
    return report


def evaluate_gt(prediction: LabelMap, gt: LabelMap) -> EvalResult:
    """Ground-truth mIoU of a prediction."""
    return miou(confusion(prediction, gt))


def rank_models(reports: Sequence[TransferReport],
                by: str = "index_miou") -> ModelRanking:
    """Descending ranking of models on one domain.

    Equal scores share the lower rank and order by model id. Scores are
    compared as given: reports read from files (`TransferReport.from_dict`)
    carry the 6 significant digits that `canonical_json` writes, so scores
    that agree to 6 digits tie there, while reports held in memory compare
    unrounded. `by` selects index_miou or confidence. Each model may
    appear once.
    """
    if not reports:
        raise ValueError("no reports to rank")
    domains = {r.domain_id for r in reports}
    if len(domains) > 1:
        raise ValueError(f"reports span multiple domains: {sorted(domains)}")
    dupes = sorted(m for m, n in Counter(r.model_id for r in reports).items()
                   if n > 1)
    if dupes:
        raise ValueError(f"duplicate model ids: {dupes}")
    if by == "index_miou":
        scores = [(r.model_id, r.index_miou) for r in reports]
    elif by == "confidence":
        if any(r.mean_confidence is None for r in reports):
            raise ValueError("confidence ranking needs mean_confidence in every report")
        scores = [(r.model_id, r.mean_confidence) for r in reports]
    else:
        raise ValueError("score kind must be 'index_miou' or 'confidence'")
    scores.sort(key=lambda item: (-item[1], item[0]))
    entries = []
    for pos, (model_id, score) in enumerate(scores):
        if pos > 0 and score == entries[-1][1]:
            rank = entries[-1][2]
        else:
            rank = pos + 1
        entries.append((model_id, float(score), rank))
    return ModelRanking(entries, by)


def correlate_predictors(reports: Sequence[TransferReport]
                         ) -> tuple[CorrelationStats, CorrelationStats]:
    """Pearson statistics of each predictor against ground-truth mIoU:
    (index-based mIoU, mean posterior confidence)."""
    usable = [r for r in reports if r.gt_miou is not None]
    if len(usable) < 2:
        raise ValueError("need at least 2 reports with ground truth")
    gt = [r.gt_miou for r in usable]
    index_stats = pearson([r.index_miou for r in usable], gt)
    with_conf = [r for r in usable if r.mean_confidence is not None]
    if len(with_conf) < 2:
        raise ValueError("need at least 2 reports with mean_confidence")
    conf_stats = pearson([r.mean_confidence for r in with_conf],
                         [r.gt_miou for r in with_conf])
    return index_stats, conf_stats


def predict_tiled(forest: Forest, features: np.ndarray, patch_size: int = 512,
                  overlap: float = 0.5) -> tuple[ProbabilityMap, LabelMap]:
    """Predict a (d, h, w) feature stack tile by tile (workers capped by
    XFERKIT_THREADS), as the probability-voting merge of the overlapping
    windows of `plan_tiles(w, h, patch_size, overlap)` would.

    The forest is per-pixel, so every window covering a pixel gives it the
    same float32 probabilities, and the merge's float64 mean of k < 2^29
    equal float32 values is that value exactly. So each pixel is predicted
    once, on a partition of the scene into tiles of at most `patch_size`,
    written in place: the result equals full-image prediction bit for bit,
    for any worker count or tile completion order. `weight` is the plan's
    coverage count, the number of its windows that cover each pixel.
    """
    features = np.asarray(features)
    d, h, w = features.shape
    plan = plan_tiles(w, h, patch_size, overlap)
    weight = np.zeros((h, w), dtype=np.int32)
    for window in plan.windows:
        extract_patch(weight, window)[...] += 1
    probs = np.empty((N_CLASSES, h, w), dtype=np.float32)

    def one(tile: Window) -> None:
        patch = np.ascontiguousarray(extract_patch(features, tile))
        extract_patch(probs, tile)[...] = rf_predict(forest, patch).probs

    parallel_map(one, [Window(x, y, min(patch_size, w - x), min(patch_size, h - y))
                       for y in range(0, h, patch_size) for x in range(0, w, patch_size)])
    pmap = ProbabilityMap(probs, weight)
    return pmap, pmap.argmax_labels()
