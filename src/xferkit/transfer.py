"""Transferability assessment: pseudo-label generation, index-based
scoring of model predictions, the confidence baseline, optional
ground-truth scoring, model ranking and report emission."""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple, Sequence

import numpy as np

from . import indices as idx
from ._parallel import parallel_map
from .forest import Forest, rf_predict
from .metrics import (ConfusionMatrix, CorrelationStats, EvalResult,
                      confusion, miou, pearson, posterior_confidence_sum)
from .raster import (BandRole, LabelMap, MultibandRaster, ProbabilityMap,
                     extract_patch, merge_probability_patches, plan_tiles)
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


class SceneInputs(NamedTuple):
    """One scene of a domain: the imagery, the model's prediction, and
    optional height, probabilities and ground truth."""

    raster: MultibandRaster
    prediction: LabelMap
    height: MultibandRaster | None = None
    probs: ProbabilityMap | None = None
    gt: LabelMap | None = None


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
        doc = {
            "model_id": self.model_id,
            "domain_id": self.domain_id,
            "index_miou": self.index_miou,
            "index_miou_strict": self.index_miou_strict,
            "index_per_class_iou": list(self.index_per_class_iou),
            "thresholds": [t.to_dict() for t in self.thresholds],
            "valid_pixels": self.valid_pixels,
            "config_digest": self.config_digest,
            "timestamp": self.timestamp,
        }
        if self.mean_confidence is not None:
            doc["mean_confidence"] = self.mean_confidence
        if self.gt_miou is not None:
            doc["gt_miou"] = self.gt_miou
            doc["gt_miou_strict"] = self.gt_miou_strict
            doc["gt_per_class_iou"] = list(self.gt_per_class_iou)
        if self.per_scene_index_miou is not None:
            doc["per_scene_index_miou"] = list(self.per_scene_index_miou)
        if self.per_scene_gt_miou is not None:
            doc["per_scene_gt_miou"] = list(self.per_scene_gt_miou)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferReport":
        return cls(
            model_id=doc["model_id"],
            domain_id=doc["domain_id"],
            index_miou=doc["index_miou"],
            index_miou_strict=doc["index_miou_strict"],
            index_per_class_iou=tuple(doc["index_per_class_iou"]),
            thresholds=tuple(idx.ThresholdSet(**t) for t in doc["thresholds"]),
            valid_pixels=doc["valid_pixels"],
            config_digest=doc["config_digest"],
            timestamp=doc["timestamp"],
            mean_confidence=doc.get("mean_confidence"),
            gt_miou=doc.get("gt_miou"),
            gt_miou_strict=doc.get("gt_miou_strict"),
            gt_per_class_iou=tuple(doc["gt_per_class_iou"])
            if "gt_per_class_iou" in doc else None,
            per_scene_index_miou=tuple(doc["per_scene_index_miou"])
            if "per_scene_index_miou" in doc else None,
            per_scene_gt_miou=tuple(doc["per_scene_gt_miou"])
            if "per_scene_gt_miou" in doc else None,
        )


@dataclass
class ModelRanking:
    entries: list[tuple[str, float, int]]       # (model_id, score, rank)
    score_kind: str


def _config_digest(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def assess_scenes(scenes: Sequence[SceneInputs], *, model_id: str,
                  domain_id: str, height_is_agl: bool = False,
                  se_size: int = 63, mbih_threshold: float = 2.0,
                  otsu_bins: int = 256,
                  timestamp: str | None = None) -> TransferReport:
    """Score a model's predictions against index-derived pseudo labels.

    Confusion matrices pool across all scenes of the domain before the
    mIoU is computed (micro-average); per-scene values are kept alongside
    when more than one scene is supplied. Deterministic: identical inputs
    and configuration give an identical report apart from the timestamp.
    """
    if not scenes:
        raise ValueError("need at least one scene")

    def one(scene: SceneInputs):
        if scene.prediction.codes.shape != (scene.raster.height, scene.raster.width):
            raise ValueError("prediction is not co-registered with the raster")
        pseudo = pseudo_labels(scene.raster, scene.height,
                               height_is_agl=height_is_agl, se_size=se_size,
                               mbih_threshold=mbih_threshold,
                               otsu_bins=otsu_bins)
        conf = confusion(scene.prediction, pseudo.labels)
        gt_conf = None
        if scene.gt is not None:
            gt_conf = confusion(scene.prediction, scene.gt)
        conf_stats = (posterior_confidence_sum(scene.probs)
                      if scene.probs is not None else None)
        return pseudo.thresholds, conf, gt_conf, conf_stats

    results = parallel_map(one, scenes)

    pooled = ConfusionMatrix.zero()
    pooled_gt = ConfusionMatrix.zero()
    any_gt = False
    conf_sum = 0.0
    conf_n = 0
    any_probs = False
    thresholds = []
    per_scene_index = []
    per_scene_gt = []
    for tset, conf, gt_conf, conf_stats in results:
        thresholds.append(tset)
        pooled = pooled + conf
        per_scene_index.append(miou(conf).miou)
        if gt_conf is not None:
            any_gt = True
            pooled_gt = pooled_gt + gt_conf
            per_scene_gt.append(miou(gt_conf).miou)
        if conf_stats is not None:
            any_probs = True
            conf_sum += conf_stats[0]
            conf_n += conf_stats[1]

    index_eval = miou(pooled)
    gt_eval = miou(pooled_gt) if any_gt else None
    mean_conf = None
    if any_probs:
        if conf_n == 0:
            raise ValueError("no valid pixels")
        mean_conf = conf_sum / conf_n

    config = {
        "model_id": model_id,
        "domain_id": domain_id,
        "height_is_agl": height_is_agl,
        "se_size": se_size,
        "mbih_threshold": mbih_threshold,
        "otsu_bins": otsu_bins,
        "clip_negative_indices": True,
        "n_scenes": len(scenes),
    }
    multi = len(scenes) > 1
    return TransferReport(
        model_id=model_id,
        domain_id=domain_id,
        index_miou=index_eval.miou,
        index_miou_strict=index_eval.miou_strict,
        index_per_class_iou=index_eval.per_class_iou,
        thresholds=tuple(thresholds),
        valid_pixels=index_eval.valid_pixels,
        config_digest=_config_digest(config),
        timestamp=timestamp if timestamp is not None
        else datetime.now(timezone.utc).isoformat(),
        mean_confidence=mean_conf,
        gt_miou=gt_eval.miou if gt_eval else None,
        gt_miou_strict=gt_eval.miou_strict if gt_eval else None,
        gt_per_class_iou=gt_eval.per_class_iou if gt_eval else None,
        per_scene_index_miou=tuple(per_scene_index) if multi else None,
        per_scene_gt_miou=tuple(per_scene_gt) if multi and any_gt else None,
    )


def assess(prediction: LabelMap, raster: MultibandRaster,
           height: MultibandRaster | None = None, *, model_id: str,
           domain_id: str, probs: ProbabilityMap | None = None,
           gt: LabelMap | None = None, height_is_agl: bool = False,
           se_size: int = 63, mbih_threshold: float = 2.0,
           otsu_bins: int = 256, timestamp: str | None = None) -> TransferReport:
    """Single-scene transferability assessment (see `assess_scenes`)."""
    return assess_scenes(
        [SceneInputs(raster, prediction, height, probs, gt)],
        model_id=model_id, domain_id=domain_id, height_is_agl=height_is_agl,
        se_size=se_size, mbih_threshold=mbih_threshold, otsu_bins=otsu_bins,
        timestamp=timestamp)


def evaluate_gt(prediction: LabelMap, gt: LabelMap) -> EvalResult:
    """Ground-truth mIoU of a prediction."""
    return miou(confusion(prediction, gt))


def rank_models(reports: Sequence[TransferReport],
                by: str = "index_miou") -> ModelRanking:
    """Descending ranking of models on one domain.

    Equal scores share the lower rank and order by model id. `by` selects
    index_miou or confidence. Each model may appear once.
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
    """Tile a (d, h, w) feature stack, predict per tile (workers capped by
    XFERKIT_THREADS), and merge by probability voting.

    For a per-pixel model this equals full-image prediction; the merge
    itself runs in canonical order, so output is bit-identical for any
    worker count or tile completion order.
    """
    features = np.asarray(features)
    d, h, w = features.shape
    plan = plan_tiles(w, h, patch_size, overlap)

    def one(window):
        patch = np.ascontiguousarray(extract_patch(features, window))
        return window, rf_predict(forest, patch).probs

    patches = parallel_map(one, plan.windows)
    return merge_probability_patches(patches, w, h)
