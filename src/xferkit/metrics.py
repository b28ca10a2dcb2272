"""Confusion matrices, mean IoU, the posterior-confidence baseline,
agreement probability, and correlation statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .raster import N_CLASSES, LabelMap, ProbabilityMap


@dataclass
class ConfusionMatrix:
    """counts[r][p] = pixels with reference class r predicted as p.

    Void pixels (in either map) are never tallied. Matrices over the same
    class set add, which is how per-domain scores pool across scenes.
    """

    counts: np.ndarray
    valid_pixels: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError("confusion matrix must be 4x4")
        if int(self.counts.sum()) != self.valid_pixels:
            raise ValueError("valid_pixels does not match the tally")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts,
                               self.valid_pixels + other.valid_pixels)

    @classmethod
    def zero(cls) -> "ConfusionMatrix":
        return cls(np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64), 0)


@dataclass
class EvalResult:
    """Per-class IoU (None where the class is absent from both maps) and
    the mean over defined classes; `miou_strict` divides by all 4 classes
    instead."""

    per_class_iou: tuple[float | None, ...]
    miou: float
    miou_strict: float
    n_classes_scored: int
    valid_pixels: int


@dataclass
class CorrelationStats:
    r: float
    r2: float
    slope: float
    intercept: float
    n: int

    @property
    def low_n(self) -> bool:
        return self.n < 3


def confusion(pred: LabelMap, ref: LabelMap) -> ConfusionMatrix:
    """Tally all pixels where both codes are in 0..3."""
    if pred.codes.shape != ref.codes.shape:
        raise ValueError("prediction and reference dimensions differ")
    keep = (pred.codes < N_CLASSES) & (ref.codes < N_CLASSES)
    # uint8 pair codes: exact where both are classes, the rest is dropped
    pairs = ref.codes * np.uint8(N_CLASSES) + pred.codes
    counts = np.bincount(pairs[keep], minlength=N_CLASSES * N_CLASSES)
    counts = counts.reshape(N_CLASSES, N_CLASSES)
    return ConfusionMatrix(counts, int(keep.sum()))


def miou(conf: ConfusionMatrix) -> EvalResult:
    """Mean intersection-over-union from a confusion matrix.

    IoU_i = diag_i / (row_i + col_i - diag_i). Classes absent from both
    maps (zero denominator) are undefined and excluded from the mean;
    the strict variant keeps the 4-class divisor.
    """
    counts = conf.counts
    diag = np.diag(counts).astype(np.float64)
    denom = counts.sum(axis=1) + counts.sum(axis=0) - np.diag(counts)
    defined = denom > 0
    if not defined.any():
        raise ValueError("no scoreable classes")
    iou = np.zeros(N_CLASSES, dtype=np.float64)
    iou[defined] = diag[defined] / denom[defined]
    per_class = tuple(float(iou[i]) if defined[i] else None
                      for i in range(N_CLASSES))
    return EvalResult(
        per_class_iou=per_class,
        miou=float(iou[defined].mean()),
        miou_strict=float(iou[defined].sum() / N_CLASSES),
        n_classes_scored=int(defined.sum()),
        valid_pixels=conf.valid_pixels,
    )


def posterior_confidence_sum(probs: ProbabilityMap) -> tuple[float, int]:
    """Sum over covered pixels of the per-pixel maximum class probability, and their count."""
    return (float(probs.probs.max(axis=0)[probs.weight].sum(dtype=np.float64)),
            int(probs.weight.sum()))


def mean_posterior_confidence(probs: ProbabilityMap) -> float:
    """Mean over covered pixels of the per-pixel maximum class probability."""
    total, n = posterior_confidence_sum(probs)
    if n == 0:
        raise ValueError("no valid pixels")
    return total / n


def agreement_probability(p_sup: float, p_index: float) -> float:
    """Probability that two independent binary predictors agree:
    p_sup*p_index + (1-p_sup)*(1-p_index).

    When both predictors beat a coin flip, the both-wrong term stays below
    0.25 and the agreement rate grows with the supervised predictor's
    accuracy. That is the rationale for reading agreement against an
    index-derived predictor as a stand-in for accuracy on an unlabeled
    domain; the error of the reading shrinks as the index predictor
    approaches perfect. No operation here claims to *compute* the
    supervised accuracy; see the Monte-Carlo checks in the tests.
    """
    for name, p in (("p_sup", p_sup), ("p_index", p_index)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1]")
    return p_sup * p_index + (1.0 - p_sup) * (1.0 - p_index)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> CorrelationStats:
    """Pearson correlation and the ordinary least-squares line of y on x."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be equal-length vectors")
    n = x.size
    if n < 2:
        raise ValueError("correlation undefined: fewer than 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    var_x = float(xc @ xc)
    var_y = float(yc @ yc)
    if var_x == 0.0 or var_y == 0.0:
        raise ValueError("correlation undefined: zero variance")
    cov = float(xc @ yc)
    r = cov / np.sqrt(var_x * var_y)
    slope = cov / var_x
    intercept = float(y.mean() - slope * x.mean())
    return CorrelationStats(r=float(r), r2=float(r * r), slope=float(slope),
                            intercept=intercept, n=int(n))
