"""Spectral and morphological indices, Otsu thresholding, and priority
fusion into pseudo ground truth labels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _kernels as kernels
from .raster import (_HIST_BINS, LABEL_BUILDING, LABEL_GROUND, LABEL_TREE,
                     LABEL_VOID, LABEL_WATER, BandRole, LabelMap, MultibandRaster,
                     height_role)


class IndexKind(Enum):
    NDVI = "ndvi"
    NDWI = "ndwi"
    MBIH = "mbih"


@dataclass
class IndexRaster:
    """Per-pixel index values with a validity mask.

    NDVI/NDWI live in [-1, 1] before clipping and [0, 1] after; MBIH is
    non-negative and in meters.
    """

    values: np.ndarray
    valid: np.ndarray
    kind: IndexKind

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.values.shape != self.valid.shape or self.values.ndim != 2:
            raise ValueError("values and valid mask must be matching 2D arrays")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def clipped(self) -> "IndexRaster":
        """Negative values set to 0 (the rule applied before Otsu and fusion)."""
        return IndexRaster(np.maximum(self.values, 0.0), self.valid, self.kind)

    def valid_values(self) -> np.ndarray:
        return self.values[self.valid]


@dataclass(frozen=True)
class ThresholdSet:
    """Decision thresholds for the index fusion; frozen, since the reports
    `transfer.assess_scenes` makes for one scene share one set."""

    t_ndvi: float
    t_ndwi: float
    t_mbih: float = 2.0
    source: str = "otsu"

    def __post_init__(self):
        if not 0.0 <= self.t_ndvi <= 1.0 or not 0.0 <= self.t_ndwi <= 1.0:
            raise ValueError("NDVI/NDWI thresholds must lie in [0, 1]")
        if not 0 < self.t_mbih < math.inf:     # false for NaN too
            raise ValueError("height threshold must be finite and positive")
        if self.source not in ("otsu", "manual"):
            raise ValueError("threshold source must be 'otsu' or 'manual'")


class OtsuResult(NamedTuple):
    threshold: float
    degenerate: bool = False


def _normalized_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b) / (a + b) with the zero-denominator case defined as 0."""
    num = a.astype(np.float64) - b
    den = a.astype(np.float64) + b
    out = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
    return out.astype(np.float32)


def ndvi(raster: MultibandRaster) -> IndexRaster:
    """(NIR - RED) / (NIR + RED); high for vegetation."""
    nir = raster.band(BandRole.NIR)
    red = raster.band(BandRole.RED)
    valid = raster.valid_mask((BandRole.NIR, BandRole.RED))
    return IndexRaster(_normalized_difference(nir, red), valid, IndexKind.NDVI)


def ndwi(raster: MultibandRaster) -> IndexRaster:
    """(GREEN - NIR) / (GREEN + NIR); high for open water."""
    green = raster.band(BandRole.GREEN)
    nir = raster.band(BandRole.NIR)
    valid = raster.valid_mask((BandRole.GREEN, BandRole.NIR))
    return IndexRaster(_normalized_difference(green, nir), valid, IndexKind.NDWI)


def check_se_size(se_size: int) -> None:
    """The rule for the DSM top-hat's structuring element: odd and >= 3."""
    if se_size < 3 or se_size % 2 != 1:
        raise ValueError("se_size must be odd and >= 3")


def mbi_h(height: MultibandRaster, se_size: int = 63) -> IndexRaster:
    """Above-ground structure height from a height raster of the kind its
    band role names (`raster.height_role`).

    AGL values pass through unchanged. A DSM goes through top-hat by
    reconstruction: erode with the square structuring element of side
    `se_size` (odd, >= 3), reconstruct by dilation (8-connectivity) under
    the DSM, and subtract. The default 63 px (about 19.5 m at 0.31 m GSD)
    exceeds typical building widths, so buildings drop out.
    """
    if height.normalized:
        raise ValueError("height must be in meters, not normalized")
    check_se_size(se_size)
    valid = height.valid_mask()
    if height_role(height) == BandRole.AGL:
        return IndexRaster(height.band(BandRole.AGL).astype(np.float32), valid, IndexKind.MBIH)
    dsm = height.band(BandRole.DSM).astype(np.float32)
    if not valid.all():
        # holes filled with the valid minimum: reconstruction treats them
        # as ground, and they are masked invalid in the output anyway
        if not valid.any():
            raise ValueError("no valid samples")
        dsm = np.where(valid, dsm, dsm[valid].min())
    marker = kernels.grey_erode_square(dsm, se_size)
    recon = kernels.reconstruct_dilation(marker, dsm)
    return IndexRaster(dsm - recon, valid, IndexKind.MBIH)


def otsu_threshold(values, bins: int = 256) -> OtsuResult:
    """Bin-edge threshold maximizing between-class variance.

    Samples must be pre-clipped to [0, 1]. The argmax over the candidate
    bin edges is evaluated in exact integer arithmetic (counts and bin
    indices are integers and the variance ranking is invariant to affine
    transforms of the bin values), so the result always equals the
    exhaustive maximizer; ties go to the lower threshold. If all samples
    fall into one bin the result is that bin's upper edge, flagged
    degenerate.
    """
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("no valid samples")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):     # false for NaN too
        raise ValueError("samples must lie in [0, 1]; clip negatives first")
    if not 2 <= bins <= _HIST_BINS:
        raise ValueError(f"need 2 to {_HIST_BINS} bins, not {bins}")
    hist = np.bincount((vals * bins).astype(np.int64), minlength=bins + 1)
    hist[bins - 1] += hist[bins]      # a sample of 1.0 belongs to the top bin
    hist = hist[:bins]
    occupied = np.nonzero(hist)[0]
    if occupied.size == 1:
        return OtsuResult(float((occupied[0] + 1) / bins), degenerate=True)

    counts = [int(c) for c in hist]
    n = sum(counts)
    s = sum(i * c for i, c in enumerate(counts))
    best_k = -1
    best_num = 0      # (s0*n - s*w0)^2  for the best candidate
    best_den = 1      # w0*(n - w0)
    w0 = 0
    s0 = 0
    for k in range(bins - 1):
        w0 += counts[k]
        s0 += k * counts[k]
        if w0 == 0:
            continue
        if w0 == n:
            break
        num = s0 * n - s * w0
        num *= num
        den = w0 * (n - w0)
        # compare num/den > best_num/best_den exactly in integers
        if best_k < 0 or num * best_den > best_num * den:
            best_k = k
            best_num = num
            best_den = den
    return OtsuResult(float((best_k + 1) / bins), degenerate=False)


def fuse_pseudo_labels(ndvi_r: IndexRaster, ndwi_r: IndexRaster,
                       mbih_r: IndexRaster | None,
                       thresholds: ThresholdSet) -> LabelMap:
    """First matching rule wins, in priority order:

    1. ndvi > t_ndvi            -> tree
    2. mbih present and > t_mbih -> building
    3. ndwi > t_ndwi            -> water
    4. otherwise                -> ground

    Pixels invalid in any supplied index become void. NDVI/NDWI are
    expected pre-clipped to [0, 1].
    """
    if ndvi_r.shape != ndwi_r.shape or (mbih_r is not None and
                                        mbih_r.shape != ndvi_r.shape):
        raise ValueError("index rasters must share dimensions")
    valid = ndvi_r.valid & ndwi_r.valid
    if mbih_r is not None:
        valid = valid & mbih_r.valid
    out = np.full(ndvi_r.shape, LABEL_GROUND, dtype=np.uint8)
    water = ndwi_r.values > thresholds.t_ndwi
    out[water] = LABEL_WATER
    if mbih_r is not None:
        building = mbih_r.values > thresholds.t_mbih
        out[building] = LABEL_BUILDING
    tree = ndvi_r.values > thresholds.t_ndvi
    out[tree] = LABEL_TREE
    out[~valid] = LABEL_VOID
    return LabelMap(out)
