"""Core raster types, dataset-level normalization, class-schema remapping,
tiling, and overlap-voting merge."""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

N_CLASSES = 4
LABEL_GROUND = 0
LABEL_TREE = 1
LABEL_BUILDING = 2
LABEL_WATER = 3
LABEL_VOID = 255
VALID_LABEL_CODES = (0, 1, 2, 3, 255)

# nodata sentinel used for float32 outputs of normalization (outside [0, 1])
NORMALIZED_NODATA = -1.0


class Dtype(IntEnum):
    """Sample types supported by the toolkit and the XRAS container."""

    U8 = 0
    U16 = 1
    F32 = 2

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype({Dtype.U8: np.uint8, Dtype.U16: np.uint16,
                         Dtype.F32: np.float32}[self])

    @classmethod
    def from_numpy(cls, dt) -> "Dtype":
        dt = np.dtype(dt)
        for member in cls:
            if member.numpy_dtype == dt:
                return member
        raise ValueError(f"unsupported sample dtype: {dt}")


class BandRole(IntEnum):
    OTHER = 0
    RED = 1
    GREEN = 2
    BLUE = 3
    NIR = 4
    DSM = 5
    AGL = 6


_ROLE_ALIASES = {**{role.name.lower(): role for role in BandRole},
                 "r": BandRole.RED, "g": BandRole.GREEN, "b": BandRole.BLUE}


def parse_role(name: str) -> BandRole:
    try:
        return _ROLE_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown band role: {name!r}") from None


def height_role(height: MultibandRaster) -> BandRole:
    """A height raster's kind, and the band it is read by: AGL if it has one, else DSM."""
    return BandRole.AGL if height.has_band(BandRole.AGL) else BandRole.DSM


@dataclass
class MultibandRaster:
    """Band-sequential numeric image with nodata semantics.

    `data` is (bands, height, width), C order. Height bands (DSM/AGL)
    carry meters while `normalized` is False.
    """

    data: np.ndarray
    band_roles: tuple[BandRole, ...]
    nodata: float | None = None
    gsd: float | None = None
    normalized: bool = False

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError("raster data must be (bands, height, width)")
        Dtype.from_numpy(self.data.dtype)  # validates the dtype
        self.band_roles = tuple(BandRole(r) for r in self.band_roles)
        if len(self.band_roles) != self.data.shape[0]:
            raise ValueError("band_roles length does not match band count")
        named = [r for r in self.band_roles if r != BandRole.OTHER]
        if len(named) != len(set(named)):
            raise ValueError("at most one band per role (except OTHER)")
        if self.data.shape[1] < 1 or self.data.shape[2] < 1:
            raise ValueError("raster must be at least 1x1")
        if self.nodata is not None and self.dtype != Dtype.F32:
            limits = np.iinfo(self.dtype.numpy_dtype)
            if not limits.min <= self.nodata <= limits.max:
                raise ValueError("nodata value outside the dtype's range")

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def dtype(self) -> Dtype:
        return Dtype.from_numpy(self.data.dtype)

    def band_index(self, role: BandRole) -> int:
        for i, r in enumerate(self.band_roles):
            if r == role:
                return i
        raise ValueError(f"raster has no {role.name} band")

    def has_band(self, role: BandRole) -> bool:
        return role in self.band_roles

    def band(self, role: BandRole) -> np.ndarray:
        return self.data[self.band_index(role)]

    def valid_mask(self, roles: Sequence[BandRole] | None = None) -> np.ndarray:
        """True where every selected band holds a finite sample that is not
        nodata; NaN and infinities are treated like nodata."""
        bands = range(self.bands) if roles is None else map(self.band_index, roles)
        valid = np.ones((self.height, self.width), dtype=bool)
        for i in bands:
            valid &= np.isfinite(self.data[i])
            if self.nodata is not None:
                valid &= self.data[i] != self.nodata
        return valid


@dataclass
class LabelMap:
    """4-class (+void) categorical map; codes in {0,1,2,3,255}."""

    codes: np.ndarray

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        if self.codes.ndim != 2:
            raise ValueError("label codes must be a 2D array")
        # the schema is the classes 0..N_CLASSES-1 and void
        bad = (self.codes >= N_CLASSES) & (self.codes != LABEL_VOID)
        if bad.any():
            offending = sorted(int(v) for v in np.unique(self.codes[bad]))
            raise ValueError(f"label codes outside schema: {offending}")

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    def valid_mask(self) -> np.ndarray:
        return self.codes != LABEL_VOID


@dataclass
class ProbabilityMap:
    """Class probabilities, (4, h, w) float32. A pixel is uncovered exactly
    when its four planes are 0; every other pixel sums to 1 within 1e-3.
    `weight` is the derived (h, w) bool mask of covered pixels; a `weight`
    passed in must agree with it (`weight > 0`)."""

    probs: np.ndarray
    weight: np.ndarray | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float32)
        if self.probs.ndim != 3 or self.probs.shape[0] != N_CLASSES:
            raise ValueError("probability stack must be (4, height, width)")
        # both tests are written so that NaN fails them
        if self.probs.size and not (self.probs.min() >= 0.0 and self.probs.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        sums = self.probs.sum(axis=0)
        covered = sums > 0      # the planes are >= 0: only four zeros sum to 0
        if self.weight is not None and not (np.shape(self.weight) == covered.shape and
                                            np.array_equal(np.asarray(self.weight) > 0, covered)):
            raise ValueError("weight must be > 0 exactly where the probabilities are not all 0")
        if not np.all(np.abs(sums[covered] - 1.0) <= 1e-3):
            raise ValueError("probabilities must sum to 1 within 1e-3")
        self.weight = covered

    @property
    def height(self) -> int:
        return self.probs.shape[1]

    @property
    def width(self) -> int:
        return self.probs.shape[2]

    def argmax_labels(self) -> LabelMap:
        """Per-pixel argmax with ties broken to the lowest class code;
        uncovered pixels become void."""
        labels = np.argmax(self.probs, axis=0).astype(np.uint8)
        labels[~self.weight] = LABEL_VOID
        return LabelMap(labels)


@dataclass(frozen=True)
class Window:
    x: int
    y: int
    width: int
    height: int


@dataclass(frozen=True)
class TilingPlan:
    """Patch windows over a raster as their origins per axis; `windows` is
    every (x, y) pair, y-major."""

    width: int
    height: int
    patch_size: int
    stride: int
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @property
    def undersized(self) -> bool:
        return min(self.width, self.height) < self.patch_size

    @property
    def windows(self) -> tuple[Window, ...]:
        tw, th = min(self.patch_size, self.width), min(self.patch_size, self.height)
        return tuple(Window(x, y, tw, th) for y in self.ys for x in self.xs)


@dataclass(frozen=True)
class ClassLookup:
    """Total mapping from source label codes to the 5-code target schema;
    a record, read from `{"map": {"<src>": <dst>, ...}}` by `xras.read_record`."""

    map: dict[int, int]

    def __post_init__(self):
        for src, dst in self.map.items():
            if not 0 <= src <= 65535:
                raise ValueError(f"source code out of range: {src}")
            if dst not in VALID_LABEL_CODES:
                raise ValueError(f"target code outside schema: {dst}")


class TruncationBounds(NamedTuple):
    lo: float
    hi: float
    degenerate: bool = False


_HIST_BINS = 65536


def bin_index(u: np.ndarray, bins: int) -> np.ndarray:
    """The one binning rule for values in [0, 1]: u goes to bin floor(u * bins),
    and 1.0 to the top bin, bins - 1; int64. Truncation, Otsu and the GLCM
    gray levels all bin by it. A bin count outside 2 to 65536 is refused
    before anything is allocated."""
    if not 2 <= bins <= _HIST_BINS:
        raise ValueError(f"need 2 to {_HIST_BINS} bins, not {bins}")
    return np.minimum((u * bins).astype(np.int64), bins - 1)


def _band_samples(raster: MultibandRaster, role: BandRole) -> np.ndarray:
    return raster.band(role)[raster.valid_mask((role,))]


def compute_truncation_bounds(rasters: Sequence[MultibandRaster], role: BandRole,
                              lower_pct: float = 2.0,
                              upper_pct: float = 2.0) -> TruncationBounds:
    """Dataset-level histogram-truncation bounds for one band role.

    Pools the band's valid samples (`valid_mask`: finite, not nodata)
    across all rasters into one 65536-bin histogram, cuts
    floor(n * pct / 100) samples from each end and returns the extremes of
    the bins that remain. An integer sample is its own bin, so integer
    bounds are exact. A float32 sample is binned by `bin_index` over
    [min, max] of all samples (a first pass finds them), so float bounds
    are the bin edges: the low bin's lower edge and the high bin's upper
    edge, clipped to max.
    """
    if not (lower_pct >= 0 and upper_pct >= 0 and lower_pct + upper_pct < 100):
        raise ValueError("percentages must be >= 0 and sum to below 100, "
                         f"not lower {lower_pct} and upper {upper_pct}")
    with_band = [r for r in rasters if r.has_band(role)]
    if not with_band:
        raise ValueError(f"no raster contains a {role.name} band")

    integer_input = all(r.dtype != Dtype.F32 for r in with_band)
    vmin, vmax = 0.0, float(_HIST_BINS)        # an integer sample is its own bin
    if not integer_input:
        ranges = [(v.min(), v.max()) for v in (_band_samples(r, role) for r in with_band)
                  if v.size]
        if not ranges:
            raise ValueError("no valid samples")
        vmin, vmax = float(min(lo for lo, _ in ranges)), float(max(hi for _, hi in ranges))
        if vmin == vmax:
            return TruncationBounds(vmin, vmax, degenerate=True)
    width = (vmax - vmin) / _HIST_BINS
    hist = np.zeros(_HIST_BINS, dtype=np.int64)
    for r in with_band:
        vals = _band_samples(r, role)
        bins = vals if integer_input else \
            bin_index((vals.astype(np.float64) - vmin) / (vmax - vmin), _HIST_BINS)
        hist += np.bincount(bins, minlength=_HIST_BINS)
    n = int(hist.sum())
    if n == 0:
        raise ValueError("no valid samples")
    cum = np.cumsum(hist)
    k_lo = math.floor(n * lower_pct / 100.0)
    k_hi = math.floor(n * upper_pct / 100.0)
    lo_bin, hi_bin = np.searchsorted(cum, [k_lo, max(k_lo, n - 1 - k_hi)],
                                     side="right").tolist()
    lo = vmin + lo_bin * width
    hi = vmin + hi_bin * width if integer_input else \
        max(min(vmax, vmin + (hi_bin + 1) * width), lo)
    return TruncationBounds(lo, hi, degenerate=lo == hi)


def normalize_truncate(raster: MultibandRaster,
                       bounds: Mapping[int, tuple | TruncationBounds]) -> MultibandRaster:
    """Rescale bands to [0, 1] with clamping: v' = clip((v-lo)/(hi-lo), 0, 1).

    `bounds` maps band indices to (lo, hi) pairs. Bands without bounds are
    passed through as float32. Nodata and non-finite samples become the
    NORMALIZED_NODATA sentinel, the output's nodata. Degenerate bounds
    (lo == hi) send all valid pixels to 0.
    """
    out = raster.data.astype(np.float32)
    invalid = ~np.isfinite(raster.data)
    if raster.nodata is not None:
        invalid |= raster.data == raster.nodata
    for b in bounds:
        lo, hi = float(bounds[b][0]), float(bounds[b][1])
        band = raster.data[b].astype(np.float64)
        if hi == lo:
            scaled = np.zeros_like(band)
        else:
            scaled = np.clip((band - lo) / (hi - lo), 0.0, 1.0)
        out[b] = scaled.astype(np.float32)
    new_nodata = None
    if raster.nodata is not None or invalid.any():
        out[invalid] = NORMALIZED_NODATA
        new_nodata = NORMALIZED_NODATA
    return MultibandRaster(out, raster.band_roles, nodata=new_nodata,
                           gsd=raster.gsd, normalized=True)


def remap_labels(labels: np.ndarray | MultibandRaster, lookup: ClassLookup) -> LabelMap:
    """Substitute raw label codes through the lookup into the target schema."""
    if isinstance(labels, MultibandRaster):
        if labels.bands != 1:
            raise ValueError("label raster must be single band")
        arr = labels.data[0]
    else:
        arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValueError("labels must be a 2D array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("labels must be integer typed")
    present = np.unique(arr)
    unmapped = [int(c) for c in present if int(c) not in lookup.map]
    if unmapped:
        raise ValueError(f"unmapped label codes: {unmapped}")
    table = np.zeros(int(present.max()) + 1, dtype=np.uint8)
    for src, dst in lookup.map.items():
        if src < table.size:
            table[src] = dst
    return LabelMap(table[arr.astype(np.int64)])


def _axis_origins(dim: int, patch: int, stride: int) -> tuple[int, ...]:
    if dim <= patch:
        return (0,)
    origins = tuple(range(0, dim - patch + 1, stride))
    if origins[-1] + patch < dim:
        origins += (dim - patch,)
    return origins


def plan_tiles(width: int, height: int, patch_size: int = 512,
               overlap: float = 0.5) -> TilingPlan:
    """Grid of patch windows covering the raster.

    Origins step by stride = floor(patch * (1 - overlap)), minimum 1; a
    final window clamped to dim - patch is added when the stride grid
    stops short. Rasters smaller than the patch yield a single undersized
    window.
    """
    if width < 1 or height < 1:
        raise ValueError("raster dimensions must be at least 1")
    if not 0 <= overlap < 1:
        raise ValueError("overlap must be in [0, 1)")
    if patch_size < 1:
        raise ValueError("patch_size must be at least 1")
    stride = max(1, int(patch_size * (1.0 - overlap)))
    return TilingPlan(width, height, patch_size, stride,
                      _axis_origins(width, patch_size, stride),
                      _axis_origins(height, patch_size, stride))


def extract_patch(stack: np.ndarray, window: Window) -> np.ndarray:
    """Slice a (bands, h, w) stack or (h, w) plane to a window."""
    if stack.ndim == 2:
        return stack[window.y:window.y + window.height,
                     window.x:window.x + window.width]
    return stack[:, window.y:window.y + window.height,
                 window.x:window.x + window.width]


def merge_probability_patches(patches: Iterable[tuple[Window, ProbabilityMap]],
                              width: int, height: int
                              ) -> tuple[ProbabilityMap, LabelMap]:
    """Probability-voting merge of overlapping per-class patches.

    Per-pixel class probability is the arithmetic mean over covering
    patches; labels are the argmax with ties to the lowest class code.
    Each patch is a `ProbabilityMap`, whose checks it has passed; it must
    cover every pixel of its window. Accumulation happens in a canonical
    patch order (sorted by window, then payload digest), so the result is
    bit-identical under any patch submission order or worker scheduling.
    Pixels covered by no patch are reported and set void.
    """
    items = []
    for window, pmap in patches:
        probs = pmap.probs
        if probs.shape != (N_CLASSES, window.height, window.width):
            raise ValueError(f"patch shaped {probs.shape} does not match {window}")
        if window.x < 0 or window.y < 0 or \
                window.x + window.width > width or window.y + window.height > height:
            raise ValueError(f"window {window} exceeds raster bounds")
        if not pmap.weight.all():
            raise ValueError(f"patch at {window} has {int((~pmap.weight).sum())} "
                             f"uncovered pixels (all four probabilities 0)")
        digest = hashlib.blake2b(probs.tobytes(), digest_size=8).hexdigest()
        items.append(((window.y, window.x, window.height, window.width, digest),
                      window, probs))
    items.sort(key=lambda it: it[0])

    acc = np.zeros((N_CLASSES, height, width), dtype=np.float64)
    count = np.zeros((height, width), dtype=np.int32)
    for _, window, probs in items:
        ys = slice(window.y, window.y + window.height)
        xs = slice(window.x, window.x + window.width)
        acc[:, ys, xs] += probs
        count[ys, xs] += 1

    pmap = ProbabilityMap((acc / np.maximum(count, 1)).astype(np.float32))   # 0 where uncovered
    if not pmap.weight.all():
        log.warning("merge: %d pixels covered by no patch set to void",
                    int((~pmap.weight).sum()))
    return pmap, pmap.argmax_labels()
