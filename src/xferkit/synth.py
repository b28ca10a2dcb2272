"""Deterministic synthetic multispectral domains.

Generates paired (RGBN imagery, AGL height, ground-truth labels) scenes
with controllable spectral shift between domains, so transferability
claims can be exercised at desk scale without proprietary data. Default
spectra make each index individually discriminative: NDVI high only for
trees, NDWI high only for water, default building heights clear the 2 m
rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .raster import (LABEL_BUILDING, LABEL_GROUND, LABEL_TREE, LABEL_WATER,
                     N_CLASSES, BandRole, LabelMap, MultibandRaster)

RGBN_ROLES = (BandRole.RED, BandRole.GREEN, BandRole.BLUE, BandRole.NIR)


@dataclass
class ClassSpectrum:
    mean: tuple[float, float, float, float]
    sigma: float = 0.02
    texture: float = 0.02

    def __post_init__(self):
        for name in ("sigma", "texture"):
            if getattr(self, name) < 0:
                raise ValueError(f"ClassSpectrum.{name} must be >= 0, "
                                 f"not {getattr(self, name)!r}")


def _default_spectra() -> dict[int, ClassSpectrum]:
    return {
        LABEL_GROUND: ClassSpectrum((0.36, 0.33, 0.30, 0.38), 0.02, 0.03),
        LABEL_TREE: ClassSpectrum((0.10, 0.22, 0.09, 0.62), 0.02, 0.04),
        LABEL_BUILDING: ClassSpectrum((0.45, 0.44, 0.46, 0.32), 0.03, 0.05),
        LABEL_WATER: ClassSpectrum((0.05, 0.12, 0.15, 0.02), 0.01, 0.01),
    }


@dataclass
class DomainSpec:
    """Layout, spectra and sensor-shift parameters of one synthetic domain."""

    width: int = 512
    height: int = 512
    seed: int = 0
    spectra: dict[int, ClassSpectrum] = field(default_factory=_default_spectra)
    tree_fraction: float = 0.20
    water_fraction: float = 0.12
    building_fraction: float = 0.15
    building_height_range: tuple[float, float] = (5.0, 25.0)
    canopy_height_range: tuple[float, float] = (3.0, 8.0)
    gain: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    bias: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    psf: bool = True            # 3x3 box smoothing of reflectance
    gsd: float = 0.31

    def __post_init__(self):
        for name in ("building_height_range", "canopy_height_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"DomainSpec.{name} must have lo <= hi, "
                                 f"not {getattr(self, name)!r}")
        for c in self.spectra:
            if not 0 <= c < N_CLASSES:
                raise ValueError(f"DomainSpec.spectra keys must be class codes "
                                 f"0-{N_CLASSES - 1}, not {c!r}")
        fracs = (self.tree_fraction, self.water_fraction, self.building_fraction)
        if any(f < 0 or f > 1 for f in fracs) or sum(fracs) > 1.0:
            raise ValueError("class fractions must be in [0, 1] and sum to <= 1")
        if self.width < 32 or self.height < 32:
            raise ValueError("scenes must be at least 32x32")
        if sum(fracs) > 0.85:
            raise ValueError("fractions above 0.85 cannot be laid out reliably")


def _ellipse(rng, h, w, radii):
    """A random ellipse centred in the scene: its bounding box, padded by a
    pixel against rounding, and its mask within the box."""
    cy = rng.uniform(0, h)
    cx = rng.uniform(0, w)
    ry = rng.uniform(*radii)
    rx = rng.uniform(*radii)
    box = (slice(max(0, int(cy - ry) - 1), min(h, int(cy + ry) + 2)),
           slice(max(0, int(cx - rx) - 1), min(w, int(cx + rx) + 2)))
    ys, xs = np.ogrid[box]
    return box, ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0


def _rectangle(rng, h, w, sides):
    """A random rectangle that starts inside the scene and fills its box."""
    rh = int(rng.integers(sides[0], sides[1] + 1))
    rw = int(rng.integers(sides[0], sides[1] + 1))
    y0 = int(rng.integers(0, max(1, h - rh)))
    x0 = int(rng.integers(0, max(1, w - rw)))
    return (slice(y0, y0 + rh), slice(x0, x0 + rw)), True


def _stamp(labels, agl, rng, target_fraction, cls, draw, size, heights):
    """Stamp shapes from `draw` of class `cls`, which holds no pixel yet,
    onto ground pixels until the class holds `target_fraction` of the scene
    (or a shape budget runs out). A shape's height, if the class has
    heights, is drawn after the shape. Returns the pixels placed."""
    h, w = labels.shape
    goal = int(round(target_fraction * h * w))
    placed = 0
    for _ in range(4000):
        if placed >= goal:
            break
        box, shape = draw(rng, h, w, size)
        free = (labels[box] == LABEL_GROUND) & shape
        labels[box][free] = cls
        if heights:
            agl[box][free] = np.float32(rng.uniform(*heights))
        placed += int(free.sum())
    return placed


def _box3(img: np.ndarray) -> None:
    """Replace each pixel of the float64 (bands, h, w) `img` by the mean of
    its 3x3 neighbourhood, edges repeated, summing the nine terms in order."""
    h, w = img.shape[1:]
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    img[...] = 0.0
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            img += padded[:, dy:dy + h, dx:dx + w]
    img /= 9.0


def generate_scene(spec: DomainSpec, scene_index: int
                   ) -> tuple[MultibandRaster, MultibandRaster, LabelMap]:
    """One deterministic scene: (RGBN raster, AGL raster, ground truth).

    Layout and radiometry draw from separate streams keyed by
    (seed, scene_index), so changing gain/bias or spectra never changes
    the label map.

    Memory grows with the scene: the radiometry works in place on one
    float64 (4, h, w) reflectance, beside one noise array or the padded copy
    of the 3x3 smoothing. It peaks at about 90 bytes per pixel above the
    importing process (measured with ru_maxrss: 88 MB for 1024², 348 MB for
    2048²), so about 1.5 GB for 4096².
    """
    h, w = spec.height, spec.width
    rng_layout = np.random.default_rng([spec.seed, scene_index, 0])
    rng_noise = np.random.default_rng([spec.seed, scene_index, 1])

    labels = np.full((h, w), LABEL_GROUND, dtype=np.uint8)
    agl = np.zeros((h, w), dtype=np.float32)
    # shape sizes scale with the scene so a single stamp stays around 2%
    # of the area, keeping final fractions inside the 3% tolerance
    side = float(np.sqrt(h * w))
    cap_e = max(4.0, min(40.0, 0.08 * side))
    cap_r = max(4, min(40, int(0.14 * side)))
    for name, cls, want, draw, size, heights in (
            ("water", LABEL_WATER, spec.water_fraction, _ellipse,
             (cap_e / 4, cap_e), None),
            ("tree", LABEL_TREE, spec.tree_fraction, _ellipse,
             (max(2.0, cap_e / 8), cap_e * 0.625), spec.canopy_height_range),
            ("building", LABEL_BUILDING, spec.building_fraction, _rectangle,
             (max(4, cap_r // 4), cap_r), spec.building_height_range)):
        got = _stamp(labels, agl, rng_layout, want, cls, draw, size, heights) / (h * w)
        if abs(got - want) > 0.03:
            warnings.warn(f"{name} fraction {got:.3f} missed the "
                          f"target {want:.3f} by more than 3%")

    # per label code: the four band means, sigma, texture
    table = np.zeros((6, 256))
    for cls, spectrum in spec.spectra.items():
        table[:, cls] = (*spectrum.mean, spectrum.sigma, spectrum.texture)
    refl = np.take(table[:4], labels, axis=1)
    # per-band noise scaled by sigma, then one texture noise for all bands
    for row, noise_shape in ((4, (4, h, w)), (5, (h, w))):
        scale = table[row, labels]
        if np.any(scale > 0):
            noise = rng_noise.normal(size=noise_shape)
            noise *= scale
            refl += noise
    refl *= np.asarray(spec.gain, dtype=np.float64)[:, None, None]
    refl += np.asarray(spec.bias, dtype=np.float64)[:, None, None]
    np.clip(refl, 0.0, 1.0, out=refl)
    if spec.psf:
        _box3(refl)

    rgbn = MultibandRaster(refl.astype(np.float32), RGBN_ROLES,
                           gsd=spec.gsd, normalized=True)
    height_raster = MultibandRaster(agl[None], (BandRole.AGL,),
                                    gsd=spec.gsd, normalized=False)
    return rgbn, height_raster, LabelMap(labels)


def generate_domain(spec: DomainSpec, n_scenes: int
                    ) -> list[tuple[MultibandRaster, MultibandRaster, LabelMap]]:
    if n_scenes < 1:
        raise ValueError("need at least one scene")
    return [generate_scene(spec, i) for i in range(n_scenes)]
