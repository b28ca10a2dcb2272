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
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .raster import (LABEL_BUILDING, LABEL_GROUND, LABEL_TREE, LABEL_WATER,
                     BandRole, LabelMap, MultibandRaster)

RGBN_ROLES = (BandRole.RED, BandRole.GREEN, BandRole.BLUE, BandRole.NIR)


@dataclass
class ClassSpectrum:
    mean: tuple[float, float, float, float]
    sigma: float = 0.02
    texture: float = 0.02


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
        fracs = (self.tree_fraction, self.water_fraction, self.building_fraction)
        if any(f < 0 or f > 1 for f in fracs) or sum(fracs) > 1.0:
            raise ValueError("class fractions must be in [0, 1] and sum to <= 1")
        if self.width < 32 or self.height < 32:
            raise ValueError("scenes must be at least 32x32")
        if sum(fracs) > 0.85:
            raise ValueError("fractions above 0.85 cannot be laid out reliably")

    @classmethod
    def from_dict(cls, doc: dict) -> "DomainSpec":
        """A spec as `canonical_json` writes it, or a part of one: lists
        become tuples, `spectra` keys become ints, and omitted fields take
        their defaults. A key that names no field raises ValueError."""
        kw = _field_values(cls, doc)
        if "spectra" in kw:
            kw["spectra"] = {int(c): ClassSpectrum(**_field_values(ClassSpectrum, s))
                             for c, s in kw["spectra"].items()}
        return cls(**kw)


def _field_values(cls, doc: dict) -> dict:
    """`doc` as keyword arguments of the dataclass `cls`, lists as tuples.
    `doc` is input from outside the program, so it is checked against the
    fields first."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, not {doc!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} keys: {missing}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def _stamp_ellipses(labels, agl, rng, target_fraction, cls, radii, heights):
    """Stamp random ellipses of class `cls` onto ground pixels until the
    class holds `target_fraction` of the scene (or a shape budget runs out)."""
    h, w = labels.shape
    goal = int(round(target_fraction * h * w))
    placed = int((labels == cls).sum())
    for _ in range(4000):
        if placed >= goal:
            return placed
        cy = rng.uniform(0, h)
        cx = rng.uniform(0, w)
        ry = rng.uniform(*radii)
        rx = rng.uniform(*radii)
        height = rng.uniform(*heights) if heights else 0.0
        # the ellipse's bounding box, padded by a pixel against rounding
        box = (slice(max(0, int(cy - ry) - 1), min(h, int(cy + ry) + 2)),
               slice(max(0, int(cx - rx) - 1), min(w, int(cx + rx) + 2)))
        ys, xs = np.ogrid[box]
        shape = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
        shape &= labels[box] == LABEL_GROUND
        labels[box][shape] = cls
        if heights:
            agl[box][shape] = np.float32(height)
        placed += int(shape.sum())
    return placed


def _stamp_rectangles(labels, agl, rng, target_fraction, cls, sides, heights):
    h, w = labels.shape
    goal = int(round(target_fraction * h * w))
    placed = int((labels == cls).sum())
    for _ in range(4000):
        if placed >= goal:
            return placed
        rh = int(rng.integers(sides[0], sides[1] + 1))
        rw = int(rng.integers(sides[0], sides[1] + 1))
        y0 = int(rng.integers(0, max(1, h - rh)))
        x0 = int(rng.integers(0, max(1, w - rw)))
        height = rng.uniform(*heights)
        block = labels[y0:y0 + rh, x0:x0 + rw]
        free = block == LABEL_GROUND
        block[free] = cls
        agl[y0:y0 + rh, x0:x0 + rw][free] = np.float32(height)
        placed += int(free.sum())
    return placed


def _box3(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.zeros_like(img, dtype=np.float64)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += padded[:, dy:dy + img.shape[1], dx:dx + img.shape[2]]
    return out / 9.0


def generate_scene(spec: DomainSpec, scene_index: int
                   ) -> tuple[MultibandRaster, MultibandRaster, LabelMap]:
    """One deterministic scene: (RGBN raster, AGL raster, ground truth).

    Layout and radiometry draw from separate streams keyed by
    (seed, scene_index), so changing gain/bias or spectra never changes
    the label map.

    Memory grows with the scene: float64 (4, h, w) means, noise and
    reflectance peak at about 185 bytes per pixel above the importing
    process (measured with ru_maxrss: 196 MB for 1024², 771 MB for 2048²),
    so about 3.1 GB for 4096².
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
    got_water = _stamp_ellipses(labels, agl, rng_layout, spec.water_fraction,
                                LABEL_WATER, (cap_e / 4, cap_e), None)
    got_tree = _stamp_ellipses(labels, agl, rng_layout, spec.tree_fraction,
                               LABEL_TREE, (max(2.0, cap_e / 8), cap_e * 0.625),
                               spec.canopy_height_range)
    got_bldg = _stamp_rectangles(labels, agl, rng_layout, spec.building_fraction,
                                 LABEL_BUILDING, (max(4, cap_r // 4), cap_r),
                                 spec.building_height_range)
    total = h * w
    for name, got, want in (("water", got_water, spec.water_fraction),
                            ("tree", got_tree, spec.tree_fraction),
                            ("building", got_bldg, spec.building_fraction)):
        if abs(got / total - want) > 0.03:
            warnings.warn(f"{name} fraction {got / total:.3f} missed the "
                          f"target {want:.3f} by more than 3%")

    means = np.zeros((4, h, w), dtype=np.float64)
    sigma = np.zeros((h, w), dtype=np.float64)
    texture = np.zeros((h, w), dtype=np.float64)
    for cls, spectrum in spec.spectra.items():
        sel = labels == cls
        for b in range(4):
            means[b][sel] = spectrum.mean[b]
        sigma[sel] = spectrum.sigma
        texture[sel] = spectrum.texture

    refl = means.copy()
    if np.any(sigma > 0):
        refl += rng_noise.normal(size=(4, h, w)) * sigma[None]
    if np.any(texture > 0):
        refl += (rng_noise.normal(size=(h, w)) * texture)[None]
    gain = np.asarray(spec.gain, dtype=np.float64)[:, None, None]
    bias = np.asarray(spec.bias, dtype=np.float64)[:, None, None]
    refl = np.clip(refl * gain + bias, 0.0, 1.0)
    if spec.psf:
        refl = _box3(refl)

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
