"""Synthetic domain generator."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from xferkit import synth, xras
from xferkit.raster import (LABEL_BUILDING, LABEL_GROUND, LABEL_TREE,
                            LABEL_WATER, BandRole)


def small_spec(**kw):
    defaults = dict(width=128, height=128, seed=5)
    defaults.update(kw)
    return synth.DomainSpec(**defaults)


def test_deterministic_bit_identical():
    spec = small_spec()
    a = synth.generate_scene(spec, 0)
    b = synth.generate_scene(spec, 0)
    assert a[0].data.tobytes() == b[0].data.tobytes()
    assert a[1].data.tobytes() == b[1].data.tobytes()
    assert a[2].codes.tobytes() == b[2].codes.tobytes()
    c = synth.generate_scene(spec, 1)
    assert a[2].codes.tobytes() != c[2].codes.tobytes()


def test_class_fractions_within_tolerance():
    spec = synth.DomainSpec(seed=11)       # 512x512 default
    _, _, labels = synth.generate_scene(spec, 0)
    total = labels.codes.size
    for cls, want in ((LABEL_TREE, spec.tree_fraction),
                      (LABEL_WATER, spec.water_fraction),
                      (LABEL_BUILDING, spec.building_fraction)):
        got = (labels.codes == cls).sum() / total
        assert abs(got - want) <= 0.03


def test_agl_zero_exactly_on_ground_and_water():
    rgbn, agl, labels = synth.generate_scene(small_spec(), 0)
    flat = (labels.codes == LABEL_GROUND) | (labels.codes == LABEL_WATER)
    assert np.all(agl.data[0][flat] == 0.0)
    elevated = labels.codes == LABEL_BUILDING
    assert np.all(agl.data[0][elevated] > 2.0)


def test_shift_changes_reflectance_not_labels():
    base = small_spec()
    shifted = small_spec(gain=(0.7, 0.8, 0.75, 0.7), bias=(0.05, 0.0, 0.02, 0.0))
    a = synth.generate_scene(base, 0)
    b = synth.generate_scene(shifted, 0)
    np.testing.assert_array_equal(a[2].codes, b[2].codes)
    np.testing.assert_array_equal(a[1].data, b[1].data)
    assert not np.array_equal(a[0].data, b[0].data)


def test_noiseless_scene_hits_class_means_exactly():
    spectra = {c: synth.ClassSpectrum(s.mean, 0.0, 0.0)
               for c, s in synth._default_spectra().items()}
    spec = small_spec(spectra=spectra, psf=False)
    rgbn, _, labels = synth.generate_scene(spec, 0)
    for cls, spectrum in spectra.items():
        sel = labels.codes == cls
        if not sel.any():
            continue
        for b in range(4):
            np.testing.assert_array_equal(rgbn.data[b][sel],
                                          np.float32(spectrum.mean[b]))


def test_psf_preserves_interiors():
    spectra = {c: synth.ClassSpectrum(s.mean, 0.0, 0.0)
               for c, s in synth._default_spectra().items()}
    crisp = synth.generate_scene(small_spec(spectra=spectra, psf=False), 0)
    smooth = synth.generate_scene(small_spec(spectra=spectra, psf=True), 0)
    codes = crisp[2].codes
    interior = np.ones_like(codes, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            interior &= np.roll(np.roll(codes, dy, 0), dx, 1) == codes
    interior[[0, -1], :] = False
    interior[:, [0, -1]] = False
    np.testing.assert_allclose(smooth[0].data[:, interior],
                               crisp[0].data[:, interior], atol=1e-6)


def test_raster_metadata():
    rgbn, agl, _ = synth.generate_scene(small_spec(), 0)
    assert rgbn.band_roles == (BandRole.RED, BandRole.GREEN, BandRole.BLUE,
                               BandRole.NIR)
    assert rgbn.normalized and not agl.normalized
    assert agl.band_roles == (BandRole.AGL,)
    assert rgbn.data.min() >= 0.0 and rgbn.data.max() <= 1.0
    assert rgbn.data.flags.c_contiguous


def test_spec_validation():
    with pytest.raises(ValueError, match="fractions"):
        synth.DomainSpec(tree_fraction=0.6, water_fraction=0.5)
    with pytest.raises(ValueError, match="32x32"):
        synth.DomainSpec(width=8)
    with pytest.raises(ValueError):
        synth.generate_domain(small_spec(), 0)


def test_spec_dict_roundtrip():
    spec = small_spec(gain=(0.9, 0.9, 0.9, 0.9))
    again = xras.read_record(synth.DomainSpec, json.loads(xras.canonical_json(spec)))
    assert again == spec


@pytest.mark.parametrize("doc,message", [
    ({"water_fracton": 0.0}, r"unknown DomainSpec keys: \['water_fracton'\]"),
    ({"spectra": {"1": {"mean": [0.1, 0.2, 0.1, 0.6], "sigm": 0.1}}},
     r"unknown ClassSpectrum keys: \['sigm'\]"),
    ({"spectra": {"1": {"sigma": 0.1}}}, r"missing ClassSpectrum keys: \['mean'\]"),
])
def test_spec_dict_rejects_unknown_and_missing_keys(doc, message):
    """A spec read from a file names every key it cannot place."""
    with pytest.raises(ValueError, match=message):
        xras.read_record(synth.DomainSpec, doc)


SCENE_SHA256 = {
    "default":
        "d5c7711a342713eb5c65a0df39d1f948ca5b7e438255c20718d0db564ebd2a3c",
    "gain-bias":
        "2b00288031f415b7f6de4a07ed082ac265d3ada229d7c317f02a35564474c3bd",
    "no-psf-partial-spectra":
        "2c609178610b29392704108b27d20394ea84b3d5bebea9f22fc8e074f6701cc2",
}


@pytest.mark.parametrize("name,kw", [
    ("default", {}),
    ("gain-bias", dict(gain=(0.8, 0.9, 0.85, 0.7), bias=(0.03, 0.0, 0.01, 0.02))),
    ("no-psf-partial-spectra", dict(psf=False, spectra={
        LABEL_TREE: synth.ClassSpectrum((0.12, 0.25, 0.10, 0.58), 0.0, 0.04),
        LABEL_BUILDING: synth.ClassSpectrum((0.47, 0.45, 0.44, 0.30), 0.03, 0.0)})),
])
def test_scene_bytes_pinned(name, kw):
    """Scene 1 of a 64x48 domain, its rgbn, agl and label bytes in one
    digest. Every other digest pin starts from such scenes."""
    rgbn, agl, labels = synth.generate_scene(
        synth.DomainSpec(width=64, height=48, seed=3, **kw), 1)
    digest = hashlib.sha256()
    for array in (rgbn.data, agl.data, labels.codes):
        digest.update(array.tobytes())
    assert digest.hexdigest() == SCENE_SHA256[name]


def test_scene_peak_memory():
    """tracemalloc sees numpy's allocations, so the peak is deterministic.
    It comes in the 3x3 smoothing, where the float64 (4, h, w) reflectance
    and its padded copy are alive: about 87 bytes per pixel."""
    side = 256
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        synth.generate_scene(synth.DomainSpec(width=side, height=side), 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / side ** 2 <= 135


def test_fraction_miss_warns():
    """At 32x32 one water ellipse covers up to 5% of the scene, so a target
    of 0.1% can overshoot by more than the 3% tolerance."""
    spec = synth.DomainSpec(width=32, height=32, seed=35, water_fraction=0.001)
    with pytest.warns(UserWarning, match=r"water fraction 0\.044 missed the "
                                         r"target 0\.001 by more than 3%"):
        _, _, labels = synth.generate_scene(spec, 0)
    assert round((labels.codes == LABEL_WATER).mean(), 3) == 0.044
