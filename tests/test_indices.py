"""Spectral/morphological indices, Otsu, and pseudo-label fusion."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import agl_raster, const_rgbn, dsm_raster, rgbn_raster
import xferkit
from oracles import naive_tophat, otsu_oracle_exact, otsu_oracle_float
from xferkit.indices import (IndexRaster, ThresholdSet, fuse_pseudo_labels,
                             mbi_h, ndvi, ndwi, otsu_threshold)
from xferkit.raster import LABEL_VOID, BandRole, MultibandRaster


class TestBandRatios:
    def test_ndvi_values(self):
        raster = const_rgbn((1, 1), r=0.2, g=0.1, b=0.1, nir=0.6)
        assert ndvi(raster).values[0, 0] == pytest.approx(0.5)

    def test_ndvi_symmetry_and_degenerate(self):
        raster = rgbn_raster([[0.3, 0.0]], [[0.1, 0.0]], [[0.1, 0.0]], [[0.3, 0.0]])
        out = ndvi(raster)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == 0.0      # 0/0 rule

    def test_ndwi_values(self):
        raster = const_rgbn((1, 1), r=0.2, g=0.4, b=0.1, nir=0.1)
        assert ndwi(raster).values[0, 0] == pytest.approx(0.6)

    def test_ndwi_negative_clips_to_zero(self):
        raster = const_rgbn((1, 1), r=0.2, g=0.0, b=0.1, nir=0.5)
        out = ndwi(raster)
        assert out.values[0, 0] == pytest.approx(-1.0)
        assert out.clipped().values[0, 0] == 0.0

    def test_missing_band_errors(self):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        raster = MultibandRaster(data, (BandRole.RED, BandRole.GREEN))
        with pytest.raises(ValueError, match="NIR"):
            ndvi(raster)

    def test_antisymmetric_under_band_swap(self, rng):
        a = rng.uniform(0.01, 1, (6, 7)).astype(np.float32)
        b = rng.uniform(0.01, 1, (6, 7)).astype(np.float32)
        g = rng.uniform(0, 1, (6, 7)).astype(np.float32)
        bl = rng.uniform(0, 1, (6, 7)).astype(np.float32)
        fwd = ndvi(rgbn_raster(b, g, bl, a))      # (a - b) / (a + b)
        rev = ndvi(rgbn_raster(a, g, bl, b))
        np.testing.assert_allclose(fwd.values, -rev.values, atol=1e-7)

    def test_nodata_masks_invalid(self):
        raster = rgbn_raster([[0.5, -1.0]], [[0.5, 0.5]], [[0.5, 0.5]],
                             [[0.5, 0.5]], nodata=-1.0)
        out = ndvi(raster)
        assert out.valid.tolist() == [[True, False]]


class TestMbiH:
    def test_flat_dsm_all_zero(self):
        out = mbi_h(dsm_raster(np.full((16, 16), 10.0)), se_size=5)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_narrow_plateau_extracted(self):
        dsm = np.full((32, 32), 10.0, dtype=np.float32)
        dsm[10:15, 12:17] = 15.0        # 5x5 plateau, narrower than the SE
        out = mbi_h(dsm_raster(dsm), se_size=9)
        expect = np.zeros_like(dsm)
        expect[10:15, 12:17] = 5.0
        np.testing.assert_array_equal(out.values, expect)

    def test_matches_naive_oracle(self, rng):
        for _ in range(8):
            dsm = (rng.integers(0, 160, size=(32, 32)) * 0.25).astype(np.float32)
            for se in (3, 5, 9):
                got = mbi_h(dsm_raster(dsm), se_size=se).values
                np.testing.assert_array_equal(got, naive_tophat(dsm, se))

    def test_agl_passthrough_exact(self, rng):
        agl = rng.uniform(0, 30, (8, 8)).astype(np.float32)
        out = mbi_h(agl_raster(agl))
        np.testing.assert_array_equal(out.values, agl)

    def test_level_shift_invariance_exact(self, rng):
        dsm = (rng.integers(0, 160, size=(24, 24)) * 0.25).astype(np.float32)
        base = mbi_h(dsm_raster(dsm), se_size=5).values
        shifted = mbi_h(dsm_raster(dsm + np.float32(512.0)),
                        se_size=5).values
        np.testing.assert_array_equal(base, shifted)

    def test_nonnegative_and_bounded(self, rng):
        dsm = rng.uniform(0, 50, (20, 20)).astype(np.float32)
        out = mbi_h(dsm_raster(dsm), se_size=7).values
        assert out.min() >= 0.0
        assert out.max() <= dsm.max() - dsm.min() + 1e-6

    def test_normalized_input_rejected(self):
        raster = agl_raster(np.zeros((4, 4)), normalized=True)
        with pytest.raises(ValueError, match="meters"):
            mbi_h(raster)

    def test_params_validated(self):
        with pytest.raises(ValueError, match="odd"):
            mbi_h(dsm_raster(np.zeros((8, 8))), se_size=4)

    def test_nan_pixel_is_void_and_returns(self):
        # A NaN sample once made the reconstruction loop forever; run in a
        # subprocess with a timeout so a regression fails instead of hanging.
        code = """
import numpy as np
from xferkit.indices import mbi_h
from xferkit.raster import BandRole, MultibandRaster
dsm = np.random.default_rng(3).uniform(0, 20, (32, 32)).astype(np.float32)
dsm[10, 12] = np.nan
out = mbi_h(MultibandRaster(dsm[None], (BandRole.DSM,), nodata=-9999.0),
            se_size=5)
assert not out.valid[10, 12] and out.valid.sum() == 32 * 32 - 1
assert np.isfinite(out.values).all() and out.values.min() >= 0
"""
        src = str(Path(xferkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestOtsu:
    def test_bimodal_threshold_location(self):
        samples = np.array([0.1] * 50 + [0.9] * 50)
        got = otsu_threshold(samples)
        assert 0.1 < got.threshold <= 0.9
        assert got.threshold == otsu_oracle_float(samples)
        assert not got.degenerate

    def test_degenerate_single_bin(self):
        got = otsu_threshold(np.full(10, 0.5))
        assert got.degenerate
        # all samples in bin 128 -> upper edge
        assert got.threshold == pytest.approx(129 / 256)

    def test_errors(self):
        with pytest.raises(ValueError, match="no valid samples"):
            otsu_threshold(np.array([]))
        with pytest.raises(ValueError, match="clip"):
            otsu_threshold(np.array([-0.1, 0.5]))
        for bad in (np.nan, np.inf, -np.inf, 1.5):
            with pytest.raises(ValueError, match="clip"):
                otsu_threshold(np.array([0.2, bad, 0.5]))

    def test_bins_bounded_by_the_histogram_resolution(self):
        """65,536 bins, the truncation histograms' resolution, is the most
        a threshold takes; more is refused before anything is allocated."""
        samples = np.array([0.25, 0.75])
        assert otsu_threshold(samples, bins=65536).threshold == 0.25 + 1 / 65536
        for bins in (65537, 10**11):
            with pytest.raises(ValueError, match="need 2 to 65536 bins"):
                otsu_threshold(samples, bins=bins)

    def test_one_lands_in_top_bin(self):
        # 1.0 * bins is one past the last bin; it counts in the top bin
        got = otsu_threshold(np.array([0.0, 0.0, 1.0, 1.0]), bins=4)
        assert got.threshold == 0.25 and not got.degenerate
        assert otsu_threshold(np.ones(5), bins=4) == (1.0, True)

    def test_matches_float_oracle_randomly(self, rng):
        for _ in range(25):
            samples = np.clip(rng.normal(rng.uniform(0, 1), 0.15,
                                         size=500), 0, 1)
            assert otsu_threshold(samples).threshold == \
                otsu_oracle_float(samples)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=16).filter(
        lambda h: sum(1 for v in h if v > 0) >= 2))
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_oracle(self, hist):
        bins = len(hist)
        samples = np.repeat((np.arange(bins) + 0.5) / bins, hist)
        got = otsu_threshold(samples, bins=bins)
        assert got.threshold == pytest.approx(otsu_oracle_exact(hist, bins))

    def test_tie_breaks_toward_lower_threshold(self):
        # mass only in bins 10 and 200: every split between them scores the
        # same, the lowest candidate must win
        samples = np.repeat([10.5 / 256, 200.5 / 256], [30, 30])
        got = otsu_threshold(samples)
        assert got.threshold == pytest.approx(11 / 256)


def _index(values, valid=None):
    values = np.asarray(values, dtype=np.float32)
    valid = np.ones_like(values, dtype=bool) if valid is None else valid
    return IndexRaster(values, valid)


class TestFusion:
    thresholds = ThresholdSet(t_ndvi=0.3, t_ndwi=0.4, t_mbih=2.0)

    def test_priority_tree_over_building_over_water(self):
        n = _index([[0.8]])
        w = _index([[0.9]])
        m = _index([[10.0]])
        assert fuse_pseudo_labels(n, w, m, self.thresholds).codes[0, 0] == 1
        n = _index([[0.1]])
        assert fuse_pseudo_labels(n, w, m, self.thresholds).codes[0, 0] == 2
        m = _index([[0.5]])
        assert fuse_pseudo_labels(n, w, m, self.thresholds).codes[0, 0] == 3

    def test_ground_when_nothing_fires(self):
        n = _index([[0.0]])
        w = _index([[0.0]])
        m = _index([[0.0]])
        assert fuse_pseudo_labels(n, w, m, self.thresholds).codes[0, 0] == 0

    def test_no_height_never_builds(self, rng):
        n = _index(rng.uniform(0, 1, (9, 9)))
        w = _index(rng.uniform(0, 1, (9, 9)))
        out = fuse_pseudo_labels(n, w, None, self.thresholds)
        assert not np.any(out.codes == 2)

    def test_invalid_pixels_void(self):
        n = _index([[0.8, 0.8]], valid=np.array([[True, False]]))
        w = _index([[0.9, 0.9]])
        out = fuse_pseudo_labels(n, w, None, self.thresholds)
        assert out.codes[0, 1] == LABEL_VOID

    def test_dimension_mismatch(self):
        n = _index([[0.1]])
        w = _index([[0.1, 0.2]])
        with pytest.raises(ValueError, match="dimensions"):
            fuse_pseudo_labels(n, w, None, self.thresholds)

    def test_raising_ndvi_threshold_shrinks_trees(self, rng):
        n = _index(rng.uniform(0, 1, (20, 20)))
        w = _index(rng.uniform(0, 1, (20, 20)))
        lo = fuse_pseudo_labels(n, w, None, ThresholdSet(0.2, 0.4))
        hi = fuse_pseudo_labels(n, w, None, ThresholdSet(0.6, 0.4))
        lo_trees = lo.codes == 1
        hi_trees = hi.codes == 1
        assert np.all(lo_trees | ~hi_trees)     # hi trees subset of lo trees

    def test_pointwise_commutes_with_permutation(self, rng):
        shape = (6, 6)
        nv = rng.uniform(0, 1, shape).astype(np.float32)
        wv = rng.uniform(0, 1, shape).astype(np.float32)
        mv = rng.uniform(0, 5, shape).astype(np.float32)
        perm = rng.permutation(shape[0] * shape[1])

        def scramble(a):
            return a.ravel()[perm].reshape(shape)

        direct = fuse_pseudo_labels(_index(nv), _index(wv), _index(mv),
                                    self.thresholds).codes
        permuted = fuse_pseudo_labels(_index(scramble(nv)), _index(scramble(wv)),
                                      _index(scramble(mv)),
                                      self.thresholds).codes
        np.testing.assert_array_equal(permuted, scramble(direct))

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdSet(t_ndvi=1.2, t_ndwi=0.4)
        with pytest.raises(ValueError):
            ThresholdSet(t_ndvi=0.3, t_ndwi=0.4, t_mbih=0.0)

    def test_thresholds_are_frozen(self):
        thresholds = ThresholdSet(t_ndvi=0.3, t_ndwi=0.4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            thresholds.t_ndvi = 0.5
