"""Raster core: truncation bounds, normalization, remapping, tiling, merge."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sort_truncation_oracle as _sort_oracle
from xferkit import xras
from xferkit.raster import (LABEL_VOID, BandRole, ClassLookup, LabelMap,
                            MultibandRaster, ProbabilityMap, Window,
                            compute_truncation_bounds, extract_patch,
                            merge_probability_patches, normalize_truncate,
                            plan_tiles, remap_labels)


def _single_band(values, dtype, role=BandRole.RED, nodata=None):
    arr = np.asarray(values, dtype=dtype).reshape(1, 1, -1)
    return MultibandRaster(arr, (role,), nodata=nodata)


class TestTruncationBounds:
    def test_uniform_0_to_99(self):
        raster = _single_band(np.arange(100), np.uint8)
        lo, hi, degenerate = compute_truncation_bounds([raster], BandRole.RED)
        assert (lo, hi) == (2.0, 97.0)
        assert not degenerate

    def test_constant_degenerate(self):
        raster = _single_band([500] * 64, np.uint16)
        bounds = compute_truncation_bounds([raster], BandRole.RED)
        assert bounds.lo == bounds.hi == 500.0
        assert bounds.degenerate

    def test_pooling_is_order_invariant(self):
        ramp = np.arange(65536, dtype=np.uint16)
        whole = _single_band(ramp, np.uint16)
        first = _single_band(ramp[::2], np.uint16)
        second = _single_band(ramp[1::2], np.uint16)
        assert compute_truncation_bounds([whole], BandRole.RED) == \
            compute_truncation_bounds([first, second], BandRole.RED) == \
            compute_truncation_bounds([second, first], BandRole.RED)

    def test_matches_sort_oracle_u16(self, rng):
        chunks = [rng.integers(0, 60000, size=rng.integers(10, 500)).astype(np.uint16)
                  for _ in range(4)]
        rasters = [_single_band(c, np.uint16) for c in chunks]
        for lower, upper in ((2, 2), (0, 0), (10, 5)):
            got = compute_truncation_bounds(rasters, BandRole.RED, lower, upper)
            assert (got.lo, got.hi) == _sort_oracle(chunks, lower, upper)

    def test_float_path_within_bin_width(self, rng):
        chunks = [rng.uniform(-5, 20, size=3000).astype(np.float32) for _ in range(3)]
        rasters = [_single_band(c, np.float32) for c in chunks]
        got = compute_truncation_bounds(rasters, BandRole.RED)
        lo, hi = _sort_oracle(chunks, 2, 2)
        bin_w = (max(c.max() for c in chunks) - min(c.min() for c in chunks)) / 65536
        assert abs(got.lo - lo) <= bin_w + 1e-9
        assert abs(got.hi - hi) <= bin_w + 1e-9

    def test_float_bounds_pinned_bit_for_bit(self):
        """Float bounds are bin edges of [min, max]; these hex values pin them
        exactly (the `normalize` record keeps only 6 digits)."""
        rng = np.random.default_rng(2024)
        uniform = rng.uniform(-5, 20, size=5000).astype(np.float32)
        got = compute_truncation_bounds([_single_band(uniform, np.float32)], BandRole.RED)
        assert (got.lo.hex(), got.hi.hex()) == ("-0x1.1ca036b898000p+2",
                                                "0x1.37431670d1000p+4")
        rng = np.random.default_rng(7)
        normal = rng.normal(3.0, 2.0, size=2000).astype(np.float32)
        constant = np.full(300, 1.25, dtype=np.float32)
        with_nan = rng.uniform(-1, 9, size=700).astype(np.float32)
        with_nan[17] = np.nan
        rasters = [_single_band(c, np.float32) for c in (normal, constant, with_nan)]
        got = compute_truncation_bounds(rasters, BandRole.RED)
        assert (got.lo.hex(), got.hi.hex()) == ("-0x1.c9de70eae0000p-1",
                                                "0x1.09a7b35edb000p+3")
        got = compute_truncation_bounds(rasters, BandRole.RED, 10, 5)
        assert (got.lo.hex(), got.hi.hex()) == ("0x1.dc39260080000p-2",
                                                "0x1.defcc0011c000p+2")

    def test_nodata_excluded_and_empty_errors(self):
        raster = _single_band([5, 5, 5, 9], np.uint8, nodata=9)
        bounds = compute_truncation_bounds([raster], BandRole.RED)
        assert bounds.lo == bounds.hi == 5.0
        all_nodata = _single_band([9, 9], np.uint8, nodata=9)
        with pytest.raises(ValueError, match="no valid samples"):
            compute_truncation_bounds([all_nodata], BandRole.RED)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_excluded(self, bad, rng):
        """One NaN or infinite pixel gives the bounds of the band without it."""
        values = rng.uniform(-5, 20, size=500).astype(np.float32)
        with_bad = np.insert(values, 123, bad)
        for lower, upper in ((2, 2), (0, 0)):
            assert compute_truncation_bounds([_single_band(with_bad, np.float32)],
                                             BandRole.RED, lower, upper) == \
                compute_truncation_bounds([_single_band(values, np.float32)],
                                          BandRole.RED, lower, upper)

    def test_missing_band_errors(self):
        raster = _single_band([1, 2], np.uint8, role=BandRole.GREEN)
        with pytest.raises(ValueError, match="NIR"):
            compute_truncation_bounds([raster], BandRole.NIR)


class TestNormalizeTruncate:
    def test_affine_endpoints(self):
        raster = _single_band([10, 20, 30, 5, 40], np.uint8)
        out = normalize_truncate(raster, {0: (10, 30)})
        np.testing.assert_allclose(out.data[0, 0], [0.0, 0.5, 1.0, 0.0, 1.0])
        assert out.normalized and out.dtype.name == "F32"

    def test_degenerate_bounds_map_to_zero(self):
        raster = _single_band([7, 7, 7], np.uint16)
        out = normalize_truncate(raster, {0: (7, 7)})
        np.testing.assert_array_equal(out.data[0, 0], [0.0, 0.0, 0.0])

    def test_nodata_preserved(self):
        raster = _single_band([10, 99, 30], np.uint8, nodata=99)
        out = normalize_truncate(raster, {0: (10, 30)})
        assert out.nodata == -1.0
        np.testing.assert_allclose(out.data[0, 0], [0.0, -1.0, 1.0])

    def test_non_finite_samples_become_nodata(self):
        raster = _single_band([10, np.nan, 30, np.inf, -np.inf], np.float32)
        out = normalize_truncate(raster, {0: (10, 30)})
        assert out.nodata == -1.0
        np.testing.assert_array_equal(out.data[0, 0], [0.0, -1.0, 1.0, -1.0, -1.0])
        np.testing.assert_array_equal(out.valid_mask()[0], [True, False, True, False, False])

    def test_ramp_clamp_fractions_match_oracle(self):
        ramp = np.arange(65536, dtype=np.uint16)
        raster = _single_band(ramp, np.uint16)
        bounds = compute_truncation_bounds([raster], BandRole.RED)
        out = normalize_truncate(raster, {0: (bounds.lo, bounds.hi)})
        lo, hi = _sort_oracle([ramp], 2, 2)
        expect_zero = int((ramp <= lo).sum())
        expect_one = int((ramp >= hi).sum())
        assert int((out.data[0, 0] == 0.0).sum()) == expect_zero
        assert int((out.data[0, 0] == 1.0).sum()) == expect_one
        # about 2% of pixels pinned at each end
        assert abs(expect_zero / ramp.size - 0.02) < 0.001
        assert abs(expect_one / ramp.size - 0.02) < 0.001

    @given(st.lists(st.integers(0, 65535), min_size=2, max_size=60),
           st.integers(0, 65534))
    @settings(max_examples=60, deadline=None)
    def test_monotone_into_unit_interval(self, values, lo):
        hi = lo + 1000
        raster = _single_band(values, np.uint16)
        out = normalize_truncate(raster, {0: (lo, hi)}).data[0, 0]
        assert out.min() >= 0.0 and out.max() <= 1.0
        order = np.argsort(np.asarray(values, dtype=np.int64), kind="stable")
        assert np.all(np.diff(out[order]) >= 0)


class TestRemapLabels:
    def test_identity(self):
        lookup = ClassLookup({0: 0, 1: 1, 2: 2, 3: 3})
        arr = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        np.testing.assert_array_equal(remap_labels(arr, lookup).codes, arr)

    def test_jax_style_elevated_road_to_void(self):
        # source schema: 0 ground, 1 tree, 2 roof, 3 water, 4 elevated road
        lookup = ClassLookup({0: 0, 1: 1, 2: 2, 3: 3, 4: 255})
        arr = np.array([[4, 2], [0, 4]], dtype=np.uint8)
        out = remap_labels(arr, lookup)
        np.testing.assert_array_equal(out.codes, [[255, 2], [0, 255]])

    def test_haiti_london_style_merge(self):
        # 10 road, 11 impervious, 12 agriculture, 13 grassland, 14 barren,
        # 15 shrubland, 1 tree, 2 building, 3 water
        lookup = ClassLookup({10: 0, 11: 0, 12: 0, 13: 0, 14: 0, 15: 255,
                              1: 1, 2: 2, 3: 3})
        arr = np.array([[10, 11, 12], [13, 14, 15], [1, 2, 3]], dtype=np.uint16)
        out = remap_labels(arr, lookup)
        np.testing.assert_array_equal(
            out.codes, [[0, 0, 0], [0, 0, 255], [1, 2, 3]])

    def test_unmapped_codes_listed(self):
        lookup = ClassLookup({0: 0})
        with pytest.raises(ValueError, match=r"\[7, 9\]"):
            remap_labels(np.array([[0, 7], [9, 0]], dtype=np.uint8), lookup)

    def test_idempotent_on_target_schema(self):
        lookup = ClassLookup({0: 0, 1: 1, 2: 2, 3: 3, 255: 255})
        arr = np.array([[0, 255], [3, 1]], dtype=np.uint8)
        once = remap_labels(arr, lookup)
        twice = remap_labels(once.codes, lookup)
        np.testing.assert_array_equal(once.codes, twice.codes)

    def test_lookup_json_roundtrip(self):
        lookup = xras.read_record(ClassLookup, json.loads('{"map": {"4": 255, "0": 0}}'))
        assert lookup.map == {4: 255, 0: 0}
        assert xras.canonical_json(lookup) == '{"map":{"0":0,"4":255}}'
        assert xras.read_record(ClassLookup, json.loads(xras.canonical_json(lookup))) == lookup


class TestPlanTiles:
    def test_exact_fit_single_window(self):
        plan = plan_tiles(512, 512, 512, 0.5)
        assert plan.windows == (Window(0, 0, 512, 512),)
        assert not plan.undersized

    def test_1024_gives_nine_windows(self):
        plan = plan_tiles(1024, 1024, 512, 0.5)
        origins = sorted({w.x for w in plan.windows})
        assert origins == [0, 256, 512]
        assert len(plan.windows) == 9

    def test_clamped_final_window(self):
        plan = plan_tiles(700, 512, 512, 0.5)
        assert sorted({w.x for w in plan.windows}) == [0, 188]
        assert sorted({w.y for w in plan.windows}) == [0]
        assert len(plan.windows) == 2

    def test_undersized_raster(self):
        plan = plan_tiles(100, 40, 512, 0.5)
        assert plan.undersized
        assert plan.windows == (Window(0, 0, 100, 40),)

    @given(st.integers(1, 1500), st.integers(1, 1500),
           st.integers(1, 600), st.floats(0, 0.9))
    @settings(max_examples=120, deadline=None)
    def test_coverage_and_bounds(self, w, h, patch, overlap):
        """Per axis, so that no plan's windows are built."""
        plan = plan_tiles(w, h, patch, overlap)
        assert plan.stride == max(1, int(patch * (1 - overlap)))
        for origins, dim in ((plan.xs, w), (plan.ys, h)):
            size = min(patch, dim)
            origins = np.asarray(origins)
            assert origins[0] == 0 and (origins >= 0).all()
            assert (origins + size <= dim).all()
            steps = np.diff(origins)
            assert (steps[:-1] == plan.stride).all() and (steps > 0).all()
            seen = np.zeros(dim, dtype=bool)
            for o in origins:
                seen[o:o + size] = True
            assert seen.all()

    @pytest.mark.parametrize("w, h, patch, overlap", [
        (3, 2, 2, 0.5), (700, 512, 512, 0.5), (5, 9, 4, 0.0), (100, 40, 512, 0.5)])
    def test_windows_are_y_major_product_of_axes(self, w, h, patch, overlap):
        plan = plan_tiles(w, h, patch, overlap)
        assert plan.windows == tuple(Window(x, y, min(patch, w), min(patch, h))
                                     for y in plan.ys for x in plan.xs)

    def test_explicit_axes_and_coverage(self):
        plan = plan_tiles(5, 3, 2, 0.5)
        assert (plan.xs, plan.ys) == ((0, 1, 2, 3), (0, 1))
        assert plan.windows[:5] == (Window(0, 0, 2, 2), Window(1, 0, 2, 2),
                                    Window(2, 0, 2, 2), Window(3, 0, 2, 2),
                                    Window(0, 1, 2, 2))
        seen = np.zeros((3, 5), dtype=bool)
        for win in plan.windows:
            extract_patch(seen, win)[...] = True
        assert seen.all()


def _patch(window, dist):
    probs = np.zeros((4, window.height, window.width), dtype=np.float32)
    for c, v in enumerate(dist):
        probs[c] = v
    return window, ProbabilityMap(probs)


class TestMerge:
    def test_single_patch_identity(self, rng):
        probs = rng.dirichlet(np.ones(4), size=(3, 5)).astype(np.float32)
        probs = np.moveaxis(probs, -1, 0)
        pmap, labels = merge_probability_patches(
            [(Window(0, 0, 5, 3), ProbabilityMap(probs))], 5, 3)
        np.testing.assert_allclose(pmap.probs, probs, atol=1e-7)
        np.testing.assert_array_equal(labels.codes, np.argmax(probs, axis=0))

    def test_two_patch_mean(self):
        w = Window(0, 0, 1, 1)
        one = _patch(w, (0.4, 0.6, 0.0, 0.0))
        two = _patch(w, (0.2, 0.8, 0.0, 0.0))
        pmap, _ = merge_probability_patches([one, two], 1, 1)
        assert pmap.probs[1, 0, 0] == pytest.approx(0.7, abs=1e-7)
        assert pmap.weight[0, 0]

    def test_exact_tie_takes_lowest_class(self):
        w = Window(0, 0, 1, 1)
        one = _patch(w, (1.0, 0.0, 0.0, 0.0))
        two = _patch(w, (0.0, 0.0, 1.0, 0.0))
        _, labels = merge_probability_patches([one, two], 1, 1)
        assert labels.codes[0, 0] == 0

    def test_uncovered_pixels_void(self):
        pmap, labels = merge_probability_patches(
            [_patch(Window(0, 0, 1, 1), (1, 0, 0, 0))], 2, 1)
        assert labels.codes[0, 1] == LABEL_VOID
        assert pmap.weight[0, 1] == 0

    def test_permutation_invariance_bit_identical(self, rng):
        windows = [Window(x, y, 4, 4) for x in (0, 2, 4) for y in (0, 2)]
        patches = []
        for win in windows:
            raw = rng.dirichlet(np.ones(4), size=(win.height, win.width))
            patches.append((win, ProbabilityMap(np.moveaxis(raw, -1, 0))))
        base, _ = merge_probability_patches(patches, 8, 6)
        for _ in range(5):
            perm = [patches[i] for i in rng.permutation(len(patches))]
            merged, _ = merge_probability_patches(perm, 8, 6)
            assert merged.probs.tobytes() == base.probs.tobytes()
            np.testing.assert_array_equal(merged.weight, base.weight)

    def test_merge_equals_full_image_for_pointwise_classifier(self, rng):
        # context-free classifier: per-pixel softmax of fixed linear scores
        image = rng.uniform(0, 1, size=(3, 30, 22)).astype(np.float32)
        weights = rng.normal(size=(4, 3)).astype(np.float32)

        def classify(pixels):
            scores = np.einsum("cb,byx->cyx", weights, pixels).astype(np.float64)
            e = np.exp(scores - scores.max(axis=0))
            return (e / e.sum(axis=0)).astype(np.float32)

        full = classify(image)
        plan = plan_tiles(22, 30, 16, 0.5)
        patches = [(w, ProbabilityMap(classify(extract_patch(image, w))))
                   for w in plan.windows]
        pmap, labels = merge_probability_patches(patches, 22, 30)
        np.testing.assert_array_equal(
            labels.codes, np.argmax(full, axis=0).astype(np.uint8))
        np.testing.assert_allclose(pmap.probs, full, atol=1e-6)

    def test_bad_patches_rejected(self):
        bad_sum = np.full((4, 1, 1), 0.3, dtype=np.float32)
        with pytest.raises(ValueError, match="sum to 1"):
            merge_probability_patches([(Window(0, 0, 1, 1), ProbabilityMap(bad_sum))], 1, 1)
        ok = ProbabilityMap(np.full((4, 1, 1), 0.25))
        with pytest.raises(ValueError, match="exceeds raster bounds"):
            merge_probability_patches([(Window(3, 0, 1, 1), ok)], 2, 1)
        with pytest.raises(ValueError, match="does not match"):
            merge_probability_patches([(Window(0, 0, 2, 1), ok)], 2, 1)

    def test_nan_patch_rejected(self):
        nan = np.full((4, 1, 1), 0.25, dtype=np.float32)
        nan[2] = np.nan
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            merge_probability_patches([(Window(0, 0, 1, 1), ProbabilityMap(nan))], 1, 1)

    def test_patch_with_uncovered_pixel_rejected(self):
        """A patch must cover its whole window: an all-zero pixel is not a
        vote for the mean."""
        gap = np.zeros((4, 1, 2), dtype=np.float32)
        gap[1, 0, 0] = 1.0
        with pytest.raises(ValueError, match=r"patch at Window\(x=0, y=0, width=2, height=1\) "
                                             r"has 1 uncovered pixels"):
            merge_probability_patches([(Window(0, 0, 2, 1), ProbabilityMap(gap))], 2, 1)


class TestTypes:
    def test_duplicate_role_rejected(self):
        data = np.zeros((2, 1, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="one band per role"):
            MultibandRaster(data, (BandRole.RED, BandRole.RED))

    def test_label_schema_enforced(self):
        with pytest.raises(ValueError, match="outside schema"):
            LabelMap(np.array([[0, 7]], dtype=np.uint8))

    def test_label_schema_is_four_classes_and_void(self):
        LabelMap(np.array([[0, 1, 2, 3, 255]], dtype=np.uint8))
        for code in (4, 128, 254):
            with pytest.raises(ValueError, match=rf"outside schema: \[{code}\]"):
                LabelMap(np.array([[3, code, 255]], dtype=np.uint8))

    def test_probability_sum_enforced(self):
        probs = np.full((4, 1, 1), 0.3, dtype=np.float32)
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityMap(probs, np.ones((1, 1), dtype=np.int32))

    def test_nan_probability_rejected(self):
        probs = np.full((4, 1, 2), 0.25, dtype=np.float32)
        probs[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ProbabilityMap(probs, np.ones((1, 2), dtype=np.int32))

    def test_weight_must_agree_with_probabilities(self):
        probs = np.full((4, 1, 2), 0.25, dtype=np.float32)
        probs[:, 0, 1] = 0.0
        pmap = ProbabilityMap(probs, np.array([[3, 0]]))
        np.testing.assert_array_equal(pmap.weight, [[True, False]])
        assert pmap.weight.dtype == bool
        # a non-zero pixel marked uncovered, an all-zero one covered, a wrong shape
        for weight in ([[0, 0]], [[1, 1]], [[1, 0, 0]]):
            with pytest.raises(ValueError, match="weight"):
                ProbabilityMap(probs, np.array(weight))

    def test_nodata_range_checked(self):
        data = np.zeros((1, 1, 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="nodata"):
            MultibandRaster(data, (BandRole.RED,), nodata=300)
