"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a PASS line (visible with `pytest -s`; the `-v` test names carry
the same information). The synthetic transferability study builds once
per session and is shared by the criterion-7 assertions.
"""

import json
import struct
import time

import numpy as np
import pytest

from oracles import (brute_force_miou, glcm_window_oracle, naive_tophat,
                     otsu_oracle_float)
from xferkit import forest as rf
from xferkit import synth, transfer, xras
from xferkit.indices import mbi_h, otsu_threshold
from xferkit.metrics import agreement_probability, confusion, miou, pearson
from xferkit.raster import (BandRole, ClassLookup, LabelMap, MultibandRaster,
                            merge_probability_patches, remap_labels)


def ok(criterion, detail):
    print(f"[ACCEPTANCE] criterion {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. Otsu oracle equivalence
# ---------------------------------------------------------------------------

def test_c01_otsu_matches_exhaustive_maximizer():
    rng = np.random.default_rng(20260101)
    start = time.perf_counter()
    for _ in range(200):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            mean = rng.uniform(0.05, 0.95)
            sigma = rng.uniform(0.02, 0.2)
            count = int(rng.integers(200, 4000))
            parts.append(rng.normal(mean, sigma, count))
        samples = np.clip(np.concatenate(parts), 0.0, 1.0)
        got = otsu_threshold(samples, bins=256)
        assert got.threshold == otsu_oracle_float(samples, bins=256)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(1, f"200 histograms, exact bin-edge match, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. mIoU oracle equivalence
# ---------------------------------------------------------------------------

def test_c02_miou_matches_brute_force():
    rng = np.random.default_rng(20260102)
    start = time.perf_counter()
    for _ in range(100):
        pred = rng.integers(0, 4, (64, 64)).astype(np.uint8)
        ref = rng.integers(0, 4, (64, 64)).astype(np.uint8)
        pred[rng.uniform(size=pred.shape) < 0.1] = 255
        ref[rng.uniform(size=ref.shape) < 0.1] = 255
        got = miou(confusion(LabelMap(pred), LabelMap(ref))).miou
        assert abs(got - brute_force_miou(pred, ref)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(2, f"100 random 64x64 pairs within 1e-12, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Top-hat oracle
# ---------------------------------------------------------------------------

def test_c03_tophat_matches_naive_geodesic_oracle():
    rng = np.random.default_rng(20260103)
    sizes = (3, 5, 9)
    for i in range(50):
        dsm = (rng.integers(0, 160, size=(32, 32)) * 0.25).astype(np.float32)
        se = sizes[i % len(sizes)]
        raster = MultibandRaster(dsm[None], (BandRole.DSM,))
        got = mbi_h(raster, se_size=se).values
        np.testing.assert_array_equal(got, naive_tophat(dsm, se))
        # level-shift invariance, exact on this dyadic grid
        shifted = MultibandRaster((dsm + np.float32(512.0))[None], (BandRole.DSM,))
        np.testing.assert_array_equal(
            mbi_h(shifted, se_size=se).values, got)
    flat = MultibandRaster(np.full((1, 32, 32), 7.5, dtype=np.float32),
                           (BandRole.DSM,))
    assert not mbi_h(flat, se_size=9).values.any()
    ok(3, "50 random 32x32 DSMs exact, flat zero, level-shift invariant")


# ---------------------------------------------------------------------------
# 4. GLCM oracle
# ---------------------------------------------------------------------------

def test_c04_glcm_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(20260104)
    params = rf.GlcmParams(window=5, levels=8)
    for _ in range(100):
        q = rng.integers(0, 8, size=(5, 5)).astype(np.int16)
        feats = rf.glcm_feature_image(q, params)
        expect = glcm_window_oracle(q, 5, 8, params.offsets, 2, 2)
        np.testing.assert_allclose(feats[:, 2, 2], expect, atol=1e-9, rtol=0)
    const = rf.glcm_feature_image(np.full((5, 5), 3, dtype=np.int16), params)
    assert const[0, 2, 2] == 0.0      # contrast
    assert const[3, 2, 2] == 1.0      # energy
    assert const[4, 2, 2] == 0.0      # entropy
    ok(4, "100 random 5x5 windows within 1e-9, constant-window exact")


# ---------------------------------------------------------------------------
# synthetic transferability study (criteria 5 and 7 share it)
# ---------------------------------------------------------------------------

STUDY_HP = dict(max_depth=12, min_samples_leaf=20, min_samples_split=40)
DROPOUT_PLANES = slice(3, 10)       # NIR and the six GLCM planes


def _feature_scene(rgbn, agl, gt, params):
    glcm = rf.glcm_features(rgbn, params)
    return rgbn, agl, gt, rf.stack_features(rgbn, glcm, agl)


@pytest.fixture(scope="session")
def study():
    start = time.perf_counter()
    params = rf.GlcmParams()
    domains = {
        "A": synth.DomainSpec(seed=101, psf=False),
        "B": synth.DomainSpec(seed=202, psf=False,
                              gain=(0.82, 0.79, 0.80, 0.77)),
        "C": synth.DomainSpec(seed=303, psf=False,
                              gain=(0.52, 0.50, 0.51, 0.48)),
    }
    scenes = {
        name: [_feature_scene(*triple, params)
               for triple in synth.generate_domain(spec, 3)]
        for name, spec in domains.items()
    }

    def train_on(domain, trees=50, samples=50_000, dropout=False):
        stacks = [entry[3] for entry in scenes[domain]]
        gts = [entry[2] for entry in scenes[domain]]
        if dropout:
            stacks = [s.copy() for s in stacks]
            for s in stacks:
                s[DROPOUT_PLANES] = 0.0
        data = rf.sample_pixels(stacks, gts, samples, seed=11)
        hp = rf.RfHyperparams(n_trees=trees, seed=11, **STUDY_HP)
        return rf.rf_train(data, hp), dropout

    models = {
        "rf_a": train_on("A"),
        "rf_b": train_on("B"),
        "rf_c": train_on("C"),
        "rf_a_few_trees": train_on("A", trees=2),
        "rf_a_low_data": train_on("A", samples=300),
        "rf_a_dropout": train_on("A", dropout=True),
    }

    def predict(model, dropout, stack):
        if dropout:
            stack = stack.copy()
            stack[DROPOUT_PLANES] = 0.0
        pmap = rf.rf_predict(model, stack)
        return transfer.Prediction(pmap.argmax_labels(), pmap)

    by_domain = {
        domain: transfer.assess_scenes(
            [transfer.Scene(rgbn, agl, gt) for rgbn, agl, gt, _ in entries],
            {model_id: [predict(model, dropout, entry[3]) for entry in entries]
             for model_id, (model, dropout) in models.items()},
            domain_id=domain, timestamp="study")
        for domain, entries in scenes.items()
    }
    # model-major order, as the correlation sums read it
    reports = [by_domain[domain][i] for i in range(len(models))
               for domain in scenes]
    elapsed = time.perf_counter() - start
    return {
        "domains": domains,
        "scenes": scenes,
        "models": models,
        "reports": reports,
        "by_id": {(r.model_id, r.domain_id): r for r in reports},
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# 5. tiling / merge equivalence with the trained RF
# ---------------------------------------------------------------------------

def test_c05_tiled_prediction_equals_full_image(study, monkeypatch):
    model = study["models"]["rf_a"][0]
    spec = synth.DomainSpec(width=768, height=640, seed=101, psf=False)
    rgbn, agl, _, stack = _feature_scene(*synth.generate_scene(spec, 0),
                                         rf.GlcmParams())
    full = rf.rf_predict(model, stack)

    pmap, labels = transfer.predict_tiled(model, stack, patch_size=512,
                                          overlap=0.5)
    np.testing.assert_array_equal(labels.codes, full.argmax_labels().codes)

    # bit-identical merge under patch-order shuffling
    from xferkit.raster import extract_patch, plan_tiles
    plan = plan_tiles(stack.shape[2], stack.shape[1], 512, 0.5)
    patches = [(w, rf.rf_predict(model, np.ascontiguousarray(
        extract_patch(stack, w)))) for w in plan.windows]
    rng = np.random.default_rng(5)
    for _ in range(3):
        shuffled = [patches[i] for i in rng.permutation(len(patches))]
        merged, _ = merge_probability_patches(shuffled, stack.shape[2],
                                              stack.shape[1])
        assert merged.probs.tobytes() == pmap.probs.tobytes()

    # bit-identical for any worker count
    blobs = set()
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("XFERKIT_THREADS", threads)
        tiled, _ = transfer.predict_tiled(model, stack, patch_size=512,
                                          overlap=0.5)
        blobs.add(tiled.probs.tobytes())
    assert len(blobs) == 1
    ok(5, "tiled == full argmax everywhere; merge bit-identical under "
          "shuffling and XFERKIT_THREADS in {1,2,8}")


# ---------------------------------------------------------------------------
# 6. agreement probability Monte-Carlo
# ---------------------------------------------------------------------------

def test_c06_agreement_probability_monte_carlo():
    rng = np.random.default_rng(20260106)
    trials = 100_000
    for _ in range(20):
        p_sup = float(rng.uniform())
        p_index = float(rng.uniform())
        sup_correct = rng.uniform(size=trials) < p_sup
        index_correct = rng.uniform(size=trials) < p_index
        simulated = float((sup_correct == index_correct).mean())
        assert abs(simulated - agreement_probability(p_sup, p_index)) < 0.01
    ok(6, "20 random pairs, 1e5 trials each, within 0.01")


# ---------------------------------------------------------------------------
# 7. synthetic transferability study
# ---------------------------------------------------------------------------

def test_c07a_source_to_target_drop(study):
    by_id = study["by_id"]
    gap = by_id[("rf_a", "A")].gt_miou - by_id[("rf_a", "C")].gt_miou
    assert gap >= 0.10
    assert len(study["reports"]) >= 8
    assert study["elapsed"] < 300.0
    ok("7a", f"mIoU(A->A) - mIoU(A->C) = {gap:.3f} >= 0.10; "
             f"{len(study['reports'])} points in {study['elapsed']:.0f}s")


def test_c07b_index_miou_correlates_with_gt(study):
    reports = study["reports"]
    stats = pearson([r.index_miou for r in reports],
                    [r.gt_miou for r in reports])
    assert stats.r >= 0.6
    ok("7b", f"r(index-mIoU, gt-mIoU) = {stats.r:.3f} >= 0.6 "
             f"over {stats.n} points")


def test_c07c_index_beats_confidence_baseline(study):
    index_stats, conf_stats = transfer.correlate_predictors(study["reports"])
    assert index_stats.r > conf_stats.r
    ok("7c", f"r_index = {index_stats.r:.3f} > r_confidence = {conf_stats.r:.3f}")


def test_c07d_in_domain_model_ranks_first(study):
    by_id = study["by_id"]
    sources = [by_id[("rf_a", "A")], by_id[("rf_b", "A")], by_id[("rf_c", "A")]]
    ranking = transfer.rank_models(sources, by="index_miou")
    assert ranking.entries[0][0] == "rf_a"
    # and every A-trained model outranks the shifted-domain models on A
    full = transfer.rank_models([r for r in study["reports"]
                                 if r.domain_id == "A"], by="index_miou")
    position = {model: rank for model, _, rank in full.entries}
    a_trained = [m for m in position if m not in ("rf_b", "rf_c")]
    assert max(position[m] for m in a_trained) < min(position["rf_b"],
                                                     position["rf_c"])
    ok("7d", f"ranking on A: {[m for m, _, _ in full.entries]}")


# ---------------------------------------------------------------------------
# 8. pseudo-label sanity on synthetic data
# ---------------------------------------------------------------------------

def test_c08_pseudo_labels_match_interior_ground_truth():
    spectra = {c: synth.ClassSpectrum(s.mean, 0.0, 0.0)
               for c, s in synth._default_spectra().items()}
    spec = synth.DomainSpec(seed=42, spectra=spectra)    # psf stays on
    rgbn, agl, gt = synth.generate_scene(spec, 0)
    pseudo = transfer.pseudo_labels(rgbn, agl).labels

    interior = np.ones_like(gt.codes, dtype=bool)
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            interior &= np.roll(np.roll(gt.codes, dy, 0), dx, 1) == gt.codes
    interior[:2, :] = interior[-2:, :] = False
    interior[:, :2] = interior[:, -2:] = False
    agreement = float((pseudo.codes == gt.codes)[interior].mean())
    assert agreement >= 0.95
    ok(8, f"interior agreement {agreement:.4f} >= 0.95 "
          f"({int(interior.sum())} pixels)")


# ---------------------------------------------------------------------------
# 9. format golden tests
# ---------------------------------------------------------------------------

def test_c09_format_goldens(tmp_path):
    rng = np.random.default_rng(20260109)
    for dtype in (np.uint8, np.uint16, np.float32):
        if dtype == np.float32:
            data = rng.uniform(0, 1, (3, 7, 5)).astype(dtype)
        else:
            data = rng.integers(0, np.iinfo(dtype).max, (3, 7, 5)).astype(dtype)
        raster = MultibandRaster(data, (BandRole.RED, BandRole.GREEN,
                                        BandRole.OTHER), nodata=0, gsd=0.31)
        blob = xras.write_xras(raster)
        assert xras.write_xras(xras.read_xras(blob)) == blob

    golden = (b"XRAS" + (1).to_bytes(2, "little") + (2).to_bytes(4, "little")
              + (1).to_bytes(4, "little") + (1).to_bytes(2, "little")
              + bytes([0, 0]) + struct.pack("<dd", 0.0, 0.0) + bytes([0])
              + bytes([7, 255]))
    decoded = xras.read_xras(golden)
    assert decoded.data[0].tolist() == [[7, 255]]

    spec = synth.DomainSpec(width=64, height=64, seed=9)
    rgbn, agl, gt = synth.generate_scene(spec, 0)
    paths = []
    for i in (0, 1):
        report = transfer.assess(gt, rgbn, agl, model_id="m", domain_id="d",
                                 gt=gt,
                                 timestamp="2026-01-01T00:00:00+00:00")
        path = tmp_path / f"report_{i}.json"
        xras.write_report(report, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    ok(9, "roundtrips byte-identical, golden file decodes, reports byte-stable")


# ---------------------------------------------------------------------------
# 10. label remap conformance
# ---------------------------------------------------------------------------

def test_c10_label_remap_conformance():
    # JAX-style source schema: 0 ground, 1 tree, 2 roof, 3 water,
    # 4 elevated road -> void
    jax = xras.read_record(ClassLookup, json.loads(
        '{"map": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 255}}'))
    raw = np.array([[0, 1, 2], [3, 4, 4]], dtype=np.uint8)
    out = remap_labels(raw, jax)
    np.testing.assert_array_equal(out.codes, [[0, 1, 2], [3, 255, 255]])

    # Haiti/London-style: road, impervious, agriculture, grassland, barren
    # merge into ground; shrubland becomes void; tree/building/water keep
    haiti = ClassLookup({20: 0, 21: 0, 22: 0, 23: 0, 24: 0, 25: 255,
                         1: 1, 2: 2, 3: 3})
    raw = np.array([[20, 21, 22, 23, 24], [25, 1, 2, 3, 20]], dtype=np.uint16)
    out = remap_labels(raw, haiti)
    np.testing.assert_array_equal(
        out.codes, [[0, 0, 0, 0, 0], [255, 1, 2, 3, 0]])
    ok(10, "JAX elevated-road to void; Haiti/London merges to ground, "
           "shrubland to void")
