"""End-to-end CLI coverage over temp directories."""

import json

import numpy as np
import pytest

from xferkit import synth, transfer, xras
from xferkit.cli import main
from xferkit.raster import BandRole, MultibandRaster, ProbabilityMap


@pytest.fixture(scope="module")
def domain_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("domain")
    spec = {"width": 96, "height": 96, "seed": 21}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["synth", "generate", "--spec", str(spec_path),
                 "--scenes", "2", "--out-dir", str(out)]) == 0
    return out


RF_ARGS = ["--window", "5", "--levels", "8", "--trees", "4",
           "--max-depth", "8", "--min-leaf", "5", "--min-split", "10"]


@pytest.fixture(scope="module")
def model_path(domain_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.xrfc"
    rc = main(["rf", "train",
               "--raster", str(domain_dir / "scene_000_rgbn.xras"),
               "--labels", str(domain_dir / "scene_000_labels.xras"),
               "--height", str(domain_dir / "scene_000_agl.xras"),
               *RF_ARGS, "--samples", "3000", "--seed", "5",
               "--out", str(out), "--json-out", str(out) + ".json"])
    assert rc == 0
    return out


def test_synth_generate_outputs(domain_dir):
    manifest = json.loads((domain_dir / "manifest.json").read_text())
    assert manifest["n_scenes"] == 2
    labels = xras.read_label_map(domain_dir / "scene_001_labels.xras")
    assert labels.codes.shape == (96, 96)
    rgbn = xras.read_xras(domain_dir / "scene_000_rgbn.xras")
    assert rgbn.normalized


def test_normalize_command(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.integers(0, 60000, (4, 16, 16)).astype(np.uint16)
    raster = MultibandRaster(data, (BandRole.RED, BandRole.GREEN,
                                    BandRole.BLUE, BandRole.NIR))
    src = tmp_path / "raw.xras"
    xras.write_xras(raster, src)
    out_dir = tmp_path / "norm"
    assert main(["normalize", "--input", str(src), "--bands", "r,g,b,nir",
                 "--lower", "2", "--upper", "2",
                 "--out-dir", str(out_dir)]) == 0
    normalized = xras.read_xras(out_dir / "raw.xras")
    assert normalized.normalized
    assert normalized.data.min() >= 0.0 and normalized.data.max() <= 1.0
    report = json.loads((out_dir / "normalization.json").read_text())
    assert set(report["bounds"]) == {"red", "green", "blue", "nir"}


def test_pseudolabel_command(domain_dir, tmp_path):
    out = tmp_path / "pseudo.xras"
    report = tmp_path / "pseudo.json"
    rc = main(["pseudolabel", "--raster", str(domain_dir / "scene_000_rgbn.xras"),
               "--height", str(domain_dir / "scene_000_agl.xras"),
               "--height-kind", "agl", "--out", str(out),
               "--report", str(report)])
    assert rc == 0
    labels = xras.read_label_map(out)
    gt = xras.read_label_map(domain_dir / "scene_000_labels.xras")
    assert (labels.codes == gt.codes).mean() > 0.9
    doc = json.loads(report.read_text())
    assert doc["thresholds"]["source"] == "otsu"
    assert doc["thresholds"]["t_mbih"] == 2.0


def test_rf_predict_assess_rank_correlate(domain_dir, model_path, tmp_path):
    probs, labels = tmp_path / "probs.xras", tmp_path / "labels.xras"
    rc = main(["rf", "predict", "--model", str(model_path),
               "--raster", str(domain_dir / "scene_001_rgbn.xras"),
               "--height", str(domain_dir / "scene_001_agl.xras"),
               "--window", "5", "--levels", "8",
               "--out", str(probs), "--labels-out", str(labels)])
    assert rc == 0

    report_a = tmp_path / "a.json"
    rc = main(["assess", "--raster", str(domain_dir / "scene_001_rgbn.xras"),
               "--height", str(domain_dir / "scene_001_agl.xras"),
               "--height-kind", "agl",
               "--pred", str(labels), "--probs", str(probs),
               "--gt", str(domain_dir / "scene_001_labels.xras"),
               "--model-id", "rf_small", "--domain-id", "synthA",
               "--timestamp", "2026-01-01T00:00:00+00:00",
               "--out", str(report_a)])
    assert rc == 0
    doc = json.loads(report_a.read_text())
    assert 0.0 <= doc["index_miou"] <= 1.0
    assert "gt_miou" in doc and "mean_confidence" in doc

    # a second, degraded "model": the ground truth rotated by one class,
    # with matching one-hot probabilities
    from xferkit.raster import LabelMap, ProbabilityMap
    gt_map = xras.read_label_map(domain_dir / "scene_001_labels.xras")
    rotated = gt_map.codes.copy()
    live = rotated != 255
    rotated[live] = (rotated[live] + 1) % 4
    rot_path = tmp_path / "rot.xras"
    xras.write_xras(LabelMap(rotated), rot_path)
    onehot = np.zeros((4,) + rotated.shape, dtype=np.float32)
    for c in range(4):
        onehot[c][rotated == c] = 1.0
    rot_probs = tmp_path / "rot_probs.xras"
    xras.write_xras(ProbabilityMap(onehot, live.astype(np.int32)), rot_probs)
    report_b = tmp_path / "b.json"
    rc = main(["assess", "--raster", str(domain_dir / "scene_001_rgbn.xras"),
               "--height", str(domain_dir / "scene_001_agl.xras"),
               "--height-kind", "agl",
               "--pred", str(rot_path), "--probs", str(rot_probs),
               "--gt", str(domain_dir / "scene_001_labels.xras"),
               "--model-id", "rot", "--domain-id", "synthA",
               "--timestamp", "2026-01-01T00:00:00+00:00",
               "--out", str(report_b)])
    assert rc == 0

    rank_csv = tmp_path / "rank.csv"
    assert main(["rank", "--reports", str(report_a), str(report_b),
                 "--by", "index_miou", "--out", str(rank_csv)]) == 0
    lines = rank_csv.read_text().splitlines()
    assert lines[0] == "rank,model_id,score"
    assert lines[1].startswith("1,rf_small")

    corr_csv = tmp_path / "corr.csv"
    assert main(["correlate", "--reports", str(report_a), str(report_b),
                 "--out", str(corr_csv)]) == 0
    lines = corr_csv.read_text().splitlines()
    assert lines[0] == "predictor,r,r2,slope,intercept,n"
    assert lines[1].startswith("index_miou,")
    assert lines[2].startswith("confidence,")


def test_rf_predict_tiled_writes_full_image_bytes(domain_dir, model_path, tmp_path):
    """Overlapping tiles write the probability and label files of one
    full-image prediction, byte for byte."""
    outs = {}
    for patch in ("0", "48"):
        probs, labels = tmp_path / f"probs_{patch}.xras", tmp_path / f"labels_{patch}.xras"
        assert main(["rf", "predict", "--model", str(model_path),
                     "--raster", str(domain_dir / "scene_001_rgbn.xras"),
                     "--height", str(domain_dir / "scene_001_agl.xras"),
                     "--window", "5", "--levels", "8", "--patch", patch,
                     "--overlap", "0.5", "--out", str(probs),
                     "--labels-out", str(labels)]) == 0
        outs[patch] = (probs.read_bytes(), labels.read_bytes())
    assert outs["48"] == outs["0"]


def test_rf_predict_height_mismatch_errors(domain_dir, model_path, tmp_path):
    rc = main(["rf", "predict", "--model", str(model_path),
               "--raster", str(domain_dir / "scene_001_rgbn.xras"),
               "--window", "5", "--levels", "8",
               "--out", str(tmp_path / "p.xras")])
    assert rc == 1


def test_remap_command(tmp_path):
    raw = MultibandRaster(
        np.array([[[0, 1, 2], [3, 4, 4]]], dtype=np.uint8), (BandRole.OTHER,))
    raw_path = tmp_path / "raw.xras"
    xras.write_xras(raw, raw_path)
    lookup = tmp_path / "lookup.json"
    lookup.write_text('{"map": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 255}}')
    out = tmp_path / "remapped.xras"
    assert main(["remap", "--labels", str(raw_path), "--lookup", str(lookup),
                 "--out", str(out)]) == 0
    np.testing.assert_array_equal(xras.read_label_map(out).codes,
                                  [[0, 1, 2], [3, 255, 255]])


def test_evaluate_command(domain_dir, tmp_path):
    out = tmp_path / "eval.json"
    gt = str(domain_dir / "scene_000_labels.xras")
    assert main(["evaluate", "--pred", gt, "--gt", gt, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["miou"] == 1.0


def test_tile_and_merge_roundtrip(domain_dir, model_path, tmp_path):
    probs = tmp_path / "probs.xras"
    assert main(["rf", "predict", "--model", str(model_path),
                 "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                 "--height", str(domain_dir / "scene_000_agl.xras"),
                 "--window", "5", "--levels", "8", "--out", str(probs)]) == 0
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "64",
                 "--overlap", "0.5", "--out-dir", str(tiles)]) == 0
    manifest = json.loads((tiles / "tiles.json").read_text())
    assert len(manifest["windows"]) == 4    # 96 px, patch 64, stride 32
    merged = tmp_path / "merged.xras"
    labels_out = tmp_path / "merged_labels.xras"
    assert main(["merge", "--patches", str(tiles), "--out", str(merged),
                 "--labels-out", str(labels_out)]) == 0
    original = xras.read_probability_map(probs)
    back = xras.read_probability_map(merged)
    np.testing.assert_allclose(back.probs, original.probs, atol=1e-6)
    np.testing.assert_array_equal(
        xras.read_label_map(labels_out).codes,
        original.argmax_labels().codes)


def test_config_file_defaults_and_override(domain_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pseudolabel": {"mbih_threshold": 4.5}}))
    out = tmp_path / "p.xras"
    report = tmp_path / "p.json"
    assert main(["pseudolabel", "--config", str(config),
                 "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                 "--height", str(domain_dir / "scene_000_agl.xras"),
                 "--height-kind", "agl",
                 "--out", str(out), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["thresholds"]["t_mbih"] == 4.5
    # explicit flag beats the config value
    assert main(["pseudolabel", "--config", str(config),
                 "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                 "--height", str(domain_dir / "scene_000_agl.xras"),
                 "--height-kind", "agl", "--mbih-threshold", "3.0",
                 "--out", str(out), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["thresholds"]["t_mbih"] == 3.0


def test_errors_exit_nonzero(tmp_path, capsys):
    bogus = tmp_path / "bogus.xras"
    bogus.write_bytes(b"XRAZ" + b"\x00" * 40)
    rc = main(["pseudolabel", "--raster", str(bogus),
               "--out", str(tmp_path / "o.xras")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert main(["evaluate", "--pred", str(tmp_path / "missing.xras"),
                 "--gt", str(bogus), "--out", str(tmp_path / "e.json")]) == 1


def test_rank_rejects_duplicate_model_ids(tmp_path, capsys):
    paths = []
    for i, score in enumerate((0.7, 0.4)):
        report = transfer.TransferReport(
            model_id="same", domain_id="d", index_miou=score,
            index_miou_strict=score, index_per_class_iou=(score, None, None, None),
            thresholds=(), valid_pixels=10, config_digest="x", timestamp="t")
        paths.append(tmp_path / f"r{i}.json")
        xras.write_report(report, paths[-1])
    rank_csv = tmp_path / "rank.csv"
    assert main(["rank", "--reports", *map(str, paths),
                 "--out", str(rank_csv)]) != 0
    assert "duplicate model ids" in capsys.readouterr().err
    assert not rank_csv.exists()


def test_rank_ties_at_written_precision(tmp_path):
    # 0.70000049 and 0.70000012 both write as 0.7, so they tie on reading
    paths = []
    for model_id, score in (("b", 0.70000049), ("a", 0.70000012)):
        report = transfer.TransferReport(
            model_id=model_id, domain_id="d", index_miou=score,
            index_miou_strict=score, index_per_class_iou=(score, None, None, None),
            thresholds=(), valid_pixels=10, config_digest="x", timestamp="t")
        paths.append(tmp_path / f"{model_id}.json")
        xras.write_report(report, paths[-1])
    rank_csv = tmp_path / "rank.csv"
    assert main(["rank", "--reports", *map(str, paths),
                 "--out", str(rank_csv)]) == 0
    assert rank_csv.read_text().splitlines() == [
        "rank,model_id,score", "1,a,0.7", "1,b,0.7"]


def test_assess_rejects_misregistered_probs(domain_dir, tmp_path, capsys):
    probs = tmp_path / "small_probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 8, 8), 0.25, dtype=np.float32),
                                   np.ones((8, 8), dtype=np.int32)), probs)
    out = tmp_path / "report.json"
    rc = main(["assess", "--raster", str(domain_dir / "scene_000_rgbn.xras"),
               "--pred", str(domain_dir / "scene_000_labels.xras"),
               "--probs", str(probs), "--model-id", "m", "--domain-id", "d",
               "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_does_not_change_output(domain_dir, model_path, tmp_path,
                                            monkeypatch):
    outs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("XFERKIT_THREADS", threads)
        out = tmp_path / f"probs_{threads}.xras"
        assert main(["rf", "predict", "--model", str(model_path),
                     "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                     "--height", str(domain_dir / "scene_000_agl.xras"),
                     "--window", "5", "--levels", "8", "--patch", "48",
                     "--out", str(out)]) == 0
        outs[threads] = out.read_bytes()
    assert outs["1"] == outs["8"]
