"""End-to-end CLI coverage over temp directories."""

import hashlib
import json

import numpy as np
import pytest

import xferkit
from xferkit import _kernels, _parallel, synth, transfer, xras
from xferkit import forest as rf
from xferkit.cli import build_parser, main
from xferkit.indices import ThresholdSet
from xferkit.raster import BandRole, LabelMap, MultibandRaster, ProbabilityMap

COMMANDS = sorted(build_parser()[1])


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


def test_rf_train_rejects_zero_features_per_split(domain_dir, tmp_path, capsys):
    out = tmp_path / "model.xrfc"
    rc = main(["rf", "train",
               "--raster", str(domain_dir / "scene_000_rgbn.xras"),
               "--labels", str(domain_dir / "scene_000_labels.xras"),
               *RF_ARGS, "--features-per-split", "0", "--out", str(out)])
    assert rc == 1
    assert "features_per_split must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_generate_outputs(domain_dir):
    manifest = json.loads((domain_dir / "manifest.json").read_text())
    assert manifest["n_scenes"] == 2
    labels = xras.read_label_map(domain_dir / "scene_001_labels.xras")
    assert labels.codes.shape == (96, 96)
    rgbn = xras.read_xras(domain_dir / "scene_000_rgbn.xras")
    assert rgbn.normalized


def test_synth_generate_rejects_unknown_spec_key(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 32, "height": 32, "water_fracton": 0.0}))
    out = tmp_path / "domain"
    assert main(["synth", "generate", "--spec", str(spec), "--out-dir", str(out)]) == 1
    assert "water_fracton" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("spec,field", [
    ({"width": "64"}, "width"),
    ({"width": 64.5}, "width"),
    ({"seed": True}, "seed"),
    ({"spectra": [1]}, "spectra"),
    ({"spectra": {"7": {"mean": [0.1, 0.2, 0.1, 0.6]}}}, "spectra"),
    ({"spectra": {"1": {"mean": [0.1, 0.2]}}}, "mean"),
    ({"spectra": {"1": {"mean": [0.1, 0.2, 0.1, 0.6], "sigma": "0.1"}}}, "sigma"),
    ({"gain": [1, 1]}, "gain"),
    ({"bias": [0, 0, 0, None]}, "bias"),
    ({"tree_fraction": "0.2"}, "tree_fraction"),
    ({"building_height_range": [5]}, "building_height_range"),
    ({"canopy_height_range": [8, 3]}, "canopy_height_range"),
    ({"psf": "no"}, "psf"),
    ({"spectra": {"1": {"mean": [0.1, 0.2, 0.1, 0.6], "sigma": -0.02}}}, "sigma"),
    ({"spectra": {"1": {"mean": [0.1, 0.2, 0.1, 0.6], "texture": -0.02}}}, "texture"),
], ids=["width-str", "width-float", "seed-bool", "spectra-list", "spectra-key-7",
        "mean-2", "sigma-str", "gain-2", "bias-null", "tree_fraction-str",
        "building_height_range-1", "canopy_height_range-reversed", "psf-str",
        "sigma-negative", "texture-negative"])
def test_synth_generate_rejects_mistyped_spec_value(tmp_path, capsys, spec, field):
    """A spec file is outside input: a value of the wrong type, length,
    order or sign exits 1 with an error that names its field."""
    (tmp_path / "spec.json").write_text(json.dumps({"width": 32, "height": 32, **spec}))
    out = tmp_path / "domain"
    assert main(["synth", "generate", "--spec", str(tmp_path / "spec.json"),
                 "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (out / "manifest.json").exists()


def test_synth_generate_needs_a_scene(tmp_path, capsys):
    assert main(["synth", "generate", "--scenes", "0", "--out-dir", str(tmp_path / "d")]) == 1
    assert "need at least one scene" in capsys.readouterr().err


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


@pytest.mark.parametrize("option,value", [("--lower", "nan"), ("--upper", "inf"),
                                          ("--lower", "-inf")])
def test_normalize_refuses_non_finite_percentages(tmp_path, capsys, option, value):
    """NaN passed both `< 0` checks and died converting NaN to an integer;
    every non-finite percentage is refused by name, before any output."""
    src = tmp_path / "raw.xras"
    xras.write_xras(MultibandRaster(np.arange(16, dtype=np.uint8).reshape(1, 4, 4),
                                    (BandRole.RED,)), src)
    out_dir = tmp_path / "norm"
    assert main(["normalize", "--input", str(src), "--bands", "r", f"{option}={value}",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: percentages must be >= 0 and sum to below 100")
    assert value in err
    assert not out_dir.exists()


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


def test_rf_predict_tiled_writes_full_image_bytes(domain_dir, model_path, tmp_path,
                                                 monkeypatch):
    """Many row blocks write the probability and label files of one
    full-image block, byte for byte."""
    outs = {}
    default = rf.PREDICT_BLOCK_ROWS
    for block in (default, 1000):      # 96 x 96 px: 1 block, then 10
        monkeypatch.setattr(rf, "PREDICT_BLOCK_ROWS", block)
        probs, labels = tmp_path / f"probs_{block}.xras", tmp_path / f"labels_{block}.xras"
        assert main(["rf", "predict", "--model", str(model_path),
                     "--raster", str(domain_dir / "scene_001_rgbn.xras"),
                     "--height", str(domain_dir / "scene_001_agl.xras"),
                     "--window", "5", "--levels", "8", "--out", str(probs),
                     "--labels-out", str(labels)]) == 0
        outs[block] = (probs.read_bytes(), labels.read_bytes())
    assert outs[1000] == outs[default]


def test_rf_predict_has_no_tiling_options(capsys):
    assert _exit_code(["rf", "predict", "-h"]) == 0
    out = capsys.readouterr().out
    assert "--patch" not in out and "--overlap" not in out


def test_rf_predict_height_mismatch_errors(domain_dir, model_path, tmp_path):
    rc = main(["rf", "predict", "--model", str(model_path),
               "--raster", str(domain_dir / "scene_001_rgbn.xras"),
               "--window", "5", "--levels", "8",
               "--out", str(tmp_path / "p.xras")])
    assert rc == 1


def test_rf_predict_refuses_a_model_of_another_width(domain_dir, tmp_path, capsys):
    """A model whose feature count is neither 10 nor 11 is refused by
    `rf_predict`'s own check, with an error line and no output."""
    rng = np.random.default_rng(0)
    data = rf.PixelDataset(rng.uniform(0, 1, (40, 9)), rng.integers(0, 4, 40))
    model = tmp_path / "d9.xrfc"
    rf.save_forest(rf.rf_train(data, rf.RfHyperparams(n_trees=1, min_samples_leaf=1,
                                                      min_samples_split=2)), model)
    out = tmp_path / "p.xras"
    assert main(["rf", "predict", "--model", str(model),
                 "--raster", str(domain_dir / "scene_001_rgbn.xras"),
                 "--window", "5", "--levels", "8", "--out", str(out)]) == 1
    assert "does not match d=9" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("lookup,message", [
    ("[]", "ClassLookup must be a JSON object, not []"),
    ('{"map": [1]}', "ClassLookup.map must be a JSON object, not [1]"),
    ('{"map": {"0": 1.5}}', "ClassLookup.map[0] must be an integer, not 1.5"),
    ('{"map": {"0": true}}', "ClassLookup.map[0] must be an integer, not True"),
], ids=["list", "map-list", "code-float", "code-bool"])
def test_remap_rejects_malformed_lookup(tmp_path, capsys, lookup, message):
    raw_path = tmp_path / "raw.xras"
    xras.write_xras(MultibandRaster(np.zeros((1, 2, 3), dtype=np.uint8),
                                    (BandRole.OTHER,)), raw_path)
    (tmp_path / "lookup.json").write_text(lookup)
    out = tmp_path / "remapped.xras"
    assert main(["remap", "--labels", str(raw_path), "--lookup",
                 str(tmp_path / "lookup.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("value", [0.0, True])
def test_merge_rejects_non_integer_window_fields(tmp_path, value, capsys):
    """A float errors out cleanly, and a bool is not read as 1."""
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 4, 4), 0.25), np.ones((4, 4))), probs)
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    manifest = json.loads((tiles / "tiles.json").read_text())
    manifest["windows"][0]["x"] = value
    (tiles / "tiles.json").write_text(json.dumps(manifest))
    assert main(["merge", "--patches", str(tiles), "--out", str(tmp_path / "m.xras")]) == 1
    assert f"error: manifest: TilePatch.x must be an integer, not {value!r}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("where", ["absolute", "parent", "subdirectory"])
def test_merge_reads_only_files_in_the_patch_directory(tmp_path, where, capsys):
    """A manifest naming a path, not a file name, is refused before any
    patch is read, even when the file it names holds a fitting patch."""
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 4, 4), 0.25)), probs)
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    manifest = json.loads((tiles / "tiles.json").read_text())
    patch = (tiles / manifest["windows"][0]["file"]).read_bytes()
    elsewhere = {"absolute": tmp_path / "outside" / "elsewhere.xras",
                 "parent": tmp_path / "outside" / "elsewhere.xras",
                 "subdirectory": tiles / "sub" / "x.xras"}[where]
    elsewhere.parent.mkdir()
    elsewhere.write_bytes(patch)
    name = {"absolute": str(elsewhere), "parent": "../outside/elsewhere.xras",
            "subdirectory": "sub/x.xras"}[where]
    manifest["windows"][0]["file"] = name
    (tiles / "tiles.json").write_text(json.dumps(manifest))
    out = tmp_path / "m.xras"
    assert main(["merge", "--patches", str(tiles), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: manifest: TilePatch.file must be a file name in the patch directory, "
        f"not {name!r} at TileManifest.windows[0]\n")
    assert not out.exists()


def test_merge_names_the_patch_with_an_uncovered_pixel(tmp_path, capsys):
    probs = np.full((4, 4, 4), 0.25, dtype=np.float32)
    probs[:, 3, 3] = 0.0
    xras.write_xras(ProbabilityMap(probs), tmp_path / "probs.xras")
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(tmp_path / "probs.xras"), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    assert main(["merge", "--patches", str(tiles), "--out", str(tmp_path / "m.xras")]) == 1
    err = capsys.readouterr().err
    assert "file='tile_00002_00002.xras'" in err
    assert "has 1 uncovered pixels (all four probabilities 0)" in err


@pytest.mark.parametrize("field,value", [("width", 1.0), ("width", "1"), ("width", True),
                                         ("height", 4.0), ("height", 0), ("height", -4)])
def test_merge_rejects_bad_manifest_sizes(tmp_path, field, value, capsys):
    """The scene's size must be an int >= 1: a float or a string errors
    out cleanly, and a bool is not read as 1."""
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 4, 1), 0.25)), probs)
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    manifest = json.loads((tiles / "tiles.json").read_text())
    assert (manifest["width"], manifest["height"]) == (1, 4)
    manifest[field] = value
    (tiles / "tiles.json").write_text(json.dumps(manifest))
    assert main(["merge", "--patches", str(tiles), "--out", str(tmp_path / "m.xras")]) == 1
    expected = (f"error: manifest: TileManifest.{field} must be an integer, not {value!r}"
                if type(value) is not int else
                "error: manifest width and height must be integers >= 1")
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda m: m["windows"][0].update(file=5),
    lambda m: m.update(windows={"a": 1}),
    lambda m: m.update(windows=[5]),
    lambda m: [m],
], ids=["file-int", "windows-object", "window-int", "manifest-list"])
def test_merge_rejects_mistyped_manifest(tmp_path, edit, capsys):
    """Each exits 1 with an error line, not a TypeError traceback."""
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 4, 4), 0.25)), probs)
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    manifest = json.loads((tiles / "tiles.json").read_text())
    manifest = edit(manifest) or manifest
    (tiles / "tiles.json").write_text(json.dumps(manifest))
    assert main(["merge", "--patches", str(tiles), "--out", str(tmp_path / "m.xras")]) == 1
    assert "error: manifest" in capsys.readouterr().err


def test_merge_rejects_non_f32_patches(tmp_path, capsys):
    """One-hot U16 patches sum to 1, but are not probability files."""
    onehot = np.zeros((4, 4, 4), dtype=np.uint16)
    onehot[0] = 1
    probs = tmp_path / "probs.xras"
    xras.write_xras(MultibandRaster(onehot, (BandRole.OTHER,) * 4), probs)
    tiles = tmp_path / "tiles"
    assert main(["tile", "--input", str(probs), "--patch", "2",
                 "--overlap", "0", "--out-dir", str(tiles)]) == 0
    out = tmp_path / "m.xras"
    assert main(["merge", "--patches", str(tiles), "--out", str(out)]) == 1
    assert "error: probability rasters must be 4-band F32" in capsys.readouterr().err
    assert not out.exists()


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


def test_config_default_does_not_leak(domain_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pseudolabel": {"mbih_threshold": 4.5}}))
    report = tmp_path / "p.json"
    args = ["pseudolabel", "--raster", str(domain_dir / "scene_000_rgbn.xras"),
            "--height", str(domain_dir / "scene_000_agl.xras"), "--height-kind", "agl",
            "--out", str(tmp_path / "p.xras"), "--report", str(report)]
    assert main([*args, "--config", str(config)]) == 0
    assert json.loads(report.read_text())["thresholds"]["t_mbih"] == 4.5
    assert main(args) == 0
    assert json.loads(report.read_text())["thresholds"]["t_mbih"] == 2.0


@pytest.mark.parametrize("command,config,key", [
    (["rf", "train"], {"rf_train": {"trees": 2.5}}, "trees"),
    (["rf", "train"], {"rf_train": {"stratified": 1}}, "stratified"),
    (["rf", "train"], {"rf_train": {"height": "h.xras"}}, "height"),
    (["pseudolabel"], {"pseudolabel": {"mbih_threshold": [2]}}, "mbih_threshold"),
], ids=["int-float", "flag-int", "list-string", "float-list"])
def test_config_value_of_the_wrong_type_exits_1(domain_dir, tmp_path, capsys,
                                                command, config, key):
    """argparse converts only string defaults: any other value must already
    have its option's type, or the command exits 1 naming the key."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    rgbn = str(domain_dir / "scene_000_rgbn.xras")
    rest = (["--labels", str(domain_dir / "scene_000_labels.xras")]
            if command[0] == "rf" else [])
    assert main([*command, "--config", str(path), "--raster", rgbn, *rest,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config value") and key in err
    assert not (tmp_path / "out").exists()


def test_config_values_that_fit_are_taken(tmp_path):
    """An int stands for a float, and a string is converted like a flag."""
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 4, 4), 0.25)), probs)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"tile": {"overlap": 0, "patch": "2"}}))
    assert main(["tile", "--config", str(config), "--input", str(probs),
                 "--out-dir", str(tmp_path / "t")]) == 0
    manifest = json.loads((tmp_path / "t" / "tiles.json").read_text())
    assert (manifest["overlap"], manifest["patch"], len(manifest["windows"])) == (0, 2, 4)


@pytest.mark.parametrize("kind,given", [("agl", "dsm"), ("dsm", "agl")])
@pytest.mark.parametrize("command", ["pseudolabel", "assess"])
def test_height_kind_must_match_the_band_role(domain_dir, tmp_path, capsys,
                                              kind, given, command):
    height = tmp_path / f"{kind}.xras"
    agl = xras.read_xras(domain_dir / "scene_000_agl.xras")
    role = BandRole.AGL if kind == "agl" else BandRole.DSM
    xras.write_xras(MultibandRaster(agl.data, (role,)), height)
    rest = (["--pred", str(domain_dir / "scene_000_labels.xras"),
             "--model-id", "m", "--domain-id", "d"] if command == "assess" else [])
    out = tmp_path / "out"
    assert main([command, "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                 "--height", str(height), "--height-kind", given, *rest,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: --height-kind {given}")
    assert not out.exists()


def test_agl_height_is_scored_as_agl_without_height_kind(domain_dir, tmp_path):
    """The band role decides: an AGL file gives the same pseudo labels and
    report bytes with or without --height-kind agl."""
    args = ["--raster", str(domain_dir / "scene_000_rgbn.xras"),
            "--height", str(domain_dir / "scene_000_agl.xras")]
    report = ["--pred", str(domain_dir / "scene_000_labels.xras"), "--model-id", "m",
              "--domain-id", "d", "--timestamp", "t0"]
    outs = {}
    for kind in ([], ["--height-kind", "agl"]):
        name = "".join(kind) or "none"
        assert main(["pseudolabel", *args, *kind,
                     "--out", str(tmp_path / f"{name}.xras")]) == 0
        assert main(["assess", *args, *kind, *report,
                     "--out", str(tmp_path / f"{name}.json")]) == 0
        outs[name] = [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("xras", "json")]
    assert outs["none"] == outs["--height-kindagl"]
    pseudo = xras.read_label_map(tmp_path / "none.xras")
    assert (pseudo.codes == 2).any()          # the height rule made buildings


@pytest.mark.parametrize("command,option,value,message", [
    ("pseudolabel", "--mbih-threshold", "nan", "height threshold must be finite and positive"),
    ("pseudolabel", "--mbih-threshold", "inf", "height threshold must be finite and positive"),
    ("assess", "--se-size", "4", "se_size must be odd and >= 3"),
    ("assess", "--otsu-bins", "100000000000", "need 2 to 65536 bins"),
], ids=["mbih-nan", "mbih-inf", "se-size-even-no-height", "otsu-bins-huge"])
def test_settings_that_cannot_run_exit_1(domain_dir, tmp_path, capsys,
                                         command, option, value, message):
    """Each is refused with an error line and no output, where it used to
    run: a NaN or infinite height threshold marks no building, an even
    se_size went into the config digest, and 10**11 Otsu bins tried to
    allocate 745 GiB."""
    rest = (["--pred", str(domain_dir / "scene_000_labels.xras"), "--model-id", "m",
             "--domain-id", "d"] if command == "assess" else
            ["--height", str(domain_dir / "scene_000_agl.xras")])
    out = tmp_path / "out"
    assert main([command, "--raster", str(domain_dir / "scene_000_rgbn.xras"), *rest,
                 option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


# sha256 of `tiles.json` for two cuts of a 90x70 probability map: patch 32
# with overlap 0.3, and an undersized patch 128
TILES_SHA256 = {
    ("32", "0.3"): "d8d2b1944b012dd50123a23fdb314e6c883431252d77673bf02fe4747c361f09",
    ("128", "0.5"): "3363bf64cb6f3a4b471fe39e6a7f035e3c0bd357b833b808abb995d988aed78d",
}


@pytest.mark.parametrize("patch,overlap", list(TILES_SHA256))
def test_tiles_manifest_bytes_pinned(tmp_path, patch, overlap):
    probs = tmp_path / "probs.xras"
    xras.write_xras(ProbabilityMap(np.full((4, 70, 90), 0.25)), probs)
    assert main(["tile", "--input", str(probs), "--patch", patch,
                 "--overlap", overlap, "--out-dir", str(tmp_path / "t")]) == 0
    blob = (tmp_path / "t" / "tiles.json").read_bytes()
    assert hashlib.sha256(blob).hexdigest() == TILES_SHA256[patch, overlap]


@pytest.mark.parametrize("flag", ["--config", "--conf", "--conf="])
def test_config_file_read_under_any_spelling_argparse_accepts(tmp_path, flag):
    """An abbreviation that argparse takes for --config applies the file."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 32, "height": 32}))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"synth_generate": {"scenes": 2, "spec": str(spec)}}))
    out = tmp_path / "domain"
    given = [flag + str(config)] if flag.endswith("=") else [flag, str(config)]
    assert main(["synth", "generate", *given, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_scenes"] == 2 and manifest["spec"]["width"] == 32


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_top_level_help_lists_every_command(capsys):
    assert _exit_code(["-h"]) == 0
    out = capsys.readouterr().out
    for path in COMMANDS:
        assert path.split()[0] in out
    assert _exit_code(["rf", "-h"]) == 0
    out = capsys.readouterr().out
    assert "train" in out and "predict" in out


@pytest.mark.parametrize("path", COMMANDS)
def test_help_exits_zero_for_every_command(path, capsys):
    assert _exit_code([*path.split(), "-h"]) == 0
    assert f"usage: xferkit {path}" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    assert _exit_code(["bogus", "--out", "x"]) == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_command_with_stray_word_reports_its_own_options(capsys):
    # "assess foo" names the assess command; its options are still parsed
    assert _exit_code(["assess", "foo"]) == 2
    assert "xferkit assess: error: the following arguments are required: --raster" \
        in capsys.readouterr().err


def test_info_command(domain_dir, tmp_path, capsys):
    assert main(["info"]) == 0
    lines = capsys.readouterr().out.splitlines()
    lane = _kernels.BACKEND
    assert lines == [
        f"xferkit {xferkit.__version__}",
        f"kernel reconstruct_dilation: {lane}",
        f"kernel tree_apply: {lane}",
        "kernel grey_erode_square: pure",
        "kernel glcm_feature_image: pure",
        "kernel best_split: pure",
        f"fallback reason: {_kernels.FALLBACK_REASON or 'none'}",
        f"threads: {_parallel.worker_count()}",
        f"numpy {np.__version__}",
    ]
    # no other command prints it
    labels = str(domain_dir / "scene_000_labels.xras")
    assert main(["evaluate", "--pred", labels, "--gt", labels,
                 "--out", str(tmp_path / "e.json")]) == 0
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("command", ["rank", "correlate"])
@pytest.mark.parametrize("malform,field", [
    (lambda doc: [], "TransferReport"),
    (lambda doc: {**doc, "thresholds": [{"t_ndvi": 0.2, "t_ndwi": 0.1, "t_ndbi": 0.3}]},
     "thresholds"),
    (lambda doc: {**doc, "index_miou": "0.5"}, "index_miou"),
    (lambda doc: {**doc, "thresholds": [5]}, "thresholds"),
], ids=["list", "threshold-key", "index_miou-str", "thresholds-int"])
def test_reports_command_rejects_malformed_report(tmp_path, capsys, command,
                                                  malform, field):
    """A report file is outside input: one that does not fit
    `TransferReport` exits 1 with an error that names its field."""
    paths = []
    for model_id, score in (("a", 0.5), ("b", 0.75)):
        report = transfer.TransferReport(
            model_id=model_id, domain_id="d", index_miou=score,
            index_miou_strict=score, index_per_class_iou=(score, None, None, None),
            thresholds=(ThresholdSet(0.2, 0.1),), valid_pixels=10,
            config_digest="x", timestamp="t", mean_confidence=score, gt_miou=score)
        paths.append(tmp_path / f"{model_id}.json")
        xras.write_report(report, paths[-1])
    out = tmp_path / "out.csv"
    assert main([command, "--reports", *map(str, paths), "--out", str(out)]) == 0
    out.unlink()
    paths[-1].write_text(json.dumps(malform(json.loads(paths[-1].read_text()))))
    assert main([command, "--reports", *map(str, paths), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


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


def test_assess_rejects_probs_that_neither_sum_to_1_nor_are_0(domain_dir, tmp_path,
                                                              capsys):
    """A pixel at 0.1 per class is an error, not an uncovered pixel."""
    data = np.full((4, 96, 96), 0.25, dtype=np.float32)
    data[:, 5, 7] = 0.1
    probs = tmp_path / "probs.xras"
    xras.write_xras(MultibandRaster(data, (BandRole.OTHER,) * 4), probs)
    out = tmp_path / "report.json"
    rc = main(["assess", "--raster", str(domain_dir / "scene_000_rgbn.xras"),
               "--pred", str(domain_dir / "scene_000_labels.xras"),
               "--probs", str(probs), "--model-id", "m", "--domain-id", "d",
               "--out", str(out)])
    assert rc == 1
    assert "error: probabilities must sum to 1" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_does_not_change_output(domain_dir, model_path, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(rf, "PREDICT_BLOCK_ROWS", 1000)      # 10 blocks
    outs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("XFERKIT_THREADS", threads)
        out = tmp_path / f"probs_{threads}.xras"
        assert main(["rf", "predict", "--model", str(model_path),
                     "--raster", str(domain_dir / "scene_000_rgbn.xras"),
                     "--height", str(domain_dir / "scene_000_agl.xras"),
                     "--window", "5", "--levels", "8", "--out", str(out)]) == 0
        outs[threads] = out.read_bytes()
    assert outs["1"] == outs["8"]


# sha256 of each JSON and CSV record that `test_record_bytes_pinned` writes
RECORD_SHA256 = {
    "domain/manifest.json":
        "7a16ace5f9061aae575384e1cbf134e048907b054d79f85fe97c0b8129b20c27",
    "pseudo.json":
        "1716b96b067eed46d02cc79ba9cdccd68851022da83c5c109395fadd233dd0f4",
    "eval.json":
        "0ae05fc53490bbcf2603684c15ceddc07177110623b4785dd8ab4735800306e6",
    "report_gt.json":
        "d640272fea1bae925e40dd2ecc795459a17a3de46744ed72f6d0b2ee53c547c3",
    "report_rot.json":
        "c97d9388dee872223d2a5dbda8abf42957800d7f9e321a5cdb091555fb8b54ab",
    "rank.csv":
        "0acf0b6a5ef4a7e235eb3ba4ca7f15c5794a3da3e1a3851cbb852cd5d4064d2f",
    "corr.csv":
        "cfd0ed3c345d16de4f9930491fe0b9234621de38d519375848c2d96d42612b94",
    "norm/normalization.json":
        "1394f737d8af000b35e8098dc6c907fe5b87196d34d9338afabbdab11d33394d",
}


def test_record_bytes_pinned(tmp_path):
    """The CLI's records, byte for byte, on a small seeded domain: a
    manifest from a --spec with a gain and two partial spectra, the
    pseudolabel report, evaluate, two assess reports with --probs and
    --gt, rank, correlate and normalize."""
    spec = {"width": 64, "height": 64, "seed": 5, "gain": [0.9, 1.0, 1.1, 1.0],
            "spectra": {"1": {"mean": [0.1, 0.22, 0.09, 0.62]},
                        "3": {"mean": [0.05, 0.12, 0.15, 0.02], "sigma": 0.015}}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    dom = tmp_path / "domain"
    assert main(["synth", "generate", "--spec", str(tmp_path / "spec.json"),
                 "--scenes", "2", "--out-dir", str(dom)]) == 0
    rgbn, agl, gt = (str(dom / f"scene_000_{k}.xras") for k in ("rgbn", "agl", "labels"))
    height = ["--height", agl, "--height-kind", "agl"]
    assert main(["pseudolabel", "--raster", rgbn, *height, "--out",
                 str(tmp_path / "pseudo.xras"), "--report", str(tmp_path / "pseudo.json")]) == 0
    assert main(["evaluate", "--pred", str(tmp_path / "pseudo.xras"), "--gt", gt,
                 "--out", str(tmp_path / "eval.json")]) == 0

    codes = xras.read_label_map(gt).codes
    for model, shift, top in (("gt", 0, 0.7), ("rot", 1, 0.4)):
        pred = (codes + shift) % 4
        probs = np.full((4,) + codes.shape, (1 - top) / 3, dtype=np.float32)
        for c in range(4):
            probs[c][pred == c] = top
        xras.write_xras(LabelMap(pred.astype(np.uint8)), tmp_path / f"{model}.xras")
        xras.write_xras(ProbabilityMap(probs), tmp_path / f"{model}_probs.xras")
        assert main(["assess", "--raster", rgbn, *height,
                     "--pred", str(tmp_path / f"{model}.xras"),
                     "--probs", str(tmp_path / f"{model}_probs.xras"), "--gt", gt,
                     "--model-id", model, "--domain-id", "pinned",
                     "--timestamp", "2026-01-01T00:00:00+00:00",
                     "--out", str(tmp_path / f"report_{model}.json")]) == 0
    reports = [str(tmp_path / f"report_{m}.json") for m in ("gt", "rot")]
    assert main(["rank", "--reports", *reports, "--out", str(tmp_path / "rank.csv")]) == 0
    assert main(["correlate", "--reports", *reports, "--out", str(tmp_path / "corr.csv")]) == 0
    assert main(["normalize", "--input", rgbn, str(dom / "scene_001_rgbn.xras"),
                 "--out-dir", str(tmp_path / "norm")]) == 0

    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in RECORD_SHA256}
    assert digests == RECORD_SHA256
