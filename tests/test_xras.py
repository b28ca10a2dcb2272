"""XRAS container and canonical serialization tests."""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from xferkit import xras
from xferkit.cli import TileManifest, TilePatch
from xferkit.indices import ThresholdSet
from xferkit.raster import BandRole, Dtype, LabelMap, MultibandRaster, ProbabilityMap
from xferkit.synth import ClassSpectrum, DomainSpec
from xferkit.transfer import TransferReport


def _raster(dtype, shape=(2, 3, 4), **kw):
    rng = np.random.default_rng(7)
    if dtype == np.float32:
        data = rng.uniform(0, 1, shape).astype(np.float32)
    else:
        data = rng.integers(0, np.iinfo(dtype).max, shape).astype(dtype)
    roles = (BandRole.RED, BandRole.NIR)[: shape[0]] + \
        (BandRole.OTHER,) * max(0, shape[0] - 2)
    return MultibandRaster(data, roles[: shape[0]], **kw)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.float32])
def test_roundtrip_bytes_identical(dtype):
    raster = _raster(dtype, nodata=3.0, gsd=0.31)
    blob = xras.write_xras(raster)
    again = xras.write_xras(xras.read_xras(blob))
    assert blob == again


def test_roundtrip_preserves_fields():
    raster = _raster(np.float32, nodata=-1.0, gsd=0.5)
    raster.normalized = True
    back = xras.read_xras(xras.write_xras(raster))
    assert back.nodata == -1.0
    assert back.gsd == 0.5
    assert back.normalized is True
    assert back.band_roles == raster.band_roles
    np.testing.assert_array_equal(back.data, raster.data)



@pytest.mark.parametrize("kind", ["bytes", "bytearray", "file"])
def test_decoded_array_is_writable_and_owns_its_memory(kind, tmp_path):
    # 3 bands: the payload starts at an odd offset in the blob
    blob = xras.write_xras(_raster(np.float32, shape=(3, 5, 7)))
    src = {"bytes": blob, "bytearray": bytearray(blob), "file": tmp_path / "r.xras"}[kind]
    if kind == "file":
        src.write_bytes(blob)
    data = xras.read_xras(src).data
    assert data.flags.writeable and data.flags.aligned
    if kind != "file":
        assert not np.shares_memory(data, np.frombuffer(src, dtype=np.uint8))
        data[...] = 0
        assert bytes(src) == blob


def test_golden_2x1_u8_file():
    # hand-assembled: 2x1 single-band U8 raster with pixels (7, 255)
    golden = (b"XRAS"
              + (1).to_bytes(2, "little")          # version
              + (2).to_bytes(4, "little")          # width
              + (1).to_bytes(4, "little")          # height
              + (1).to_bytes(2, "little")          # bands
              + bytes([0])                         # dtype U8
              + bytes([0])                         # flags
              + struct.pack("<d", 0.0)             # nodata
              + struct.pack("<d", 0.0)             # gsd
              + bytes([0])                         # role OTHER
              + bytes([7, 255]))                   # payload
    raster = xras.read_xras(golden)
    assert (raster.width, raster.height, raster.bands) == (2, 1, 1)
    assert raster.dtype == Dtype.U8
    np.testing.assert_array_equal(raster.data[0], [[7, 255]])
    # the payload is exactly two bytes after the fixed-length header
    assert golden[-2:] == b"\x07\xff"
    assert xras.write_xras(raster) == golden


def test_bad_magic_rejected():
    blob = bytearray(xras.write_xras(_raster(np.uint8)))
    blob[:4] = b"XRAZ"
    with pytest.raises(ValueError, match="unsupported format"):
        xras.read_xras(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(xras.write_xras(_raster(np.uint8)))
    blob[4:6] = (9).to_bytes(2, "little")
    with pytest.raises(ValueError, match="unsupported format"):
        xras.read_xras(bytes(blob))


def test_truncated_payload_rejected():
    blob = xras.write_xras(_raster(np.uint16))
    with pytest.raises(ValueError, match="corrupt file"):
        xras.read_xras(blob[:-3])
    with pytest.raises(ValueError, match="corrupt file"):
        xras.read_xras(blob + b"\x00")


def test_nan_payload_rejected():
    data = np.full((1, 2, 2), np.nan, dtype=np.float32)
    raster = MultibandRaster(data, (BandRole.OTHER,))
    with pytest.raises(ValueError, match="NaN"):
        xras.write_xras(raster)


def test_label_map_roundtrip_and_validation():
    labels = LabelMap(np.array([[0, 1], [3, 255]], dtype=np.uint8))
    back = xras.read_label_map(xras.write_xras(labels))
    np.testing.assert_array_equal(back.codes, labels.codes)

    bad = MultibandRaster(np.array([[[0, 9]]], dtype=np.uint8), (BandRole.OTHER,))
    with pytest.raises(ValueError, match="outside schema"):
        xras.read_label_map(xras.write_xras(bad))


def test_probability_map_roundtrip():
    probs = np.zeros((4, 2, 2), dtype=np.float32)
    probs[0] = 0.25
    probs[1] = 0.75
    weight = np.ones((2, 2), dtype=np.int32)
    weight[0, 0] = 0
    probs[:, 0, 0] = 0.0
    pmap = ProbabilityMap(probs, weight)
    back = xras.read_probability_map(xras.write_xras(pmap))
    np.testing.assert_array_equal(back.weight, weight)
    np.testing.assert_array_equal(back.probs, pmap.probs)


def _probability_file(pixel_value: float) -> bytes:
    """A 2x2 probability raster, uniform but for pixel (1, 0)."""
    probs = np.full((4, 2, 2), 0.25, dtype=np.float32)
    probs[:, 1, 0] = pixel_value
    return xras.write_xras(MultibandRaster(probs, (BandRole.OTHER,) * 4))


def test_probability_pixel_of_zeros_is_uncovered_and_void():
    pmap = xras.read_probability_map(_probability_file(0.0))
    np.testing.assert_array_equal(pmap.weight, [[True, True], [False, True]])
    np.testing.assert_array_equal(pmap.argmax_labels().codes, [[0, 0], [255, 0]])


@pytest.mark.parametrize("value", [0.1, 0.175])
def test_probability_pixel_short_of_1_rejected(value):
    """Sums of 0.4 and 0.7 are both errors; neither reads as uncovered."""
    with pytest.raises(ValueError, match="sum to 1"):
        xras.read_probability_map(_probability_file(value))


def test_probability_map_with_nan_pixel_rejected():
    """A NaN pixel fails the range test rather than reading as uncovered."""
    probs = np.full((4, 2, 2), 0.25, dtype=np.float32)
    blob = bytearray(xras.write_xras(MultibandRaster(probs, (BandRole.OTHER,) * 4)))
    payload = len(blob) - probs.nbytes      # the writer refuses NaN samples
    for c in range(4):                      # pixel (row 1, col 0) of each plane
        offset = payload + (c * 4 + 2) * 4
        blob[offset:offset + 4] = struct.pack("<f", math.nan)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        xras.read_probability_map(blob)


def test_canonical_json_deterministic_and_sorted():
    doc = {"b": 1, "a": [1.0, 0.123456789, True, None], "c": {"y": 2, "x": 1e-7}}
    one = xras.canonical_json(doc)
    two = xras.canonical_json({"c": {"x": 1e-7, "y": 2}, "a": [1.0, 0.123456789, True, None], "b": 1})
    assert one == two
    assert one == '{"a":[1,0.123457,true,null],"b":1,"c":{"x":1e-07,"y":2}}'


def test_canonical_json_stringifies_keys_before_sorting():
    assert xras.canonical_json({2: "a", 10: "b"}) == '{"10":"b","2":"a"}'
    with pytest.raises(ValueError, match="duplicate keys"):
        xras.canonical_json({1: 0, "1": 0})


def test_canonical_json_writes_dataclass_fields_that_are_not_none():
    @dataclass
    class Inner:
        t: float
        kind: str | None = None

    @dataclass
    class Outer:
        name: str
        parts: tuple[Inner, ...]
        score: float | None = None
        by_class: dict | None = None

    doc = Outer("x", (Inner(0.5), Inner(0.25, "otsu")), by_class={1: None})
    assert (xras.canonical_json(doc) == '{"by_class":{"1":null},"name":"x",'
            '"parts":[{"t":0.5},{"kind":"otsu","t":0.25}]}')
    with pytest.raises(TypeError):
        xras.canonical_json(Outer)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        xras.canonical_json({"x": float("inf")})


RECORDS = {
    "report-bare": TransferReport("m", "d", 0.5, 0.25, (0.5, None, 0.75, 0.0),
                                  (), 0, "ab", "t0"),
    "report-rich": TransferReport(
        "m", "d", 0.875, 0.625, (1.0, None, 0.5, 0.125),
        (ThresholdSet(0.25, 0.125), ThresholdSet(0.5, 0.0625, 5.5, "manual")),
        4096, "ab", "t0", mean_confidence=0.75, gt_miou=0.5, gt_miou_strict=0.25,
        gt_per_class_iou=(0.5, None, None, 0.0), per_scene_index_miou=(1.0, 0.75),
        per_scene_gt_miou=(0.5, 0.5)),
    "spec-partial-spectra": DomainSpec(
        width=48, height=40, seed=3, psf=False, gain=(0.9, 1.0, 1.1, 1.25),
        spectra={1: ClassSpectrum((0.1, 0.5, 0.25, 0.75), 0.0, 0.125),
                 3: ClassSpectrum((0.05, 0.1, 0.2, 0.0))}),
    "tiles": TileManifest(4, 4, 2, 0.0, 2, False, tuple(
        TilePatch(x, y, 2, 2, f"tile_{i:03d}.xras")
        for i, (x, y) in enumerate([(0, 0), (2, 0), (0, 2), (2, 2)]))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_read_record_inverts_canonical_json(name):
    record = RECORDS[name]
    assert xras.read_record(type(record), json.loads(xras.canonical_json(record))) == record


@pytest.mark.parametrize("text,field", [
    ('{"width": true}', "DomainSpec.width"),
    ('{"gsd": false}', "DomainSpec.gsd"),
    ('{"gsd": NaN}', "DomainSpec.gsd"),
    ('{"gsd": Infinity}', "DomainSpec.gsd"),
    ('{"building_height_range": [1, -Infinity]}', r"DomainSpec.building_height_range\[1\]"),
    ('{"gsd": 1%s}' % ("0" * 400), "DomainSpec.gsd"),
    ('{"gain": [1, 1, 1]}', "DomainSpec.gain"),
    ('{"gain": [1, 1, 1, 1, 1]}', "DomainSpec.gain"),
    ('{"spectra": {"one": {"mean": [0, 0, 0, 0]}}}', "DomainSpec.spectra keys"),
    ('{"spectra": {"-1": {"mean": [0, 0, 0, 0]}}}', "DomainSpec.spectra keys"),
    ('{"spectra": {"1": {"mean": [0, 0, 0, 0], "texture": null}}}',
     "ClassSpectrum.texture"),
], ids=["int-bool", "float-bool", "float-nan", "float-inf", "float-neg-inf",
        "float-huge-int", "tuple-short", "tuple-long", "key-word", "key-negative",
        "float-null"])
def test_read_record_refuses_what_does_not_fit(text, field):
    """json.loads accepts NaN, Infinity and integers beyond float range, and
    a bool is an int to Python; none fits an int or float field."""
    with pytest.raises(ValueError, match=field):
        xras.read_record(DomainSpec, json.loads(text))


@pytest.mark.parametrize("record,edit,message", [
    ("report-rich", lambda d: d["thresholds"][1].pop("t_ndwi"),
     r"missing ThresholdSet keys: \['t_ndwi'\] at TransferReport.thresholds\[1\]"),
    ("spec-partial-spectra", lambda d: d["spectra"]["3"].update(bogus=1),
     r"unknown ClassSpectrum keys: \['bogus'\] at DomainSpec.spectra\[3\]"),
    ("tiles", lambda d: d["windows"][3].update(x=0.0),
     r"TilePatch.x must be an integer, not 0.0 at TileManifest.windows\[3\]"),
    ("report-rich", lambda d: d["thresholds"][1].update(t_ndvi="high"),
     r"ThresholdSet.t_ndvi must be a finite number, not 'high' at TransferReport.thresholds\[1\]"),
    ("report-rich", lambda d: d["thresholds"][1].update(t_ndvi=1.5),
     r"NDVI/NDWI thresholds must lie in \[0, 1\] at TransferReport.thresholds\[1\]"),
], ids=["tuple-item", "dict-item", "window-field", "threshold-field", "threshold-value"])
def test_read_record_locates_a_refused_item(record, edit, message):
    """A fault inside a record that sits in a tuple or dict, in its keys, its
    fields or its own checks, ends with the outer field and the index or
    key, named once and made into text only when it is refused."""
    doc = json.loads(xras.canonical_json(RECORDS[record]))
    edit(doc)
    with pytest.raises(ValueError, match=f"^{message}$"):
        xras.read_record(type(RECORDS[record]), doc)


@pytest.mark.parametrize("name", RECORDS)
def test_read_record_inspects_each_annotation_once(name, monkeypatch):
    """The reader of a type is made on its first read; later reads do not
    look at the annotations again."""
    record = RECORDS[name]
    doc = json.loads(xras.canonical_json(record))
    xras.read_record(type(record), doc)

    def refuse(tp):
        raise AssertionError(f"annotation {tp} inspected again")

    monkeypatch.setattr(xras.typing, "get_origin", refuse)
    monkeypatch.setattr(xras.typing, "get_type_hints", refuse)
    assert xras.read_record(type(record), doc) == record


def test_write_report_byte_stable(tmp_path):
    doc = {"x": 0.1234567, "y": "s"}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    xras.write_report(doc, p1)
    xras.write_report(doc, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_schema(tmp_path):
    path = tmp_path / "t.csv"
    xras.write_csv(path, ("rank", "model_id", "score"),
                   [(1, "a", 0.5), (2, "b", 0.25)])
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,model_id,score"
    assert lines[1] == "1,a,0.5"
    assert len(lines) == 3
