"""XRAS raster container and canonical report serialization.

The XRAS byte layout, canonical JSON and the CSV tables are the toolkit's
wire contracts. Everything is little-endian and bit-exact:

    magic      4s   b"XRAS"
    version    u16  1
    width      u32
    height     u32
    bands      u16
    dtype      u8   0=U8, 1=U16, 2=F32
    flags      u8   bit0 nodata present, bit1 normalized
    nodata     f64  (0 when absent)
    gsd        f64  (0 when unknown)
    band_roles bands x u8
    payload    band-sequential, row-major samples

A probability map is a 4-band F32 raster of class probabilities. It
holds no coverage plane: a pixel is uncovered exactly when its four
samples are 0, and every other pixel must sum to 1 within 1e-3.

Records (reports, manifests, specs) are written by one rule,
`canonical_json`: a dataclass becomes an object of its fields that are
not None; dict keys become strings, and two keys that stringify alike are
an error; object keys are sorted; tuples are lists; floats keep 6
significant digits.

They are read back by its inverse, `read_record`, by the annotations of
the dataclass's fields: an object becomes the dataclass, omitted fields
taking their defaults, or a `dict[int, ...]` with decimal keys; a list
becomes a tuple of the annotated length; `int` and `float` (finite) refuse
bools, `str` and `bool` match exactly, and null fits only `X | None`.
Anything else, an unknown or a missing key too, is a ValueError that
names the field.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import struct
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .raster import (N_CLASSES, BandRole, Dtype, LabelMap, MultibandRaster,
                     ProbabilityMap)

MAGIC = b"XRAS"
VERSION = 1
_HEADER = struct.Struct("<4sHIIHBBdd")
FLAG_NODATA = 0x01
FLAG_NORMALIZED = 0x02


def write_xras(obj: MultibandRaster | LabelMap | ProbabilityMap,
               path: str | Path | None = None) -> bytes:
    """Encode a raster-like object; write to `path` when given.

    Label maps become U8 single-band rasters with role OTHER; probability
    maps become their F32 4-band stack as given, so uncovered pixels,
    which hold four zeros, stay uncovered on reading. F32 payloads with
    NaN are rejected: use nodata instead.
    """
    if isinstance(obj, LabelMap):
        raster = MultibandRaster(obj.codes[None, :, :], (BandRole.OTHER,))
    elif isinstance(obj, ProbabilityMap):
        raster = MultibandRaster(obj.probs, (BandRole.OTHER,) * N_CLASSES)
    else:
        raster = obj

    data = np.ascontiguousarray(raster.data)
    if raster.dtype == Dtype.F32 and np.isnan(data).any():
        raise ValueError("NaN samples are not writable; use nodata instead")
    flags = 0
    nodata = 0.0
    if raster.nodata is not None:
        flags |= FLAG_NODATA
        nodata = float(raster.nodata)
    if raster.normalized:
        flags |= FLAG_NORMALIZED
    gsd = 0.0 if raster.gsd is None else float(raster.gsd)
    header = _HEADER.pack(MAGIC, VERSION, raster.width, raster.height,
                          raster.bands, int(raster.dtype), flags, nodata, gsd)
    roles = bytes(int(r) for r in raster.band_roles)
    blob = header + roles + data.tobytes()
    if path is not None:
        Path(path).write_bytes(blob)
    return blob


def read_xras(src: str | Path | bytes) -> MultibandRaster:
    """Lossless decode of an XRAS blob or file.

    The payload is copied once, from the file or from `bytes` into the
    raster's own array, which is writable and never aliases `src`.
    """
    with io.BytesIO(src) if isinstance(src, (bytes, bytearray)) else open(src, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError("corrupt file: shorter than the header")
        magic, version, width, height, bands, dtype_code, flags, nodata, gsd = \
            _HEADER.unpack(head)
        if magic != MAGIC or version != VERSION:
            raise ValueError("unsupported format")
        try:
            dtype = Dtype(dtype_code)
        except ValueError:
            raise ValueError("unsupported format: unknown dtype code") from None
        role_bytes = f.read(bands)
        if len(role_bytes) < bands:
            raise ValueError("corrupt file: truncated band roles")
        try:
            roles = tuple(BandRole(b) for b in role_bytes)
        except ValueError:
            raise ValueError("corrupt file: unknown band role") from None
        expect = width * height * bands * dtype.numpy_dtype.itemsize
        if f.seek(0, io.SEEK_END) - _HEADER.size - bands != expect:
            raise ValueError("corrupt file: payload length mismatch")
        f.seek(_HEADER.size + bands)
        data = np.empty((bands, height, width), dtype=dtype.numpy_dtype)
        if f.readinto(data) != expect:
            raise ValueError("corrupt file: payload length mismatch")
    return MultibandRaster(data, roles,
                           nodata=nodata if flags & FLAG_NODATA else None,
                           gsd=gsd if gsd != 0.0 else None,
                           normalized=bool(flags & FLAG_NORMALIZED))


def read_label_map(src: str | Path | bytes) -> LabelMap:
    raster = read_xras(src)
    if raster.dtype != Dtype.U8 or raster.bands != 1:
        raise ValueError("label rasters must be single-band U8")
    return LabelMap(raster.data[0])       # validates the code schema


def read_probability_map(src: str | Path | bytes) -> ProbabilityMap:
    """A 4-band F32 raster as a `ProbabilityMap`, which validates it."""
    raster = read_xras(src)
    if raster.dtype != Dtype.F32 or raster.bands != N_CLASSES:
        raise ValueError("probability rasters must be 4-band F32")
    return ProbabilityMap(raster.data)


# ---------------------------------------------------------------------------
# canonical JSON / CSV
# ---------------------------------------------------------------------------

def _canon_value(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("non-finite numbers are not serializable")
        return format(value, ".6g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        named = {str(k): v for k, v in obj.items()}
        if len(named) != len(obj):
            raise ValueError("duplicate keys after stringification")
        items = (f"{json.dumps(k, ensure_ascii=True)}:{_canon_value(named[k])}"
                 for k in sorted(named))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon_value(v) for v in obj) + "]"
    if is_dataclass(obj) and not isinstance(obj, type):
        return _canon_value(record_items(obj))
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def record_items(record: Any) -> dict[str, Any]:
    """The fields of a dataclass that are not None: what `canonical_json` writes."""
    return {f.name: v for f in fields(record) if (v := getattr(record, f.name)) is not None}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON by the record rule of the module docstring."""
    return _canon_value(obj)


def read_record(cls: type, doc: Any) -> Any:
    """The dataclass `cls` from `doc`, a parsed JSON value, by the reading
    rule of the module docstring: the inverse of `canonical_json`."""
    return _reader(cls)(doc, cls.__name__)


_SCALARS = {int: "an integer", float: "a finite number", str: "a string",
            bool: "true or false"}


def _named(where: str | tuple) -> str:
    """A location as errors name it: a field, or (location, key) for an
    item of one; made into text only when an error is raised."""
    if type(where) is tuple:
        outer, key = where
        return f"{_named(outer)}[{key}]"
    return where


@functools.cache
def _reader(tp: Any) -> Callable[[Any, str | tuple], Any]:
    """The function that reads a value as the type `tp`, `where` locating it
    for `_named`; made once per type, so a read inspects no annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:                   # X | None
        [inner] = [a for a in args if a is not type(None)]
        read = _reader(inner)
        return lambda value, where: None if value is None else read(value, where)
    if tp in _SCALARS:
        def scalar(value, where):
            # type(), not isinstance(): a bool is no int; NaN, inf and 10**400 fail the bound
            fits = type(value) is tp or tp is float and type(value) is int
            if fits and (tp is not float or abs(value) <= sys.float_info.max):
                return value
            raise ValueError(f"{_named(where)} must be {_SCALARS[tp]}, not {value!r}")
        return scalar
    if origin is tuple:
        fixed = None if args[-1:] == (...,) else [_reader(t) for t in args]
        each = _reader(args[0])

        def sequence(value, where):
            if not isinstance(value, list):
                raise ValueError(f"{_named(where)} must be a JSON list, not {value!r}")
            items = fixed or [each] * len(value)
            if len(value) != len(items):
                raise ValueError(f"{_named(where)} must hold {len(items)} items, not {value!r}")
            return tuple([read(v, (where, i))
                          for i, (read, v) in enumerate(zip(items, value))])
        return sequence
    if origin is dict:                              # dict[int, ...]
        read = _reader(args[1])

        def mapping(value, where):
            if not isinstance(value, dict):
                raise ValueError(f"{_named(where)} must be a JSON object, not {value!r}")
            bad = [k for k in value if not k.isdecimal()]
            if bad:
                raise ValueError(f"{_named(where)} keys must be decimal integers, not {bad}")
            return {int(k): read(v, (where, k)) for k, v in value.items()}
        return mapping
    hints = typing.get_type_hints(tp)
    spec = [(f.name, f"{tp.__name__}.{f.name}", _reader(hints[f.name]),
             f.default is MISSING and f.default_factory is MISSING)
            for f in fields(tp) if f.init]
    names = {name for name, *_ in spec}

    def record(value, where):
        if not isinstance(value, dict):
            raise ValueError(f"{_named(where)} must be a JSON object, not {value!r}")
        unknown = sorted(set(value) - names)
        missing = [name for name, _, _, required in spec if required and name not in value]
        if unknown or missing:
            at = "" if where == tp.__name__ else f" at {_named(where)}"
            raise ValueError(f"unknown {tp.__name__} keys: {unknown}{at}" if unknown
                             else f"missing {tp.__name__} keys: {missing}{at}")
        return tp(**{name: read(value[name], field)
                     for name, field, read, _ in spec if name in value})
    return record


def write_report(report: Any, path: str | Path) -> None:
    """Write a record, a dataclass or a dict, as one line of canonical JSON."""
    Path(path).write_text(canonical_json(report) + "\n")


def format_cell(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def write_csv(path: str | Path, columns: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> None:
    """CSV with a fixed, documented column order in the header row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    Path(path).write_text(out.getvalue())
