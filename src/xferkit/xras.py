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
from typing import Any, Sequence

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
        return _canon_value({f.name: v for f in fields(obj)
                             if (v := getattr(obj, f.name)) is not None})
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON by the record rule of the module docstring."""
    return _canon_value(obj)


def read_record(cls: type, doc: Any) -> Any:
    """The dataclass `cls` from `doc`, a parsed JSON value, by the reading
    rule of the module docstring: the inverse of `canonical_json`."""
    return _read(cls, doc, cls.__name__)


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Any, bool], ...]:
    """(name, type, required) of each field of `cls` that `__init__` takes."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls) if f.init)


_SCALARS = {int: "an integer", float: "a finite number", str: "a string",
            bool: "true or false"}


def _read(tp: Any, value: Any, where: str) -> Any:
    """`value` read as the type `tp`; `where` names it in errors."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:                   # X | None
        [inner] = [a for a in args if a is not type(None)]
        return None if value is None else _read(inner, value, where)
    if tp in _SCALARS:
        # type(), not isinstance(): a bool is no int; NaN, inf and 10**400 fail the bound
        fits = type(value) is tp or tp is float and type(value) is int
        if fits and (tp is not float or abs(value) <= sys.float_info.max):
            return value
        raise ValueError(f"{where} must be {_SCALARS[tp]}, not {value!r}")
    container = list if origin is tuple else dict
    if not isinstance(value, container):
        kind = "list" if container is list else "object"
        raise ValueError(f"{where} must be a JSON {kind}, not {value!r}")
    if origin is tuple:
        items = args[:1] * len(value) if args[-1:] == (...,) else args
        if len(value) != len(items):
            raise ValueError(f"{where} must hold {len(items)} items, not {value!r}")
        return tuple(_read(t, v, f"{where}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    if origin is dict:                              # dict[int, ...]
        bad = [k for k in value if not k.isdecimal()]
        if bad:
            raise ValueError(f"{where} keys must be decimal integers, not {bad}")
        return {int(k): _read(args[1], v, f"{where}[{k}]") for k, v in value.items()}
    spec = _record_fields(tp)
    at = "" if where == tp.__name__ else f" at {where}"
    unknown = sorted(set(value) - {name for name, _, _ in spec})
    if unknown:
        raise ValueError(f"unknown {tp.__name__} keys: {unknown}{at}")
    missing = [name for name, _, required in spec if required and name not in value]
    if missing:
        raise ValueError(f"missing {tp.__name__} keys: {missing}{at}")
    return tp(**{name: _read(t, value[name], f"{tp.__name__}.{name}")
                 for name, t, _ in spec if name in value})


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
