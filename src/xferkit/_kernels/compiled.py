"""Compiled kernel lane: the C loops of `kernels.c`, called through ctypes,
which releases the GIL for each call. Importing raises `ImportError` with
the reason when the library is not built or does not load. Arguments come
checked and coerced from the front in `xferkit._kernels`.
"""

from __future__ import annotations

import ctypes
import functools
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

NAME = "compiled"

_HERE = Path(__file__).resolve().parent
_built = [p for p in (_HERE / f"_native{s}" for s in EXTENSION_SUFFIXES) if p.is_file()]
if not _built:
    raise ImportError(f"no compiled kernel library _native{EXTENSION_SUFFIXES[0]} in "
                      f"{_HERE}; build it with `python setup.py build_ext --inplace`")
try:
    _lib = ctypes.CDLL(str(_built[0]))
except OSError as exc:
    raise ImportError(f"cannot load {_built[0]}: {exc}") from exc


_arr = functools.partial(np.ctypeslib.ndpointer, flags="C_CONTIGUOUS")
_SIZE = ctypes.c_ssize_t
_F32, _F64, _I32, _I64 = _arr(np.float32), _arr(np.float64), _arr(np.int32), _arr(np.int64)
_U8, _INTP = _arr(np.uint8), _arr(np.intp)
for _name, _restype, _argtypes in (
        ("grey_erode_square", None, [_F32, _F32, _F32, _SIZE, _SIZE, _SIZE, _INTP]),
        ("reconstruct_dilation", None, [_F32, _F32, _SIZE, _SIZE]),
        ("glcm_feature_image", None, [_I32, _SIZE, _SIZE, _SIZE, ctypes.c_int32, _I64,
                                      _SIZE, _F64, _I64, _I32, _F64]),
        ("best_split", ctypes.c_int64, [_F32, _SIZE, _U8, _I64, _I64, _SIZE, _I64, _SIZE,
                                        ctypes.c_int64, ctypes.c_int, _F32, _U8, _I64,
                                        ctypes.POINTER(ctypes.c_double)]),
        ("tree_apply", None, [_I32, _F64, _I32, _I32, _F32, _SIZE, _SIZE, _I32])):
    getattr(_lib, _name).restype = _restype
    getattr(_lib, _name).argtypes = _argtypes


def grey_erode_square(img: np.ndarray, size: int) -> np.ndarray:
    h, w = img.shape
    tmp = np.empty_like(img)
    out = np.empty_like(img)
    _lib.grey_erode_square(img, tmp, out, h, w, size // 2,
                           np.empty(max(h, w), dtype=np.intp))
    return out


def reconstruct_dilation(marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = marker.copy()
    _lib.reconstruct_dilation(out, mask, *mask.shape)
    return out


def glcm_feature_image(levels_img: np.ndarray, window: int, levels: int,
                       offsets: np.ndarray) -> np.ndarray:
    h, w = levels_img.shape
    # a window holds at most window^2 anchors per offset, each tallied twice
    loglut = np.log(np.arange(1, 2 * window * window * len(offsets) + 1, dtype=np.float64))
    out = np.zeros((6, h, w), dtype=np.float64)
    _lib.glcm_feature_image(levels_img, h, w, window // 2, levels, offsets,
                            len(offsets), loglut,
                            np.zeros(levels * levels, dtype=np.int64),
                            np.empty(levels * levels, dtype=np.int32), out)
    return out


def best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray, counts: np.ndarray,
               feats: np.ndarray, min_leaf: int, n_classes: int):
    thr = ctypes.c_double()
    m = rows.size
    f = _lib.best_split(X, X.shape[1], y, rows, counts, m, feats, feats.size, min_leaf,
                        n_classes, np.empty(m, dtype=np.float32), np.empty(m, dtype=np.uint8),
                        np.empty(m, dtype=np.int64), ctypes.byref(thr))
    return f, thr.value, f >= 0


def tree_apply(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
               right: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int32)
    _lib.tree_apply(feature, threshold, left, right, X, X.shape[0], X.shape[1], out)
    return out
