"""Compiled kernel lane: the C loops of `kernels.c` for reconstruction and
tree traversal, called through ctypes, which releases the GIL for each
call. Importing raises `ImportError` with the reason when the library is
not built or does not load. Arguments come checked and coerced from the
front in `xferkit._kernels`.
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
_F32, _F64, _I32 = _arr(np.float32), _arr(np.float64), _arr(np.int32)
for _name, _argtypes in (
        ("reconstruct_dilation", [_F32, _F32, _SIZE, _SIZE]),
        ("tree_apply", [_I32, _F64, _I32, _I32, _F32, _SIZE, _SIZE, _I32])):
    getattr(_lib, _name).restype = None
    getattr(_lib, _name).argtypes = _argtypes


def reconstruct_dilation(marker: np.ndarray, mask: np.ndarray) -> np.ndarray:
    out = marker.copy()
    _lib.reconstruct_dilation(out, mask, *mask.shape)
    return out


def tree_apply(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
               right: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.int32)
    _lib.tree_apply(feature, threshold, left, right, X, X.shape[0], X.shape[1], out)
    return out
