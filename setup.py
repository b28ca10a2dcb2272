"""Build script for the optional compiled kernels.

`python setup.py build_ext --inplace` compiles `src/xferkit/_kernels/kernels.c`
into a shared library next to it, which `xferkit._kernels.compiled` loads
with ctypes. It needs a C compiler and nothing else. The library holds C
lanes of two kernels, reconstruction by dilation and tree traversal; the
other kernels are numpy only. The package works without it (the numpy
lane is selected at import time); building it just makes those two fast.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension(
        "xferkit._kernels._native",
        sources=["src/xferkit/_kernels/kernels.c"],
        extra_compile_args=["-O3"],
    )
])
