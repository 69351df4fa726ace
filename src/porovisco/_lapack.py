"""The LAPACK and BLAS routines the solvers call, from the ILP64 OpenBLAS
that numpy's wheels (numpy >= 2.0) bundle and export as
``scipy_<name>_64_``.  They are looked up through numpy's own extension
module, whose dependency scope holds that library, so no second BLAS is
mapped and no scipy module is imported; another numpy build fails here.

``dgbsv``, ``dgbtrs`` and ``dgbmv`` are the bare Fortran routines, which
take every argument by reference and 64-bit integers.  Reading an array's
address costs 2-3 us, so a caller keeps its buffers and builds their
argument list once, with ``fortran_args``.  ``dgbtrf``, called once per
factorization, keeps f2py's call shape.
"""

import ctypes

import numpy as np

__all__ = ["dgbsv", "dgbtrf", "dgbtrs", "dgbmv", "fortran_args", "blas_config"]

_LIBRARY = ctypes.CDLL(np._core._multiarray_umath.__file__)


def _routine(symbol: str, restype=None):
    if not hasattr(_LIBRARY, symbol):
        raise ImportError(f"numpy's BLAS exports no {symbol}: porovisco needs numpy's scipy-openblas64")
    getattr(_LIBRARY, symbol).restype = restype
    return getattr(_LIBRARY, symbol)


def fortran_args(*values) -> tuple:
    """The arguments of a Fortran call: an array's data address, or a
    pointer to a 64-bit int, a double, or a ctypes variable (an ``info``
    to read back).  A bytes value is a character argument, whose length
    gfortran takes after all the others.  Arrays must be kept alive."""
    out, lengths = [], []
    for v in values:
        if isinstance(v, np.ndarray):
            out.append(ctypes.c_void_p(v.ctypes.data))
        elif isinstance(v, bytes):
            out.append(ctypes.c_char_p(v))
            lengths.append(ctypes.c_size_t(len(v)))
        else:
            out.append(ctypes.pointer(ctypes.c_int64(v) if isinstance(v, int)
                                      else ctypes.c_double(v) if isinstance(v, float) else v))
    return tuple(out + lengths)


dgbsv, dgbtrs, dgbmv, _dgbtrf = (_routine(f"scipy_{name}_64_") for name in ("dgbsv", "dgbtrs", "dgbmv", "dgbtrf"))


def dgbtrf(ab: np.ndarray, kl: int, ku: int):
    """f2py's ``(lu, piv, info)`` of the band ``ab`` (float64, Fortran
    order, ``kl`` spare rows on top for the fill-in), factored in place;
    the pivots are numbered from 1, as ``dgbtrs`` reads them."""
    n = ab.shape[1]
    piv, info = np.zeros(n, np.int64), ctypes.c_int64()
    _dgbtrf(*fortran_args(n, n, kl, ku, ab, ab.shape[0], piv, info))
    return ab, piv, info.value


def blas_config() -> str:
    """The library's build string, such as ``OpenBLAS 0.3.31.188.0
    USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64``."""
    return _routine("scipy_openblas_get_config64_", ctypes.c_char_p)().decode()
