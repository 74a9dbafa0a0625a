"""Pin every BLAS loaded into this process to one thread, verifiably, and
reach the LAPACK routines of the BLAS that numpy links.

numpy and scipy each ship their own OpenBLAS, exported under different
symbol prefixes (``scipy_openblas_...64_`` in numpy's copy,
``scipy_openblas_...`` in scipy's). qlimits imports no scipy, but a caller
that does maps the second one, so a pin covers every library mapped when it
is set. The libraries are found in
``/proc/self/maps`` and driven through ctypes, so no extra package is
needed. A BLAS that cannot be set to one thread and read back at one
thread (MKL, BLIS, a reference BLAS, or no ``/proc``) is an error: timing a
multi-threaded BLAS silently is never an option.

The solvers need three routines that numpy's linear algebra does not
expose: a Cholesky factor (``dpotrf``), a solve with it (``dpotrs``) and a
symmetric product from one triangle (``dsymv``). ``cholesky_upper``,
``cholesky_solve`` and ``lower_symmetric_product`` call them in the library
numpy already maps, so a solve imports no scipy and maps no second BLAS.
They are found once, on first use, by ``dlsym`` on a no-load handle of
``numpy.linalg._umath_linalg``, which searches that module's dependencies:
so numpy's library is the one found even when scipy's OpenBLAS is loaded too.
The names tried are ``scipy_d*_64_`` and ``d*_64_`` (64-bit integers) and
``d*_`` (32-bit). A numpy whose BLAS exports none of them makes a solve
raise QlimitsError naming the module searched. ``cholesky_upper`` factors
its argument in place, so it takes only a writeable Fortran-ordered float64
matrix and raises on anything else. The other two copy an input that is not
float64 in the layout they pass (Fortran order for a matrix, contiguous for
a vector). Each raises on an illegal LAPACK argument.
"""

from __future__ import annotations

import ctypes
import os
import re
from contextlib import contextmanager
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, QlimitsError

# Shared objects whose file name marks them as a BLAS implementation.
# scipy's Cython wrappers (_fblas, cython_blas) do not start with "lib".
_BLAS_FILE = re.compile(r"^lib.*(blas|mkl|blis)", re.IGNORECASE)
_OPENBLAS_PREFIXES = ("openblas_", "scipy_openblas_")
_OPENBLAS_SUFFIXES = ("", "64_")


def loaded_blas_paths() -> list[str]:
    """Paths of the BLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            maps_text = fh.read()
    except OSError as exc:
        raise QlimitsError(f"cannot list loaded libraries to pin BLAS threads: {exc}") from exc
    paths = set()
    for line in maps_text.splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and fields[5].startswith("/"):
            path = fields[5].strip()
            if _BLAS_FILE.match(os.path.basename(path)):
                paths.add(path)
    return sorted(paths)


def _loaded_library(path: str) -> ctypes.CDLL:
    """A handle on the already-loaded ``path``; ``dlsym`` on it also searches
    the libraries ``path`` depends on."""
    try:
        return ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError as exc:
        raise QlimitsError(f"{path}: cannot open the loaded library: {exc}") from exc


def _thread_controls(path: str):
    """(get_num_threads, set_num_threads) of one loaded OpenBLAS."""
    lib = _loaded_library(path)
    for prefix in _OPENBLAS_PREFIXES:
        for suffix in _OPENBLAS_SUFFIXES:
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                set_threads.argtypes = [ctypes.c_int]
                set_threads.restype = None
                return get_threads, set_threads
    raise QlimitsError(f"{path}: no OpenBLAS thread controls; cannot pin it to one thread")


def thread_counts() -> dict[str, int]:
    """Path -> thread count of every loaded BLAS."""
    return {path: _thread_controls(path)[0]() for path in loaded_blas_paths()}


@contextmanager
def single_blas_thread():
    """Run the body with every loaded BLAS at one thread; restore the counts on exit.

    Raises QlimitsError, naming the library, when no BLAS is found or a
    loaded one cannot be set to one thread and verified there; every
    library's controls are found before any count is changed.
    """
    paths = loaded_blas_paths()
    if not paths:
        raise QlimitsError("no BLAS library is loaded; one BLAS thread cannot be verified")
    controls = [(path, *_thread_controls(path)) for path in paths]
    previous = [(set_threads, get_threads()) for _, get_threads, set_threads in controls]
    try:
        for path, get_threads, set_threads in controls:
            set_threads(1)
            threads = get_threads()
            if threads != 1:
                raise QlimitsError(f"{path}: set to one thread but reports {threads}")
        yield
    finally:
        for set_threads, threads in previous:
            set_threads(threads)


# ---------------------------------------------------------------------------
# LAPACK of the BLAS that numpy links

_LAPACK_HOST = _umath_linalg.__file__
# (prefix, suffix, integer type) of the names tried, in order
_LAPACK_NAMES = (
    ("scipy_", "_64_", ctypes.c_int64),
    ("", "_64_", ctypes.c_int64),
    ("", "_", ctypes.c_int32),
)
_CHAR, _PTR, _LEN = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t


@cache
def _find_lapack(path: str) -> tuple:
    """(integer type, dpotrf, dpotrs, dsymv) as ``dlsym`` finds them from the
    loaded ``path``."""
    lib = _loaded_library(path)
    for prefix, suffix, int_type in _LAPACK_NAMES:
        found = [getattr(lib, f"{prefix}{name}{suffix}", None) for name in ("dpotrf", "dpotrs", "dsymv")]
        if all(found):
            dpotrf, dpotrs, dsymv = found
            i, d = ctypes.POINTER(int_type), ctypes.POINTER(ctypes.c_double)
            # the hidden length of the CHARACTER argument is passed last
            dpotrf.argtypes = [_CHAR, i, _PTR, i, i, _LEN]
            dpotrs.argtypes = [_CHAR, i, i, _PTR, i, _PTR, i, i, _LEN]
            dsymv.argtypes = [_CHAR, i, d, _PTR, i, _PTR, i, d, _PTR, i, _LEN]
            for routine in found:
                routine.restype = None
            return int_type, dpotrf, dpotrs, dsymv
    raise QlimitsError(
        f"{path}: neither it nor the BLAS it links exports dpotrf, dpotrs and dsymv as "
        "scipy_d*_64_, d*_64_ or d*_; the solvers need numpy on an OpenBLAS "
        "or a BLAS with reference LAPACK names"
    )


def _lapack() -> tuple:
    return _find_lapack(_LAPACK_HOST)


def _square_order(a: np.ndarray, routine: str) -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"{routine} takes a square matrix, got shape {a.shape}")
    return a.shape[0]


def _check_info(routine: str, info) -> int:
    if info.value < 0:
        raise QlimitsError(f"{routine}: argument {-info.value} has an illegal value")
    return info.value


def cholesky_upper(a: np.ndarray) -> np.ndarray:
    """Factor the square ``a`` in place for ``cholesky_solve`` and return it:
    its upper triangle is overwritten by U, where a = U^T U is read from that
    triangle (LAPACK ``dpotrf('U')``); its strict lower triangle is not
    touched. ``a`` must be a writeable, Fortran-ordered float64 array, and
    anything else raises QlimitsError: no copy is made. Raises
    ``np.linalg.LinAlgError``, with ``a`` partly overwritten, when ``a`` is
    not numerically positive definite."""
    int_type, dpotrf, _, _ = _lapack()
    n = _square_order(a, "dpotrf")
    if not (a.dtype == np.float64 and a.flags.f_contiguous and a.flags.writeable):
        raise QlimitsError(
            "dpotrf factors in place a writeable Fortran-ordered float64 matrix, got "
            f"{a.dtype}, Fortran-ordered {a.flags.f_contiguous}, writeable {a.flags.writeable}"
        )
    info = int_type(0)
    dpotrf(b"U", int_type(n), a.ctypes.data, int_type(max(n, 1)), info, 1)
    if _check_info("dpotrf", info) > 0:
        raise np.linalg.LinAlgError(
            f"dpotrf: the leading minor of order {info.value} is not positive definite"
        )
    return a


def cholesky_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with U^T U x = b, for ``factor`` from ``cholesky_upper`` and a
    vector ``b`` (LAPACK ``dpotrs('U')``); ``b`` is not changed."""
    int_type, _, dpotrs, _ = _lapack()
    factor = np.require(factor, np.float64, ["F", "A"])
    n = _square_order(factor, "dpotrs")
    x = np.array(b, dtype=np.float64)  # dpotrs overwrites it with the solution
    if x.shape != (n,):
        raise DimensionMismatchError(f"dpotrs: right-hand side {x.shape} for a system of order {n}")
    ld, info = int_type(max(n, 1)), int_type(0)
    dpotrs(b"U", int_type(n), int_type(1), factor.ctypes.data, ld, x.ctypes.data, ld, info, 1)
    _check_info("dpotrs", info)
    return x


def lower_symmetric_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for the symmetric matrix held in the lower triangle of the
    square ``a`` (BLAS ``dsymv('L')``); the strict upper triangle is not read.
    A Fortran-ordered float64 ``a``, such as the transpose of a C-ordered
    matrix, is passed without a copy."""
    int_type, _, _, dsymv = _lapack()
    a = np.require(a, np.float64, ["F", "A"])
    n = _square_order(a, "dsymv")
    x = np.require(x, np.float64, ["C", "A"])
    if x.shape != (n,):
        raise DimensionMismatchError(f"dsymv: vector {x.shape} for a matrix of order {n}")
    y = np.zeros(n)
    one = int_type(1)
    dsymv(b"L", int_type(n), ctypes.c_double(1.0), a.ctypes.data, int_type(max(n, 1)),
          x.ctypes.data, one, ctypes.c_double(0.0), y.ctypes.data, one, 1)
    return y
