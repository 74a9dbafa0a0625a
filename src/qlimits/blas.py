"""Pin every BLAS loaded into this process to one thread, verifiably.

numpy and scipy each ship their own OpenBLAS, exported under different
symbol prefixes (``scipy_openblas_...64_`` in numpy's copy,
``scipy_openblas_...`` in scipy's). The libraries are found in
``/proc/self/maps`` and driven through ctypes, so no extra package is
needed. A BLAS that cannot be set to one thread and read back at one
thread (MKL, BLIS, a reference BLAS, or no ``/proc``) is an error: timing a
multi-threaded BLAS silently is never an option.
"""

from __future__ import annotations

import ctypes
import os
import re
from contextlib import contextmanager

from .errors import QlimitsError

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


def _thread_controls(path: str):
    """(get_num_threads, set_num_threads) of one loaded OpenBLAS."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError as exc:
        raise QlimitsError(f"{path}: cannot open the loaded library: {exc}") from exc
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


def _loaded_controls() -> list:
    """(path, get_threads, set_threads) of every loaded BLAS; raises when none is
    loaded or one has no OpenBLAS thread controls, before any count is changed."""
    paths = loaded_blas_paths()
    if not paths:
        raise QlimitsError("no BLAS library is loaded; one BLAS thread cannot be verified")
    return [(path, *_thread_controls(path)) for path in paths]


def _pin(controls) -> None:
    for path, get_threads, set_threads in controls:
        set_threads(1)
        threads = get_threads()
        if threads != 1:
            raise QlimitsError(f"{path}: set to one thread but reports {threads}")


def thread_counts() -> dict[str, int]:
    """Path -> thread count of every loaded BLAS."""
    return {path: _thread_controls(path)[0]() for path in loaded_blas_paths()}


def pin_single_thread() -> None:
    """Set every loaded BLAS to one thread for the rest of the process, verified.

    For a process that only computes, such as a sweep's pool worker. Raises
    QlimitsError like ``single_blas_thread``.
    """
    _pin(_loaded_controls())


@contextmanager
def single_blas_thread():
    """Run the body with every loaded BLAS at one thread; restore the counts on exit.

    Raises QlimitsError, naming the library, when no BLAS is found or a
    loaded one cannot be set to one thread and verified there.
    """
    controls = _loaded_controls()
    previous = [(set_threads, get_threads()) for _, get_threads, set_threads in controls]
    try:
        _pin(controls)
        yield
    finally:
        for set_threads, threads in previous:
            set_threads(threads)
