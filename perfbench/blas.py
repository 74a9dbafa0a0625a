"""Verify that every BLAS library mapped into this process runs one thread.

numpy and scipy each ship their own OpenBLAS, exported under different
symbol prefixes (``scipy_openblas_...64_`` in numpy's copy,
``scipy_openblas_...`` in scipy's). The thread count of each is read
through ctypes from the already-loaded library. A BLAS whose thread count
cannot be read is an error, never a silent pass.
"""

from __future__ import annotations

import ctypes
import os
import re

# Shared objects whose file name marks them as a BLAS implementation.
# scipy's Cython wrappers (_fblas, cython_blas) do not start with "lib".
_BLAS_FILE = re.compile(r"^lib.*(blas|mkl|blis)", re.IGNORECASE)
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}")
    for prefix in ("openblas_", "scipy_openblas_")
    for suffix in ("", "64_")
)


class BlasPinError(RuntimeError):
    """A loaded BLAS is not verifiably pinned to one thread."""


def loaded_blas_paths(maps_text: str) -> list[str]:
    """Paths of BLAS libraries in a /proc/<pid>/maps listing."""
    paths = set()
    for line in maps_text.splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and fields[5].startswith("/"):
            path = fields[5].strip()
            if _BLAS_FILE.match(os.path.basename(path)):
                paths.add(path)
    return sorted(paths)


def probe_library(path: str) -> dict:
    """Version and thread count of one loaded OpenBLAS; raises BlasPinError."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    except OSError as exc:
        raise BlasPinError(f"{path}: cannot open the loaded library: {exc}") from exc
    for threads_name, config_name in _OPENBLAS_SYMBOLS:
        get_threads = getattr(lib, threads_name, None)
        if get_threads is None:
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        version = None
        get_config = getattr(lib, config_name, None)
        if get_config is not None:
            get_config.argtypes = []
            get_config.restype = ctypes.c_char_p
            version = get_config().decode("ascii", "replace")
        return {"path": path, "version": version, "threads": int(get_threads())}
    raise BlasPinError(f"{path}: no OpenBLAS thread query; its thread count cannot be verified")


def verify_single_thread(maps_text: str | None = None, probe=probe_library) -> list[dict]:
    """Probe every loaded BLAS; raise BlasPinError unless each reports 1 thread."""
    if maps_text is None:
        with open("/proc/self/maps") as fh:
            maps_text = fh.read()
    paths = loaded_blas_paths(maps_text)
    if not paths:
        raise BlasPinError("no BLAS library is loaded; pinning cannot be verified")
    found = [probe(path) for path in paths]
    unpinned = [f"{f['path']} ({f['threads']} threads)" for f in found if f["threads"] != 1]
    if unpinned:
        raise BlasPinError("BLAS not pinned to one thread: " + ", ".join(unpinned))
    return found
