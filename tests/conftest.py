import os

import pytest

from qlimits import blas


@pytest.fixture
def preset_blas_threads():
    """A function that sets every loaded OpenBLAS to a thread count; the
    original counts are restored after the test."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("loaded BLAS libraries are found in /proc")
    controls = [blas._thread_controls(path) for path in blas.loaded_blas_paths()]
    original = [get_threads() for get_threads, _ in controls]

    def preset(threads: int) -> None:
        for _, set_threads in controls:
            set_threads(threads)

    yield preset
    for (_, set_threads), threads in zip(controls, original):
        set_threads(threads)
