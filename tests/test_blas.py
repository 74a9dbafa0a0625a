import ctypes.util
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS next to numpy's)

from qlimits import QlimitsError, blas, runtime_benchmark, scaling

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="loaded BLAS libraries are found in /proc"
)

LIBC = ctypes.util.find_library("c")


@pytest.fixture
def two_threads(preset_blas_threads):
    """Every loaded OpenBLAS at two threads, so a restore to the old count shows."""
    preset_blas_threads(2)


def test_single_blas_thread_pins_every_openblas_and_restores(two_threads):
    before = blas.thread_counts()
    assert len(before) >= 1
    with blas.single_blas_thread():
        assert set(blas.thread_counts().values()) == {1}
        np.linalg.solve(np.eye(64) * 2.0, np.ones(64))
    assert blas.thread_counts() == before


def test_single_blas_thread_restores_on_error(two_threads):
    before = blas.thread_counts()
    with pytest.raises(ZeroDivisionError):
        with blas.single_blas_thread():
            1 / 0
    assert blas.thread_counts() == before


def test_library_without_thread_query_raises(monkeypatch, two_threads):
    before = blas.thread_counts()
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [*before, LIBC])
    with pytest.raises(QlimitsError, match="libc"):
        with blas.single_blas_thread():
            pass
    monkeypatch.undo()
    assert blas.thread_counts() == before  # nothing was changed before the error


def test_no_blas_found_raises(monkeypatch):
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [])
    with pytest.raises(QlimitsError, match="no BLAS"):
        with blas.single_blas_thread():
            pass


def test_runtime_benchmark_refuses_unverified_blas(monkeypatch):
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [LIBC])
    with pytest.raises(QlimitsError, match="libc"):
        runtime_benchmark(solver_ids=("exact_ls",), n_grid=(64, 128, 256), reps=1)


def test_thread_counts_reads_every_loaded_blas(two_threads):
    counts = blas.thread_counts()
    assert sorted(counts) == blas.loaded_blas_paths()
    assert set(counts.values()) == {2}


def test_pin_single_thread_pins_every_openblas_for_good(two_threads):
    blas.pin_single_thread()
    assert set(blas.thread_counts().values()) == {1}


def test_pin_single_thread_changes_nothing_before_an_error(monkeypatch, two_threads):
    before = blas.thread_counts()
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [*before, LIBC])
    with pytest.raises(QlimitsError, match="libc"):
        blas.pin_single_thread()
    monkeypatch.undo()
    assert blas.thread_counts() == before


def test_sweep_pool_worker_runs_one_blas_thread(two_threads):
    with ProcessPoolExecutor(max_workers=1, initializer=scaling._pin_worker) as pool:
        counts = pool.submit(blas.thread_counts).result()
    assert len(counts) >= 1
    assert set(counts.values()) == {1}
    assert set(blas.thread_counts().values()) == {2}  # the parent keeps its threads


def test_sweep_worker_that_cannot_pin_warns_and_runs(monkeypatch):
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [LIBC])
    with pytest.warns(RuntimeWarning, match="libc"):
        scaling._pin_worker()
