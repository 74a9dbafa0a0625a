import ctypes.util
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS next to numpy's)

import qlimits
from qlimits import (
    SOLVER_IDS,
    Kernel,
    QlimitsError,
    SyntheticProblem,
    blas,
    runtime_benchmark,
    sample_dataset,
    scaling,
    write_dataset_csv,
)
from qlimits.synth import INPUT_LAWS

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


GAUSSIAN_KRR = scaling.SweepConfig(
    n_grid=(16, 32, 64), trials=1, solver="krr", kernel=Kernel("gaussian", 1.0), n_eval=64
)


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


def _fresh_python(code: str, *args: str, stdin: bytes = b"") -> dict:
    """Run ``code`` in a new interpreter with OpenBLAS at its default threads;
    return the JSON object on the last line of its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlimits.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, input=stdin,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().splitlines()[-1])


_SPAWNED_WORKER = """
import json, pickle, sys
from qlimits import blas, scaling
config = pickle.loads(sys.stdin.buffer.read())  # as a spawned worker gets its cells, never validated here
scipy_modules = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
before = scipy_modules()
scaling._pin_worker()
((excess, _, error),) = scaling._sweep_cell((config, (None,), config.n_grid[0], 0))
assert error is None and excess > 0, error
print(json.dumps({"before": before, "after": scipy_modules(), "counts": blas.thread_counts()}))
"""

LINEAR_CLIPPED = scaling.SweepConfig(
    n_grid=(16, 32, 64), trials=1, problem=scaling.SyntheticProblem(dimension=3, input_law="gaussian_clipped")
)


@pytest.mark.parametrize("config", [GAUSSIAN_KRR, LINEAR_CLIPPED], ids=["gaussian_krr", "linear_clipped"])
def test_worker_that_did_not_fork_pins_numpys_one_blas(config):
    # a spawn or forkserver worker starts from `import qlimits`, which loads no
    # scipy; a Gaussian krr cell factors in numpy's own BLAS and a linear cell on
    # clipped inputs takes its second moment from `math`, so the worker loads
    # no scipy before or after its pin and pins the one BLAS numpy maps
    worker = _fresh_python(_SPAWNED_WORKER, stdin=pickle.dumps(config))
    assert worker["before"] == worker["after"] == []
    assert len(worker["counts"]) == 1
    assert set(worker["counts"]) <= set(blas.loaded_blas_paths())
    assert set(worker["counts"].values()) == {1}


_PIN_PROBE = """
import json, sys
from qlimits import Kernel, SweepConfig, SyntheticProblem, blas, cli, runtime_benchmark, scaling

inside = []

def recording(fit):
    def first_fit_records_the_pin(*args, **kwargs):
        if not inside:
            inside.append(blas.thread_counts())
        return fit(*args, **kwargs)
    return first_fit_records_the_pin

scaling.fit_solver = recording(scaling.fit_solver)
cli.fit_solver = recording(cli.fit_solver)
exec(sys.argv[1])
print(json.dumps({"inside": inside[0], "after": sorted(blas.thread_counts())}))
"""


def _assert_pinned_in_the_first_fit(run: str) -> None:
    probe = _fresh_python(_PIN_PROBE, run)
    assert set(probe["inside"].values()) == {1}, probe
    # nothing loaded after the pin: every library the run used was pinned
    assert sorted(probe["inside"]) == probe["after"], probe


@pytest.mark.parametrize("input_law", INPUT_LAWS)
@pytest.mark.parametrize("solver", SOLVER_IDS)
def test_sweep_pins_every_blas_its_cells_load(solver, input_law):
    kernel = 'Kernel("linear")' if solver == "exact_ls" else 'Kernel("gaussian", 1.0)'
    _assert_pinned_in_the_first_fit(
        f"scaling.sweep_excess_risk(SweepConfig(n_grid=(16, 32, 64), trials=1, solver={solver!r}, "
        f"kernel={kernel}, problem=SyntheticProblem(dimension=3, input_law={input_law!r}), n_eval=64))"
    )


def test_runtime_benchmark_pins_every_blas_its_solvers_load():
    _assert_pinned_in_the_first_fit(
        "runtime_benchmark(n_grid=(16, 32, 64), reps=1, test_points=8, timer_window=1e-4)"
    )


def test_fit_pins_every_blas_its_scoring_loads(tmp_path):
    problem = {"dimension": 3, "noise_std": 0.5, "input_law": "gaussian_clipped"}
    write_dataset_csv(sample_dataset(SyntheticProblem(**problem), 32, 1), tmp_path / "data.csv")
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({
        "dataset": str(tmp_path / "data.csv"), "solver": "exact_ls", "problem": problem,
        "out_predictor": str(tmp_path / "fit.pred.json"), "out_report": str(tmp_path / "fit.report.json"),
    }))
    _assert_pinned_in_the_first_fit(f"assert cli.main(['fit', '--config', {str(config)!r}]) == 0")


# ---------------------------------------------------------------------------
# LAPACK of the BLAS that numpy links


def _spd(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view with ``a``'s values."""
    return np.stack((a, a), axis=-1)[..., 0]


LAYOUTS = {
    "transposed": lambda a: a.T,
    "strided": _strided,
    "float32": lambda a: a.astype(np.float32),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_lapack_entry_points_give_the_bits_of_their_float64_layout(layout):
    # cholesky_solve and lower_symmetric_product pass a Fortran-ordered float64
    # matrix and a contiguous float64 vector, and copy any other input to that
    # layout first; cholesky_upper factors in place, so it takes a Fortran-ordered
    # float64 matrix as it is and refuses any other
    change = LAYOUTS[layout]
    spd = _spd(40, 3)
    factor = blas.cholesky_upper(np.asfortranarray(spd))
    v = np.random.default_rng(4).standard_normal(40)

    def matrix(a):
        a = change(a)
        return a, np.asfortranarray(a, dtype=np.float64)

    def vector(x):
        x = change(x)  # a vector's transpose is itself
        return x, np.ascontiguousarray(x, dtype=np.float64)

    changed, plain = matrix(spd)
    if changed.dtype == np.float64 and changed.flags.f_contiguous:
        assert blas.cholesky_upper(changed.copy(order="F")).tobytes() == factor.tobytes()
    else:
        with pytest.raises(QlimitsError, match="Fortran-ordered float64"):
            blas.cholesky_upper(changed)
    for (f, f_plain), (b, b_plain) in [(matrix(factor), (v, v)), ((factor, factor), vector(v))]:
        assert blas.cholesky_solve(f, b).tobytes() == blas.cholesky_solve(f_plain, b_plain).tobytes()
    for (a, a_plain), (x, x_plain) in [(matrix(spd), (v, v)), ((spd, spd), vector(v))]:
        assert (blas.lower_symmetric_product(a, x).tobytes()
                == blas.lower_symmetric_product(a_plain, x_plain).tobytes())


def test_lapack_entry_points_compute_what_they_name():
    spd = _spd(30, 5)
    junk = 1e3 * np.random.default_rng(7).standard_normal((30, 30))
    v = np.random.default_rng(6).standard_normal(30)
    # the factor reads only the upper triangle and leaves the strict lower one
    # as it was; the product reads only the lower
    factor = blas.cholesky_upper(np.asfortranarray(np.triu(spd) + np.tril(junk, -1)))
    assert np.tril(factor, -1).tobytes() == np.tril(junk, -1).tobytes()
    upper = np.triu(factor)
    assert np.abs(upper.T @ upper - spd).max() <= 1e-13 * np.abs(spd).max()
    assert np.abs(spd @ blas.cholesky_solve(factor, v) - v).max() <= 1e-12 * np.abs(v).max()
    product = blas.lower_symmetric_product(np.tril(spd) + np.triu(junk, 1), v)
    assert np.abs(product - spd @ v).max() <= 1e-13 * np.abs(spd @ v).max()
    assert v.tobytes() == np.random.default_rng(6).standard_normal(30).tobytes()  # inputs unchanged


def test_cholesky_of_an_indefinite_matrix_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match="order 2"):
        blas.cholesky_upper(np.array([[1.0, 2.0], [2.0, 1.0]], order="F"))


def test_cholesky_factors_its_argument_in_place_and_refuses_what_it_would_copy():
    spd = _spd(30, 8)
    a = np.asfortranarray(spd)
    assert blas.cholesky_upper(a) is a
    assert np.abs(np.triu(a).T @ np.triu(a) - spd).max() <= 1e-13 * np.abs(spd).max()
    read_only = np.asfortranarray(spd)
    read_only.flags.writeable = False
    for refused in (spd, spd.astype(np.float32, order="F"), _strided(spd.T), read_only):
        before = refused.tobytes("A")
        with pytest.raises(QlimitsError, match="Fortran-ordered float64"):
            blas.cholesky_upper(refused)
        assert refused.tobytes("A") == before


def test_lapack_entry_points_reject_mismatched_shapes():
    with pytest.raises(qlimits.DimensionMismatchError):
        blas.cholesky_upper(np.ones((2, 3)))
    with pytest.raises(qlimits.DimensionMismatchError):
        blas.cholesky_solve(np.eye(3), np.ones(4))
    with pytest.raises(qlimits.DimensionMismatchError):
        blas.lower_symmetric_product(np.eye(3), np.ones((3, 1)))


def test_library_without_lapack_names_raises_naming_it():
    with pytest.raises(QlimitsError, match="libc.*dpotrf, dpotrs and dsymv"):
        blas._find_lapack(LIBC)


def test_sweep_without_lapack_records_the_reason_in_its_failed_cells(monkeypatch):
    monkeypatch.setattr(blas, "_LAPACK_HOST", LIBC)
    table = scaling.sweep_excess_risk(GAUSSIAN_KRR)
    assert [(r.trials_ok, r.trials_failed) for r in table.rows] == [(0, 1)] * 3
    for row in table.rows:
        ((kind, count, message),) = row.failures
        assert (kind, count) == ("QlimitsError", 1)
        assert "libc" in message and "dpotrf" in message
