"""Every benchmark workload runs, at seed 0, with no failed cell and every check true,
writes the same CSV bytes traced as untraced, and, in the environment that
wrote the reference sha256s, writes those bytes.

``perfbench/workloads.py`` calls qlimits names directly, and
``perfbench/spans.py`` wraps some of them while a traced run is installed. A
name either uses that the package no longer has, a change that makes a
workload's cells fail, or a wrapped name whose traced call changes the
output, fails the benchmark run, so these checks run with the unit tests too.
"""

import ctypes
import hashlib
import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from qlimits import blas

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# The seed-0 CSV sha256 of each workload, and the environment that wrote them:
# numpy's version, the file name of the OpenBLAS it links and that library's
# config string, which names the core its kernels were chosen for. Elsewhere
# the last bits of a BLAS result may differ, so the bytes are not compared.
REFERENCE_SHA256 = {
    "rate_sweep": "ad88707b5ea3a4819066d93743173687c114a714fc2f8d87bb1ea1a312ab8f48",
    "paired_sweeps": "1d4da0f3bcd86b00fba6a0c4560361434a8a905fe5bb8c0eddf5eacb2de8c0aa",
    "kernel_sweep": "e8a9a7ea5f4b2f172695d9a91731207638c1844ec328054de672bfe5a0be7391",
}
REFERENCE_NUMPY = "2.4.6"
REFERENCE_BLAS_FILE = "libscipy_openblas64_-32a4b2a6.so"
REFERENCE_BLAS_CONFIG = "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64"


def _reference_environment_differs() -> str | None:
    """What differs from the environment that wrote REFERENCE_SHA256, or None."""
    if np.__version__ != REFERENCE_NUMPY:
        return f"numpy {np.__version__}, not {REFERENCE_NUMPY}"
    paths = [p for p in blas.loaded_blas_paths() if os.path.basename(p) == REFERENCE_BLAS_FILE]
    if not paths:
        return f"{REFERENCE_BLAS_FILE} is not loaded"
    get_config = getattr(ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD), "scipy_openblas_get_config64_", None)
    if get_config is None:
        return f"{paths[0]} has no scipy_openblas_get_config64_"
    get_config.restype = ctypes.c_char_p
    config = get_config().decode()
    return None if config == REFERENCE_BLAS_CONFIG else f"OpenBLAS config {config!r}"


def _perfbench(name):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        return importlib.import_module(name)


def _run_all(directory, tracer=None) -> dict:
    """Each workload's outcome and CSV sha256, run inside ``tracer`` if given."""
    workloads, spans = _perfbench("workloads"), _perfbench("spans")
    results = {}
    for name, (configs, run) in workloads.WORKLOADS.items():
        csv = directory / f"{name}.csv"
        if tracer is None:
            outcome = run(configs(0), csv)
        else:
            with spans.installed(tracer):
                outcome = run(configs(0), csv)
        results[name] = (outcome, hashlib.sha256(csv.read_bytes()).hexdigest())
    return results


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("untraced"))


def test_every_workload_runs_clean_at_seed_0(untraced):
    for name, (outcome, _) in untraced.items():
        assert outcome.cells > 0 and outcome.failed_cells == 0, name
        assert all(outcome.checks.values()), (name, outcome.checks)


def test_traced_workloads_write_the_untraced_csv_bytes(untraced, tmp_path):
    traced = _run_all(tmp_path, _perfbench("spans").Tracer())
    for name, (outcome, digest) in traced.items():
        assert outcome.failed_cells == 0 and all(outcome.checks.values()), name
        assert digest == untraced[name][1], name


def test_workloads_write_the_reference_csv_bytes(untraced):
    differs = _reference_environment_differs()
    if differs is not None:
        pytest.skip(f"not the environment that wrote the reference sha256s: {differs}")
    for name, (_, digest) in untraced.items():
        assert digest == REFERENCE_SHA256[name], name
