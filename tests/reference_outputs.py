"""Reference outputs in ``tests/reference/``, how they are written, and how a
new run is checked against them.

The files are the seed-0 CSVs of the three benchmark workloads
(``perfbench/workloads.py``) and the outputs of README's example commands: the
``generate`` config, a Gaussian ``krr`` ``fit`` of its dataset, and the
linear ``sweep`` config run with ``workers`` 1 (its JSON echoes ``workers``,
whose default is the machine's core count). ``manifest.json`` gives each
file's sha256, the ``SCHEMA_VERSION`` that wrote them, and the environment
that wrote them: numpy's version, the file name of the OpenBLAS it links and
that library's config string, which names the core its kernels were chosen
for. ``scripts/regenerate_references.py`` rewrites all of it.

A new run is checked at two levels:

* values, on every machine (``value_mismatches``): integers, strings and
  labels must be equal; a float must agree within ``RTOL`` of its scale. The
  scale of a sweep CSV's median or standard error is that value, and of an
  IQR it is the row's median: an IQR is the difference of two quartiles that
  can be 75 times its size, so it moves with their last bits. The scale of a
  dataset CSV entry is the largest magnitude in its column, and of a JSON
  number in a list of floats the largest magnitude in that list (a label
  ``x.w* + noise`` or a KRR coefficient can be near 0 by cancellation).
* bytes, where the environment is the manifest's (``environment_differs``).
  Elsewhere a BLAS result's last bits may differ.

How ``RTOL`` was set. Changes to the solve path and the second moment have
moved these outputs in their last bits. Measured as a fraction of the scales
above, the largest moves were:

* ``exact_ls`` and ``nystrom`` on numpy's Cholesky instead of scipy's
  (schema 9): medians and standard errors at most 1.2e-15; one ``nystrom``
  IQR 1.8e-13 of itself, which is 2.4e-15 of its row's median;
* KRR, gradient descent and divide and conquer on numpy's LAPACK instead of
  scipy's: no bit moved;
* the clipped-Gaussian second moment by ``math`` (schema 11): 1 ulp at d = 1,
  in no file here;
* the small systems on ``dpotrf``/``dpotrs`` instead of numpy's Cholesky and
  two LU solves (schema 12): medians and standard errors at most 2.1e-15,
  IQRs 2.1e-14 of themselves and 4.9e-15 of their row's median, and the rate
  fit's intercept (-0.118, a difference of terms near 5) 1.5e-14.

A linear Nystrom fit through another eigensolver (scipy's instead of numpy's)
moved its weights by up to 5.3e-14. ``RTOL`` = 1e-12 is about 20 times the
largest of these moves, and a value moved by 1e-9 of itself misses it by a
factor of 1000.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import importlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from qlimits import blas
from qlimits.cli import main

RTOL = 1e-12

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "tests" / "reference"
MANIFEST = REFERENCE_DIR / "manifest.json"
WORKLOADS = ("rate_sweep", "paired_sweeps", "kernel_sweep")

PROBLEM = {"dimension": 10, "noise_std": 0.5, "seed": 0}
README_COMMANDS = (
    ("generate", {"problem": PROBLEM, "n": 1024, "out": "train.csv"}),
    ("fit", {
        "dataset": "train.csv", "solver": "krr", "kernel": {"kind": "gaussian", "bandwidth": 1.0},
        "problem": PROBLEM, "out_predictor": "krr.pred.json", "out_report": "krr.report.json",
    }),
    ("sweep", {
        "mode": "rate",
        "problem": {**PROBLEM, "input_law": "unit_sphere_uniform"},
        "solver": "exact_ls",
        "n_grid": [64, 128, 256, 512, 1024, 2048, 4096, 8192],
        "trials": 20,
        "n_eval": 100000,
        "master_seed": 0,
        "workers": 1,
        "out_csv": "rate.csv",
        "out_json": "rate.json",
    }),
)
README_FILES = ("train.csv", "train.csv.config.json", "krr.pred.json", "krr.report.json", "rate.csv", "rate.json")
FILES = tuple(f"{name}.csv" for name in WORKLOADS) + README_FILES

SWEEP_HEADER = ["solver", "n", "statistic", "value"]
INTEGER_STATISTICS = {"trials_ok", "trials_failed"}


def perfbench(name: str):
    """A module of ``perfbench/``, which is not a package."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def run_workloads(directory: Path, tracer=None) -> dict:
    """Run each workload at seed 0, inside ``tracer`` if given, writing
    ``<name>.csv`` in ``directory``; its outcome by name."""
    workloads = perfbench("workloads")
    outcomes = {}
    for name in WORKLOADS:
        configs, run = workloads.WORKLOADS[name]
        with perfbench("spans").installed(tracer) if tracer is not None else contextlib.nullcontext():
            outcomes[name] = run(configs(0), directory / f"{name}.csv")
    return outcomes


def run_readme_commands(directory: Path) -> None:
    """Run README's example commands in ``directory``, with the relative paths
    README gives, so the config echoes name the same files."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for command, config in README_COMMANDS:
            Path(f"{command}.json").write_text(json.dumps(config))
            if main([command, "--config", f"{command}.json"]) != 0:
                raise RuntimeError(f"README's example {command} failed")
    finally:
        os.chdir(previous)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _blas_config(path: str) -> str | None:
    get_config = getattr(ctypes.CDLL(path, mode=os.RTLD_NOLOAD), "scipy_openblas_get_config64_", None)
    if get_config is None:
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def environment() -> dict:
    """The environment that writes the references: numpy's version, and the
    file name and config string of the one BLAS loaded (numpy's)."""
    paths = blas.loaded_blas_paths()
    if len(paths) != 1:
        raise RuntimeError(f"expected numpy's BLAS alone to be loaded, found {paths}")
    return {"numpy": np.__version__, "blas_file": os.path.basename(paths[0]), "blas_config": _blas_config(paths[0])}


def environment_differs(reference: dict) -> str | None:
    """What differs from the ``reference`` environment, or None."""
    if np.__version__ != reference["numpy"]:
        return f"numpy {np.__version__}, not {reference['numpy']}"
    paths = [p for p in blas.loaded_blas_paths() if os.path.basename(p) == reference["blas_file"]]
    if not paths:
        return f"{reference['blas_file']} is not loaded"
    config = _blas_config(paths[0])
    return None if config == reference["blas_config"] else f"OpenBLAS config {config!r}"


class _Misses:
    """The worst miss per column of one file: the largest gap over its scale,
    or the first pair of unequal exact values."""

    def __init__(self):
        self.worst: dict[str, tuple[float, str]] = {}

    def _miss(self, column: str, size: float, text: str) -> None:
        if column not in self.worst or size > self.worst[column][0]:
            self.worst[column] = (size, text)

    def exact(self, column: str, new, old) -> None:
        if type(new) is not type(old) or new != old:
            self._miss(column, np.inf, f"{new!r} != {old!r}")

    def close(self, column: str, new: float, old: float, scale: float) -> None:
        gap = abs(new - old)
        if not gap <= RTOL * abs(scale):  # a NaN misses too
            relative = gap / abs(scale) if scale else np.inf
            self._miss(column, relative, f"largest difference {relative:.3g} of its scale ({new!r} vs {old!r})")


def _sweep_rows(misses: _Misses, new: list, old: list) -> None:
    medians = {}
    for new_row, old_row in zip(new, old):
        solver, n, statistic, value = old_row
        if new_row[:3] != old_row[:3]:
            misses.exact("row labels", new_row[:3], old_row[:3])
        elif statistic in INTEGER_STATISTICS:
            misses.exact(statistic, new_row[3], value)
        else:
            if statistic == "median_excess_risk":
                medians[solver, n] = float(value)
            scale = medians[solver, n] if statistic == "iqr_excess_risk" else float(value)
            misses.close(statistic, float(new_row[3]), float(value), scale)


def _csv(misses: _Misses, new_text: str, old_text: str) -> None:
    new, old = list(csv.reader(io.StringIO(new_text))), list(csv.reader(io.StringIO(old_text)))
    misses.exact("header", new[0], old[0])
    misses.exact("row count", len(new), len(old))
    if misses.worst:
        return
    if old[0] == SWEEP_HEADER:
        _sweep_rows(misses, new[1:], old[1:])
        return
    # a dataset: one float column per feature, then the label
    new_columns, old_columns = np.array(new[1:], dtype=np.float64).T, np.array(old[1:], dtype=np.float64).T
    for name, new_column, old_column in zip(old[0], new_columns, old_columns):
        scale = float(np.max(np.abs(old_column)))
        for a, b in zip(new_column.tolist(), old_column.tolist()):
            misses.close(name, a, b, scale)


def _json(misses: _Misses, path: str, new, old) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        misses.exact(f"{path} keys", sorted(new), sorted(old))
        for key in old.keys() & new.keys():
            _json(misses, f"{path}.{key}" if path else key, new[key], old[key])
    elif isinstance(old, list) and isinstance(new, list):
        misses.exact(f"{path} length", len(new), len(old))
        floats = bool(old) and all(type(v) is float for v in old + new)
        scale = max(abs(v) for v in old) if floats else None
        for a, b in zip(new, old):
            if floats:
                misses.close(f"{path}[]", a, b, scale)
            else:
                _json(misses, f"{path}[]", a, b)
    elif type(old) is float and type(new) is float:
        misses.close(path, new, old, old)
    else:
        misses.exact(path, new, old)


def value_mismatches(name: str, new: bytes, old: bytes) -> list[str]:
    """One line per column of file ``name`` whose new values miss the
    reference's, naming the column and its largest difference."""
    misses = _Misses()
    if name.endswith(".json"):
        _json(misses, "", json.loads(new), json.loads(old))
    else:
        _csv(misses, new.decode(), old.decode())
    return [f"{name}: {column}: {text}" for column, (_, text) in sorted(misses.worst.items())]
