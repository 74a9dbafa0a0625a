"""Every benchmark workload runs, at seed 0, with no failed cell and every check true,
and writes the same CSV bytes traced as untraced.

``perfbench/workloads.py`` calls qlimits names directly, and
``perfbench/spans.py`` wraps some of them while a traced run is installed. A
name either uses that the package no longer has, a change that makes a
workload's cells fail, or a wrapped name whose traced call changes the
output, fails the benchmark run, so these checks run with the unit tests too.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
