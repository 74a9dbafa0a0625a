"""Every benchmark workload runs, at seed 0, with no failed cell and every check true.

``perfbench/workloads.py`` calls qlimits names directly. A name it calls that
the package no longer has, or a change that makes a workload's cells fail,
fails the benchmark run, so this check runs with the unit tests too.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_clean_at_seed_0(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, (configs, run) in workloads.WORKLOADS.items():
        outcome = run(configs(0), tmp_path / f"{name}.csv")
        assert outcome.cells > 0 and outcome.failed_cells == 0, name
        assert all(outcome.checks.values()), (name, outcome.checks)
