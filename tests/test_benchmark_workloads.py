"""Every benchmark workload runs, at seed 0, with no failed cell and every check true,
writes the same CSV bytes traced as untraced, writes the values of
``tests/reference/`` and, in the environment that wrote them, its bytes.

``perfbench/workloads.py`` calls qlimits names directly, and
``perfbench/spans.py`` wraps some of them while a traced run is installed. A
name either uses that the package no longer has, a change that makes a
workload's cells fail, or a wrapped name whose traced call changes the
output, fails the benchmark run, so these checks run with the unit tests too.
"""

import pytest

import reference_outputs as ref


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    """Each workload's outcome and CSV bytes."""
    directory = tmp_path_factory.mktemp("untraced")
    outcomes = ref.run_workloads(directory)
    return {name: (outcome, (directory / f"{name}.csv").read_bytes()) for name, outcome in outcomes.items()}


def test_every_workload_runs_clean_at_seed_0(untraced):
    for name, (outcome, _) in untraced.items():
        assert outcome.cells > 0 and outcome.failed_cells == 0, name
        assert all(outcome.checks.values()), (name, outcome.checks)


def test_traced_workloads_write_the_untraced_csv_bytes(untraced, tmp_path):
    traced = ref.run_workloads(tmp_path, ref.perfbench("spans").Tracer())
    for name, outcome in traced.items():
        assert outcome.failed_cells == 0 and all(outcome.checks.values()), name
        assert (tmp_path / f"{name}.csv").read_bytes() == untraced[name][1], name


def test_workloads_write_the_reference_csv_values(untraced):
    misses = [line for name, (_, csv) in untraced.items()
              for line in ref.value_mismatches(f"{name}.csv", csv, (ref.REFERENCE_DIR / f"{name}.csv").read_bytes())]
    assert not misses, "\n".join(misses)


def test_workloads_write_the_reference_csv_bytes(untraced):
    manifest = ref.read_manifest()
    differs = ref.environment_differs(manifest["environment"])
    if differs is not None:
        pytest.skip(f"not the environment that wrote the reference sha256s: {differs}")
    for name, (_, csv) in untraced.items():
        assert ref.sha256(csv) == manifest["files"][f"{name}.csv"], name
