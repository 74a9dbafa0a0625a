import concurrent.futures
import ctypes.util
import inspect
import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qlimits import (
    LINEAR_KERNEL,
    Dataset,
    SOLVER_IDS,
    SolverConfig,
    SyntheticProblem,
    excess_risk,
    excess_risks,
    fit_solver,
    read_dataset_csv,
    sample_dataset,
    write_dataset_csv,
)
from qlimits import NumericalError, blas, scaling
from qlimits.cli import cmd_cost, cmd_fit, main
from qlimits.qmodel import (
    complexity_table,
    cost_log_error_solver,
    cost_matched_precision,
    cost_poly_error_solver,
)
from qlimits.rng import derive_seed
from qlimits.solvers import load_predictor, predictor_to_json

import reference_outputs as ref


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, payload, *extra):
    cfg = _write_config(tmp_path / f"{command}ncfg{abs(hash(str(payload))) % 997}.json", payload)
    return main([command, "--config", cfg, *extra])


def _fit_payload(tmp_path, dataset, problem):
    return {
        "dataset": str(dataset),
        "solver": "exact_ls",
        "problem": problem,
        "out_predictor": str(tmp_path / "fit.pred.json"),
        "out_report": str(tmp_path / "fit.report.json"),
    }


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_dataset_and_echo(tmp_path):
    out = tmp_path / "data.csv"
    payload = {"problem": {"dimension": 2, "noise_std": 0.0, "seed": 1}, "n": 4, "out": str(out)}
    assert _run(tmp_path, "generate", payload) == 0
    ds = read_dataset_csv(out)
    problem = SyntheticProblem(2, 0.0, seed=1)
    np.testing.assert_array_equal(ds.labels, ds.features @ problem.target_weights)
    echo = json.loads((tmp_path / "data.csv.config.json").read_text())
    assert echo["schema_version"] == 14
    assert echo["n"] == 4 and echo["bayes_risk"] == 0.0

    first = out.read_bytes()
    assert _run(tmp_path, "generate", payload) == 0
    assert out.read_bytes() == first


def test_generate_rejects_zero_samples(tmp_path, capsys):
    payload = {"problem": {"dimension": 2, "noise_std": 0.0}, "n": 0, "out": str(tmp_path / "x.csv")}
    assert _run(tmp_path, "generate", payload) == 2
    assert "`n`" in capsys.readouterr().err


def test_generate_rejects_unknown_keys(tmp_path, capsys):
    payload = {"problem": {"dimension": 2}, "n": 4, "rows": 7, "out": str(tmp_path / "x.csv")}
    assert _run(tmp_path, "generate", payload) == 2
    assert "rows" in capsys.readouterr().err


def test_generate_echo_reruns_generate_and_its_problem_feeds_fit(tmp_path):
    out = tmp_path / "data.csv"
    payload = {"problem": {"dimension": 3, "input_law": "gaussian_clipped", "seed": 4}, "n": 50, "out": str(out)}
    assert _run(tmp_path, "generate", payload) == 0
    echo = json.loads((tmp_path / "data.csv.config.json").read_text())
    assert echo["problem"] == {"dimension": 3, "noise_std": 0.5, "input_law": "gaussian_clipped", "seed": 4}
    again = tmp_path / "again.csv"
    assert _run(tmp_path, "generate", {"problem": echo["problem"], "n": echo["n"], "out": str(again)}) == 0
    assert again.read_bytes() == out.read_bytes()
    assert _run(tmp_path, "fit", _fit_payload(tmp_path, out, echo["problem"])) == 0
    assert math.isfinite(json.loads((tmp_path / "fit.report.json").read_text())["excess_risk"])


def test_missing_config_file(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b'\xff\xfe{"n": 3}')
    assert main(["generate", "--config", str(config)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "bad.json" in err[0] and "UTF-8" in err[0]


# ---------------------------------------------------------------------------
# fit

def test_fit_identity_design(tmp_path):
    data = tmp_path / "tiny.csv"
    from qlimits import Dataset

    write_dataset_csv(
        Dataset(features=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([2.0, -1.0])),
        data,
    )
    payload = {
        "dataset": str(data),
        "solver": "exact_ls",
        "solver_config": {"lam": 0.0},
        "out_predictor": str(tmp_path / "pred.json"),
        "out_report": str(tmp_path / "report.json"),
    }
    assert _run(tmp_path, "fit", payload) == 0
    predictor = load_predictor(tmp_path / "pred.json")
    np.testing.assert_allclose(predictor.weights, [2.0, -1.0], atol=1e-12)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["empirical_risk"] <= 1e-20
    assert report["excess_risk"] is None


def test_fit_divide_and_conquer_single_block_matches_krr(tmp_path):
    problem = SyntheticProblem(3, 0.3, seed=5)
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(problem, 40, seed=6), data)
    reports = {}
    for solver, partitions in (("krr", None), ("divide_and_conquer", 1)):
        payload = {
            "dataset": str(data),
            "solver": solver,
            "solver_config": {"lam": 0.05},
            "problem": {"dimension": 3, "noise_std": 0.3, "seed": 5},
            "n_eval": 2000,
            "out_predictor": str(tmp_path / f"{solver}.pred.json"),
            "out_report": str(tmp_path / f"{solver}.report.json"),
        }
        if partitions is not None:
            payload["solver_config"]["partitions"] = partitions
        assert _run(tmp_path, "fit", payload) == 0
        reports[solver] = json.loads((tmp_path / f"{solver}.report.json").read_text())
    a, b = reports["krr"], reports["divide_and_conquer"]
    assert a["empirical_risk"] == pytest.approx(b["empirical_risk"], abs=1e-10)
    assert a["excess_risk"] == pytest.approx(b["excess_risk"], abs=1e-10)


@pytest.mark.parametrize("solver", SOLVER_IDS)
def test_fit_every_solver(tmp_path, solver):
    problem = SyntheticProblem(3, 0.3, seed=5)
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(problem, 40, seed=6), data)
    payload = {
        "dataset": str(data),
        "solver": solver,
        "solver_config": {"lam": 0.05, "partitions": 2},
        "problem": {"dimension": 3, "noise_std": 0.3, "seed": 5},
        "n_eval": 2000,
        "out_predictor": str(tmp_path / "pred.json"),
        "out_report": str(tmp_path / "report.json"),
    }
    assert _run(tmp_path, "fit", payload) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["solver"] == solver
    assert math.isfinite(report["excess_risk"])
    expected = fit_solver(
        solver, read_dataset_csv(data), LINEAR_KERNEL, SolverConfig(lam=0.05, partitions=2)
    )
    assert predictor_to_json(load_predictor(tmp_path / "pred.json")) == predictor_to_json(expected)


def test_fit_predictor_spells_its_kernel_as_the_report_config_does(tmp_path):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(3, 0.3, seed=5), 20, seed=6), data)
    payload = {
        "dataset": str(data),
        "solver": "krr",
        "out_predictor": str(tmp_path / "pred.json"),
        "out_report": str(tmp_path / "report.json"),
    }
    assert _run(tmp_path, "fit", payload) == 0
    predictor = json.loads((tmp_path / "pred.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    assert predictor["kernel"] == report["config"]["kernel"] == {"kind": "linear", "bandwidth": None}


def test_fit_scores_a_linear_predictor_exactly(tmp_path):
    problem = SyntheticProblem(5, 0.5, seed=7)
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(problem, 4096, seed=8), data)
    payload = {
        "dataset": str(data),
        "solver": "exact_ls",
        "problem": {"dimension": 5, "noise_std": 0.5, "seed": 7},
        "n_eval": 2000,
        "out_predictor": str(tmp_path / "pred.json"),
        "out_report": str(tmp_path / "report.json"),
    }
    assert _run(tmp_path, "fit", payload) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["excess_risk"] == excess_risk(load_predictor(tmp_path / "pred.json"), problem)
    # the closed form, with no sampling error; n_eval is echoed, not read
    assert report["expected_risk"] == {
        "value": report["bayes_risk"] + report["excess_risk"], "std_error": 0.0, "n_eval": 2000
    }


def test_fit_scores_a_gaussian_predictor_on_its_evaluation_sample(tmp_path):
    _, report = _gaussian_krr_fit(tmp_path)
    report = json.loads(report)
    predictor = load_predictor(tmp_path / "pred.json")
    with blas.single_blas_thread():  # as the fit scored it
        ((excess, std_error),) = excess_risks(
            (predictor,), SyntheticProblem(10, 0.5, seed=3), n_eval=3000, seed=0
        )
    assert report["excess_risk"] == excess
    assert report["expected_risk"] == {
        "value": report["bayes_risk"] + excess, "std_error": std_error, "n_eval": 3000
    }
    assert 0 < std_error < 0.05 * excess


def _gaussian_krr_fit(tmp_path):
    """A fit large enough that an unpinned BLAS rounds it differently at 2 threads."""
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(10, 0.5, seed=3), 600, seed=4), data)
    payload = {
        "dataset": str(data),
        "solver": "krr",
        "kernel": {"kind": "gaussian", "bandwidth": 1.0},
        "problem": {"dimension": 10, "noise_std": 0.5, "seed": 3},
        "n_eval": 3000,
        "out_predictor": str(tmp_path / "pred.json"),
        "out_report": str(tmp_path / "report.json"),
    }
    assert _run(tmp_path, "fit", payload) == 0
    return (tmp_path / "pred.json").read_bytes(), (tmp_path / "report.json").read_bytes()


@pytest.fixture(scope="module")
def readme_outputs(tmp_path_factory):
    """The bytes of each file written by README's example commands (a
    generate, a Gaussian krr fit of its dataset scored on the default n_eval
    points, and the linear rate sweep), keyed by file name."""
    directory = tmp_path_factory.mktemp("readme")
    ref.run_readme_commands(directory)
    return {name: (directory / name).read_bytes() for name in ref.README_FILES}


def test_reference_files_match_their_manifest():
    manifest = ref.read_manifest()
    assert manifest["schema_version"] == scaling.SCHEMA_VERSION, "run scripts/regenerate_references.py"
    assert sorted(manifest["files"]) == sorted(ref.FILES)
    for name, digest in manifest["files"].items():
        assert ref.sha256((ref.REFERENCE_DIR / name).read_bytes()) == digest, name


def test_readme_shows_the_configs_that_write_the_reference_outputs():
    readme = (ref.ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
    for command, config in ref.README_COMMANDS:
        assert config in blocks, command


def test_readme_examples_write_the_reference_values(readme_outputs):
    misses = [line for name, new in readme_outputs.items()
              for line in ref.value_mismatches(name, new, (ref.REFERENCE_DIR / name).read_bytes())]
    assert not misses, "\n".join(misses)


def test_readme_examples_write_the_reference_bytes(readme_outputs):
    manifest = ref.read_manifest()
    differs = ref.environment_differs(manifest["environment"])
    if differs is not None:
        pytest.skip(f"not the environment that wrote the reference sha256s: {differs}")
    assert {name: ref.sha256(new) for name, new in readme_outputs.items()} == \
        {name: manifest["files"][name] for name in ref.README_FILES}


def test_fit_output_does_not_depend_on_preset_blas_threads(tmp_path, preset_blas_threads):
    preset_blas_threads(1)
    single = _gaussian_krr_fit(tmp_path)
    preset_blas_threads(2)
    assert _gaussian_krr_fit(tmp_path) == single


def test_fit_that_cannot_pin_blas_warns_and_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [])
    with pytest.warns(RuntimeWarning, match="no BLAS"):
        _, report = _gaussian_krr_fit(tmp_path)
    assert math.isfinite(json.loads(report)["excess_risk"])


@pytest.mark.parametrize(
    "options",
    [
        {"solver": "exact_ls"},
        {"solver": "exact_ls", "problem": {"dimension": 3, "input_law": "gaussian_clipped",
                                           "seed": 5}, "solver_config": {"lam": 0.05}},
        {"solver": "nystrom", "kernel": {"kind": "gaussian", "bandwidth": 1.0},
         "problem": {"dimension": 3, "seed": 5}, "n_eval": 500, "eval_seed": 2},
    ],
    ids=["no-problem", "linear-clipped", "nystrom-gaussian"],
)
def test_fit_echo_reruns_the_fit(tmp_path, options):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(3, 0.5, seed=5), 64, seed=6), data)
    payload = {"dataset": str(data), **options, "out_predictor": str(tmp_path / "pred.json"),
               "out_report": str(tmp_path / "report.json")}
    assert _run(tmp_path, "fit", payload) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    echo = report["config"]
    # every key: the given ones as given, blocks completed by their defaults
    assert set(echo) == set(inspect.signature(cmd_fit).parameters)
    for key, value in payload.items():
        assert echo[key] == (echo[key] | value if isinstance(value, dict) else value)
    assert _run(tmp_path, "fit", echo, "--set", f"out_predictor={tmp_path / 'again.pred.json'}",
                "--set", f"out_report={tmp_path / 'again.report.json'}") == 0
    assert (tmp_path / "again.pred.json").read_bytes() == (tmp_path / "pred.json").read_bytes()
    again = json.loads((tmp_path / "again.report.json").read_text())
    assert again["config"] == echo | {"out_predictor": str(tmp_path / "again.pred.json"),
                                      "out_report": str(tmp_path / "again.report.json")}
    assert again | {"config": echo} == report


def test_fit_unknown_solver_exits_config(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(2, 0.1, seed=1), 10, seed=2), data)
    payload = {
        "dataset": str(data),
        "solver": "sgd",
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 2
    assert "sgd" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("problem", [{"dimension": 0}, {"bogus": 1}, {"dimension": 2}])
def test_fit_rejected_config_writes_no_file(tmp_path, problem):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(3, 0.1, seed=1), 10, seed=2), data)
    payload = {
        "dataset": str(data),
        "solver": "exact_ls",
        "problem": problem,
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 2
    assert not (tmp_path / "p.json").exists()
    assert not (tmp_path / "r.json").exists()


def test_fit_rejects_exact_ls_under_a_gaussian_kernel(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(SyntheticProblem(3, 0.1, seed=1), 10, seed=2), data)
    payload = _fit_payload(tmp_path, data, None)
    payload["kernel"] = {"kind": "gaussian", "bandwidth": 1.0}
    assert _run(tmp_path, "fit", payload) == 2
    assert "exact_ls" in capsys.readouterr().err
    assert not (tmp_path / "fit.pred.json").exists() and not (tmp_path / "fit.report.json").exists()


def test_fit_missing_dataset(tmp_path, capsys):
    payload = {
        "dataset": str(tmp_path / "absent.csv"),
        "solver": "exact_ls",
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 2
    assert "absent.csv" in capsys.readouterr().err


def test_fit_dataset_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"x0,y\n1.0\xff,2.0\n")
    assert _run(tmp_path, "fit", _fit_payload(tmp_path, data, None)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "bad.csv" in err[0] and "UTF-8" in err[0]
    assert not (tmp_path / "fit.pred.json").exists() and not (tmp_path / "fit.report.json").exists()


def test_fit_singular_system_exits_numerical(tmp_path, capsys):
    from qlimits import Dataset

    data = tmp_path / "thin.csv"
    write_dataset_csv(
        Dataset(features=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), labels=np.array([1.0, 2.0])),
        data,
    )
    payload = {
        "dataset": str(data),
        "solver": "exact_ls",
        "solver_config": {"lam": 0.0},
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 3
    assert "singular" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# sweep

def _sweep_payload(tmp_path, **overrides):
    payload = {
        "mode": "rate",
        "n_grid": [32, 64, 128],
        "trials": 3,
        "n_eval": 2000,
        "master_seed": 5,
        "workers": 1,
        "out_csv": str(tmp_path / "sweep.csv"),
        "out_json": str(tmp_path / "sweep.json"),
    }
    payload.update(overrides)
    return payload


def test_sweep_rate_summary(tmp_path):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path)) == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["schema_version"] == 14
    assert summary["mode"] == "rate"
    assert isinstance(summary["summary"]["rate_ok"], bool)
    assert "exponent" in summary["summary"]["fit"]
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "solver,n,statistic,value"


def test_sweep_reruns_are_byte_identical(tmp_path):
    payload = _sweep_payload(tmp_path)
    assert _run(tmp_path, "sweep", payload) == 0
    first_csv = (tmp_path / "sweep.csv").read_bytes()
    first_json = (tmp_path / "sweep.json").read_bytes()
    assert _run(tmp_path, "sweep", payload, "--set", "workers=2") == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first_csv
    # worker count is config echo, not results; compare the summary block
    second = json.loads((tmp_path / "sweep.json").read_text())
    assert second["summary"] == json.loads(first_json)["summary"]


def test_sweep_empty_grid_rejected(tmp_path, capsys):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, n_grid=[])) == 2
    assert "n_grid" in capsys.readouterr().err


def test_sweep_unknown_key_rejected(tmp_path, capsys):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, gamma=0.1)) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"solver": "sgd"},
        {"problem": {"input_law": "bogus"}},
        {"kernel": {"kind": "poly"}},
        {"noise": {"regime": "bogus"}},
        {"noise": {"gamma_kind": "cubic"}},
        {"noise": {"m_kind": "cubic"}},
        {"mode": "measurement", "measurement": {"regime": "exact"}},
        {"mode": "measurement", "measurement": {"regime": "bogus"}},
        {"mode": "measurement", "measurement": {"degraded_rule": "cubic"}},
        {"workers_flag": 2},
        {"noise": {"gamma_rule": {"kind": "matched"}}},
        {"mode": "matching", "measurement": {"regime": "bogus"}},
        {"matching": {"matched_c0": 0.1}},
    ],
)
def test_sweep_rejects_unknown_names(tmp_path, override):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, **override)) == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "mode,block",
    [("rate", "matching"), ("rate", "measurement"), ("matching", "measurement"),
     ("measurement", "matching")],
)
def test_sweep_rejects_a_block_its_mode_does_not_read(tmp_path, capsys, mode, block):
    payload = _sweep_payload(tmp_path, mode=mode, **{block: {}})
    assert _run(tmp_path, "sweep", payload) == 2
    err = capsys.readouterr().err
    assert f"mode {mode!r}" in err and f"`{block}`" in err
    assert not (tmp_path / "sweep.csv").exists()
    assert _run(tmp_path, "sweep", {**payload, block: None}) == 0  # a null block is no block


@pytest.mark.parametrize(
    "override",
    [
        {"problem": []},
        {"solver_config": 5},
        {"noise": 3},
    ],
)
def test_sweep_rejects_non_object_blocks(tmp_path, override, capsys):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, **override)) == 2
    assert "object" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, workers=workers)) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_without_workers_runs_one_worker_per_core(tmp_path, monkeypatch):
    payload = _sweep_payload(tmp_path)
    del payload["workers"]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # a platform without affinity
    for cores, workers in ((None, 1), (2, 2)):  # os.cpu_count() is None when unknown
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert _run(tmp_path, "sweep", payload) == 0
        summary = json.loads((tmp_path / "sweep.json").read_text())
        assert summary["config"]["workers"] == workers


def test_sweep_without_workers_runs_one_worker_per_core_it_may_use(tmp_path, monkeypatch):
    # under taskset or a cpuset the process may run on fewer cores than the host has
    payload = _sweep_payload(tmp_path)
    del payload["workers"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _run(tmp_path, "sweep", payload) == 0
    assert json.loads((tmp_path / "sweep.json").read_text())["config"]["workers"] == 1


def test_sweep_set_override(tmp_path):
    payload = _sweep_payload(tmp_path)
    assert _run(tmp_path, "sweep", payload, "--set", "trials=2") == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["config"]["trials"] == 2


def test_sweep_set_reaches_into_a_null_block(tmp_path):
    # every sweep JSON echoes "noise": null; --set noise.* must reach into it
    payload = _sweep_payload(tmp_path, noise=None)
    assert _run(tmp_path, "sweep", payload, "--set", "noise.regime=heisenberg") == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["config"]["noise"]["regime"] == "heisenberg"


def test_sweep_set_still_rejects_a_path_through_a_value(tmp_path, capsys):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path), "--set", "trials.x=1") == 2
    assert "non-object field 'trials'" in capsys.readouterr().err


def test_sweep_matching_mode(tmp_path):
    payload = _sweep_payload(
        tmp_path,
        mode="matching",
        matching={"matched_c0": 0.1, "constant_gamma": 0.3},
    )
    assert _run(tmp_path, "sweep", payload) == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert {"matched", "constant"} == set(summary["ratios"])
    assert "matched_ok" in summary["summary"]


def test_sweep_measurement_mode(tmp_path):
    payload = _sweep_payload(
        tmp_path,
        mode="measurement",
        measurement={"regime": "heisenberg"},
    )
    assert _run(tmp_path, "sweep", payload) == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert {"budget", "degraded"} == set(summary["ratios"])
    assert "degraded_exponent" in summary["summary"]


@pytest.mark.parametrize("mode, code, message", [
    ("matching", 0, "wrote "),
    ("measurement", 2, "config error: fit requires positive finite values; got inf at n=4"),
])
def test_paired_sweep_over_a_zero_exact_median(tmp_path, capsys, mode, code, message):
    # noiseless d = 1 interpolation: the exact arm's medians are 0.0, ~1e-32 and 0.0
    payload = _sweep_payload(
        tmp_path, mode=mode, n_grid=[4, 8, 16], trials=1,
        problem={"dimension": 1, "noise_std": 0.0}, solver_config={"lam": 0.0},
    )
    assert _run(tmp_path, "sweep", payload) == code
    assert "exact,4,median_excess_risk,0\n" in (tmp_path / "sweep.csv").read_text()
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert "Traceback" not in captured.err
    if mode == "matching":
        summary = json.loads((tmp_path / "sweep.json").read_text())["summary"]
        assert summary["matched_ok"] is False
        assert summary["max_ratio_matched"] == float("inf")
    else:
        assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize(
    "mode, options",
    [
        ("rate", {"noise": {"regime": "heisenberg", "gamma_kind": "matched", "gamma_value": 0.1,
                            "m_kind": "sqrt_n"}}),
        ("matching", {"matching": {"matched_c0": 0.1, "constant_gamma": 0.3}}),
        ("measurement", {"measurement": {"regime": "heisenberg"}}),
        ("matching", {"matching": {"matched_c0": 0.2, "constant_gamma": 0.5}}),
        ("measurement", {"measurement": {"regime": "shot_noise", "budget_rule": "linear_n",
                                         "degraded_rule": "sqrt_n"}}),
    ],
)
def test_sweep_echo_reruns_the_sweep(tmp_path, mode, options):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, mode=mode, **options)) == 0
    echo = json.loads((tmp_path / "sweep.json").read_text())
    # a paired mode echoes its options block as given; a rate sweep's noise block is in config
    blocks = {key: echo[key] for key in ("matching", "measurement") if key in echo}
    assert blocks == {key: options[key] for key in ("matching", "measurement") if key in options}
    rerun = dict(echo["config"], mode=echo["mode"], **blocks, out_csv=str(tmp_path / "rerun.csv"),
                 out_json=str(tmp_path / "rerun.json"))
    assert _run(tmp_path, "sweep", rerun) == 0
    assert (tmp_path / "rerun.csv").read_bytes() == (tmp_path / "sweep.csv").read_bytes()


@pytest.mark.parametrize("mode", ["matching", "measurement"])
@pytest.mark.parametrize(
    "override, field",
    [({"solver": "krr"}, "`solver`"), ({"noise": {"gamma_value": 0.1}}, "`noise`")],
)
def test_paired_sweep_rejects_a_solver_or_noise_block_it_would_not_run(
    tmp_path, capsys, mode, override, field
):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, mode=mode, **override)) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "sweep.json").exists()


def test_sweep_rejects_exact_ls_under_a_gaussian_kernel(tmp_path, capsys):
    payload = _sweep_payload(tmp_path, kernel={"kind": "gaussian", "bandwidth": 1.0})
    assert _run(tmp_path, "sweep", payload) == 2
    assert "exact_ls" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists() and not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("command, bandwidth", [
    ("fit", 1e-200), ("fit", 1e-160), ("fit", 1e-154), ("sweep", 1e200),
])
def test_gaussian_bandwidth_out_of_float_range_is_a_config_error(tmp_path, capsys, command, bandwidth):
    # 0.5 / bandwidth**2 divides by an underflowed zero, overflows to inf, or
    # raises OverflowError in the square. At 1e-154 it is finite (5e307), but
    # the exponent overflows on features of magnitude 2 and more
    kernel = {"kind": "gaussian", "bandwidth": bandwidth}
    if command == "fit":
        data = tmp_path / "train.csv"
        ds = sample_dataset(SyntheticProblem(3, 0.1, seed=1), 10, seed=2)
        write_dataset_csv(Dataset(4.0 * ds.features, ds.labels), data)
        payload = dict(_fit_payload(tmp_path, data, None), solver="krr", kernel=kernel)
        outputs = ("fit.pred.json", "fit.report.json")
    else:
        payload = _sweep_payload(tmp_path, solver="krr", kernel=kernel)
        outputs = ("sweep.csv", "sweep.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning, such as numpy's overflow, fails the run
        assert _run(tmp_path, command, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: gaussian kernel bandwidth {bandwidth} is out of range")
    assert len(err.splitlines()) == 1  # the config error alone
    assert not any((tmp_path / name).exists() for name in outputs)


def test_sweep_pool_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    # the name a sweep imports when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    payload = _sweep_payload(tmp_path, n_grid=[8, 16, 32], trials=1)
    assert _run(tmp_path, "sweep", payload) == 0
    serial = (tmp_path / "sweep.csv").read_bytes()
    assert _run(tmp_path, "sweep", payload, "--set", "workers=8") == 0
    assert started == [3]  # three cells
    assert (tmp_path / "sweep.csv").read_bytes() == serial
    assert json.loads((tmp_path / "sweep.json").read_text())["config"]["workers"] == 8


def test_sweep_reports_failed_cells_on_stderr(tmp_path, capsys):
    # lam=0 with n < d: every cell at n=3 is singular; the other sizes fit
    payload = _sweep_payload(
        tmp_path, n_grid=[3, 64, 128, 256], n_eval=20000, master_seed=6,
        problem={"dimension": 5, "noise_std": 0.1}, solver_config={"lam": 0.0},
    )
    assert _run(tmp_path, "sweep", payload) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "exact_ls n=3: 3 of 3 cells failed; SingularSystemError x3: " in warnings[0]
    written = json.loads((tmp_path / "sweep.json").read_text())
    assert written["summary"]["failed_cells"] == 3
    ((kind, count, message),) = written["failures"]["exact_ls"].pop("3")
    assert (kind, count) == ("SingularSystemError", 3) and message in warnings[0]
    assert written["failures"] == {"exact_ls": {}}


def test_sweep_whose_cells_all_fail_is_a_solver_error(tmp_path, capsys):
    payload = _sweep_payload(
        tmp_path, n_grid=[16, 32, 64], solver="early_stopping_gd",
        solver_config={"step_size": 1000.0, "max_iters": 50},
    )
    assert _run(tmp_path, "sweep", payload) == 3
    err = capsys.readouterr().err
    assert "DivergenceError x3" in err
    assert "solver error: arm 'early_stopping_gd': 0 grid sizes" in err


def test_sweep_with_ten_evaluation_points_fits_a_gaussian_rate(tmp_path):
    # ten evaluation points: the mean of squared distances to the clean
    # target is positive however few points there are, so the rate fits
    payload = _sweep_payload(tmp_path, n_grid=[8, 16, 32], trials=1, n_eval=10, master_seed=1,
                             solver="krr", kernel={"kind": "gaussian", "bandwidth": 1.0})
    assert _run(tmp_path, "sweep", payload) == 0
    medians = [
        float(line.split(",")[3]) for line in (tmp_path / "sweep.csv").read_text().splitlines()
        if ",median_excess_risk," in line
    ]
    assert len(medians) == 3 and all(m > 0 for m in medians)
    assert math.isfinite(json.loads((tmp_path / "sweep.json").read_text())["summary"]["fit"]["exponent"])


def test_sweep_json_lists_failed_cells_per_arm(tmp_path, monkeypatch):
    channels = scaling.apply_channels

    def lossy(weights, noise, n, seed):  # the constant arm loses its readout in odd-seeded cells
        if noise.gamma_at(n) == 0.3 and seed % 2:
            raise NumericalError("readout lost")
        return channels(weights, noise, n, seed)

    monkeypatch.setattr(scaling, "apply_channels", lossy)
    payload = _sweep_payload(tmp_path, mode="matching", n_grid=[32, 64, 128], trials=4,
                             master_seed=11, matching={"constant_gamma": 0.3})
    assert _run(tmp_path, "sweep", payload) == 0
    lost = {
        n: sum(derive_seed(11, "noise", n, t) % 2 for t in range(4)) for n in (32, 64, 128)
    }
    assert sum(lost.values()) > 0
    assert json.loads((tmp_path / "sweep.json").read_text())["failures"] == {
        "exact": {},
        "matched": {},
        "constant": {str(n): [["NumericalError", k, "readout lost"]] for n, k in lost.items() if k},
    }


# ---------------------------------------------------------------------------
# cost

def test_cost_table_dump(tmp_path):
    out = tmp_path / "table.csv"
    assert _run(tmp_path, "cost", {"algorithm": "table", "out": str(out)}) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    for entry in complexity_table():
        row = by_name[entry.algorithm]
        assert row[1] == str(entry.train_exponent)
        assert row[2] == str(entry.test_exponent)
        assert row[3] == ("1" if entry.is_quantum else "0")
        assert row[4] == ("1" if entry.test_includes_retraining else "0")


def test_cost_poly_error_grid(tmp_path):
    out = tmp_path / "cost.csv"
    payload = {"algorithm": "poly_error", "kappa": 2, "gamma": [0.1], "n": [1024], "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(4e4, rel=1e-9)


def test_cost_rejects_error_of_one(tmp_path, capsys):
    payload = {"algorithm": "log_error", "gamma": 1.0, "n": [64], "out": str(tmp_path / "c.csv")}
    assert _run(tmp_path, "cost", payload) == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("n", [[1024.5], 0.5, 2.0])
def test_cost_rejects_non_integer_n(tmp_path, n, capsys):
    out = tmp_path / "c.csv"
    payload = {"algorithm": "poly_error", "gamma": 0.1, "n": n, "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 2
    assert "`n" in capsys.readouterr().err
    assert not out.exists()


_COST_READS = {  # algorithm -> inputs it reads besides kappa and n; frobenius stays "sqrt_n"
    "log_error": {"gamma": [0.3, 0.01]},
    "poly_error": {"gamma": [0.3, 0.01]},
    "matched": {"beta": 3, "c": 2},
}


@pytest.mark.parametrize("algorithm", ["log_error", "poly_error", "matched"])
@pytest.mark.parametrize("n", [-1, 0])
def test_cost_rejects_size_below_one_before_sqrt(tmp_path, algorithm, n, capsys):
    out = tmp_path / "c.csv"
    payload = {"algorithm": algorithm, **_COST_READS[algorithm], "n": n, "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 2
    assert "`n` must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cost_matched_grid(tmp_path):
    out = tmp_path / "m.csv"
    payload = {"algorithm": "matched", "kappa": 1, "n": [16], "beta": 4, "c": 1, "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(1024.0, rel=1e-12)


@pytest.mark.parametrize(
    "payload",
    [
        {"algorithm": "poly_error", "gamma": 1e-200, "n": [64]},
        {"algorithm": "matched", "beta": 1000, "c": 1, "n": [1024]},
        {"algorithm": "log_error", "kappa": 1e300, "frobenius": 1e300, "gamma": 0.1, "n": [64]},
    ],
    ids=["poly_error", "matched", "log_error"],
)
def test_cost_that_overflows_is_a_numerical_error(tmp_path, payload, capsys):
    out = tmp_path / "c.csv"
    assert _run(tmp_path, "cost", {**payload, "out": str(out)}) == 3
    err = capsys.readouterr().err
    assert "not a finite float" in err and "'n': " in err
    assert not out.exists()


_COST_FORMULAS = {
    "log_error": lambda size, k, g: cost_log_error_solver(k, 2.5, size, g),
    "poly_error": lambda size, k, g: cost_poly_error_solver(k, size, g),
    "matched": lambda size, k, g: cost_matched_precision(k, size, 3.0, 2.0),
}


@pytest.mark.parametrize("algorithm", sorted(_COST_FORMULAS))
def test_cost_rows_are_direct_formula_calls_in_grid_order(tmp_path, algorithm):
    # no input equals 1, so swapped arguments change the cost
    sizes, kappas = [16, 1000], [2.0, 7.5]
    out = tmp_path / "c.csv"
    payload = {"algorithm": algorithm, **_COST_READS[algorithm], "n": sizes, "kappa": kappas,
               "out": str(out)}
    if algorithm == "log_error":
        payload["frobenius"] = 2.5
    assert _run(tmp_path, "cost", payload) == 0
    expected = []
    for size in sizes:
        for k in kappas:
            for g in _COST_READS[algorithm].get("gamma", [float(size) ** -0.5]):
                expected.append((algorithm, size, k, g, _COST_FORMULAS[algorithm](size, k, g)))
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(a, int(n), float(k), float(g), float(cost)) for a, n, k, g, cost in rows] == expected


def test_cost_keys_are_the_formula_parameter_names():
    names = set()
    for formula in (cost_log_error_solver, cost_poly_error_solver, cost_matched_precision):
        names |= set(inspect.signature(formula).parameters)
    keys = set(inspect.signature(cmd_cost).parameters) - {"algorithm", "out"}
    assert keys <= names
    assert names == {"kappa", "frobenius", "n", "gamma", "beta", "c"}


_COST_UNREAD = {  # algorithm -> a payload it runs on, and each key it does not read
    "table": ({}, ["kappa", "gamma", "n", "frobenius", "beta", "c"]),
    "log_error": ({"gamma": 0.1, "n": [64]}, ["beta", "c"]),
    "poly_error": ({"kappa": 2, "gamma": [0.1], "n": [1024]}, ["frobenius", "beta", "c"]),
    "matched": ({"n": [64], "beta": 3, "c": 2}, ["gamma", "frobenius"]),
}


@pytest.mark.parametrize("algorithm, key", [
    (algorithm, key) for algorithm, (_, keys) in _COST_UNREAD.items() for key in keys
])
def test_cost_rejects_a_key_its_algorithm_does_not_read(tmp_path, algorithm, key, capsys):
    payload = {"algorithm": algorithm, **_COST_UNREAD[algorithm][0]}
    assert _run(tmp_path, "cost", {**payload, "out": str(tmp_path / "a.csv")}) == 0
    capsys.readouterr()
    given = {**payload, key: 2, "out": str(tmp_path / "b.csv")}  # a valid value of every key
    assert _run(tmp_path, "cost", given) == 2
    assert f"algorithm {algorithm!r} does not read `{key}`" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("key", ["kappa", "gamma", "n", "frobenius"])
def test_cost_rejects_a_null_input(tmp_path, key, capsys):
    # a read key given as null is not taken for an absent one
    out = tmp_path / "c.csv"
    assert _run(tmp_path, "cost", {"algorithm": "log_error", key: None, "out": str(out)}) == 2
    assert f"field `{key}` in cost config must be" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench

def test_bench_small_grid_with_single_rep_warns(tmp_path, capsys):
    payload = {
        "solver_ids": ["exact_ls", "nystrom"],
        "n_grid": [64, 128, 256],
        "reps": 1,
        "timer_window": 0.005,
        "out_csv": str(tmp_path / "bench.csv"),
        "out_json": str(tmp_path / "bench.json"),
    }
    assert _run(tmp_path, "bench", payload) == 0
    assert "reps=1" in capsys.readouterr().err
    summary = json.loads((tmp_path / "bench.json").read_text())
    assert summary["summary"]["timed_out"] is False
    assert "exact_ls" in summary["train_fits"]


def test_bench_echo_reruns_the_bench(tmp_path):
    payload = {
        "solver_ids": ["exact_ls", "nystrom"],
        "n_grid": [64, 128, 256],
        "reps": 2,
        "timer_window": 0.001,
        "out_csv": str(tmp_path / "bench.csv"),
        "out_json": str(tmp_path / "bench.json"),
    }
    assert _run(tmp_path, "bench", payload) == 0
    echo = json.loads((tmp_path / "bench.json").read_text())["config"]
    assert set(echo) == {"out_csv", "out_json", *inspect.signature(scaling.runtime_benchmark).parameters}
    assert {key: echo[key] for key in payload} == payload
    assert echo["kernel"] == {"kind": "linear", "bandwidth": None} and echo["cap"] == 8192
    assert _run(tmp_path, "bench", echo) == 0
    assert json.loads((tmp_path / "bench.json").read_text())["config"] == echo


def test_bench_rejects_grid_over_cap(tmp_path, capsys):
    payload = {
        "n_grid": [256, 512, 16384],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 2
    assert "cap" in capsys.readouterr().err


def test_bench_timeout_exit_code(tmp_path):
    payload = {
        "solver_ids": ["exact_ls"],
        "n_grid": [64, 128, 256],
        "reps": 1,
        "timeout_s": 1e-9,
        "timer_window": 0.001,
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 4
    summary = json.loads((tmp_path / "b.json").read_text())
    assert summary["summary"]["timed_out"] is True


def test_bench_solver_error_exits_numerical_with_its_message(tmp_path, capsys):
    # lam=0 makes the Nystrom system singular: a solver error, not a timeout
    payload = {
        "solver_ids": ["nystrom"],
        "lam": 0,
        "n_grid": [256, 512, 1024],
        "reps": 1,
        "timer_window": 0.001,
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 3
    err = capsys.readouterr().err
    assert "solver error: " in err and "singular" in err
    assert not (tmp_path / "b.csv").exists() and not (tmp_path / "b.json").exists()


def test_bench_rejects_exact_ls_under_a_gaussian_kernel(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scaling, "single_blas_thread", None)  # rejected before timing
    payload = {
        "solver_ids": ["krr", "exact_ls"],
        "kernel": {"kind": "gaussian", "bandwidth": 1.0},
        "n_grid": [64, 128, 256],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 2
    assert "exact_ls" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists() and not (tmp_path / "b.json").exists()


def test_bench_rejects_unknown_solver(tmp_path, capsys):
    payload = {
        "solver_ids": ["exact_ls", "sgd"],
        "n_grid": [64, 128, 256],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 2
    assert "sgd" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="BLAS is found in /proc")
def test_bench_exits_numerical_when_blas_cannot_be_pinned(tmp_path, monkeypatch, capsys):
    libc = ctypes.util.find_library("c")
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [libc])
    payload = {
        "solver_ids": ["exact_ls"],
        "n_grid": [64, 128, 256],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 3
    assert libc in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


# ---------------------------------------------------------------------------
# README examples

def _readme_json(marker):
    """The first JSON block after ``marker`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("```json\n", text.index(marker)) + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


@pytest.mark.parametrize("with_noise", [False, True])
def test_readme_sweep_config_runs(tmp_path, with_noise):
    config = _readme_json("Example sweep config:")
    if with_noise:
        config["noise"] = _readme_json("Example noise block:")
    config.update(n_grid=[8, 16, 32], trials=2, out_csv=str(tmp_path / "rate.csv"),
                  out_json=str(tmp_path / "rate.json"))
    assert _run(tmp_path, "sweep", config) == 0


def test_readme_cost_config_runs(tmp_path):
    config = _readme_json("Example cost config:")
    config.update(out=str(tmp_path / "cost.csv"))
    assert _run(tmp_path, "cost", config) == 0
    assert len((tmp_path / "cost.csv").read_text().splitlines()) > 1


def test_readme_generate_config_feeds_fit(tmp_path):
    config = _readme_json("Example generate config:")
    config.update(out=str(tmp_path / "train.csv"))
    assert _run(tmp_path, "generate", config) == 0
    assert _run(tmp_path, "fit", _fit_payload(tmp_path, tmp_path / "train.csv", config["problem"])) == 0
