import ctypes.util
import json
import math
import os

import numpy as np
import pytest

from qlimits import (
    LINEAR_KERNEL,
    SOLVER_IDS,
    SolverConfig,
    expected_risks_mc,
    fit_solver,
    make_problem,
    read_dataset_csv,
    sample_dataset,
    write_dataset_csv,
)
from qlimits import NumericalError, blas, scaling
from qlimits.cli import main
from qlimits.qmodel import complexity_table
from qlimits.rng import derive_seed
from qlimits.solvers import load_predictor, predictor_to_json


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, payload, *extra):
    cfg = _write_config(tmp_path / f"{command}ncfg{abs(hash(str(payload))) % 997}.json", payload)
    return main([command, "--config", cfg, *extra])


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_dataset_and_echo(tmp_path):
    out = tmp_path / "data.csv"
    payload = {"d": 2, "n": 4, "sigma": 0.0, "seed": 1, "out": str(out)}
    assert _run(tmp_path, "generate", payload) == 0
    ds = read_dataset_csv(out)
    problem = make_problem(2, 0.0, seed=1)
    np.testing.assert_array_equal(ds.labels, ds.features @ problem.target_weights)
    echo = json.loads((tmp_path / "data.csv.config.json").read_text())
    assert echo["schema_version"] == 3
    assert echo["n"] == 4 and echo["bayes_risk"] == 0.0

    first = out.read_bytes()
    assert _run(tmp_path, "generate", payload) == 0
    assert out.read_bytes() == first


def test_generate_rejects_zero_samples(tmp_path, capsys):
    payload = {"d": 2, "n": 0, "sigma": 0.0, "out": str(tmp_path / "x.csv")}
    assert _run(tmp_path, "generate", payload) == 2
    assert "`n`" in capsys.readouterr().err


def test_generate_rejects_unknown_keys(tmp_path, capsys):
    payload = {"d": 2, "n": 4, "rows": 7, "out": str(tmp_path / "x.csv")}
    assert _run(tmp_path, "generate", payload) == 2
    assert "rows" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["generate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


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
    problem = make_problem(3, 0.3, seed=5)
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(problem, 40, seed=6), data)
    reports = {}
    for solver, partitions in (("krr", None), ("divide_and_conquer", 1)):
        payload = {
            "dataset": str(data),
            "solver": solver,
            "solver_config": {"lam": 0.05},
            "problem": {"d": 3, "sigma": 0.3, "seed": 5},
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
    problem = make_problem(3, 0.3, seed=5)
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(problem, 40, seed=6), data)
    payload = {
        "dataset": str(data),
        "solver": solver,
        "solver_config": {"lam": 0.05, "partitions": 2},
        "problem": {"d": 3, "sigma": 0.3, "seed": 5},
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


def test_fit_unknown_solver_exits_config(tmp_path, capsys):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(make_problem(2, 0.1, seed=1), 10, seed=2), data)
    payload = {
        "dataset": str(data),
        "solver": "sgd",
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 2
    assert "sgd" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("problem", [{"d": 0}, {"bogus": 1}, {"d": 2}])
def test_fit_rejected_config_writes_no_file(tmp_path, problem):
    data = tmp_path / "train.csv"
    write_dataset_csv(sample_dataset(make_problem(3, 0.1, seed=1), 10, seed=2), data)
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


def test_fit_missing_dataset(tmp_path, capsys):
    payload = {
        "dataset": str(tmp_path / "absent.csv"),
        "solver": "exact_ls",
        "out_predictor": str(tmp_path / "p.json"),
        "out_report": str(tmp_path / "r.json"),
    }
    assert _run(tmp_path, "fit", payload) == 2
    assert "absent.csv" in capsys.readouterr().err


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
    assert summary["schema_version"] == 3
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
    assert _run(tmp_path, "sweep", payload, "--workers", "2") == 0
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
        {"noise": {"gamma_rule": {"kind": "cubic"}}},
        {"noise": {"m_rule": {"kind": "cubic"}}},
        {"mode": "measurement", "measurement": {"regime": "exact"}},
        {"mode": "measurement", "measurement": {"regime": "bogus"}},
        {"mode": "measurement", "measurement": {"degraded_rule": "cubic"}},
        {"workers_flag": 2},
    ],
)
def test_sweep_rejects_unknown_names(tmp_path, override):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, **override)) == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"problem": []},
        {"solver_config": 5},
        {"noise": 3},
        {"noise": {"gamma_rule": 2}},
    ],
)
def test_sweep_rejects_non_object_blocks(tmp_path, override, capsys):
    assert _run(tmp_path, "sweep", _sweep_payload(tmp_path, **override)) == 2
    assert "object" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "flag, env", [(["--workers", "0"], None), (["--workers", "-3"], None), ([], "0")]
)
def test_sweep_rejects_workers_below_one(tmp_path, monkeypatch, capsys, flag, env):
    payload = _sweep_payload(tmp_path)
    del payload["workers"]
    if env is not None:
        monkeypatch.setenv("QLIMITS_WORKERS", env)
    assert _run(tmp_path, "sweep", payload, *flag) == 2
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_set_override(tmp_path):
    payload = _sweep_payload(tmp_path)
    assert _run(tmp_path, "sweep", payload, "--set", "trials=2") == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["config"]["trials"] == 2


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


def test_sweep_reports_failed_cells_on_stderr(tmp_path, capsys):
    # lam=0 with n < d: every cell at n=3 is singular; the other sizes fit
    payload = _sweep_payload(
        tmp_path, n_grid=[3, 64, 128, 256], n_eval=20000, master_seed=6,
        problem={"d": 5, "sigma": 0.1}, solver_config={"lam": 0.0},
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


@pytest.mark.parametrize("mode", ["rate", "measurement"])
def test_sweep_unresolved_median_exits_numerical(tmp_path, mode, capsys, monkeypatch):
    # ten evaluation points cannot resolve the excess risk; at this seed the
    # median at n=8 is negative
    payload = _sweep_payload(tmp_path, mode=mode, n_grid=[8, 16, 32], trials=1, n_eval=10,
                             master_seed=1)
    if mode == "rate":  # a Gaussian kernel is scored by Monte Carlo
        payload.update(solver="krr", kernel={"kind": "gaussian", "bandwidth": 1.0})
    else:  # the paired arms are linear, so scored exactly: stand a ten-point scorer in
        def monte_carlo(predictors, problem, n_eval, seed):
            estimates = expected_risks_mc(predictors, problem, n_eval, seed)
            return tuple((e.value - problem.bayes_risk, e.std_error) for e in estimates)

        monkeypatch.setattr(scaling, "excess_risks", monte_carlo)
    assert _run(tmp_path, "sweep", payload) == 3
    err = capsys.readouterr().err
    assert "n=8" in err and "n_eval" in err
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_json_lists_failed_cells_per_arm(tmp_path, monkeypatch):
    channels = scaling.apply_channels

    def lossy(weights, noise):  # the constant arm loses its readout in odd-seeded cells
        if noise.solver_error == 0.3 and noise.seed % 2:
            raise NumericalError("readout lost")
        return channels(weights, noise)

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


@pytest.mark.parametrize("algorithm", ["log_error", "poly_error"])
@pytest.mark.parametrize("n", [-1, 0])
def test_cost_rejects_size_below_one_before_sqrt(tmp_path, algorithm, n, capsys):
    out = tmp_path / "c.csv"
    payload = {"algorithm": algorithm, "gamma": 0.1, "n": n, "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 2
    assert "`n` must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cost_matched_grid(tmp_path):
    out = tmp_path / "m.csv"
    payload = {"algorithm": "matched", "kappa": 1, "n": [16], "beta": 4, "c": 1, "out": str(out)}
    assert _run(tmp_path, "cost", payload) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[4]) == pytest.approx(1024.0, rel=1e-12)


# ---------------------------------------------------------------------------
# bench

def test_bench_small_grid_with_single_rep_warns(tmp_path, capsys):
    payload = {
        "solvers": ["exact_ls", "nystrom"],
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
        "solvers": ["exact_ls"],
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


def test_bench_rejects_unknown_solver(tmp_path, capsys):
    payload = {
        "solvers": ["exact_ls", "sgd"],
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
        "solvers": ["exact_ls"],
        "n_grid": [64, 128, 256],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 3
    assert libc in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_bench_cap_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QLIMITS_BENCH_CAP", "128")
    payload = {
        "n_grid": [64, 128, 256],
        "out_csv": str(tmp_path / "b.csv"),
        "out_json": str(tmp_path / "b.json"),
    }
    assert _run(tmp_path, "bench", payload) == 2
    assert "128" in capsys.readouterr().err


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QLIMITS_WORKERS", "1")
    payload = _sweep_payload(tmp_path)
    del payload["workers"]
    assert _run(tmp_path, "sweep", payload) == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["config"]["workers"] == 1
