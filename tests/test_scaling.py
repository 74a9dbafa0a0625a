import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlimits import (
    SOLVER_IDS,
    ConfigError,
    Kernel,
    NoiseSchedule,
    NumericalError,
    PrimalPredictor,
    SolverConfig,
    SweepConfig,
    SyntheticProblem,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    excess_risks,
    fit_scaling,
    fit_solver,
    input_second_moment,
    krr,
    matching_experiment,
    measurement_experiment,
    nystrom,
    paired_experiment,
    pairwise_sum,
    quantum_ls_pipeline,
    runtime_benchmark,
    sample_dataset,
    sweep_excess_risk,
)
from qlimits import blas, scaling
from qlimits.rng import derive_seed
from qlimits.scaling import (
    PairedReport,
    SweepRow,
    SweepTable,
    bench_summary,
    matching_summary,
    measurement_summary,
    rate_summary,
    sweep_csv_rows,
    write_csv,
    write_sweep_csv,
)

FAST_CONFIG = SweepConfig(n_grid=(32, 64, 128, 256), trials=4, n_eval=4000, master_seed=11)


# ---------------------------------------------------------------------------
# power-law fitting

def test_fit_recovers_inverse_sqrt_law():
    fit = fit_scaling([(10, 1.0), (100, 0.31622776601683794), (1000, 0.1)])
    assert fit.exponent == pytest.approx(-0.5, abs=1e-9)
    assert fit.r_squared >= 1 - 1e-9
    assert fit.stderr_exponent == pytest.approx(0.0, abs=1e-9)


def test_fit_recovers_constant_law():
    fit = fit_scaling([(2, 5.0), (4, 5.0), (8, 5.0), (16, 5.0)])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_recovers_cubic_law():
    fit = fit_scaling([(2, 8.0), (4, 64.0), (8, 512.0)])
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)
    assert fit.r_squared >= 1 - 1e-9
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="n=100"):
        fit_scaling([(10, 1.0), (100, 0.0), (1000, 0.1)])
    with pytest.raises(ConfigError, match="n=20"):
        fit_scaling([(10, 1.0), (20, -2.0), (30, 1.0)])
    with pytest.raises(ConfigError):
        fit_scaling([(10, 1.0), (100, 0.5)])
    with pytest.raises(ConfigError):
        fit_scaling([(10, 1.0), (10, 0.5), (10, 0.25)])


@settings(max_examples=30, deadline=None)
@given(
    exponent=st.floats(-3.0, 3.0),
    scale=st.floats(1e-3, 1e3),
    k=st.integers(3, 10),
)
def test_fit_exact_on_synthetic_power_laws(exponent, scale, k):
    ns = [2**i for i in range(4, 4 + k)]
    pairs = [(n, scale * float(n) ** exponent) for n in ns]
    fit = fit_scaling(pairs)
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert fit.r_squared >= 1 - 1e-9


# ---------------------------------------------------------------------------
# schedules

def _ceil_root(n, power):
    m = 1
    while m**power < n:
        m += 1
    return m


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10**6))
def test_m_rules_match_ceiling_oracle(n):
    sqrt_rule = NoiseSchedule(regime="heisenberg", m_kind="sqrt_n")
    quarter_rule = NoiseSchedule(regime="heisenberg", m_kind="fourth_root_n")
    linear_rule = NoiseSchedule(regime="heisenberg", m_kind="linear_n")
    assert sqrt_rule.m_at(n) == _ceil_root(n, 2)
    assert quarter_rule.m_at(n) == _ceil_root(n, 4)
    assert linear_rule.m_at(n) == n


def test_gamma_rules():
    constant = NoiseSchedule(gamma_kind="constant", gamma_value=0.3)
    matched = NoiseSchedule(gamma_kind="matched", gamma_value=0.1)
    assert constant.gamma_at(100) == 0.3
    assert matched.gamma_at(100) == pytest.approx(0.01, rel=1e-12)
    fixed = NoiseSchedule(regime="shot_noise", m_kind="fixed", m_value=7)
    assert fixed.m_at(1000) == 7
    assert fixed.tau_at(1000) == 1 / math.sqrt(7)


def test_noise_schedule_validation():
    with pytest.raises(ConfigError):
        NoiseSchedule(gamma_kind="linear")
    with pytest.raises(ConfigError):
        NoiseSchedule(m_kind="cubic")
    with pytest.raises(ConfigError):
        NoiseSchedule(gamma_value=-0.1)
    with pytest.raises(ConfigError):
        NoiseSchedule(regime="bogus")
    with pytest.raises(ConfigError):
        NoiseSchedule(precision_scale=-1)


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(10, 20))
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(10, 20, 20))
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), trials=0)
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), solver="krr", noise=NoiseSchedule())
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), solver="sgd")
    with pytest.raises(ConfigError, match="exact_ls"):
        SweepConfig(n_grid=(32, 64, 128), kernel=Kernel("gaussian", 1.0))
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), problem=SyntheticProblem(input_law="bogus"))
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), problem=SyntheticProblem(dimension=0))
    with pytest.raises(ConfigError):
        SweepConfig(n_grid=(32, 64, 128), noise=NoiseSchedule(regime="bogus"))
    # a size a cell would draw is checked against sample_dataset's bound, so nothing is allocated
    with pytest.raises(ConfigError, match=rf"`n_grid\[2\]` {10**30} samples of dimension 10 need"):
        SweepConfig(n_grid=(8, 16, 10**30))
    with pytest.raises(ConfigError, match=f"`n_eval` {10**30} samples of dimension 10 need"):
        SweepConfig(n_grid=(8, 16, 32), solver="krr", kernel=Kernel("gaussian", 1.0), n_eval=10**30)
    assert SweepConfig(n_grid=(8, 16, 32), n_eval=10**30).n_eval == 10**30  # a linear fit is scored undrawn


# ---------------------------------------------------------------------------
# solver dispatch

def _arrays(predictor) -> list[bytes]:
    if isinstance(predictor, PrimalPredictor):
        return [predictor.weights.tobytes()]
    return [predictor.coefficients.tobytes(), predictor.landmarks.tobytes()]


@pytest.mark.parametrize("kernel", [Kernel(), Kernel("gaussian", 1.5)])
@pytest.mark.parametrize("solver", SOLVER_IDS)
def test_fit_solver_is_bit_identical_to_direct_calls(solver, kernel):
    data = sample_dataset(SyntheticProblem(3, 0.3, seed=4), 60, seed=5)
    config = SolverConfig(lam=0.05, partitions=3, landmarks=12, seed=2)
    if solver == "exact_ls" and kernel.kind == "gaussian":  # no direct call: exact_ls is linear
        with pytest.raises(ConfigError, match="exact_ls"):
            fit_solver(solver, data, kernel, config)
        return
    direct = {
        "exact_ls": lambda: exact_ls(data, config.lam),
        "krr": lambda: krr(data, kernel, config.lam),
        "early_stopping_gd": lambda: early_stopping_gd(data, kernel, config),
        "divide_and_conquer": lambda: divide_and_conquer(data, kernel, config),
        "nystrom": lambda: nystrom(data, kernel, config),
    }[solver]()
    fitted = fit_solver(solver, data, kernel, config)
    assert type(fitted) is type(direct)
    assert _arrays(fitted) == _arrays(direct)


def test_fit_solver_rejects_unknown_id():
    data = sample_dataset(SyntheticProblem(2, 0.1, seed=1), 10, seed=2)
    with pytest.raises(ConfigError, match="sgd"):
        fit_solver("sgd", data)


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_deterministic_and_parallel_invariant(tmp_path):
    serial = sweep_excess_risk(FAST_CONFIG)
    again = sweep_excess_risk(FAST_CONFIG)
    parallel = sweep_excess_risk(dataclasses.replace(FAST_CONFIG, workers=2))
    assert serial == again == parallel

    a, b = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_sweep_csv(a, [serial])
    write_sweep_csv(b, [parallel])
    assert a.read_bytes() == b.read_bytes()


def test_parallel_gaussian_krr_sweep_writes_the_serial_csv_bytes(tmp_path):
    config = SweepConfig(
        n_grid=(64, 128, 256), trials=3, solver="krr", kernel=Kernel("gaussian", bandwidth=1.0),
        n_eval=3000, master_seed=5,
    )
    paths = []
    for workers in (1, 2):
        paths.append(tmp_path / f"workers{workers}.csv")
        write_sweep_csv(paths[-1], [sweep_excess_risk(dataclasses.replace(config, workers=workers))])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_on_more_threads_than_cores_switching_often_writes_the_serial_rows():
    # the pool threads share the config, its problem and the modules' names; a
    # cell that wrote into any of them could move a row at 16 threads switching
    # every microsecond, and one trial per size puts each cell's value in its row
    grid = tuple(range(16, 216, 2))
    configs = [
        SweepConfig(n_grid=grid, trials=1, solver=solver, kernel=Kernel("gaussian", bandwidth=1.0), n_eval=64)
        for solver in SOLVER_IDS if solver != "exact_ls"
    ]
    configs.append(SweepConfig(n_grid=grid, trials=1, noise=MATCHING_ARMS[1][1]))
    serial = [repr(sweep_csv_rows([sweep_excess_risk(config)])) for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = [repr(sweep_csv_rows([sweep_excess_risk(dataclasses.replace(c, workers=16))])) for c in configs]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_gaussian_sweep_csv_does_not_depend_on_preset_blas_threads(threads, preset_blas_threads, tmp_path):
    # Unpinned, a GEMM or Cholesky factorisation at 257 and 600 points rounds
    # differently at 2 or more threads; both sweep paths pin, so the CSV does not.
    config = SweepConfig(
        n_grid=(64, 257, 600), trials=2, solver="krr", kernel=Kernel("gaussian", bandwidth=1.0),
        n_eval=3000, master_seed=5,
    )
    written = set()
    for preset in (1, threads):
        preset_blas_threads(preset)
        for workers in (1, 2):
            path = tmp_path / f"threads{preset}-workers{workers}.csv"
            write_sweep_csv(path, [sweep_excess_risk(dataclasses.replace(config, workers=workers))])
            written.add(path.read_bytes())
    assert len(written) == 1


def test_serial_sweep_that_cannot_pin_blas_warns_and_runs(monkeypatch):
    pinned = sweep_excess_risk(FAST_CONFIG)
    monkeypatch.setattr(blas, "loaded_blas_paths", lambda: [])
    for workers in (1, 2):  # a parallel sweep's pool threads run inside the same pin
        with pytest.warns(RuntimeWarning, match="no BLAS"):
            assert sweep_excess_risk(dataclasses.replace(FAST_CONFIG, workers=workers)) == pinned


def test_noiseless_interpolation_has_negligible_excess():
    config = SweepConfig(
        n_grid=(32, 64, 128),
        trials=3,
        n_eval=2000,
        problem=SyntheticProblem(dimension=5, noise_std=0.0),
        solver_config=dataclasses.replace(FAST_CONFIG.solver_config, lam=0.0),
        master_seed=4,
    )
    table = sweep_excess_risk(config)
    for row in table.rows:
        assert row.trials_failed == 0
        assert abs(row.median_excess) <= 1e-10


def test_sweep_medians_decrease_with_n():
    # n_eval must resolve the ~1e-3 excess at the large-n end of the grid
    config = SweepConfig(
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
        trials=8,
        n_eval=60_000,
        master_seed=2,
    )
    medians = [m for _, m in sweep_excess_risk(config).medians()]
    inversions = sum(b > a for a, b in zip(medians, medians[1:]))
    assert inversions <= 1  # one inversion allowed per 8 grid points


def test_constant_solver_error_creates_floor():
    noise = NoiseSchedule(regime="exact", gamma_kind="constant", gamma_value=0.3)
    config = SweepConfig(
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
        trials=5,
        n_eval=20_000,
        noise=noise,
        master_seed=2,
    )
    medians = [m for _, m in sweep_excess_risk(config).medians()]
    assert medians[-1] >= 0.25 * medians[0]


def test_sweep_records_failures_without_aborting():
    # lam=0 with n < d makes every cell rank-deficient at the smallest size
    config = SweepConfig(
        n_grid=(3, 64, 128),
        trials=3,
        n_eval=2000,
        problem=SyntheticProblem(dimension=5, noise_std=0.1),
        solver_config=dataclasses.replace(FAST_CONFIG.solver_config, lam=0.0),
        master_seed=6,
    )
    table = sweep_excess_risk(config)
    assert table.rows[0].trials_failed == 3
    assert table.rows[0].trials_ok == 0
    assert math.isnan(table.rows[0].median_excess)
    assert table.rows[1].trials_failed == 0


def test_rate_summary_flags():
    config = SweepConfig(
        n_grid=(64, 128, 256, 512, 1024), trials=8, n_eval=20_000, master_seed=3
    )
    summary = rate_summary(sweep_excess_risk(config))
    assert set(summary) >= {"fit", "rate_ok", "exponent_range", "r_squared_min"}
    assert isinstance(summary["rate_ok"], bool)


# ---------------------------------------------------------------------------
# paired experiments

def test_matching_degenerate_schedule_gives_unit_ratios():
    report = matching_experiment(FAST_CONFIG, matched_c0=0.0, constant_gamma=0.3)
    assert all(r == 1.0 for _, r in report.ratios("matched"))


def test_ratio_over_a_zero_exact_median_is_inf_or_nan():
    def table(label, medians):
        return SweepTable(label, tuple(SweepRow(n, v, 0.0, 0.0, 1, 0) for n, v in zip((4, 8, 16, 32), medians)))

    exact = table("exact", (0.0, 0.0, 0.0, 0.5))
    report = PairedReport({"exact": exact, "arm": table("arm", (0.0, 0.25, math.nan, 1.0))}, {})
    ratios = report.ratios("arm")
    assert ratios[:2] == [(4, 1.0), (8, math.inf)] and ratios[3] == (32, 2.0)
    assert ratios[2][0] == 16 and math.isnan(ratios[2][1])


def test_matching_ratios_respect_mc_noise_floor():
    report = matching_experiment(FAST_CONFIG, matched_c0=0.1, constant_gamma=0.3)
    tables = report.arm_tables()
    for (n, ratio), exact_row, noisy_row in zip(
        report.ratios("matched"), tables["exact"].rows, tables["matched"].rows
    ):
        slack = 4 * (exact_row.median_std_error + noisy_row.median_std_error)
        assert ratio >= 1 - slack / exact_row.median_excess


def test_matching_summary_shape():
    summary = matching_summary(matching_experiment(FAST_CONFIG))
    assert set(summary) >= {
        "max_ratio_matched", "ratio_constant_at_n_max", "matched_ok", "constant_ok"
    }


def test_measurement_experiment_budget_stays_close_to_exact():
    report = measurement_experiment(FAST_CONFIG, regime="heisenberg")
    assert all(r <= 2.0 for _, r in report.ratios("budget"))
    assert all(r == 1.0 for _, r in report.ratios("exact"))
    summary = measurement_summary(report)
    assert summary["regime"] == "heisenberg"
    assert isinstance(summary["degraded_exponent"], float)
    assert isinstance(summary["degraded_ratio_exponent"], float)
    assert isinstance(summary["budget_ratio_exponent"], float)


MATCHING_ARMS = (
    ("exact", None),
    ("matched", NoiseSchedule(gamma_kind="matched", gamma_value=0.1)),
    ("constant", NoiseSchedule(gamma_value=0.3)),
)
MEASUREMENT_ARMS = (
    ("exact", None),
    ("m_sqrt_n", NoiseSchedule(regime="heisenberg", m_kind="sqrt_n")),
    ("m_fourth_root_n", NoiseSchedule(regime="heisenberg", m_kind="fourth_root_n")),
)


def _separate_sweeps(config, arms):
    """The paired experiments as they were: one full sweep per arm."""
    base = dataclasses.replace(config, noise=None, solver="exact_ls")
    return [sweep_excess_risk(dataclasses.replace(base, noise=noise), label) for label, noise in arms]


@pytest.mark.parametrize("workers", [1, 2])
def test_paired_experiments_equal_separate_sweeps_bit_for_bit(workers, monkeypatch):
    config = dataclasses.replace(FAST_CONFIG, workers=workers)
    matching = matching_experiment(config, matched_c0=0.1, constant_gamma=0.3)
    measurement = measurement_experiment(config, regime="heisenberg")
    assert sweep_csv_rows(matching.arm_tables().values()) == sweep_csv_rows(
        _separate_sweeps(config, MATCHING_ARMS)
    )
    assert sweep_csv_rows(measurement.arm_tables().values()) == sweep_csv_rows(
        _separate_sweeps(config, MEASUREMENT_ARMS)
    )
    # one call with all four noisy arms shares the exact arm among them
    solves = []
    exact = scaling.exact_ls
    monkeypatch.setattr(scaling, "exact_ls", lambda *args: solves.append(1) or exact(*args))
    names = ("matched", "constant", "budget", "degraded")
    five = paired_experiment(
        config, dict(zip(names, MATCHING_ARMS[1:] + MEASUREMENT_ARMS[1:]))
    ).arm_tables()
    assert list(five) == ["exact", *names]
    for report in (matching, measurement):
        for arm, table in report.arm_tables().items():
            assert sweep_csv_rows([five[arm]]) == sweep_csv_rows([table])
    if workers == 1:
        assert len(solves) == len(config.n_grid) * config.trials


def test_noisy_sweep_cell_equals_pipeline_then_one_estimate():
    # one trial per n, so each median is the cell's own value; the noisy
    # weights are linear, so the estimate is the closed form, with no draw
    config = dataclasses.replace(FAST_CONFIG, trials=1)
    problem = config.problem
    for _, noise in MATCHING_ARMS[1:] + MEASUREMENT_ARMS[1:]:
        table = sweep_excess_risk(dataclasses.replace(config, noise=noise))
        for row in table.rows:
            seed = lambda stream: derive_seed(config.master_seed, stream, row.n, 0)
            data = sample_dataset(problem, row.n, seed("data"))
            predictor = quantum_ls_pipeline(data, None, noise, seed("noise"))
            shift = predictor.weights - problem.target_weights
            excess = input_second_moment(problem) * pairwise_sum(np.sort(shift**2))
            assert row.median_excess == excess
            assert row.median_std_error == 0.0


def test_failing_channel_fails_its_arm_alone(monkeypatch):
    clean = matching_experiment(FAST_CONFIG)
    channels = scaling.apply_channels

    def lossy(weights, noise, n, seed):  # the constant arm loses its readout in odd-seeded cells
        if noise.gamma_at(n) == 0.3 and seed % 2:
            raise NumericalError("readout lost")
        return channels(weights, noise, n, seed)

    monkeypatch.setattr(scaling, "apply_channels", lossy)
    tables, clean_tables = matching_experiment(FAST_CONFIG).arm_tables(), clean.arm_tables()
    assert tables["exact"] == clean_tables["exact"] and tables["matched"] == clean_tables["matched"]
    assert sum(row.trials_failed for row in tables["constant"].rows) > 0
    for row in tables["constant"].rows:
        lost = sum(
            derive_seed(FAST_CONFIG.master_seed, "noise", row.n, t) % 2
            for t in range(FAST_CONFIG.trials)
        )
        assert (row.trials_ok, row.trials_failed) == (FAST_CONFIG.trials - lost, lost)
        assert row.failures == ((("NumericalError", lost, "readout lost"),) if lost else ())


@pytest.mark.parametrize("experiment,summary,arm,schedule", [
    (matching_experiment, matching_summary, "matched", MATCHING_ARMS[1][1]),
    (measurement_experiment, measurement_summary, "budget", MEASUREMENT_ARMS[1][1]),
], ids=["matching", "measurement"])
def test_size_failing_in_every_cell_makes_the_max_ratio_nan(
    experiment, summary, arm, schedule, monkeypatch
):
    # n = 64 is second on the grid; a max that skips its NaN ratio would
    # report a finite value while the arm's *_ok flag reads False
    channels = scaling.apply_channels

    def lossy(weights, noise, n, seed):
        if noise == schedule and n == 64:
            raise NumericalError("readout lost")
        return channels(weights, noise, n, seed)

    monkeypatch.setattr(scaling, "apply_channels", lossy)
    report = experiment(FAST_CONFIG)
    assert [row.n for row in report.arm_tables()[arm].rows if not row.trials_ok] == [64]
    result = summary(report)
    assert math.isnan(result[f"max_ratio_{arm}"]) and result[f"{arm}_ok"] is False


def test_failed_solve_fails_every_arm_with_its_reason(monkeypatch):
    # lam=0 with n < d: the one shared solve is singular at the smallest size
    config = SweepConfig(
        n_grid=(3, 64, 128),
        trials=3,
        n_eval=2000,
        problem=SyntheticProblem(dimension=5, noise_std=0.1),
        solver_config=SolverConfig(lam=0.0),
        master_seed=6,
    )

    def failed_scoring(*args, **kwargs):
        raise NumericalError("scoring failed")

    # the arms of a cell share its solve and its scoring, so the second pass, whose scoring
    # fails, fails every arm at every size that solves
    for scoring, later in ((excess_risks, ()), (failed_scoring, (("NumericalError", 3, "scoring failed"),))):
        monkeypatch.setattr(scaling, "excess_risks", scoring)
        for table in matching_experiment(config).arm_tables().values():
            first, *rest = table.rows
            assert (first.trials_ok, first.trials_failed) == (0, 3)
            ((kind, count, message),) = first.failures
            assert (kind, count) == ("SingularSystemError", 3) and message
            assert all(row.trials_failed == 3 * len(later) and row.failures == later for row in rest)


def test_closed_form_resolves_what_ten_monte_carlo_points_cannot():
    # ten evaluation points; a linear predictor is scored without drawing any
    config = SweepConfig(n_grid=(8, 16, 32), trials=1, n_eval=10, master_seed=1)
    assert rate_summary(sweep_excess_risk(config))["fit"]["exponent"] < 0
    assert matching_summary(matching_experiment(config))["matched_ok"]
    for table in measurement_experiment(config).arm_tables().values():
        assert all(row.median_excess > 0 and row.median_std_error == 0.0 for row in table.rows)


@pytest.mark.parametrize("solver", ["krr", "nystrom"])
def test_gaussian_kernel_cell_is_fit_then_one_monte_carlo_estimate(solver):
    config = SweepConfig(
        n_grid=(32, 64, 128), trials=1, solver=solver, kernel=Kernel("gaussian", 1.0),
        n_eval=2000, master_seed=3,
    )
    problem = config.problem
    for row in sweep_excess_risk(config).rows:
        seed = lambda stream: derive_seed(config.master_seed, stream, row.n, 0)
        data = sample_dataset(problem, row.n, seed("data"))
        with blas.single_blas_thread():  # as the sweep runs its cells
            predictor = fit_solver(solver, data, config.kernel, config.solver_config)
            ((excess, std_error),) = excess_risks(
                (predictor,), problem, config.n_eval, seed("eval")
            )
        assert (row.median_excess, row.median_std_error) == (excess, std_error)
        assert 0 < std_error < 0.05 * excess


_SEED_STREAMS = {  # run -> (sweep, derive_seed calls per cell by stream)
    "rate": (lambda: sweep_excess_risk(FAST_CONFIG), {"data": 1}),
    "linear-nystrom": (
        lambda: sweep_excess_risk(dataclasses.replace(FAST_CONFIG, solver="nystrom")), {"data": 1}
    ),
    "matching": (lambda: matching_experiment(FAST_CONFIG), {"data": 1, "noise": 1}),
    "gaussian-nystrom": (
        lambda: sweep_excess_risk(
            dataclasses.replace(FAST_CONFIG, solver="nystrom", kernel=Kernel("gaussian", 1.0))
        ),
        {"data": 1, "eval": 1},
    ),
}


@pytest.mark.parametrize("run", sorted(_SEED_STREAMS))
def test_a_cell_derives_its_evaluation_seed_only_when_it_draws(run, monkeypatch, tmp_path):
    # under the linear kernel every predictor is scored in closed form and
    # no evaluation sample is drawn, so no "eval" seed is derived for it
    sweep, per_cell = _SEED_STREAMS[run]

    def tables():
        result = sweep()
        return list(result.arm_tables().values()) if isinstance(result, PairedReport) else [result]

    write_sweep_csv(tmp_path / "plain.csv", tables())
    streams = Counter()

    def counting(master_seed, *path):
        streams[path[0]] += 1
        return derive_seed(master_seed, *path)

    monkeypatch.setattr(scaling, "derive_seed", counting)
    write_sweep_csv(tmp_path / "counted.csv", tables())
    cells = len(FAST_CONFIG.n_grid) * FAST_CONFIG.trials
    assert streams == {stream: calls * cells for stream, calls in per_cell.items()}
    assert (tmp_path / "counted.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


# finite values drawn from a few of their own, so ties are common; -0.0 + 0.0
# is 0.0, since numpy's partition orders -0.0 and 0.0 (which compare equal)
# its own way and a zero's sign can then differ
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)
_TIED = st.lists(_FINITE, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool) | _FINITE, min_size=1, max_size=60)
)


@settings(max_examples=300, deadline=None)
@given(values=_TIED)
def test_order_stat_has_the_bits_of_numpy_median_and_percentile(values):
    s = np.sort(values)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (np.median(values), np.percentile(values, 25), np.percentile(values, 75))
    got = tuple(scaling._order_stat(s, q) for q in (0.5, 0.25, 0.75))
    assert [v.hex() for v in got] == [float(v).hex() for v in expected]


def test_order_stat_of_a_nan_is_nan():
    assert all(math.isnan(scaling._order_stat(np.sort([1.0, math.nan, 2.0]), q)) for q in (0.25, 0.5))


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1.0), st.booleans()), min_size=1, max_size=40
    )
)
def test_sweep_row_statistics_are_the_numpy_calls_on_its_ok_cells(cells):
    outcomes = [
        (math.nan, math.nan, ("NumericalError", "lost")) if failed else (v, se, None)
        for v, se, failed in cells
    ]
    row = scaling._sweep_row(64, outcomes)
    ok = [(v, se) for v, se, failed in cells if not failed]
    assert (row.trials_ok, row.trials_failed) == (len(ok), len(cells) - len(ok))
    if not ok:
        assert math.isnan(row.median_excess) and math.isnan(row.iqr_excess)
        return
    values = np.array([v for v, _ in ok])
    assert row.median_excess.hex() == float(np.median(values)).hex()
    assert row.iqr_excess.hex() == float(np.percentile(values, 75) - np.percentile(values, 25)).hex()
    assert row.median_std_error.hex() == float(np.median(np.array([se for _, se in ok]))).hex()


@pytest.mark.parametrize("experiment", [matching_experiment, measurement_experiment])
@pytest.mark.parametrize(
    "override, field",
    [({"solver": "krr"}, "`solver`"), ({"noise": NoiseSchedule(gamma_value=0.1)}, "`noise`")],
)
def test_paired_experiment_rejects_a_solver_or_noise_it_would_not_run(experiment, override, field):
    with pytest.raises(ConfigError, match=field):
        experiment(dataclasses.replace(FAST_CONFIG, **override))


def test_measurement_experiment_rejects_exact_regime():
    with pytest.raises(ConfigError):
        measurement_experiment(FAST_CONFIG, regime="exact")


@pytest.mark.parametrize("arms", [
    {"exact": MATCHING_ARMS[1]},
    {"matched": ("exact", MATCHING_ARMS[1][1])},
    {"budget": MEASUREMENT_ARMS[1], "degraded": MEASUREMENT_ARMS[1]},
])
def test_paired_experiment_rejects_a_second_exact_arm_or_a_repeated_label(arms):
    with pytest.raises(ConfigError):
        paired_experiment(FAST_CONFIG, arms)


def test_an_arm_with_fewer_than_three_successful_sizes_is_a_numerical_error():
    def table(label, ok):
        return SweepTable(label, tuple(
            SweepRow(n, 1.0 / n if good else math.nan, 0.0, 0.0, 3 * good, 3 * (1 - good))
            for n, good in zip((32, 64, 128, 256), ok)
        ))

    degraded = table("m_fourth_root_n", (1, 1, 0, 0))
    report = PairedReport({"exact": table("exact", (1, 1, 1, 1)), "degraded": degraded}, {})
    assert report.arm_fit("exact").exponent == pytest.approx(-1.0)
    for fit in (lambda: report.arm_fit("degraded"), lambda: report.ratio_fit("degraded"),
                lambda: rate_summary(degraded)):
        with pytest.raises(NumericalError, match="'m_fourth_root_n': 2 grid sizes"):
            fit()


# ---------------------------------------------------------------------------
# runtime benchmark

def test_runtime_benchmark_smoke():
    report = runtime_benchmark(
        solver_ids=("exact_ls", "nystrom"),
        n_grid=(64, 128, 256),
        reps=2,
        timer_window=0.02,
    )
    assert not report.any_timed_out
    for row in report.rows:
        assert row.train_seconds > 0
        assert row.test_seconds_per_point > 0
    assert set(report.train_fits) == {"exact_ls", "nystrom"}
    summary = bench_summary(report)
    assert "train_exponents" in summary and not summary["timed_out"]


def test_runtime_benchmark_flags_timeouts():
    report = runtime_benchmark(
        solver_ids=("exact_ls",),
        n_grid=(64, 128, 256),
        reps=2,
        timeout_s=1e-9,
        timer_window=0.001,
    )
    assert report.any_timed_out
    assert all(r.timed_out for r in report.rows)
    assert report.train_fits == {}


def test_runtime_benchmark_validation():
    with pytest.raises(ConfigError):
        runtime_benchmark(solver_ids=("sgd",), n_grid=(64, 128, 256))
    with pytest.raises(ConfigError):
        runtime_benchmark(n_grid=(64, 128))
    with pytest.raises(ConfigError):
        runtime_benchmark(n_grid=(64, 128, 256), reps=0)


@pytest.mark.parametrize(
    "options, match",
    [
        ({"n_grid": (256, 512, 16384)}, "cap 8192"),
        ({"n_grid": (64, 128, 256), "cap": 128}, "cap 128"),
        ({"n_grid": (0, 64, 128)}, "positive"),
        ({"n_grid": (64, 128, 256), "timeout_s": 0.0}, "timeout_s"),
        ({"n_grid": (64, 128, 256), "timer_window": 0.0}, "timer_window"),
        ({"n_grid": (64, 128, 256), "kernel": Kernel("gaussian", 1.0)}, "exact_ls"),
        ({"reps": 2.5}, "`reps`"),
        ({"test_points": 2.5}, "`test_points`"),
        ({"timeout_s": True}, "`timeout_s`"),
        ({"timer_window": "1"}, "`timer_window`"),
        ({"cap": 2.5}, "`cap`"),
        ({"n_grid": (64.5, 128, 256)}, "n_grid"),
        ({"solver_ids": ()}, "`solver_ids`"),
        ({"solver_ids": "krr"}, "`solver_ids`"),  # not read as ('k', 'r', 'r')
        ({"master_seed": "a"}, "`master_seed`"),
    ],
)
def test_runtime_benchmark_rejects_before_timing(monkeypatch, options, match):
    monkeypatch.setattr("qlimits.scaling.single_blas_thread", None)  # never reached
    with pytest.raises(ConfigError, match=match):
        runtime_benchmark(**{"solver_ids": ("exact_ls",), **options})


@pytest.mark.parametrize("min_time", [1e300, 1e308])
def test_timed_call_stops_at_1024_loops_under_any_window(min_time):
    # at 1e308, min_time / per_call is infinite, and int() of it would raise
    calls = []
    elapsed, result = scaling._timed_call(lambda: calls.append(None), min_time)
    assert len(calls) == 1 + 1024 and result is None and elapsed >= 0


# ---------------------------------------------------------------------------
# report files

def test_write_csv_full_precision(tmp_path):
    path = tmp_path / "out.csv"
    value = 0.1234567890123456789
    write_csv(path, ("a", "b"), [("x", value), ("y", True), ("z", 3)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    assert float(lines[1].split(",")[1]) == value
    assert lines[2] == "y,1"
    assert lines[3] == "z,3"


def test_sweep_csv_rows_cover_all_statistics():
    table = sweep_excess_risk(FAST_CONFIG)
    rows = sweep_csv_rows([table])
    stats = {r[2] for r in rows}
    assert stats == {
        "median_excess_risk",
        "iqr_excess_risk",
        "median_std_error",
        "trials_ok",
        "trials_failed",
    }
    assert len(rows) == 5 * len(table.rows)
