"""Experiment harness: excess-risk sweeps, power-law fits, runtime benchmarks.

Sweeps evaluate a solver over a grid of training sizes, many seeded trials
per size, and aggregate excess risk by median and interquartile range.
All per-cell randomness is derived from the master seed and the cell's
(n, trial) coordinates, so results are bit-identical across reruns and
independent of serial vs parallel execution.

A sweep scores one or more arms, and all of them share each (n, trial)
cell: one training draw, one solve, one scoring. The exact arm scores the
solve itself; a noisy arm passes its weights through the error channels,
seeded by the cell's one noise stream. The paired experiments (exact vs
noisy solver) are three-arm sweeps, so their ratios isolate the injected
error, and each arm's table equals that of a sweep of the arm alone.

Cells are scored by ``risk.excess_risks``: a linear predictor's excess risk
is exact, ``s |w - w*|^2`` with standard error 0, and nothing is drawn; only
Gaussian-kernel predictors are scored by Monte Carlo on ``n_eval`` points.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import single_blas_thread
from .errors import ConfigError, NumericalError, QlimitsError
# quantum_ls_pipeline and expected_risk_mc are not called here since arms
# share cells and score through excess_risks; they stay importable from this
# module, whose names perfbench's tracer wraps.
from .qmodel import NoiseModel, apply_channels, quantum_ls_pipeline
from .risk import expected_risk_mc, excess_risks
from .rng import derive_seed
from .solvers import (  # the five solvers are called by name, through fit_solver
    LINEAR_KERNEL,
    Kernel,
    Predictor,
    PrimalPredictor,
    SolverConfig,
    ceil_sqrt,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    krr,
    nystrom,
    predict_batch,
)
from .synth import Dataset, SyntheticProblem, make_problem, sample_dataset

SOLVER_IDS = ("exact_ls", "krr", "early_stopping_gd", "divide_and_conquer", "nystrom")
BENCH_SOLVER_IDS = ("exact_ls", "krr", "nystrom")  # the runtime ladder's default rows

GAMMA_RULE_KINDS = ("constant", "matched")
M_RULE_KINDS = ("fixed", "sqrt_n", "fourth_root_n", "linear_n")

# Acceptance thresholds shared by the CLI summaries and the test suite.
RATE_EXPONENT_RANGE = (-0.8, -0.3)
RATE_R2_MIN = 0.9
MATCHED_RATIO_MAX = 2.0
CONSTANT_RATIO_MIN = 5.0
BUDGET_RATIO_MAX = 2.0
# Excess risk is quadratic in the readout error tau, so an arm's risk is the
# exact arm's plus tau(n)^2/d; at m = ceil(n^(1/4)) that predicts a ratio
# exponent of +0.06..+0.08 on the acceptance grid, and the gate asks half.
DEGRADED_RATIO_EXPONENT_MIN = 0.03
KRR_TRAIN_EXPONENT_RANGE = (2.3, 3.5)
NYSTROM_EXPONENT_GAP_MIN = 0.7
PRIMAL_TEST_EXPONENT_RANGE = (-0.2, 0.2)

SCHEMA_VERSION = 3
DESK_SCALE_CAP = 8192


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for a synthetic problem (kept JSON-friendly for configs)."""

    dimension: int = 10
    noise_std: float = 0.5
    input_law: str = "unit_sphere_uniform"
    seed: int = 0

    def __post_init__(self):
        self.build()  # SyntheticProblem rejects a bad dimension, noise_std or input_law

    def build(self) -> SyntheticProblem:
        return make_problem(self.dimension, self.noise_std, self.input_law, self.seed)


@dataclass(frozen=True)
class NoiseSchedule:
    """How the noise model scales with the training size n.

    gamma rules: ``constant`` uses gamma_value directly; ``matched`` uses
    gamma_value * n^(-1/2). m rules: ``fixed`` (m_value), ``sqrt_n``
    (ceil(sqrt(n))), ``fourth_root_n`` (ceil(n^(1/4))), ``linear_n`` (n).
    """

    regime: str = "exact"
    gamma_kind: str = "constant"
    gamma_value: float = 0.0
    m_kind: str = "fixed"
    m_value: int = 1
    precision_scale: float = 1.0

    def __post_init__(self):
        if self.gamma_kind not in GAMMA_RULE_KINDS:
            raise ConfigError(
                f"unknown gamma rule {self.gamma_kind!r}, expected one of {GAMMA_RULE_KINDS}"
            )
        if self.m_kind not in M_RULE_KINDS:
            raise ConfigError(f"unknown m rule {self.m_kind!r}, expected one of {M_RULE_KINDS}")
        if self.m_value < 1:
            raise ConfigError(f"m_value must be >= 1, got {self.m_value}")
        # NoiseModel rejects a bad regime, precision_scale or gamma_value
        # (gamma_at(1) is gamma_value under both rules).
        self.noise_for(1, seed=0)

    def gamma_at(self, n: int) -> float:
        if self.gamma_kind == "constant":
            return self.gamma_value
        return self.gamma_value * float(n) ** -0.5

    def m_at(self, n: int) -> int:
        if self.m_kind == "fixed":
            return self.m_value
        if self.m_kind == "sqrt_n":
            return ceil_sqrt(n)
        if self.m_kind == "fourth_root_n":
            return ceil_sqrt(ceil_sqrt(n))  # ceil(n^(1/4))
        return n

    def noise_for(self, n: int, seed: int) -> NoiseModel:
        return NoiseModel(
            solver_error=self.gamma_at(n),
            regime=self.regime,
            measurements=self.m_at(n),
            precision_scale=self.precision_scale,
            seed=seed,
        )


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one excess-risk sweep."""

    n_grid: tuple[int, ...]
    trials: int = 20
    solver: str = "exact_ls"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    kernel: Kernel = LINEAR_KERNEL
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    noise: NoiseSchedule | None = None
    n_eval: int = 100_000
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 3:
            raise ConfigError(f"n_grid needs at least 3 sizes, got {len(grid)}")
        if any(n < 1 for n in grid):
            raise ConfigError("n_grid entries must be positive")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"n_grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.solver not in SOLVER_IDS:
            raise ConfigError(f"unknown solver {self.solver!r}, expected one of {SOLVER_IDS}")
        if self.n_eval < 2:
            raise ConfigError(f"n_eval must be >= 2, got {self.n_eval}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.noise is not None and self.solver != "exact_ls":
            raise ConfigError("the noisy pipeline composes with exact_ls only")


@dataclass(frozen=True)
class SweepRow:
    n: int
    median_excess: float
    iqr_excess: float
    median_std_error: float
    trials_ok: int
    trials_failed: int
    # (exception type, cells it failed, its first message) in order of first
    # failure; the CLI prints it to stderr and writes it to the JSON, not the CSV
    failures: tuple[tuple[str, int, str], ...] = ()


@dataclass(frozen=True)
class SweepTable:
    label: str
    rows: tuple[SweepRow, ...]

    def medians(self) -> list[tuple[int, float]]:
        return [(r.n, r.median_excess) for r in self.rows if r.trials_ok > 0]


def fit_solver(
    solver: str,
    dataset: Dataset,
    kernel: Kernel = LINEAR_KERNEL,
    config: SolverConfig = SolverConfig(),
) -> Predictor:
    """Train ``solver``, one of SOLVER_IDS; exact_ls and krr read only ``config.lam``.

    The solver is looked up among this module's names on every call, so a
    wrapper swapped in for ``scaling.<id>`` (as a tracer does) is the one run.
    """
    if solver not in SOLVER_IDS:
        raise ConfigError(f"unknown solver {solver!r}, expected one of {SOLVER_IDS}")
    fit = globals()[solver]
    if solver == "exact_ls":
        return fit(dataset, config.lam)
    if solver == "krr":
        return fit(dataset, kernel, config.lam)
    return fit(dataset, kernel, config)


def _failed(exc: QlimitsError) -> tuple:
    return float("nan"), float("nan"), (type(exc).__name__, str(exc))


def _sweep_cell(task: tuple[SweepConfig, tuple[NoiseSchedule | None, ...], int, int]) -> tuple:
    """One (n, trial) cell scored for every arm; ``config.noise`` is not read.

    The cell draws its training set, fits ``config.solver`` and scores every
    arm's predictor in one ``excess_risks`` call (which shares its Monte
    Carlo sample, where it draws one). An arm of None scores the fit; a
    NoiseSchedule arm scores the fit's weights after the error channels, so
    it needs exact_ls. Returns one (excess, std_error, error) per arm,
    ``error`` being None or (exception type, message). A failed draw, fit or
    evaluation fails every arm; a failed channel fails its own arm only.
    """
    config, arms, n, trial = task
    seed = config.master_seed
    try:
        problem = config.problem.build()
        dataset = sample_dataset(problem, n, derive_seed(seed, "data", n, trial))
        fitted = fit_solver(config.solver, dataset, config.kernel, config.solver_config)
    except QlimitsError as exc:
        return (_failed(exc),) * len(arms)
    noisy = any(arm is not None for arm in arms)
    noise_seed = derive_seed(seed, "noise", n, trial) if noisy else None  # shared by the arms
    outcomes, predictors = {}, {}
    for i, arm in enumerate(arms):
        try:
            predictors[i] = fitted if arm is None else PrimalPredictor(
                weights=apply_channels(fitted.weights, arm.noise_for(n, noise_seed))
            )
        except QlimitsError as exc:
            outcomes[i] = _failed(exc)
    if predictors:
        try:
            scored = [
                (*pair, None) for pair in excess_risks(
                    tuple(predictors.values()), problem, config.n_eval,
                    seed=derive_seed(seed, "eval", n, trial),
                )
            ]
        except QlimitsError as exc:
            scored = [_failed(exc)] * len(predictors)
        outcomes.update(zip(predictors, scored))
    return tuple(outcomes[i] for i in range(len(arms)))


def _sweep_row(n: int, outcomes: list[tuple]) -> SweepRow:
    ok = [(v, se) for v, se, error in outcomes if error is None]
    errors = [error for _, _, error in outcomes if error is not None]
    by_kind = {}  # exception type -> (count, first message)
    for kind, message in errors:
        count, first = by_kind.get(kind, (0, message))
        by_kind[kind] = (count + 1, first)
    failures = tuple((kind, count, first) for kind, (count, first) in by_kind.items())
    if not ok:
        return SweepRow(n, float("nan"), float("nan"), float("nan"), 0, len(errors), failures)
    values = np.array([v for v, _ in ok])
    return SweepRow(
        n=n,
        median_excess=float(np.median(values)),
        iqr_excess=float(np.percentile(values, 75) - np.percentile(values, 25)),
        median_std_error=float(np.median(np.array([se for _, se in ok]))),
        trials_ok=len(ok),
        trials_failed=len(errors),
        failures=failures,
    )


def _sweep_arms(
    config: SweepConfig, arms: tuple[tuple[str, NoiseSchedule | None], ...]
) -> tuple[SweepTable, ...]:
    """One pass over the cells of ``config``, scoring every (label, arm) pair
    (see _sweep_cell); one table per arm, failed cells flagged, not fatal."""
    schedules = tuple(arm for _, arm in arms)
    tasks = [(config, schedules, n, t) for n in config.n_grid for t in range(config.trials)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            cells = list(pool.map(_sweep_cell, tasks, chunksize=4))
    else:
        cells = [_sweep_cell(t) for t in tasks]
    t = config.trials
    return tuple(
        SweepTable(
            label=label,
            rows=tuple(
                _sweep_row(n, [cell[i] for cell in cells[k * t:(k + 1) * t]])
                for k, n in enumerate(config.n_grid)
            ),
        )
        for i, (label, _) in enumerate(arms)
    )


def sweep_excess_risk(config: SweepConfig, label: str = "sweep") -> SweepTable:
    """Median/IQR excess risk per grid size; failed cells flagged, not fatal."""
    (table,) = _sweep_arms(config, ((label, config.noise),))
    return table


# ---------------------------------------------------------------------------
# power-law fitting

@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of log2(value) against log2(n)."""

    exponent: float
    intercept: float
    r_squared: float
    stderr_exponent: float

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "stderr_exponent": self.stderr_exponent,
        }


def fit_scaling(pairs) -> ScalingFit:
    """Fit value ~ n^exponent by ordinary least squares on log-log pairs."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ConfigError(f"fit needs >= 3 (n, value) pairs, got {len(pairs)}")
    for n, v in pairs:
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"fit requires positive finite values; got {v} at n={n}")
    x = np.log2([float(n) for n, _ in pairs])
    y = np.log2([float(v) for _, v in pairs])
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx <= 0:
        raise ConfigError("fit requires at least two distinct n values")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    # constant inputs only vary by float jitter; that is a perfect flat fit
    noise_floor = len(pairs) * (1e-12 * max(1.0, float(np.max(np.abs(y))))) ** 2
    if ss_tot <= noise_floor:
        r_squared = 1.0 if ss_res <= noise_floor else 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    dof = len(pairs) - 2
    stderr = float(np.sqrt(ss_res / dof / sxx)) if dof > 0 else 0.0
    return ScalingFit(
        exponent=slope, intercept=intercept, r_squared=r_squared, stderr_exponent=stderr
    )


# ---------------------------------------------------------------------------
# paired experiments

def _require_resolved(label: str, row: SweepRow) -> None:
    """A median excess risk <= 0 means the Monte Carlo error of the
    evaluation exceeds the excess risk: a numerical outcome, not a bad config.
    Only Monte Carlo scores (Gaussian kernels) can be unresolved: a
    closed-form excess risk is >= 0, and 0 only for the target itself."""
    if not row.median_excess > 0:
        raise NumericalError(
            f"{label}: median excess risk {row.median_excess!r} at n={row.n} is not positive, "
            "so the evaluation sample cannot resolve it; use a larger n_eval"
        )


def _resolved_medians(table: SweepTable) -> list[tuple[int, float]]:
    for row in table.rows:
        if row.trials_ok:
            _require_resolved(table.label, row)
    return table.medians()


def _ratios(exact: SweepTable, arm: SweepTable) -> list[tuple[int, float]]:
    """Per-n median excess risk of ``arm`` over ``exact``; 1.0 where they are
    equal, which covers the degenerate zero-injection arm exactly."""
    return [
        (e.n, 1.0 if a.median_excess == e.median_excess else a.median_excess / e.median_excess)
        for e, a in zip(exact.rows, arm.rows)
    ]


@dataclass(frozen=True)
class MatchingReport:
    """Excess risk of gamma-matched and constant-gamma pipelines vs exact."""

    exact: SweepTable
    matched: SweepTable
    constant: SweepTable
    matched_c0: float
    constant_gamma: float

    def arm_tables(self) -> dict[str, SweepTable]:
        return {"exact": self.exact, "matched": self.matched, "constant": self.constant}

    def ratios(self, arm: str) -> list[tuple[int, float]]:
        return _ratios(self.exact, self.arm_tables()[arm])


def matching_experiment(
    config: SweepConfig, matched_c0: float = 0.1, constant_gamma: float = 0.3
) -> MatchingReport:
    """Exact solve vs solver-error schedules gamma = c0 * n^(-1/2) and
    gamma = constant: one three-arm sweep, so the arms share every cell."""
    exact, matched, constant = _sweep_arms(
        replace(config, noise=None, solver="exact_ls"),
        (
            ("exact", None),
            ("matched", NoiseSchedule(gamma_kind="matched", gamma_value=matched_c0)),
            ("constant", NoiseSchedule(gamma_value=constant_gamma)),
        ),
    )
    return MatchingReport(exact, matched, constant, matched_c0, constant_gamma)


@dataclass(frozen=True)
class MeasurementReport:
    """Excess risk under measurement budgets m(n) vs the exact solve."""

    exact: SweepTable
    budget: SweepTable
    degraded: SweepTable
    regime: str

    def arm_tables(self) -> dict[str, SweepTable]:
        return {"exact": self.exact, "budget": self.budget, "degraded": self.degraded}

    def ratios(self, arm: str) -> list[tuple[int, float]]:
        return _ratios(self.exact, self.arm_tables()[arm])

    def arm_fit(self, arm: str) -> ScalingFit:
        return fit_scaling(_resolved_medians(self.arm_tables()[arm]))

    def ratio_fit(self, arm: str) -> ScalingFit:
        """Fit of ``ratios(arm)`` over the n where both arms have ok trials;
        its exponent is the arm's exponent minus the exact arm's."""
        table = self.arm_tables()[arm]
        rows = zip(self.exact.rows, table.rows, self.ratios(arm))
        used = [(e, a, pair) for e, a, pair in rows if e.trials_ok and a.trials_ok]
        for e, a, _ in used:
            _require_resolved(self.exact.label, e)
            _require_resolved(table.label, a)
        return fit_scaling(pair for _, _, pair in used)


def measurement_experiment(
    config: SweepConfig,
    regime: str = "heisenberg",
    budget_rule: str = "sqrt_n",
    degraded_rule: str = "fourth_root_n",
) -> MeasurementReport:
    """Exact solve vs tomography readout with m set by two rules: one
    three-arm sweep, so the arms share every cell."""
    if regime == "exact":  # NoiseSchedule rejects unknown regimes
        raise ConfigError(f"measurement experiment needs a noisy regime, got {regime!r}")
    exact, budget, degraded = _sweep_arms(
        replace(config, noise=None, solver="exact_ls"),
        (
            ("exact", None),
            (f"m_{budget_rule}", NoiseSchedule(regime=regime, m_kind=budget_rule)),
            (f"m_{degraded_rule}", NoiseSchedule(regime=regime, m_kind=degraded_rule)),
        ),
    )
    return MeasurementReport(exact, budget, degraded, regime)


# ---------------------------------------------------------------------------
# wall-clock benchmark

@dataclass(frozen=True)
class BenchRow:
    solver: str
    n: int
    train_seconds: float
    test_seconds_per_point: float
    timed_out: bool


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    train_fits: dict
    test_fits: dict
    reps: int

    @property
    def any_timed_out(self) -> bool:
        return any(r.timed_out for r in self.rows)


BENCH_TIMER_WINDOW = 0.2  # seconds; long enough to average over scheduler bursts


def _timed_call(fn, min_time: float = BENCH_TIMER_WINDOW):
    """One timing sample: loop the call until the window reaches min_time.

    Short calls are averaged over a geometrically grown loop count so that a
    single sample spans at least ``min_time`` of wall clock, which smooths
    out scheduler and throttling noise on small inputs.
    """
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            result = fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_time or loops >= 1024:
            return elapsed / loops, result
        per_call = max(elapsed / loops, 1e-9)
        loops = min(1024, max(loops * 2, int(min_time / per_call) + 1))


def runtime_benchmark(
    solver_ids: tuple[str, ...] = BENCH_SOLVER_IDS,
    n_grid: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
    reps: int = 5,
    dimension: int = 10,
    noise_std: float = 0.5,
    kernel: Kernel = LINEAR_KERNEL,
    test_points: int = 1000,
    timeout_s: float = 120.0,
    master_seed: int = 0,
    lam: float | None = None,
    timer_window: float = BENCH_TIMER_WINDOW,
    cap: int = DESK_SCALE_CAP,
) -> BenchReport:
    """Median wall-clock train/test times and fitted growth exponents.

    Runs strictly serially in a single execution lane: one cell at a time,
    with every loaded BLAS pinned to one thread, so timings are not skewed
    by contention or thread spin-up. It raises QlimitsError, naming the
    library, when one thread cannot be set and verified. The per-cell
    timeout is enforced between repetitions, not preemptively: a cell whose
    budget is exhausted is flagged and excluded from the fits. ``cap`` bounds
    the largest n, keeping the ladder at desk scale.
    """
    ids = tuple(solver_ids)
    for sid in ids:
        if sid not in SOLVER_IDS:
            raise ConfigError(f"unknown solver {sid!r}, expected one of {SOLVER_IDS}")
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 3 or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"n_grid must be >= 3 strictly increasing positive sizes, got {grid}")
    if grid[-1] > cap:
        raise ConfigError(f"n_grid maximum {grid[-1]} exceeds desk-scale cap {cap}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if not (timeout_s > 0 and timer_window > 0):
        raise ConfigError(f"timeout_s and timer_window must be > 0, got {timeout_s}, {timer_window}")
    problem = make_problem(dimension, noise_std, seed=master_seed)
    test_x = sample_dataset(
        problem, test_points, derive_seed(master_seed, "bench-test")
    ).features

    solver_config = SolverConfig(lam=lam)
    rows = []
    with single_blas_thread():
        for sid in ids:
            for n in grid:
                rows.append(
                    _bench_cell(sid, n, kernel, solver_config, problem, test_x, reps,
                                timeout_s, master_seed, timer_window)
                )

    train_fits, test_fits = {}, {}
    for sid in ids:
        good = [r for r in rows if r.solver == sid and not r.timed_out]
        if len(good) >= 3:
            train_fits[sid] = fit_scaling([(r.n, r.train_seconds) for r in good])
            test_fits[sid] = fit_scaling([(r.n, r.test_seconds_per_point) for r in good])
    return BenchReport(rows=tuple(rows), train_fits=train_fits, test_fits=test_fits, reps=reps)


def _bench_cell(sid, n, kernel, solver_config, problem, test_x, reps, timeout_s,
                master_seed, timer_window) -> BenchRow:
    dataset = sample_dataset(problem, n, derive_seed(master_seed, "bench-data", n))
    fit_fn = lambda: fit_solver(sid, dataset, kernel, solver_config)
    cell_start = time.perf_counter()
    try:
        _, predictor = _timed_call(fit_fn, timer_window)  # warm-up, discarded
    except QlimitsError:
        return BenchRow(sid, n, float("nan"), float("nan"), True)
    train_times, timed_out = [], False
    for _ in range(reps):
        if time.perf_counter() - cell_start > timeout_s:
            timed_out = True
            break
        elapsed, predictor = _timed_call(fit_fn, timer_window)
        train_times.append(elapsed)
    if timed_out or not train_times:
        return BenchRow(sid, n, float("nan"), float("nan"), True)
    test_times = []
    for _ in range(reps):
        elapsed, _ = _timed_call(lambda: predict_batch(predictor, test_x), timer_window)
        test_times.append(elapsed)
    return BenchRow(
        solver=sid,
        n=n,
        train_seconds=float(np.median(train_times)),
        test_seconds_per_point=float(np.median(test_times)) / len(test_x),
        timed_out=False,
    )


# ---------------------------------------------------------------------------
# summaries against the pinned thresholds

def rate_summary(table: SweepTable) -> dict:
    fit = fit_scaling(_resolved_medians(table))
    lo, hi = RATE_EXPONENT_RANGE
    return {
        "fit": fit.to_json(),
        "rate_ok": bool(lo <= fit.exponent <= hi and fit.r_squared >= RATE_R2_MIN),
        "exponent_range": [lo, hi],
        "r_squared_min": RATE_R2_MIN,
        "failed_cells": int(sum(r.trials_failed for r in table.rows)),
    }


def matching_summary(report: MatchingReport) -> dict:
    matched = report.ratios("matched")
    constant = report.ratios("constant")
    return {
        "matched_c0": report.matched_c0,
        "constant_gamma": report.constant_gamma,
        "max_ratio_matched": max(r for _, r in matched),
        "ratio_constant_at_n_max": constant[-1][1],
        "matched_ok": bool(all(r <= MATCHED_RATIO_MAX for _, r in matched)),
        "constant_ok": bool(constant[-1][1] >= CONSTANT_RATIO_MIN),
        "matched_ratio_max": MATCHED_RATIO_MAX,
        "constant_ratio_min": CONSTANT_RATIO_MIN,
    }


def measurement_summary(report: MeasurementReport) -> dict:
    budget = report.ratios("budget")
    budget_slope = report.ratio_fit("budget").exponent
    degraded_slope = report.ratio_fit("degraded").exponent
    return {
        "regime": report.regime,
        "max_ratio_budget": max(r for _, r in budget),
        "degraded_exponent": report.arm_fit("degraded").exponent,
        "degraded_ratio_exponent": degraded_slope,
        "budget_ratio_exponent": budget_slope,
        "budget_ok": bool(all(r <= BUDGET_RATIO_MAX for _, r in budget)),
        "degraded_ok": bool(degraded_slope >= DEGRADED_RATIO_EXPONENT_MIN > budget_slope),
        "budget_ratio_max": BUDGET_RATIO_MAX,
        "degraded_ratio_exponent_min": DEGRADED_RATIO_EXPONENT_MIN,
    }


def bench_summary(report: BenchReport) -> dict:
    train = {sid: fit.exponent for sid, fit in report.train_fits.items()}
    test = {sid: fit.exponent for sid, fit in report.test_fits.items()}
    out = {
        "train_exponents": train,
        "test_exponents": test,
        "timed_out": report.any_timed_out,
    }
    if "krr" in train:
        lo, hi = KRR_TRAIN_EXPONENT_RANGE
        out["krr_train_ok"] = bool(lo <= train["krr"] <= hi)
    if "krr" in train and "nystrom" in train:
        out["nystrom_gap"] = train["krr"] - train["nystrom"]
        out["nystrom_gap_ok"] = bool(out["nystrom_gap"] >= NYSTROM_EXPONENT_GAP_MIN)
    if "exact_ls" in test:
        lo, hi = PRIMAL_TEST_EXPONENT_RANGE
        out["primal_test_ok"] = bool(lo <= test["exact_ls"] <= hi)
    return out


# ---------------------------------------------------------------------------
# report files

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def sweep_csv_rows(tables) -> list[tuple]:
    rows = []
    for table in tables:
        for r in table.rows:
            rows.append((table.label, r.n, "median_excess_risk", r.median_excess))
            rows.append((table.label, r.n, "iqr_excess_risk", r.iqr_excess))
            rows.append((table.label, r.n, "median_std_error", r.median_std_error))
            rows.append((table.label, r.n, "trials_ok", r.trials_ok))
            rows.append((table.label, r.n, "trials_failed", r.trials_failed))
    return rows


def sweep_failures(tables) -> dict:
    """Per arm label, each n with failed cells: its [exception type, cells
    failed, first message] per type (the JSON form of ``SweepRow.failures``)."""
    return {
        table.label: {r.n: [list(f) for f in r.failures] for r in table.rows if r.failures}
        for table in tables
    }


def write_sweep_csv(path, tables) -> None:
    write_csv(path, ("solver", "n", "statistic", "value"), sweep_csv_rows(tables))


def bench_csv_rows(report: BenchReport) -> list[tuple]:
    rows = []
    for r in report.rows:
        rows.append((r.solver, r.n, "train_seconds", r.train_seconds))
        rows.append((r.solver, r.n, "test_seconds_per_point", r.test_seconds_per_point))
        rows.append((r.solver, r.n, "timed_out", r.timed_out))
    return rows


def write_bench_csv(path, report: BenchReport) -> None:
    write_csv(path, ("solver", "n", "statistic", "value"), bench_csv_rows(report))
