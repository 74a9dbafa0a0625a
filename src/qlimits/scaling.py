"""Experiment harness: excess-risk sweeps, power-law fits, runtime benchmarks.

Sweeps evaluate a solver over a grid of training sizes, many seeded trials
per size, and aggregate excess risk by median and interquartile range. A
row reads them from one sort of its values, with the bits of ``np.median``
and ``np.percentile`` but without the ``numpy.ma`` that those two load.
Every cell reads the one ``SyntheticProblem`` its config holds. All per-cell
randomness is derived from the master seed and the cell's (n, trial)
coordinates, so results are bit-identical across reruns and independent of
serial vs parallel execution. Only a sweep of more than one worker imports
the process pool, so ``import qlimits`` and a serial sweep load no
``multiprocessing``. Both paths run every loaded BLAS at one thread (the
serial one for the sweep's duration, each pool worker for its lifetime), so
N workers never start N BLAS threads each and a kernel solve rounds the same
whatever the core count; where BLAS cannot be pinned, the sweep warns and
runs with the default threads. A pin covers only the libraries already
mapped; every solver and scoring path runs in the BLAS that numpy links and
imports no scipy, so no run maps a library after its pin.

A sweep scores one or more arms, and all of them share each (n, trial)
cell: one training draw, one solve, one scoring. The exact arm scores the
solve itself; a noisy arm is a ``qmodel.NoiseSchedule``, evaluated at the
cell's n, and passes the weights through the error channels, seeded by the
cell's one noise stream. A paired experiment is one sweep of
the exact arm and any number of noisy arms, so its ratios isolate the
injected error, and each arm's table equals that of a sweep of the arm alone;
the matching and measurement experiments are two named arm lists over it.

Cells are scored by ``risk.excess_risks``: a linear predictor's excess risk
is exact, ``s |w - w*|^2`` with standard error 0, and nothing is drawn, nor
is an evaluation seed derived; only Gaussian-kernel predictors are scored
on ``n_eval`` points, by the mean of their squared distance to the clean
target. Either way a median excess risk is a median of means of squares, so
it is never negative.
"""

from __future__ import annotations

import time
import warnings
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .blas import pin_single_thread, single_blas_thread
from .errors import ConfigError, NumericalError, QlimitsError, integer, real
# quantum_ls_pipeline and expected_risk_mc are not called here since arms
# share cells and score through excess_risks; they stay importable from this
# module, whose names perfbench's tracer wraps.
from .qmodel import M_RULE_KINDS, NoiseSchedule, apply_channels, quantum_ls_pipeline
from .risk import expected_risk_mc, excess_risks
from .rng import derive_seed
from .solvers import (  # the five solvers are called by name, through fit_solver
    LINEAR_KERNEL,
    Kernel,
    Predictor,
    PrimalPredictor,
    SolverConfig,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    krr,
    nystrom,
    predict_batch,
)
from .synth import Dataset, SyntheticProblem, sample_dataset

SOLVER_IDS = ("exact_ls", "krr", "early_stopping_gd", "divide_and_conquer", "nystrom")
BENCH_SOLVER_IDS = ("exact_ls", "krr", "nystrom")  # the runtime ladder's default rows

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
# Gate 7's runtime ladder: the runtime_benchmark arguments its bounds are read on.
GATE7_LADDER = {"solver_ids": BENCH_SOLVER_IDS, "n_grid": (256, 512, 1024, 2048, 4096), "reps": 5}

SCHEMA_VERSION = 14
DESK_SCALE_CAP = 8192


def _check_solver(solver: str, kernel: Kernel) -> None:
    """Reject an unknown solver id, and exact_ls (always linear) under another kernel."""
    if solver not in SOLVER_IDS:
        raise ConfigError(f"unknown solver {solver!r}, expected one of {SOLVER_IDS}")
    if solver == "exact_ls" and kernel.kind != "linear":
        raise ConfigError(f"exact_ls fits a linear model and takes no {kernel.kind!r} kernel")


def _check_grid(n_grid) -> tuple[int, ...]:
    """``n_grid`` as ints, which must be at least 3 strictly increasing positive sizes."""
    sizes = n_grid if isinstance(n_grid, (tuple, list)) else ()
    grid = tuple(integer(f"n_grid[{i}]", n) for i, n in enumerate(sizes))
    if len(grid) < 3 or grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"n_grid must be >= 3 strictly increasing positive sizes, got {n_grid!r}")
    return grid


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one excess-risk sweep."""

    n_grid: tuple[int, ...]
    trials: int = 20
    solver: str = "exact_ls"
    solver_config: SolverConfig = field(default_factory=SolverConfig)
    kernel: Kernel = LINEAR_KERNEL
    problem: SyntheticProblem = field(default_factory=SyntheticProblem)
    noise: NoiseSchedule | None = None
    n_eval: int = 100_000
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        for name, kind in (("solver_config", SolverConfig), ("kernel", Kernel),
                           ("problem", SyntheticProblem), ("noise", NoiseSchedule)):
            if not (isinstance(getattr(self, name), kind) or (name == "noise" and self.noise is None)):
                raise ConfigError(f"`{name}` must be a {kind.__name__}, got {getattr(self, name)!r}")
        object.__setattr__(self, "n_grid", _check_grid(self.n_grid))
        integer("trials", self.trials, 1)
        integer("n_eval", self.n_eval, 2)
        integer("master_seed", self.master_seed)
        integer("workers", self.workers, 1)
        _check_solver(self.solver, self.kernel)
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
    """Train ``solver``, one of SOLVER_IDS; exact_ls and krr read only
    ``config.lam``, and exact_ls takes only the linear kernel.

    The solver is looked up among this module's names on every call, so a
    wrapper swapped in for ``scaling.<id>`` (as a tracer does) is the one run.
    """
    _check_solver(solver, kernel)
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

    The cell draws its training set from ``config.problem``, fits
    ``config.solver`` and scores every arm's predictor in one
    ``excess_risks`` call (which shares its evaluation sample, where it
    draws one). An arm of None scores the fit; a NoiseSchedule arm scores
    the fit's weights after the error channels at n, so it needs exact_ls.
    Returns one (excess, std_error, error) per arm, ``error`` being None or
    (exception type, message). A failed draw, fit or evaluation fails every
    arm; a failed channel fails its own arm only.
    """
    config, arms, n, trial = task
    problem, seed = config.problem, config.master_seed
    try:
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
                weights=apply_channels(fitted.weights, arm, n, noise_seed)
            )
        except QlimitsError as exc:
            outcomes[i] = _failed(exc)
    if predictors:
        try:
            scored = [
                (*pair, None) for pair in excess_risks(
                    tuple(predictors.values()), problem, config.n_eval,
                    seed=lambda: derive_seed(seed, "eval", n, trial),  # derived only if it draws
                )
            ]
        except QlimitsError as exc:
            scored = [_failed(exc)] * len(predictors)
        outcomes.update(zip(predictors, scored))
    return tuple(outcomes[i] for i in range(len(arms)))


def _order_stat(s: np.ndarray, q: float) -> float:
    """The ``q`` quantile of the sorted array ``s``, bit for bit as
    ``np.median`` (q = 0.5) or ``np.percentile(s, 100 q)`` gives it. Those
    load ``numpy.ma`` at their first call and partition their input on every
    call; a sweep row sorts its values once and reads each statistic here.

    A percentile is numpy's linear one: at k = (n - 1) q it lies between
    a = s[floor(k)] and b, the next value, at t = k - floor(k), and is
    ``a + (b - a) t`` for t < 0.5, else ``b - (b - a) (1 - t)``. The median of
    an even count is instead the mean of the middle two, ``(a + b) / 2``. A
    NaN, which sorts last, gives NaN. (Only the sign of a zero can differ from
    numpy's, where ``s`` holds -0.0, which compares equal to 0.0.)
    """
    if np.isnan(s[-1]):
        return float("nan")
    k = (len(s) - 1) * q
    i = int(k)
    t = k - i
    a, b = float(s[i]), float(s[min(i + 1, len(s) - 1)])
    if q == 0.5:
        return (a + b) / 2 if t else a
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


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
    values = np.sort([v for v, _ in ok])
    return SweepRow(
        n=n,
        median_excess=_order_stat(values, 0.5),
        iqr_excess=_order_stat(values, 0.75) - _order_stat(values, 0.25),
        median_std_error=_order_stat(np.sort([se for _, se in ok]), 0.5),
        trials_ok=len(ok),
        trials_failed=len(errors),
        failures=failures,
    )


def _warn_unpinned(exc: QlimitsError) -> None:
    warnings.warn(f"running with the default BLAS threads: {exc}", RuntimeWarning, stacklevel=3)


@contextmanager
def single_blas_thread_or_warn():
    """Run the body inside ``single_blas_thread``; where BLAS cannot be pinned,
    warn and run it with the default threads. Sweeps and ``qlimits fit`` use it,
    so their outputs do not depend on the core count."""
    with ExitStack() as stack:
        try:
            stack.enter_context(single_blas_thread())
        except QlimitsError as exc:
            _warn_unpinned(exc)
        yield


def _pin_worker() -> None:
    """Pool initializer: every loaded BLAS at one thread for the worker's
    lifetime. A worker's cells call only numpy's BLAS, which ``import qlimits``
    has mapped, so a worker that did not fork (a spawn or forkserver pool)
    pins it too."""
    try:
        pin_single_thread()
    except QlimitsError as exc:
        _warn_unpinned(exc)


def _sweep_arms(
    config: SweepConfig, arms: tuple[tuple[str, NoiseSchedule | None], ...]
) -> tuple[SweepTable, ...]:
    """One pass over the cells of ``config``, scoring every (label, arm) pair
    (see _sweep_cell); one table per arm, failed cells flagged, not fatal."""
    schedules = tuple(arm for _, arm in arms)
    tasks = [(config, schedules, n, t) for n in config.n_grid for t in range(config.trials)]
    if config.workers > 1:
        # imported here, so a serial sweep loads no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        workers = min(config.workers, len(tasks))  # a forked pool starts all its workers at once
        with ProcessPoolExecutor(max_workers=workers, initializer=_pin_worker) as pool:
            cells = list(pool.map(_sweep_cell, tasks))
    else:
        with single_blas_thread_or_warn():
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


def _fit_arm(table: SweepTable, pairs) -> ScalingFit:
    """``fit_scaling`` of an arm's pairs, one per grid size with a successful
    cell; fewer than three means the solver failed, so it is a NumericalError."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise NumericalError(
            f"arm {table.label!r}: {len(pairs)} grid sizes have a successful cell, a fit needs >= 3"
        )
    return fit_scaling(pairs)


# ---------------------------------------------------------------------------
# paired experiments

def _ratio(a: float, e: float) -> float:
    """``a / e``, 1.0 where they are equal; over a zero ``e`` it is inf, or NaN
    for a NaN ``a`` (a median is never negative), where float division raises."""
    if a == e:
        return 1.0
    return a * float("inf") if e == 0.0 else a / e


@dataclass(frozen=True)
class PairedReport:
    """Excess risk of noisy solver arms against the exact solve.

    ``tables`` maps each arm name to its table, the ``exact`` arm first;
    ``options`` holds the experiment's own options, which its summary echoes.
    """

    tables: dict[str, SweepTable]
    options: dict

    def arm_tables(self) -> dict[str, SweepTable]:
        return dict(self.tables)

    def ratios(self, arm: str) -> list[tuple[int, float]]:
        """Per-n median excess risk of ``arm`` over the exact arm; 1.0 where
        they are equal, which covers the degenerate zero-injection arm exactly."""
        return [
            (e.n, _ratio(a.median_excess, e.median_excess))
            for e, a in zip(self.tables["exact"].rows, self.tables[arm].rows)
        ]

    def arm_fit(self, arm: str) -> ScalingFit:
        return _fit_arm(self.tables[arm], self.tables[arm].medians())

    def ratio_fit(self, arm: str) -> ScalingFit:
        """Fit of ``ratios(arm)`` over the n where both arms have ok trials;
        its exponent is the arm's exponent minus the exact arm's."""
        rows = zip(self.tables["exact"].rows, self.tables[arm].rows, self.ratios(arm))
        return _fit_arm(self.tables[arm], (pair for e, a, pair in rows if e.trials_ok and a.trials_ok))


def paired_experiment(
    config: SweepConfig, arms: dict[str, tuple[str, NoiseSchedule]], **options
) -> PairedReport:
    """Exact solve vs noisy arms in one sweep of ``exact_ls``, so every arm
    shares every cell. ``arms`` maps each arm name to its table label and
    NoiseSchedule; the exact arm comes first, named and labelled ``exact``.
    ``config`` must fit exact_ls with no ``noise`` block, since the arms
    bring the noise. ``options`` are recorded in the report as given."""
    if config.solver != "exact_ls":
        raise ConfigError(f"a paired experiment fits exact_ls, got `solver` {config.solver!r}")
    if config.noise is not None:
        raise ConfigError("a paired experiment takes no `noise` block; its arms bring the noise")
    named = {"exact": ("exact", None), **arms}
    labels = [label for label, _ in named.values()]
    if "exact" in arms or len(set(labels)) < len(labels):
        raise ConfigError(f"arm labels must be unique and no arm named 'exact', got {labels}")
    tables = _sweep_arms(config, tuple(named.values()))
    return PairedReport(dict(zip(named, tables)), options)


def matching_experiment(
    config: SweepConfig, matched_c0: float = 0.1, constant_gamma: float = 0.3
) -> PairedReport:
    """Exact solve vs solver-error schedules gamma = c0 * n^(-1/2) and
    gamma = constant, arms ``matched`` and ``constant``."""
    matched_c0 = real("matched_c0", matched_c0, 0)
    constant_gamma = real("constant_gamma", constant_gamma, 0)
    arms = {
        "matched": ("matched", NoiseSchedule(gamma_kind="matched", gamma_value=matched_c0)),
        "constant": ("constant", NoiseSchedule(gamma_value=constant_gamma)),
    }
    return paired_experiment(config, arms, matched_c0=matched_c0, constant_gamma=constant_gamma)


def measurement_experiment(
    config: SweepConfig,
    regime: str = "heisenberg",
    budget_rule: str = "sqrt_n",
    degraded_rule: str = "fourth_root_n",
) -> PairedReport:
    """Exact solve vs tomography readout with m set by two rules, arms
    ``budget`` and ``degraded``."""
    if regime == "exact":  # NoiseSchedule rejects unknown regimes
        raise ConfigError(f"measurement experiment needs a noisy regime, got {regime!r}")
    for name, rule in (("budget_rule", budget_rule), ("degraded_rule", degraded_rule)):
        if rule not in M_RULE_KINDS:
            raise ConfigError(f"unknown {name} {rule!r}, expected one of {M_RULE_KINDS}")
    arms = {
        "budget": (f"m_{budget_rule}", NoiseSchedule(regime=regime, m_kind=budget_rule)),
        "degraded": (f"m_{degraded_rule}", NoiseSchedule(regime=regime, m_kind=degraded_rule)),
    }
    return paired_experiment(config, arms, regime=regime)


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
        loops = min(1024, max(loops * 2, int(min(min_time / per_call, 1024)) + 1))


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
    budget is exhausted is flagged and excluded from the fits; a solver error
    is not a timeout, and raises. ``cap`` bounds the largest n, keeping the
    ladder at desk scale.
    """
    if not (isinstance(solver_ids, (tuple, list)) and solver_ids):
        raise ConfigError(f"`solver_ids` must be a non-empty list of solver ids, got {solver_ids!r}")
    ids = tuple(solver_ids)
    for sid in ids:
        _check_solver(sid, kernel)
    grid = _check_grid(n_grid)
    if grid[-1] > integer("cap", cap):
        raise ConfigError(f"n_grid maximum {grid[-1]} exceeds desk-scale cap {cap}")
    reps = integer("reps", reps, 1)
    test_points = integer("test_points", test_points, 1)
    timeout_s = real("timeout_s", timeout_s, 0, strict=True)
    timer_window = real("timer_window", timer_window, 0, strict=True)
    problem = SyntheticProblem(dimension, noise_std, seed=integer("master_seed", master_seed))
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
    _timed_call(fit_fn, timer_window)  # warm-up, discarded; a solver error propagates
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
        train_seconds=_order_stat(np.sort(train_times), 0.5),
        test_seconds_per_point=_order_stat(np.sort(test_times), 0.5) / len(test_x),
        timed_out=False,
    )


# ---------------------------------------------------------------------------
# summaries against the pinned thresholds

def rate_summary(table: SweepTable) -> dict:
    fit = _fit_arm(table, table.medians())
    lo, hi = RATE_EXPONENT_RANGE
    return {
        "fit": asdict(fit),
        "rate_ok": bool(lo <= fit.exponent <= hi and fit.r_squared >= RATE_R2_MIN),
        "exponent_range": [lo, hi],
        "r_squared_min": RATE_R2_MIN,
        "failed_cells": int(sum(r.trials_failed for r in table.rows)),
    }


def matching_summary(report: PairedReport) -> dict:
    matched = report.ratios("matched")
    constant = report.ratios("constant")
    return {
        **report.options,
        "max_ratio_matched": float(np.max([r for _, r in matched])),  # NaN anywhere propagates
        "ratio_constant_at_n_max": constant[-1][1],
        "matched_ok": bool(all(r <= MATCHED_RATIO_MAX for _, r in matched)),
        "constant_ok": bool(constant[-1][1] >= CONSTANT_RATIO_MIN),
        "matched_ratio_max": MATCHED_RATIO_MAX,
        "constant_ratio_min": CONSTANT_RATIO_MIN,
    }


def measurement_summary(report: PairedReport) -> dict:
    budget = report.ratios("budget")
    budget_slope = report.ratio_fit("budget").exponent
    degraded_slope = report.ratio_fit("degraded").exponent
    return {
        **report.options,
        "max_ratio_budget": float(np.max([r for _, r in budget])),
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
