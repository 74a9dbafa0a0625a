"""Acceptance gates for the whole laboratory.

Each test prints one PASS/FAIL line per gate (run with ``pytest -s`` to see
them all) and then asserts the gate at its pinned tolerance. The thresholds
live in qlimits.scaling so the CLI summaries and this suite cannot drift
apart.

Gate 4b follows the quadratic readout law. The readout shifts the weights
by exactly tau(m) in a random direction and the loss is squared, so an arm's
excess risk is the exact arm's plus about tau(n)^2 / d. At m = ceil(n^(1/4))
in the heisenberg regime tau^2 ~ n^(-1/2), which decays more slowly than the
exact solve's excess risk; the gate asserts that the excess-risk ratio of
that arm to the exact solve grows with n (fitted exponent at least
DEGRADED_RATIO_EXPONENT_MIN, half what the law predicts on this grid) and
that the ratio of the m = ceil(sqrt(n)) budget arm does not.
"""

import dataclasses
import importlib.util
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qlimits import (
    Kernel,
    LINEAR_KERNEL,
    PrimalPredictor,
    SolverConfig,
    SweepConfig,
    SyntheticProblem,
    algorithmic_error_bound_check,
    complexity_table,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    fit_scaling,
    krr,
    matching_experiment,
    measurement_experiment,
    nystrom,
    perturb_solution,
    predict_batch,
    runtime_benchmark,
    sample_dataset,
    sweep_excess_risk,
)
from qlimits.rng import derive_seed
from qlimits.scaling import (
    BUDGET_RATIO_MAX,
    CONSTANT_RATIO_MIN,
    DEGRADED_RATIO_EXPONENT_MIN,
    GATE7_LADDER,
    KRR_TRAIN_EXPONENT_RANGE,
    MATCHED_RATIO_MAX,
    NYSTROM_EXPONENT_GAP_MIN,
    PRIMAL_TEST_EXPONENT_RANGE,
    RATE_EXPONENT_RANGE,
    RATE_R2_MIN,
    bench_summary,
    rate_summary,
    write_sweep_csv,
)

ACCEPT_GRID = (64, 128, 256, 512, 1024, 2048, 4096, 8192)

DEFAULT_SWEEP = SweepConfig(n_grid=ACCEPT_GRID, trials=20, n_eval=100_000, master_seed=0)


def _gate(name, ok, detail):
    print(f"[acceptance {name}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def measurement_report():
    return measurement_experiment(DEFAULT_SWEEP, regime="heisenberg")


def test_criterion_1_estimation_rate():
    start = time.time()
    table = sweep_excess_risk(DEFAULT_SWEEP, label="exact_ls")
    summary = rate_summary(table)
    elapsed = time.time() - start
    exponent = summary["fit"]["exponent"]
    r_squared = summary["fit"]["r_squared"]
    lo, hi = RATE_EXPONENT_RANGE
    ok = lo <= exponent <= hi and r_squared >= RATE_R2_MIN and elapsed < 180
    assert _gate(
        "1 estimation rate",
        ok,
        f"exponent={exponent:.4f} in [{lo}, {hi}], r2={r_squared:.4f} >= {RATE_R2_MIN}, "
        f"elapsed={elapsed:.0f}s < 180s",
    )


def test_criterion_2_algorithmic_error_bound():
    start = time.time()
    problem = SyntheticProblem(10, 0.5, seed=0)
    dataset = sample_dataset(problem, 512, seed=1)
    exact = exact_ls(dataset, 512**-0.5)
    magnitudes = [10.0**e for e in (-3.0, -2.5, -2.0, -1.5, -1.0)]
    held = 0
    total = 0
    max_gaps = []
    for gi, magnitude in enumerate(magnitudes):
        gaps = []
        for k in range(100):
            shifted = PrimalPredictor(
                perturb_solution(exact.weights, magnitude, seed=derive_seed(0, "accept2", gi, k))
            )
            check = algorithmic_error_bound_check(dataset, exact, shifted, magnitude)
            total += 1
            held += check.holds
            gaps.append(check.gap)
        max_gaps.append(max(gaps))
    slope = fit_scaling(zip(magnitudes, max_gaps)).exponent
    elapsed = time.time() - start
    ok = held == total and abs(slope - 1.0) <= 0.15 and elapsed < 60
    assert _gate(
        "2 algorithmic error bound",
        ok,
        f"bound held {held}/{total}, max-gap slope={slope:.3f} within 1.0+-0.15, "
        f"elapsed={elapsed:.0f}s < 60s",
    )


def test_criterion_3_matching_gamma_schedules():
    start = time.time()
    report = matching_experiment(DEFAULT_SWEEP, matched_c0=0.1, constant_gamma=0.3)
    matched = [r for _, r in report.ratios("matched")]
    constant_at_max = report.ratios("constant")[-1][1]
    elapsed = time.time() - start
    ok = (
        max(matched) <= MATCHED_RATIO_MAX
        and constant_at_max >= CONSTANT_RATIO_MIN
        and elapsed < 180
    )
    assert _gate(
        "3 matched solver precision",
        ok,
        f"matched max ratio={max(matched):.3f} <= {MATCHED_RATIO_MAX}, constant ratio at "
        f"n={ACCEPT_GRID[-1]} is {constant_at_max:.2f} >= {CONSTANT_RATIO_MIN}, "
        f"elapsed={elapsed:.0f}s < 180s",
    )


def test_criterion_4a_measurement_budget(measurement_report):
    ratios = [r for _, r in measurement_report.ratios("budget")]
    ok = max(ratios) <= BUDGET_RATIO_MAX
    assert _gate(
        "4a sqrt-n measurement budget",
        ok,
        f"budget m=ceil(sqrt(n)) max ratio={max(ratios):.3f} <= {BUDGET_RATIO_MAX}",
    )


def test_criterion_4b_under_budget_degrades_rate(measurement_report):
    degraded = measurement_report.ratio_fit("degraded").exponent
    budget = measurement_report.ratio_fit("budget").exponent
    ok = degraded >= DEGRADED_RATIO_EXPONENT_MIN > budget
    assert _gate(
        "4b under-budget degraded rate",
        ok,
        f"excess-risk ratio to exact fits n^({degraded:.3f}) at m=ceil(n^(1/4)), "
        f">= {DEGRADED_RATIO_EXPONENT_MIN}, and n^({budget:.3f}) at m=ceil(sqrt(n)), "
        f"< {DEGRADED_RATIO_EXPONENT_MIN}",
    )


def test_criterion_5_solver_equivalences():
    start = time.time()
    problem = SyntheticProblem(5, 0.3, seed=2)
    dataset = sample_dataset(problem, 120, seed=3)
    probe = sample_dataset(problem, 100, seed=4).features
    lam = 0.05

    reference = krr(dataset, LINEAR_KERNEL, lam)
    merged = divide_and_conquer(dataset, LINEAR_KERNEL, SolverConfig(lam=lam, partitions=1))
    dnc_gap = np.max(np.abs(predict_batch(merged, probe) - predict_batch(reference, probe)))

    gauss = Kernel("gaussian", bandwidth=1.0)
    full_krr = krr(dataset, gauss, lam)
    full_nys = nystrom(dataset, gauss, SolverConfig(lam=lam, landmarks=120))
    nys_gap = np.max(
        np.abs(predict_batch(full_nys, dataset.features) - predict_batch(full_krr, dataset.features))
    )

    primal = exact_ls(dataset, lam)
    krr_gap = np.max(np.abs(predict_batch(reference, probe) - predict_batch(primal, probe)))

    noiseless = sample_dataset(SyntheticProblem(5, 0.0, seed=5), 200, seed=6)
    descended = early_stopping_gd(noiseless, LINEAR_KERNEL, SolverConfig(max_iters=10_000))
    target = exact_ls(noiseless, 0.0)
    gd_gap = np.max(np.abs(descended.weights - target.weights))

    elapsed = time.time() - start
    ok = dnc_gap <= 1e-10 and nys_gap <= 1e-6 and krr_gap <= 1e-8 and gd_gap <= 1e-6 and elapsed < 30
    assert _gate(
        "5 solver equivalences",
        ok,
        f"dnc(p=1) vs krr {dnc_gap:.2e} <= 1e-10, nystrom(m=n) vs krr {nys_gap:.2e} <= 1e-6, "
        f"krr(linear) vs exact_ls {krr_gap:.2e} <= 1e-8, gd(t=1e4) vs exact_ls {gd_gap:.2e} "
        f"<= 1e-6, elapsed={elapsed:.0f}s < 30s",
    )


def test_criterion_6_power_law_fitter_oracle():
    cases = [
        (-0.5, [(10, 1.0), (100, 0.31622776601683794), (1000, 0.1)]),
        (0.0, [(8, 2.5), (64, 2.5), (512, 2.5)]),
        (3.0, [(2, 8.0), (4, 64.0), (8, 512.0)]),
    ]
    worst_exp = 0.0
    worst_r2 = 1.0
    for expected, pairs in cases:
        fit = fit_scaling(pairs)
        worst_exp = max(worst_exp, abs(fit.exponent - expected))
        worst_r2 = min(worst_r2, fit.r_squared)
    ok = worst_exp <= 1e-9 and worst_r2 >= 1 - 1e-9
    assert _gate(
        "6 power-law fitter oracle",
        ok,
        f"max exponent error={worst_exp:.2e} <= 1e-9, min r2={worst_r2:.12f} >= 1-1e-9",
    )


def test_criterion_7_runtime_ladder():
    start = time.time()
    report = runtime_benchmark(**GATE7_LADDER)
    elapsed = time.time() - start
    summary = bench_summary(report)
    krr_exp = summary["train_exponents"]["krr"]
    gap = summary["nystrom_gap"]
    test_exp = summary["test_exponents"]["exact_ls"]
    lo, hi = KRR_TRAIN_EXPONENT_RANGE
    tlo, thi = PRIMAL_TEST_EXPONENT_RANGE
    ok = (
        summary["krr_train_ok"]
        and summary["nystrom_gap_ok"]
        and summary["primal_test_ok"]
        and not report.any_timed_out
        and elapsed < 600
    )
    assert _gate(
        "7 runtime ladder",
        ok,
        f"krr train exponent={krr_exp:.2f} in [{lo}, {hi}], krr-nystrom gap={gap:.2f} >= "
        f"{NYSTROM_EXPONENT_GAP_MIN} (binding relative check), primal test exponent="
        f"{test_exp:.2f} in [{tlo}, {thi}], elapsed={elapsed:.0f}s < 600s",
    )


def test_gate7_spread_rejects_fewer_than_one_run(capsys):
    # scripts/gate7_spread.py prints the spread of its runs; zero runs have none
    path = Path(__file__).resolve().parent.parent / "scripts" / "gate7_spread.py"
    spec = importlib.util.spec_from_file_location("gate7_spread", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as exited:
        script.main(["--runs", "0"])
    assert exited.value.code == 2
    assert "--runs: must be >= 1, got 0" in capsys.readouterr().err


def test_criterion_8_complexity_table_snapshot():
    expected = {
        "svm_krr": (Fraction(3), Fraction(1), False, False),
        "krr_fast": (Fraction(2), Fraction(1), False, False),
        "divide_conquer": (Fraction(2), Fraction(1), False, False),
        "nystrom": (Fraction(2), Fraction(1, 2), False, False),
        "falkon": (Fraction(3, 2), Fraction(1, 2), False, False),
        "qkls_qklr": (Fraction(1, 2), Fraction(3, 2), True, True),
        "qsvm": (Fraction(3, 2), Fraction(5, 2), True, True),
    }
    table = complexity_table()
    ok = len(table) == 7 and all(
        (e.train_exponent, e.test_exponent, e.is_quantum, e.test_includes_retraining)
        == expected[e.algorithm]
        for e in table
    )
    assert _gate("8 complexity table snapshot", ok, "all 7 rows match, retraining caveat flagged")


def test_criterion_9_sweep_determinism(tmp_path):
    config = SweepConfig(n_grid=(32, 64, 128, 256), trials=4, n_eval=4000, master_seed=9)
    paths = []
    for name, cfg in (
        ("serial_a", config),
        ("serial_b", config),
        ("parallel", dataclasses.replace(config, workers=2)),
    ):
        table = sweep_excess_risk(cfg)
        path = tmp_path / f"{name}.csv"
        write_sweep_csv(path, [table])
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    assert _gate(
        "9 determinism",
        ok,
        "rerun and parallel (2 workers) sweeps produced byte-identical CSV",
    )
