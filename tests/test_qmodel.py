from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlimits import (
    ConfigError,
    CostModel,
    NoiseModel,
    PrimalPredictor,
    algorithmic_error_bound_check,
    apply_channels,
    complexity_entry,
    complexity_table,
    cost_log_error_solver,
    cost_matched_precision,
    cost_poly_error_solver,
    exact_ls,
    fit_scaling,
    make_problem,
    perturb_solution,
    predict_batch,
    quantum_ls_pipeline,
    required_measurements,
    sample_dataset,
    tomography_estimate,
)
from qlimits.rng import derive_seed


# ---------------------------------------------------------------------------
# perturbation channels

def test_perturb_zero_magnitude_is_identity():
    w = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(perturb_solution(w, 0.0, seed=1), w)


@pytest.mark.parametrize("magnitude", [1e-3, 0.1, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 10])
def test_perturb_shift_has_exact_magnitude(magnitude, dim):
    w = np.linspace(-1, 1, dim)
    shifted = perturb_solution(w, magnitude, seed=3)
    assert np.linalg.norm(shifted - w) == pytest.approx(magnitude, rel=1e-12, abs=1e-15)


def test_perturb_deterministic_per_seed():
    w = np.array([1.0, 0.0])
    a = perturb_solution(w, 0.1, seed=7)
    b = perturb_solution(w, 0.1, seed=7)
    c = perturb_solution(w, 0.1, seed=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_perturb_rejects_negative_magnitude():
    with pytest.raises(ConfigError):
        perturb_solution(np.ones(2), -0.1, seed=0)


def test_tomography_error_magnitudes():
    w = np.arange(4.0)
    exact = NoiseModel(regime="exact", measurements=5, seed=1)
    np.testing.assert_array_equal(tomography_estimate(w, exact), w)

    shot = NoiseModel(regime="shot_noise", measurements=100, seed=2)
    assert np.linalg.norm(tomography_estimate(w, shot) - w) == pytest.approx(0.1, rel=1e-12)

    heis = NoiseModel(regime="heisenberg", measurements=100, seed=3)
    assert np.linalg.norm(tomography_estimate(w, heis) - w) == pytest.approx(0.01, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 10_000), scale=st.floats(1e-3, 1e3))
def test_heisenberg_equals_shot_noise_at_squared_measurements(m, scale):
    heis = NoiseModel(regime="heisenberg", measurements=m, precision_scale=scale)
    shot = NoiseModel(regime="shot_noise", measurements=m * m, precision_scale=scale)
    assert heis.tomography_error() == shot.tomography_error()


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel(solver_error=-0.1)
    with pytest.raises(ConfigError):
        NoiseModel(regime="thermal")
    with pytest.raises(ConfigError):
        NoiseModel(measurements=0)
    with pytest.raises(ConfigError):
        NoiseModel(precision_scale=0.0)


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_noiseless_equals_exact_solver():
    problem = make_problem(6, 0.4, seed=1)
    ds = sample_dataset(problem, 100, seed=2)
    noiseless = NoiseModel(solver_error=0.0, regime="exact", seed=3)
    np.testing.assert_array_equal(
        quantum_ls_pipeline(ds, 0.1, noiseless).weights, exact_ls(ds, 0.1).weights
    )


def test_pipeline_is_exact_solve_then_both_channels():
    ds = sample_dataset(make_problem(6, 0.4, seed=1), 100, seed=2)
    noise = NoiseModel(solver_error=0.05, regime="heisenberg", measurements=9, seed=6)
    w = exact_ls(ds, 0.1).weights
    staged = tomography_estimate(perturb_solution(w, 0.05, seed=6), noise)
    np.testing.assert_array_equal(apply_channels(w, noise), staged)
    np.testing.assert_array_equal(quantum_ls_pipeline(ds, 0.1, noise).weights, staged)


def test_pipeline_empirical_risk_gap_within_lipschitz_bound():
    # solver error only (exact readout): the risk gap obeys the k*gamma bound
    problem = make_problem(10, 0.5, seed=8)
    ds = sample_dataset(problem, 1024, seed=9)
    gamma = 0.1
    exact = exact_ls(ds, 0.1)
    noisy = quantum_ls_pipeline(
        ds, 0.1, NoiseModel(solver_error=gamma, regime="exact", seed=10)
    )
    result = algorithmic_error_bound_check(ds, exact, noisy, gamma)
    assert result.holds
    assert result.gap > 0


def test_pipeline_prediction_error_bounded_by_total_shift():
    problem = make_problem(8, 0.5, seed=4)
    ds = sample_dataset(problem, 200, seed=5)
    noise = NoiseModel(solver_error=0.05, regime="shot_noise", measurements=400, seed=6)
    exact = exact_ls(ds, 0.1)
    noisy = quantum_ls_pipeline(ds, 0.1, noise)
    budget = noise.solver_error + noise.tomography_error()
    x = sample_dataset(problem, 1000, seed=7).features
    gap = np.abs(predict_batch(noisy, x) - predict_batch(exact, x))
    assert np.all(gap <= budget * np.linalg.norm(x, axis=1))


# ---------------------------------------------------------------------------
# algorithmic-error bound

def _bound_fixture(n=512, seed=0):
    problem = make_problem(10, 0.5, seed=seed)
    ds = sample_dataset(problem, n, seed=seed + 1)
    return ds, exact_ls(ds, n**-0.5)


def test_bound_check_zero_perturbation():
    ds, exact = _bound_fixture()
    result = algorithmic_error_bound_check(ds, exact, exact, 0.0)
    assert result.gap == 0.0
    assert result.holds


def test_bound_check_holds_for_random_perturbations():
    ds, exact = _bound_fixture()
    magnitude = 0.05
    for k in range(100):
        shifted = PrimalPredictor(
            perturb_solution(exact.weights, magnitude, seed=derive_seed(1, "perturb", k))
        )
        result = algorithmic_error_bound_check(ds, exact, shifted, magnitude)
        assert result.holds
        assert result.bound >= result.gap


def test_bound_check_max_gap_scales_linearly():
    ds, exact = _bound_fixture()
    magnitudes = [10.0**e for e in (-3.0, -2.5, -2.0, -1.5, -1.0)]
    max_gaps = []
    for gi, magnitude in enumerate(magnitudes):
        gaps = []
        for k in range(100):
            shifted = PrimalPredictor(
                perturb_solution(exact.weights, magnitude, seed=derive_seed(2, "slope", gi, k))
            )
            gaps.append(algorithmic_error_bound_check(ds, exact, shifted, magnitude).gap)
        max_gaps.append(max(gaps))
    fit = fit_scaling(zip(magnitudes, max_gaps))
    assert fit.exponent == pytest.approx(1.0, abs=0.1)


def test_bound_check_rejects_dual_predictors():
    from qlimits import krr

    ds, exact = _bound_fixture(n=50)
    dual = krr(ds, lam=0.1)
    with pytest.raises(ConfigError):
        algorithmic_error_bound_check(ds, dual, exact, 0.1)


# ---------------------------------------------------------------------------
# cost formulas

def test_log_error_cost_unit_case():
    model = CostModel(condition_number=1, frobenius_norm=1, n=2, solver_error=0.5)
    assert cost_log_error_solver(model) == pytest.approx(1.0, rel=1e-12)


def test_log_error_cost_worked_example():
    model = CostModel(condition_number=10, frobenius_norm=64.0, n=4096, solver_error=2.0**-6)
    assert cost_log_error_solver(model) == pytest.approx(159410.60898680665, rel=1e-12)


def test_log_error_cost_rejects_error_at_one():
    with pytest.raises(ConfigError):
        cost_log_error_solver(CostModel(solver_error=1.0))


def test_poly_error_cost_cases():
    assert cost_poly_error_solver(
        CostModel(condition_number=1, n=2, solver_error=0.5)
    ) == pytest.approx(8.0, rel=1e-12)
    assert cost_poly_error_solver(
        CostModel(condition_number=2, n=1024, solver_error=0.1)
    ) == pytest.approx(39999.99999999999, rel=1e-12)


def test_poly_error_cost_halving_error_costs_eight_times_more():
    for gamma in (0.4, 0.2, 0.05):
        a = cost_poly_error_solver(CostModel(condition_number=3, n=64, solver_error=gamma))
        b = cost_poly_error_solver(CostModel(condition_number=3, n=64, solver_error=gamma / 2))
        assert b / a == pytest.approx(8.0, rel=1e-12)


def test_matched_cost_cases():
    assert cost_matched_precision(
        CostModel(condition_number=1, n=2, error_exponent=3, condition_exponent=1)
    ) == pytest.approx(2.8284271247461903, rel=1e-12)
    assert cost_matched_precision(
        CostModel(condition_number=1, n=16, error_exponent=4, condition_exponent=1)
    ) == pytest.approx(1024.0, rel=1e-12)
    with pytest.raises(ConfigError):
        cost_matched_precision(CostModel(condition_number=1, n=4))


def test_matched_cost_equals_poly_cost_at_matched_error():
    # beta=3, c=2: pinning solver_error to n^(-1/2) reproduces the poly law
    rng = np.random.default_rng(0)
    for _ in range(10):
        kappa = float(rng.uniform(1, 50))
        n = int(rng.integers(4, 1_000_000))
        matched = cost_matched_precision(
            CostModel(condition_number=kappa, n=n, error_exponent=3, condition_exponent=2)
        )
        poly = cost_poly_error_solver(
            CostModel(condition_number=kappa, n=n, solver_error=float(n) ** -0.5)
        )
        assert matched == pytest.approx(poly, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    kappa=st.floats(1.0, 1e4),
    factor=st.floats(1.001, 10.0),
    gamma=st.floats(1e-6, 0.5),
    n=st.integers(2, 10**9),
)
def test_costs_increase_with_condition_number(kappa, factor, gamma, n):
    small = CostModel(condition_number=kappa, frobenius_norm=2.0, n=n, solver_error=gamma)
    large = CostModel(condition_number=kappa * factor, frobenius_norm=2.0, n=n, solver_error=gamma)
    assert cost_log_error_solver(large) > cost_log_error_solver(small)
    assert cost_poly_error_solver(large) > cost_poly_error_solver(small)


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(1e-6, 0.5),
    shrink=st.floats(0.01, 0.999),
    n=st.integers(2, 10**9),
)
def test_costs_increase_as_error_shrinks(gamma, shrink, n):
    # below gamma = 1/2 the floored log factor is active, so growth is strict
    loose = CostModel(condition_number=3.0, frobenius_norm=2.0, n=n, solver_error=gamma)
    tight = CostModel(
        condition_number=3.0, frobenius_norm=2.0, n=n, solver_error=gamma * shrink
    )
    assert cost_log_error_solver(tight) > cost_log_error_solver(loose)
    assert cost_poly_error_solver(tight) > cost_poly_error_solver(loose)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10**6), factor=st.integers(2, 100))
def test_matched_cost_increases_with_n(n, factor):
    small = CostModel(condition_number=2.0, n=n, error_exponent=3, condition_exponent=2)
    large = CostModel(condition_number=2.0, n=n * factor, error_exponent=3, condition_exponent=2)
    assert cost_matched_precision(large) > cost_matched_precision(small)


def test_cost_model_validation():
    with pytest.raises(ConfigError):
        CostModel(condition_number=0.5)
    with pytest.raises(ConfigError):
        CostModel(frobenius_norm=0.0)
    with pytest.raises(ConfigError):
        CostModel(solver_error=0.0)
    with pytest.raises(ConfigError):
        CostModel(n=0)


# ---------------------------------------------------------------------------
# measurement budgets

def test_required_measurements_cases():
    assert required_measurements(10_000, "heisenberg") == 100
    assert required_measurements(10_000, "shot_noise") == 10_000
    assert required_measurements(1, "heisenberg") == 1
    assert required_measurements(1, "shot_noise") == 1
    with pytest.raises(ConfigError):
        required_measurements(100, "exact")
    with pytest.raises(ConfigError):
        required_measurements(0, "heisenberg")


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**9))
def test_required_measurements_are_minimal(n):
    target = float(n) ** -0.5
    for regime in ("heisenberg", "shot_noise"):
        m = required_measurements(n, regime)
        assert NoiseModel(regime=regime, measurements=m).tomography_error() <= target * (1 + 1e-12)
        if m > 1:
            under = NoiseModel(regime=regime, measurements=m - 1)
            assert under.tomography_error() > target


# ---------------------------------------------------------------------------
# complexity ladder

EXPECTED_LADDER = {
    "svm_krr": (Fraction(3), Fraction(1), False, False),
    "krr_fast": (Fraction(2), Fraction(1), False, False),
    "divide_conquer": (Fraction(2), Fraction(1), False, False),
    "nystrom": (Fraction(2), Fraction(1, 2), False, False),
    "falkon": (Fraction(3, 2), Fraction(1, 2), False, False),
    "qkls_qklr": (Fraction(1, 2), Fraction(3, 2), True, True),
    "qsvm": (Fraction(3, 2), Fraction(5, 2), True, True),
}


def test_complexity_table_snapshot():
    table = complexity_table()
    assert len(table) == 7
    assert {e.algorithm for e in table} == set(EXPECTED_LADDER)
    for entry in table:
        train, test, quantum, retrains = EXPECTED_LADDER[entry.algorithm]
        assert entry.train_exponent == train
        assert entry.test_exponent == test
        assert entry.is_quantum == quantum
        assert entry.test_includes_retraining == retrains


def test_complexity_entry_lookup():
    entry = complexity_entry("qkls_qklr")
    assert entry.train_exponent == Fraction(1, 2)
    assert entry.test_exponent == Fraction(3, 2)
    assert entry.test_includes_retraining
    with pytest.raises(ConfigError):
        complexity_entry("perceptron")
