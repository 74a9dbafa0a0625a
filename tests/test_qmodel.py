import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlimits import (
    ConfigError,
    NoiseSchedule,
    PrimalPredictor,
    SyntheticProblem,
    algorithmic_error_bound_check,
    apply_channels,
    complexity_table,
    cost_log_error_solver,
    cost_matched_precision,
    cost_poly_error_solver,
    exact_ls,
    fit_scaling,
    perturb_solution,
    predict_batch,
    quantum_ls_pipeline,
    required_measurements,
    sample_dataset,
    tomography_estimate,
)
from qlimits import qmodel
from qlimits.rng import derive_seed


# ---------------------------------------------------------------------------
# perturbation channels

def test_perturb_zero_magnitude_is_identity(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a zero shift drew a direction")

    monkeypatch.setattr(qmodel, "unit_vector", no_draw)
    w = np.array([1.0, -2.0, 0.5])
    for channel in (perturb_solution, tomography_estimate):
        shifted = channel(w, 0.0, seed=1)
        np.testing.assert_array_equal(shifted, w)
        shifted[0] = 9.0  # a new array, not the caller's
        assert w[0] == 1.0


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
    with pytest.raises(ConfigError):
        tomography_estimate(np.ones(2), -0.1, seed=0)


def test_tomography_error_magnitudes():
    w = np.arange(4.0)
    exact = NoiseSchedule(regime="exact", m_value=5)
    np.testing.assert_array_equal(tomography_estimate(w, exact.tau_at(1), seed=1), w)

    shot = NoiseSchedule(regime="shot_noise", m_value=100)
    shifted = tomography_estimate(w, shot.tau_at(1), seed=2)
    assert np.linalg.norm(shifted - w) == pytest.approx(0.1, rel=1e-12)

    heis = NoiseSchedule(regime="heisenberg", m_value=100)
    shifted = tomography_estimate(w, heis.tau_at(1), seed=3)
    assert np.linalg.norm(shifted - w) == pytest.approx(0.01, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 10_000), scale=st.floats(1e-3, 1e3))
def test_heisenberg_equals_shot_noise_at_squared_measurements(m, scale):
    heis = NoiseSchedule(regime="heisenberg", m_value=m, precision_scale=scale)
    shot = NoiseSchedule(regime="shot_noise", m_value=m * m, precision_scale=scale)
    assert heis.tau_at(1) == shot.tau_at(1)


def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseSchedule(gamma_value=-0.1)
    with pytest.raises(ConfigError):
        NoiseSchedule(regime="thermal")
    with pytest.raises(ConfigError):
        NoiseSchedule(m_value=0)
    with pytest.raises(ConfigError):
        NoiseSchedule(precision_scale=0.0)


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_noiseless_equals_exact_solver():
    problem = SyntheticProblem(6, 0.4, seed=1)
    ds = sample_dataset(problem, 100, seed=2)
    noiseless = NoiseSchedule(regime="exact", gamma_value=0.0)
    np.testing.assert_array_equal(
        quantum_ls_pipeline(ds, 0.1, noiseless, seed=3).weights, exact_ls(ds, 0.1).weights
    )


def test_pipeline_is_exact_solve_then_both_channels():
    ds = sample_dataset(SyntheticProblem(6, 0.4, seed=1), 100, seed=2)
    noise = NoiseSchedule(regime="heisenberg", gamma_value=0.05, m_value=9)
    w = exact_ls(ds, 0.1).weights
    staged = tomography_estimate(perturb_solution(w, 0.05, seed=6), 1 / 9, seed=6)
    np.testing.assert_array_equal(apply_channels(w, noise, ds.n_samples, 6), staged)
    np.testing.assert_array_equal(quantum_ls_pipeline(ds, 0.1, noise, seed=6).weights, staged)


def test_pipeline_empirical_risk_gap_within_lipschitz_bound():
    # solver error only (exact readout): the risk gap obeys the k*gamma bound
    problem = SyntheticProblem(10, 0.5, seed=8)
    ds = sample_dataset(problem, 1024, seed=9)
    gamma = 0.1
    exact = exact_ls(ds, 0.1)
    noisy = quantum_ls_pipeline(ds, 0.1, NoiseSchedule(regime="exact", gamma_value=gamma), seed=10)
    result = algorithmic_error_bound_check(ds, exact, noisy, gamma)
    assert result.holds
    assert result.gap > 0


def test_pipeline_prediction_error_bounded_by_total_shift():
    problem = SyntheticProblem(8, 0.5, seed=4)
    ds = sample_dataset(problem, 200, seed=5)
    noise = NoiseSchedule(regime="shot_noise", gamma_value=0.05, m_value=400)
    exact = exact_ls(ds, 0.1)
    noisy = quantum_ls_pipeline(ds, 0.1, noise, seed=6)
    budget = noise.gamma_at(ds.n_samples) + noise.tau_at(ds.n_samples)
    x = sample_dataset(problem, 1000, seed=7).features
    gap = np.abs(predict_batch(noisy, x) - predict_batch(exact, x))
    assert np.all(gap <= budget * np.linalg.norm(x, axis=1))


# ---------------------------------------------------------------------------
# algorithmic-error bound

def _bound_fixture(n=512, seed=0):
    problem = SyntheticProblem(10, 0.5, seed=seed)
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
    assert cost_log_error_solver(kappa=1, frobenius=1, n=2, gamma=0.5) == pytest.approx(
        1.0, rel=1e-12
    )


def test_log_error_cost_worked_example():
    cost = cost_log_error_solver(kappa=10, frobenius=64.0, n=4096, gamma=2.0**-6)
    assert cost == pytest.approx(159410.60898680665, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**20 + 1])
def test_log_error_cost_of_sqrt_n_frobenius_is_the_explicit_sqrt(n):
    sqrt_n = cost_log_error_solver(2.5, "sqrt_n", n, 0.1)
    assert sqrt_n.hex() == cost_log_error_solver(2.5, math.sqrt(n), n, 0.1).hex()


def test_log_error_cost_rejects_error_at_one():
    with pytest.raises(ConfigError):
        cost_log_error_solver(kappa=1.0, frobenius=1.0, n=2, gamma=1.0)


def test_poly_error_cost_cases():
    assert cost_poly_error_solver(kappa=1, n=2, gamma=0.5) == pytest.approx(8.0, rel=1e-12)
    assert cost_poly_error_solver(kappa=2, n=1024, gamma=0.1) == pytest.approx(
        39999.99999999999, rel=1e-12
    )


def test_poly_error_cost_halving_error_costs_eight_times_more():
    for gamma in (0.4, 0.2, 0.05):
        a = cost_poly_error_solver(kappa=3, n=64, gamma=gamma)
        b = cost_poly_error_solver(kappa=3, n=64, gamma=gamma / 2)
        assert b / a == pytest.approx(8.0, rel=1e-12)


def test_matched_cost_cases():
    assert cost_matched_precision(kappa=1, n=2, beta=3, c=1) == pytest.approx(
        2.8284271247461903, rel=1e-12
    )
    assert cost_matched_precision(kappa=1, n=16, beta=4, c=1) == pytest.approx(1024.0, rel=1e-12)
    with pytest.raises(ConfigError):
        cost_matched_precision(kappa=1, n=4, beta=None, c=None)


def test_matched_cost_equals_poly_cost_at_matched_error():
    # beta=3, c=2: pinning gamma to n^(-1/2) reproduces the poly law
    rng = np.random.default_rng(0)
    for _ in range(10):
        kappa = float(rng.uniform(1, 50))
        n = int(rng.integers(4, 1_000_000))
        matched = cost_matched_precision(kappa=kappa, n=n, beta=3, c=2)
        poly = cost_poly_error_solver(kappa=kappa, n=n, gamma=float(n) ** -0.5)
        assert matched == pytest.approx(poly, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    kappa=st.floats(1.0, 1e4),
    factor=st.floats(1.001, 10.0),
    gamma=st.floats(1e-6, 0.5),
    n=st.integers(2, 10**9),
)
def test_costs_increase_with_kappa(kappa, factor, gamma, n):
    large = kappa * factor
    assert cost_log_error_solver(large, 2.0, n, gamma) > cost_log_error_solver(kappa, 2.0, n, gamma)
    assert cost_poly_error_solver(large, n, gamma) > cost_poly_error_solver(kappa, n, gamma)


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(1e-6, 0.5),
    shrink=st.floats(0.01, 0.999),
    n=st.integers(2, 10**9),
)
def test_costs_increase_as_error_shrinks(gamma, shrink, n):
    # below gamma = 1/2 the floored log factor is active, so growth is strict
    tight = gamma * shrink
    assert cost_log_error_solver(3.0, 2.0, n, tight) > cost_log_error_solver(3.0, 2.0, n, gamma)
    assert cost_poly_error_solver(3.0, n, tight) > cost_poly_error_solver(3.0, n, gamma)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10**6), factor=st.integers(2, 100))
def test_matched_cost_increases_with_n(n, factor):
    assert cost_matched_precision(2.0, n * factor, 3, 2) > cost_matched_precision(2.0, n, 3, 2)


def test_cost_formula_validation():
    valid = {"kappa": 1.0, "frobenius": 1.0, "n": 2, "gamma": 0.5, "beta": 3.0, "c": 1.0}
    bad = [("kappa", 0.5), ("frobenius", 0.0), ("gamma", 0.0), ("n", 0), ("gamma", 1.0),
           ("beta", 0.0), ("c", 0.0),
           # each input is a number of its type, and a bool is none
           ("kappa", True), ("frobenius", "1"), ("gamma", None), ("n", 2.5), ("n", True),
           ("beta", True), ("c", math.nan)]
    for formula in (cost_log_error_solver, cost_poly_error_solver, cost_matched_precision):
        names = inspect.signature(formula).parameters
        inputs = {name: valid[name] for name in names}
        assert formula(**inputs) > 0
        for name, value in bad:
            if name in names:
                with pytest.raises(ConfigError, match=f"`{name}`"):
                    formula(**{**inputs, name: value})


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
        assert NoiseSchedule(regime=regime, m_value=m).tau_at(n) <= target * (1 + 1e-12)
        if m > 1:
            under = NoiseSchedule(regime=regime, m_value=m - 1)
            assert under.tau_at(n) > target


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
