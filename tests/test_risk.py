import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qlimits import (
    ConfigError,
    Dataset,
    DimensionMismatchError,
    PrimalPredictor,
    RiskEstimate,
    empirical_risk,
    excess_risk,
    expected_risk_mc,
    generalization_gap,
    make_problem,
    pairwise_sum,
    sample_dataset,
    stable_mean,
)


def _ds(features, labels):
    return Dataset(features=np.asarray(features, float), labels=np.asarray(labels, float))


def test_empirical_risk_hand_cases():
    w = PrimalPredictor(np.array([1.0, 0.0]))
    assert empirical_risk(w, _ds([[1.0, 0.0]], [1.0])) == 0.0
    assert empirical_risk(w, _ds([[2.0, 0.0]], [1.0])) == 1.0
    # two residuals of 1 each: (1-0)^2 and (1-2)^2, average 1
    w2 = PrimalPredictor(np.array([1.0, 1.0]))
    assert empirical_risk(w2, _ds([[1.0, 0.0], [0.0, 1.0]], [0.0, 2.0])) == 1.0


def test_empirical_risk_zero_iff_perfect_fit():
    w = PrimalPredictor(np.array([2.0, -1.0]))
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    exact = _ds(x, x @ w.weights)
    assert empirical_risk(w, exact) == 0.0
    off = _ds(x, x @ w.weights + np.array([0.0, 1e-8, 0.0]))
    assert empirical_risk(w, off) > 0.0


def test_dimension_mismatch_rejected():
    w = PrimalPredictor(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatchError):
        empirical_risk(w, _ds([[1.0, 2.0]], [0.0]))


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(0)
    for size in (1, 2, 3, 17, 1000):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3, size)
        assert pairwise_sum(values) == pytest.approx(math.fsum(values), rel=1e-13, abs=1e-13)
    assert pairwise_sum(np.array([])) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64),
    perm_seed=st.integers(0, 2**16),
)
def test_stable_mean_is_permutation_invariant(values, perm_seed):
    arr = np.asarray(values)
    perm = np.random.default_rng(perm_seed).permutation(len(arr))
    assert stable_mean(arr) == stable_mean(arr[perm])


def test_empirical_risk_permutation_invariant_exactly():
    problem = make_problem(5, 0.5, seed=1)
    ds = sample_dataset(problem, 257, seed=2)
    w = PrimalPredictor(problem.target_weights * 0.9)
    base = empirical_risk(w, ds)
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(ds.n_samples)
        shuffled = Dataset(features=ds.features[perm], labels=ds.labels[perm])
        assert empirical_risk(w, shuffled) == base


def test_sphere_second_moment_oracle():
    # E[(w.x)^2] for x uniform on the unit sphere should equal |w|^2 / d.
    # d=2: quadrature over the circle. d=3: quadrature over the polar angle.
    w = np.array([0.8, -0.6])
    circle = quad(lambda t: (w[0] * np.cos(t) + w[1] * np.sin(t)) ** 2 / (2 * np.pi), 0, 2 * np.pi)[0]
    assert circle == pytest.approx(np.dot(w, w) / 2, rel=1e-10)
    polar = quad(lambda t: np.cos(t) ** 2 * np.sin(t) / 2, 0, np.pi)[0]
    assert polar == pytest.approx(1.0 / 3.0, rel=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_zero_predictor_risk_matches_sphere_moment(d):
    # against the quadrature-verified identity E[(w*.x)^2] = 1/d
    problem = make_problem(d, 0.0, seed=3)
    zero = PrimalPredictor(np.zeros(d))
    estimate = expected_risk_mc(zero, problem, n_eval=100_000, seed=4)
    budget = max(4 * estimate.std_error, 1e-12)
    assert abs(estimate.value - 1.0 / d) <= budget


def test_bayes_predictor_risk_within_mc_error():
    problem = make_problem(10, 0.5, seed=5)
    bayes = PrimalPredictor(problem.target_weights)
    estimate = expected_risk_mc(bayes, problem, n_eval=100_000, seed=6)
    assert abs(estimate.value - 0.25) <= 4 * estimate.std_error
    assert estimate.std_error > 0


def test_bayes_risk_coverage_over_seeds():
    # 4 std-error interval should cover the Bayes risk in >= 95% of reps
    problem = make_problem(6, 0.5, seed=7)
    bayes = PrimalPredictor(problem.target_weights)
    hits = 0
    for seed in range(40):
        est = expected_risk_mc(bayes, problem, n_eval=20_000, seed=seed)
        hits += abs(est.value - 0.25) <= 4 * est.std_error
    assert hits >= 38


def test_excess_risk_cases():
    noiseless = make_problem(3, 0.0, seed=8)
    bayes = PrimalPredictor(noiseless.target_weights)
    assert excess_risk(bayes, noiseless, n_eval=1000, seed=1) == 0.0

    # d=1 sphere inputs are exactly +-1, so the zero predictor's risk is exactly 1
    line = make_problem(1, 0.0, seed=9)
    zero = PrimalPredictor(np.zeros(1))
    assert excess_risk(zero, line, n_eval=1000, seed=2) == pytest.approx(1.0, abs=1e-12)


def test_excess_risk_never_far_below_zero():
    problem = make_problem(4, 0.5, seed=10)
    bayes = PrimalPredictor(problem.target_weights)
    for seed in range(20):
        est = expected_risk_mc(bayes, problem, n_eval=5000, seed=seed)
        assert est.value - problem.bayes_risk >= -4 * est.std_error


def test_generalization_gap_zero_for_perfect_noiseless_fit():
    problem = make_problem(3, 0.0, seed=11)
    train = sample_dataset(problem, 50, seed=12)
    bayes = PrimalPredictor(problem.target_weights)
    assert generalization_gap(bayes, train, problem, n_eval=1000, seed=13) == 0.0


def test_generalization_gap_single_point_identity():
    problem = make_problem(1, 0.5, seed=14)
    train = sample_dataset(problem, 1, seed=15)
    w = PrimalPredictor(np.array([0.3]))
    residual_sq = float((train.features[0] @ w.weights - train.labels[0]) ** 2)
    mc = expected_risk_mc(w, problem, n_eval=2000, seed=16)
    gap = generalization_gap(w, train, problem, n_eval=2000, seed=16)
    assert gap == pytest.approx(abs(residual_sq - mc.value), abs=1e-15)


def test_generalization_gap_shrinks_with_n():
    problem = make_problem(5, 0.5, seed=17)
    w = PrimalPredictor(problem.target_weights * 0.7)
    medians = []
    for n in (100, 1000, 10_000):
        gaps = [
            generalization_gap(
                w,
                sample_dataset(problem, n, seed=100 * n + t),
                problem,
                n_eval=20_000,
                seed=t,
            )
            for t in range(20)
        ]
        medians.append(np.median(gaps))
    assert medians[0] > medians[1] > medians[2]


def test_std_error_is_sample_std_over_sqrt_n():
    problem = make_problem(3, 0.5, seed=20)
    w = PrimalPredictor(problem.target_weights * 0.5)
    est = expected_risk_mc(w, problem, n_eval=5000, seed=21)
    fresh = sample_dataset(problem, 5000, seed=21)
    losses = (fresh.features @ w.weights - fresh.labels) ** 2
    assert est.std_error == pytest.approx(np.std(losses, ddof=1) / np.sqrt(5000), rel=1e-10)
    assert est.value == pytest.approx(losses.mean(), rel=1e-12)


def test_risk_estimate_json_roundtrip():
    est = RiskEstimate(value=0.25, std_error=0.001, n_eval=1000)
    assert RiskEstimate.from_json(est.to_json()) == est
    with pytest.raises(ConfigError):
        RiskEstimate.from_json({"value": 1.0, "std_error": 0.0, "n_eval": 2, "extra": 1})


def test_expected_risk_mc_validation():
    problem = make_problem(2, 0.1)
    with pytest.raises(ConfigError):
        expected_risk_mc(PrimalPredictor(np.zeros(2)), problem, n_eval=1)
