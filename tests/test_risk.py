import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qlimits
from qlimits import (
    LINEAR_KERNEL,
    ConfigError,
    Dataset,
    DimensionMismatchError,
    DualPredictor,
    Kernel,
    NoiseModel,
    PrimalPredictor,
    RiskEstimate,
    apply_channels,
    empirical_risk,
    exact_ls,
    excess_risk,
    excess_risks,
    expected_risk_mc,
    expected_risks_mc,
    generalization_gap,
    input_second_moment,
    krr,
    make_problem,
    pairwise_sum,
    sample_dataset,
    stable_mean,
)
from qlimits.synth import INPUT_LAWS


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


def test_expected_risks_mc_equals_one_estimate_per_predictor():
    problem = make_problem(3, 0.5, seed=20)
    predictors = [PrimalPredictor(problem.target_weights * s) for s in (0.0, 0.5, 1.0)]
    together = expected_risks_mc(predictors, problem, n_eval=5000, seed=21)
    assert together == tuple(expected_risk_mc(p, problem, n_eval=5000, seed=21) for p in predictors)
    with pytest.raises(DimensionMismatchError):
        expected_risks_mc([predictors[0], PrimalPredictor(np.zeros(2))], problem, n_eval=100)


def test_risk_estimate_json_roundtrip():
    est = RiskEstimate(value=0.25, std_error=0.001, n_eval=1000)
    assert RiskEstimate.from_json(est.to_json()) == est
    with pytest.raises(ConfigError):
        RiskEstimate.from_json({"value": 1.0, "std_error": 0.0, "n_eval": 2, "extra": 1})


def test_expected_risk_mc_validation():
    problem = make_problem(2, 0.1)
    with pytest.raises(ConfigError):
        expected_risk_mc(PrimalPredictor(np.zeros(2)), problem, n_eval=1)


# ---------------------------------------------------------------------------
# closed-form excess risk

def _clipped_gaussian_moment_by_quadrature(d: int) -> float:
    """E|x|^2 / d for x ~ N(0, I_d) clipped to radius 3 sqrt(d), from the
    chi-square density: E min(|x|^2, R^2) / d."""
    log_norm = (d / 2) * math.log(2.0) + math.lgamma(d / 2)
    density = lambda t: math.exp((d / 2 - 1) * math.log(t) - t / 2 - log_norm)
    r2 = 9.0 * d
    inside = quad(lambda t: t * density(t), 0, r2, epsabs=1e-14, epsrel=1e-13)[0]
    outside = quad(density, r2, np.inf, epsabs=1e-16, epsrel=1e-13)[0]
    return (inside + r2 * outside) / d


@pytest.mark.parametrize("law", INPUT_LAWS)
@pytest.mark.parametrize("d", [3, 10])
def test_input_second_moment_matches_a_direct_draw(law, d):
    problem = make_problem(d, 0.0, law, seed=40)
    moment = input_second_moment(problem)
    scaled = np.sum(sample_dataset(problem, 200_000, seed=41).features ** 2, axis=1) / d
    budget = 4 * scaled.std(ddof=1) / math.sqrt(scaled.size) + 1e-12
    assert abs(moment - scaled.mean()) <= budget
    oracle = 1.0 / d if law == "unit_sphere_uniform" else _clipped_gaussian_moment_by_quadrature(d)
    assert moment == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_closed_form_agrees_with_monte_carlo(law):
    problem = make_problem(10, 0.5, law, seed=30)
    data = sample_dataset(problem, 64, seed=31)
    exact = exact_ls(data)
    noise = NoiseModel(solver_error=0.05, regime="heisenberg", measurements=4, seed=32)
    predictors = (exact, krr(data, LINEAR_KERNEL), PrimalPredictor(apply_channels(exact.weights, noise)))
    assert isinstance(predictors[1], DualPredictor)
    closed = excess_risks(predictors, problem, n_eval=100_000, seed=33)
    mc = expected_risks_mc(predictors, problem, n_eval=100_000, seed=33)
    for (value, zero), estimate in zip(closed, mc):
        assert zero == 0.0 and value > 0 and estimate.std_error > 0
        assert abs(value - (estimate.value - problem.bayes_risk)) <= 4 * estimate.std_error
    # the noisy arm's excess is the exact arm's plus the injected shift's
    assert closed[2][0] > closed[0][0]


def test_excess_risks_monte_carlo_path_is_the_old_estimate():
    problem = make_problem(3, 0.5, seed=20)
    data = sample_dataset(problem, 16, seed=22)
    linear = (PrimalPredictor(problem.target_weights * 0.5), exact_ls(data))
    gaussian = krr(data, Kernel("gaussian", 1.0))
    estimates = expected_risks_mc(linear + (gaussian,), problem, n_eval=5000, seed=21)
    scored = [(e.value - problem.bayes_risk, e.std_error) for e in estimates]
    # one Gaussian-kernel predictor sends the whole call to Monte Carlo
    assert excess_risks(linear + (gaussian,), problem, 5000, 21) == tuple(scored)
    closed = excess_risks(linear, problem, 5000, 21)
    assert closed[0][0] == pytest.approx(0.25 / 3, rel=1e-15)  # |w - w*|^2 = 1/4, s = 1/d
    assert closed[0][1] == 0.0
    assert closed == excess_risks(linear, problem, 2, 99)  # n_eval and seed unread
    # excess_risk is the one-predictor case, on either path
    for predictor, (value, _) in zip(linear + (gaussian,), closed + (scored[2],)):
        assert excess_risk(predictor, problem, 5000, 21) == value


def test_excess_risks_checks_dimensions_on_both_paths():
    problem = make_problem(3, 0.5, seed=20)
    wrong = PrimalPredictor(np.zeros(2))
    gaussian = krr(sample_dataset(problem, 8, seed=22), Kernel("gaussian", 1.0))
    for predictors in ((wrong,), (gaussian, wrong)):
        with pytest.raises(DimensionMismatchError):
            excess_risks(predictors, problem, 100, 0)


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone costs about as much to import as the whole package
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlimits.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qlimits; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
