import json
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
import risk_oracles as oracle
from qlimits import (
    LINEAR_KERNEL,
    ConfigError,
    Dataset,
    DimensionMismatchError,
    DualPredictor,
    Kernel,
    NoiseSchedule,
    PrimalPredictor,
    SolverConfig,
    SyntheticProblem,
    apply_channels,
    empirical_risk,
    exact_ls,
    excess_risk,
    excess_risks,
    expected_risk_mc,
    fit_solver,
    input_second_moment,
    krr,
    pairwise_sum,
    predict_batch,
    sample_dataset,
    stable_mean,
)
from qlimits.synth import INPUT_LAWS

GAUSSIAN = Kernel("gaussian", 1.0)


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
    problem = SyntheticProblem(5, 0.5, seed=1)
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
    # a Gaussian-kernel predictor with no weight is scored on a sample, against
    # the exact E[(w*.x)^2] = 1/d; at d = 1 every loss is 1, with standard error 0
    problem = SyntheticProblem(d, 0.5, seed=3)
    zero = DualPredictor(np.zeros(1), np.zeros((1, d)), GAUSSIAN)
    exact = oracle.sphere_excess_risk(zero, problem.target_weights)
    assert exact == pytest.approx(1.0 / d, rel=1e-15)
    ((value, std_error),) = excess_risks((zero,), problem, n_eval=100_000, seed=4)
    assert abs(value - exact) <= max(4 * std_error, 1e-12)


def test_bayes_predictor_risk_within_mc_error():
    problem = SyntheticProblem(10, 0.5, seed=5)
    bayes = PrimalPredictor(problem.target_weights)
    value, std_error = expected_risk_mc(bayes, problem, n_eval=100_000, seed=6)
    assert abs(value - 0.25) <= 4 * std_error
    assert std_error > 0


def test_bayes_risk_coverage_over_seeds():
    # 4 std-error interval should cover the Bayes risk in >= 95% of reps
    problem = SyntheticProblem(6, 0.5, seed=7)
    bayes = PrimalPredictor(problem.target_weights)
    hits = 0
    for seed in range(40):
        value, std_error = expected_risk_mc(bayes, problem, n_eval=20_000, seed=seed)
        hits += abs(value - 0.25) <= 4 * std_error
    assert hits >= 38


def test_excess_risk_cases():
    noiseless = SyntheticProblem(3, 0.0, seed=8)
    bayes = PrimalPredictor(noiseless.target_weights)
    assert excess_risk(bayes, noiseless, n_eval=1000, seed=1) == 0.0

    # d=1 sphere inputs are exactly +-1, so the zero predictor's risk is exactly 1
    line = SyntheticProblem(1, 0.0, seed=9)
    zero = PrimalPredictor(np.zeros(1))
    assert excess_risk(zero, line, n_eval=1000, seed=2) == pytest.approx(1.0, abs=1e-12)


def test_excess_risk_never_far_below_zero():
    # the sampled estimate at 20 evaluation seeds, each within 4 standard
    # errors of the exact excess risk, which is positive
    problem = SyntheticProblem(4, 0.5, seed=10)
    gaussian = krr(sample_dataset(problem, 128, seed=11), GAUSSIAN)
    exact = oracle.sphere_excess_risk(gaussian, problem.target_weights)
    assert exact > 0
    for seed in range(20):
        ((value, std_error),) = excess_risks((gaussian,), problem, n_eval=5000, seed=seed)
        assert abs(value - exact) <= 4 * std_error


def test_std_error_is_sample_std_over_sqrt_n():
    problem = SyntheticProblem(3, 0.5, seed=20)
    w = PrimalPredictor(problem.target_weights * 0.5)
    value, std_error = expected_risk_mc(w, problem, n_eval=5000, seed=21)
    fresh = sample_dataset(problem, 5000, seed=21)
    losses = (fresh.features @ w.weights - fresh.labels) ** 2
    assert std_error == pytest.approx(np.std(losses, ddof=1) / np.sqrt(5000), rel=1e-10)
    assert value == pytest.approx(losses.mean(), rel=1e-12)


def test_excess_risks_equals_one_estimate_per_predictor():
    # a Gaussian-kernel predictor sends the call to its sampled path, where
    # each predictor's estimate does not depend on the others in the call
    problem = SyntheticProblem(3, 0.5, seed=20)
    gaussian = krr(sample_dataset(problem, 16, seed=22), GAUSSIAN)
    predictors = [PrimalPredictor(problem.target_weights * s) for s in (0.0, 0.5)] + [gaussian]
    together = excess_risks(predictors, problem, n_eval=5000, seed=21)
    assert together == tuple(excess_risks((p, gaussian), problem, 5000, 21)[0] for p in predictors)


def test_expected_risk_mc_validation():
    problem = SyntheticProblem(2, 0.1)
    with pytest.raises(ConfigError):
        expected_risk_mc(PrimalPredictor(np.zeros(2)), problem, n_eval=1)
    with pytest.raises(DimensionMismatchError):
        expected_risk_mc(PrimalPredictor(np.zeros(3)), problem, n_eval=100)


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
    problem = SyntheticProblem(d, 0.0, law, seed=40)
    moment = input_second_moment(problem)
    scaled = np.sum(sample_dataset(problem, 200_000, seed=41).features ** 2, axis=1) / d
    budget = 4 * scaled.std(ddof=1) / math.sqrt(scaled.size) + 1e-12
    assert abs(moment - scaled.mean()) <= budget
    oracle = 1.0 / d if law == "unit_sphere_uniform" else _clipped_gaussian_moment_by_quadrature(d)
    assert moment == pytest.approx(oracle, rel=1e-10)


def test_clipped_second_moment_gives_the_bits_of_scipys_incomplete_gamma_form():
    from scipy.special import gammainc, gammaincc  # the oracle; qlimits imports no scipy

    for d in range(1, 601):
        problem = SyntheticProblem(d, 0.1, "gaussian_clipped", seed=d)
        r2 = problem.input_radius**2
        oracle = float(gammainc((d + 2) / 2, r2 / 2) + (r2 / d) * gammaincc(d / 2, r2 / 2))
        moment = input_second_moment(problem)
        if d == 1:  # the one d whose last bit differs
            assert abs(moment - oracle) <= math.ulp(oracle), (moment.hex(), oracle.hex())
        else:
            assert moment.hex() == oracle.hex(), d


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_closed_form_agrees_with_monte_carlo(law):
    # on the sphere against the exact |w - w*|^2 / d; on clipped inputs
    # against a mean over 1e5 inputs that numpy draws here
    problem = SyntheticProblem(10, 0.5, law, seed=30)
    data = sample_dataset(problem, 64, seed=31)
    exact = exact_ls(data)
    noise = NoiseSchedule(regime="heisenberg", gamma_value=0.05, m_value=4)
    noisy = PrimalPredictor(apply_channels(exact.weights, noise, data.n_samples, 32))
    predictors = (exact, krr(data, LINEAR_KERNEL), noisy)
    assert isinstance(predictors[1], DualPredictor)
    closed = excess_risks(predictors, problem, n_eval=100_000, seed=33)
    for predictor, (value, zero) in zip(predictors, closed):
        assert zero == 0.0 and value > 0
        if law == "unit_sphere_uniform":
            assert value == pytest.approx(oracle.sphere_excess_risk(predictor, problem.target_weights),
                                          rel=1e-12)
        else:
            drawn, std_error = oracle.drawn_excess_risk(predictor, problem, 100_000, seed=33)
            assert std_error > 0 and abs(value - drawn) <= 4 * std_error
    # the noisy arm's excess is the exact arm's plus the injected shift's
    assert closed[2][0] > closed[0][0]


def _mean_and_std_error(residuals: np.ndarray) -> tuple[float, float]:
    """The mean squared residual and its standard error, summed as the scorer sums."""
    losses = np.sort(residuals**2)
    value = pairwise_sum(losses) / losses.size
    variance = pairwise_sum(np.sort((losses - value) ** 2)) / (losses.size - 1)
    return value, math.sqrt(variance / losses.size)


def test_excess_risks_monte_carlo_path_is_the_old_estimate():
    # the sampled path is the mean of squared distances to the clean target
    # x.w*; without label noise it is the noisy-label estimate's bits, as the
    # last test below checks
    problem = SyntheticProblem(3, 0.5, seed=20)
    data = sample_dataset(problem, 16, seed=22)
    linear = (PrimalPredictor(problem.target_weights * 0.5), exact_ls(data))
    gaussian = krr(data, GAUSSIAN)
    fresh = sample_dataset(problem, 5000, seed=21)
    clean = fresh.features @ problem.target_weights
    scored = [_mean_and_std_error(predict_batch(p, fresh.features) - clean) for p in linear + (gaussian,)]
    # one Gaussian-kernel predictor sends the whole call to Monte Carlo
    assert excess_risks(linear + (gaussian,), problem, 5000, 21) == tuple(scored)
    closed = excess_risks(linear, problem, 5000, 21)
    assert closed[0][0] == pytest.approx(0.25 / 3, rel=1e-15)  # |w - w*|^2 = 1/4, s = 1/d
    assert closed[0][1] == 0.0
    assert closed == excess_risks(linear, problem, 2, 99)  # n_eval and seed unread
    # excess_risk is the one-predictor case, on either path
    for predictor, (value, _) in zip(linear + (gaussian,), closed + (scored[2],)):
        assert excess_risk(predictor, problem, 5000, 21) == value


def test_excess_risks_calls_a_seed_function_only_when_it_draws():
    problem = SyntheticProblem(3, 0.5, seed=20)
    data = sample_dataset(problem, 16, seed=22)
    linear, gaussian = exact_ls(data), krr(data, Kernel("gaussian", 1.0))
    calls = []

    def seed():
        calls.append(None)
        return 21

    assert excess_risks((linear,), problem, 500, seed) == excess_risks((linear,), problem, 500, 21)
    assert calls == []
    pair = (linear, gaussian)
    assert excess_risks(pair, problem, 500, seed) == excess_risks(pair, problem, 500, 21)
    assert len(calls) == 1


KERNEL_SOLVERS = ("krr", "early_stopping_gd", "divide_and_conquer", "nystrom")


@pytest.mark.parametrize("law", INPUT_LAWS)
@pytest.mark.parametrize("d", [10, 1])
def test_clean_target_estimate_agrees_with_the_oracle(d, law):
    # the four kernel solvers, on the kernel workload's problem at d = 10 and
    # at d = 1, scored on one sample as a sweep cell scores them; the
    # reference is exact on the sphere and a mean over 1e5 inputs that numpy
    # draws here on clipped inputs
    problem = SyntheticProblem(d, 0.5, law, seed=0)
    data = sample_dataset(problem, 128, seed=1000)
    predictors = [
        fit_solver(solver, data, GAUSSIAN, SolverConfig(partitions=4 if solver == "divide_and_conquer" else 1))
        for solver in KERNEL_SOLVERS
    ]
    scored = excess_risks(predictors, problem, n_eval=20_000, seed=2000)
    for solver, predictor, (value, std_error) in zip(KERNEL_SOLVERS, predictors, scored):
        if law == "unit_sphere_uniform":
            reference, reference_error = oracle.sphere_excess_risk(predictor, problem.target_weights), 0.0
        else:
            reference, reference_error = oracle.drawn_excess_risk(predictor, problem, 100_000, seed=3000)
        assert value > 0 and std_error > 0
        z = (value - reference) / math.hypot(std_error, reference_error)
        assert abs(z) <= 4, (solver, z)


def test_clean_target_estimate_has_the_smaller_standard_error_on_the_sphere():
    # label noise adds about 2 sigma^4 to each noisy loss's variance
    problem = SyntheticProblem(10, 0.5, seed=54)
    gaussian = krr(sample_dataset(problem, 512, seed=55), GAUSSIAN)
    ((_, std_error),) = excess_risks((gaussian,), problem, n_eval=4000, seed=56)
    fresh = sample_dataset(problem, 4000, seed=56)
    _, noisy_std_error = _mean_and_std_error(predict_batch(gaussian, fresh.features) - fresh.labels)
    assert std_error < noisy_std_error / 4


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_without_label_noise_both_estimators_give_the_same_bits(law):
    problem = SyntheticProblem(10, 0.0, law, seed=57)
    gaussian = krr(sample_dataset(problem, 128, seed=58), GAUSSIAN)
    fresh = sample_dataset(problem, 3000, seed=59)
    scored = _mean_and_std_error(predict_batch(gaussian, fresh.features) - fresh.labels)
    assert expected_risk_mc(gaussian, problem, n_eval=3000, seed=59) == scored
    assert excess_risks((gaussian,), problem, 3000, 59) == (scored,)


def _quadrature_at_d3(predictor, target: np.ndarray, nodes: int = 400, angles: int = 800) -> float:
    """E[(f(x) - target.x)^2] over the unit sphere in R^3: Gauss-Legendre in
    x_3 = t (density 1/2 on [-1, 1]) times the uniform angle rule in phi."""
    t, weights = np.polynomial.legendre.leggauss(nodes)
    phi = 2 * np.pi * np.arange(angles) / angles
    rings = []
    for t_k, weight in zip(t, weights):
        s = math.sqrt(1.0 - t_k * t_k)
        x = np.stack([s * np.cos(phi), s * np.sin(phi), np.full(angles, t_k)], axis=1)
        rings.append(weight / 2 * np.mean((oracle.predictions(predictor, x) - x @ target) ** 2))
    return math.fsum(rings)


@pytest.mark.parametrize("bandwidth", [0.5, 2.0])
def test_sphere_oracle_agrees_with_quadrature_at_d3(bandwidth):
    rng = np.random.default_rng(60)
    predictor = DualPredictor(rng.standard_normal(10), 0.8 * rng.standard_normal((10, 3)),
                              Kernel("gaussian", bandwidth))
    target = rng.standard_normal(3)
    exact = oracle.sphere_excess_risk(predictor, target)
    assert exact == pytest.approx(_quadrature_at_d3(predictor, target), rel=1e-12)


@pytest.mark.parametrize("bandwidth", [0.5, 2.0])
def test_sphere_oracle_agrees_with_the_two_point_mean_at_d1(bandwidth):
    # the unit sphere in R^1 is {-1, 1}
    rng = np.random.default_rng(61)
    predictor = DualPredictor(rng.standard_normal(6), rng.standard_normal((6, 1)), Kernel("gaussian", bandwidth))
    target = np.array([-1.0])
    f_plus, f_minus = oracle.predictions(predictor, np.array([[1.0], [-1.0]]))
    two_point = ((f_plus - target[0]) ** 2 + (f_minus + target[0]) ** 2) / 2
    assert oracle.sphere_excess_risk(predictor, target) == pytest.approx(two_point, rel=1e-12)


def test_excess_risks_checks_dimensions_on_both_paths():
    problem = SyntheticProblem(3, 0.5, seed=20)
    wrong = PrimalPredictor(np.zeros(2))
    gaussian = krr(sample_dataset(problem, 8, seed=22), Kernel("gaussian", 1.0))
    for predictors in ((wrong,), (gaussian, wrong)):
        with pytest.raises(DimensionMismatchError):
            excess_risks(predictors, problem, 100, 0)


_NO_SCIPY_PROBE = """
import json, sys
import numpy as np
import qlimits
from qlimits import cli

UNLOADED = ("scipy", "multiprocessing", "concurrent.futures.process", "numpy.ma")

def unloaded_modules():
    return sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in UNLOADED))

loaded = {"import qlimits": unloaded_modules()}
a = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
kernel_hex = qlimits.Kernel("gaussian", 0.7).matrix(a, a[::-1]).tobytes().hex()
loaded["Kernel.matrix"] = unloaded_modules()
config_dir = sys.argv[1]
for run in sys.argv[2:]:  # named <command>[-<what>], configured in <run>.json
    assert cli.main([run.split("-")[0], "--config", f"{config_dir}/{run}.json"]) == 0, run
    loaded[run] = unloaded_modules()
print(json.dumps({"loaded": loaded, "kernel_hex": kernel_hex}))
"""

_GAUSSIAN_KERNEL = {"kind": "gaussian", "bandwidth": 1.0}
_CLIPPED = {"dimension": 3, "seed": 1, "input_law": "gaussian_clipped"}


def _run_in_a_fresh_python(code: str, tmp_path, configs: dict) -> tuple[dict, dict]:
    """Write each run's config, with its outputs in ``tmp_path``, then run
    ``code`` on them in a new interpreter; return the JSON object on the last
    line of its stdout and the output files of every run."""
    outputs = {}
    for run, config in configs.items():
        command = run.split("-")[0]
        if command in ("cost", "generate"):
            out = {"out": str(tmp_path / f"{run}.csv")}
        elif command == "fit":
            out = {"out_predictor": str(tmp_path / f"{run}.pred.json"),
                   "out_report": str(tmp_path / f"{run}.report.json")}
        else:
            out = {"out_csv": str(tmp_path / f"{run}.csv"), "out_json": str(tmp_path / f"{run}.out.json")}
        outputs[run] = [tmp_path / path for path in out.values()]
        (tmp_path / f"{run}.json").write_text(json.dumps({**config, **out}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(qlimits.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *configs],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), outputs


def test_import_loads_no_scipy(tmp_path):
    # import scipy.linalg alone is about half of a kernel run's start-up, a
    # process pool's machinery (multiprocessing, socket, subprocess, logging)
    # about 1.8 MB of a serial sweep's peak, and numpy.ma (which np.median and
    # np.percentile load, and scipy loads too) about 0.75 MB; these runs call
    # none of them, so they must not load any of it. The kernel solvers'
    # Cholesky and dsymv run in numpy's own BLAS (qlimits.blas), and a linear
    # predictor's closed-form risk on clipped inputs takes its moment from math.
    gaussian = {"n_grid": [16, 32, 64], "trials": 2, "workers": 1, "solver": "nystrom",
                "kernel": _GAUSSIAN_KERNEL, "n_eval": 64}
    linear = {"n_grid": [16, 32, 64], "trials": 2, "workers": 1}
    configs = {
        "cost": {"algorithm": "poly_error", "kappa": 2.0, "gamma": 0.1, "n": [64, 256]},
        "generate": {"problem": {"dimension": 3, "seed": 1}, "n": 32},
        "bench": {"solver_ids": ["exact_ls"], "n_grid": [16, 32, 64], "reps": 1, "timer_window": 0.001},
        "bench-krr": {"solver_ids": ["krr"], "n_grid": [16, 32, 64], "reps": 1, "timer_window": 0.001},
        "fit-krr": {"dataset": str(tmp_path / "generate.csv"), "solver": "krr", "kernel": _GAUSSIAN_KERNEL},
        "fit-linearclipped": {"dataset": str(tmp_path / "generate.csv"), "solver": "exact_ls",
                              "problem": _CLIPPED},
        "sweep-linear": linear,
        "sweep-linearclipped": {**linear, "problem": {"input_law": "gaussian_clipped"}},
        "sweep-nystrom": gaussian,
        "sweep-nystromclipped": {**gaussian, "problem": {"input_law": "gaussian_clipped"}},
        "sweep-krr": {**gaussian, "solver": "krr"},
        "sweep-gd": {**gaussian, "solver": "early_stopping_gd"},
        "sweep-dnc": {**gaussian, "solver": "divide_and_conquer", "solver_config": {"partitions": 2}},
    }
    probe, _ = _run_in_a_fresh_python(_NO_SCIPY_PROBE, tmp_path, configs)
    assert probe["loaded"] == {step: [] for step in ("import qlimits", "Kernel.matrix", *configs)}
    # a Gaussian kernel gives the bytes it gives in this process
    a = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    assert probe["kernel_hex"] == Kernel("gaussian", 0.7).matrix(a, a[::-1]).tobytes().hex()


_WITHOUT_SCIPY_PROBE = """
import importlib.abc, json, sys

class NotInstalled(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
sys.meta_path.insert(0, NotInstalled())
from qlimits import cli
config_dir = sys.argv[1]
print(json.dumps({run: cli.main([run.split("-")[0], "--config", f"{config_dir}/{run}.json"])
                  for run in sys.argv[2:]}))
"""


def test_every_command_runs_where_scipy_is_not_installed(tmp_path):
    linear_clipped = {"n_grid": [16, 32, 64], "trials": 2, "workers": 1, "problem": _CLIPPED}
    configs = {
        "generate": {"problem": _CLIPPED, "n": 32},
        "cost": {"algorithm": "poly_error", "kappa": 2.0, "gamma": 0.1, "n": [64, 256]},
        "bench": {"solver_ids": ["exact_ls"], "n_grid": [16, 32, 64], "reps": 1, "timer_window": 0.001},
        "fit-linearclipped": {"dataset": str(tmp_path / "generate.csv"), "solver": "exact_ls",
                              "problem": _CLIPPED},
        "fit-krr": {"dataset": str(tmp_path / "generate.csv"), "solver": "krr",
                    "kernel": _GAUSSIAN_KERNEL, "problem": _CLIPPED, "n_eval": 64},
        "sweep-rate": linear_clipped,
        "sweep-measurement": {**linear_clipped, "mode": "measurement"},
    }
    exits, outputs = _run_in_a_fresh_python(_WITHOUT_SCIPY_PROBE, tmp_path, configs)
    assert exits == {run: 0 for run in configs}
    for run, files in outputs.items():
        for path in files:
            assert path.stat().st_size > 0, (run, path.name)
