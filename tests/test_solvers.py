import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from qlimits import (
    ConfigError,
    Dataset,
    DivergenceError,
    Kernel,
    LINEAR_KERNEL,
    NumericalError,
    PrimalPredictor,
    SingularSystemError,
    SolverConfig,
    SyntheticProblem,
    divide_and_conquer,
    early_stopping_gd,
    empirical_risk,
    exact_ls,
    excess_risk,
    fit_solver,
    krr,
    linear_weights,
    nystrom,
    predict_batch,
    sample_dataset,
)
from qlimits import blas, solvers
from qlimits.errors import KernelNotPSDError
from qlimits.rng import child_rng, derive_seed
from qlimits.solvers import (
    PREDICT_BLOCK_ENTRIES,
    DualPredictor,
    check_kernel_psd,
    load_predictor,
    predictor_from_json,
    predictor_to_json,
    top_eigenvalue,
)
from qlimits.synth import INPUT_LAWS

GAUSS = Kernel("gaussian", bandwidth=1.0)


def _ds(features, labels):
    return Dataset(features=np.asarray(features, float), labels=np.asarray(labels, float))


def _random_ds(n, d, sigma=0.0, seed=0):
    problem = SyntheticProblem(d, sigma, seed=seed)
    return problem, sample_dataset(problem, n, seed=seed + 1)


# ---------------------------------------------------------------------------
# exact_ls

def test_exact_ls_identity_design():
    ds = _ds([[1.0, 0.0], [0.0, 1.0]], [2.0, -1.0])
    np.testing.assert_allclose(exact_ls(ds, 0.0).weights, [2.0, -1.0], atol=1e-12)
    # lam * n = 1 shrinks the identity system by (I + I)^-1
    np.testing.assert_allclose(exact_ls(ds, 0.5).weights, [1.0, -0.5], atol=1e-12)


def test_exact_ls_matches_direct_normal_equations():
    _, ds = _random_ds(50, 5, sigma=0.3, seed=2)
    lam = 1e-3
    # independent oracle: accumulate the normal equations point by point
    gram = np.zeros((5, 5))
    rhs = np.zeros(5)
    for x, y in zip(ds.features, ds.labels):
        gram += np.outer(x, x)
        rhs += y * x
    expected = np.linalg.solve(gram + lam * 50 * np.eye(5), rhs)
    np.testing.assert_allclose(exact_ls(ds, lam).weights, expected, atol=1e-8)


def test_exact_ls_residual_gate():
    for seed in range(5):
        _, ds = _random_ds(40, 6, sigma=0.5, seed=seed)
        lam = 0.01
        w = exact_ls(ds, lam).weights
        gram = ds.features.T @ ds.features + lam * 40 * np.eye(6)
        rhs = ds.features.T @ ds.labels
        assert np.linalg.norm(gram @ w - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_exact_ls_singular_system_raises():
    # two samples in three dimensions cannot pin down the weights at lam=0
    ds = _ds([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])
    with pytest.raises(SingularSystemError):
        exact_ls(ds, 0.0)
    # regularization restores solvability
    exact_ls(ds, 0.1)


def test_exact_ls_default_lam_schedule():
    problem, ds = _random_ds(64, 3, sigma=0.2, seed=3)
    np.testing.assert_allclose(
        exact_ls(ds).weights, exact_ls(ds, 64**-0.5).weights, atol=1e-14
    )


def test_ridge_shrinkage_monotone_in_lam():
    _, ds = _random_ds(60, 4, sigma=0.4, seed=4)
    norms = [np.linalg.norm(exact_ls(ds, lam).weights) for lam in (0.0, 0.01, 0.1, 1.0, 10.0)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# krr

def test_krr_scalar_hand_case():
    # single sample x=1, y=1, linear kernel, lam*n = 1: alpha = 1/2
    ds = _ds([[1.0]], [1.0])
    fitted = krr(ds, LINEAR_KERNEL, 1.0)
    np.testing.assert_allclose(fitted.coefficients, [0.5], atol=1e-14)
    assert predict_batch(fitted, np.array([[1.0]]))[0] == pytest.approx(0.5, abs=1e-14)


def test_krr_linear_kernel_equals_exact_ls():
    problem, ds = _random_ds(80, 5, sigma=0.3, seed=5)
    lam = 0.05
    primal = exact_ls(ds, lam)
    dual = krr(ds, LINEAR_KERNEL, lam)
    test_x = sample_dataset(problem, 100, seed=99).features
    np.testing.assert_allclose(
        predict_batch(dual, test_x), predict_batch(primal, test_x), atol=1e-8
    )


def test_krr_requires_positive_lam():
    _, ds = _random_ds(10, 2, seed=6)
    with pytest.raises(ConfigError):
        krr(ds, LINEAR_KERNEL, 0.0)


def test_krr_shrinks_with_lam():
    _, ds = _random_ds(40, 3, sigma=0.2, seed=7)
    norms = [
        np.linalg.norm(krr(ds, GAUSS, lam).coefficients) for lam in (0.01, 0.1, 1.0, 10.0)
    ]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    # large lam drives predictions toward zero
    heavy = krr(ds, GAUSS, 1e6)
    assert np.max(np.abs(predict_batch(heavy, ds.features))) < 1e-3


def test_check_kernel_psd():
    check_kernel_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(KernelNotPSDError):
        check_kernel_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gaussian_kernel_matrices_are_psd():
    rng = child_rng(8, "psd")
    for _ in range(5):
        pts = rng.standard_normal((30, 4))
        evals = np.linalg.eigvalsh(GAUSS.matrix(pts, pts))
        assert evals[0] >= -1e-8 * max(abs(evals[-1]), 1.0)


def test_kernel_validation():
    with pytest.raises(ConfigError):
        Kernel("gaussian")
    with pytest.raises(ConfigError):
        Kernel("gaussian", bandwidth=0.0)
    with pytest.raises(ConfigError):
        Kernel("linear", bandwidth=1.0)
    with pytest.raises(ConfigError):
        Kernel("polynomial")


# ---------------------------------------------------------------------------
# early stopping gradient descent

def test_gd_zero_iterations_returns_zero_predictor():
    _, ds = _random_ds(20, 3, seed=9)
    fitted = early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(max_iters=0))
    np.testing.assert_array_equal(fitted.weights, np.zeros(3))
    dual = early_stopping_gd(ds, GAUSS, SolverConfig(max_iters=0))
    np.testing.assert_array_equal(dual.coefficients, np.zeros(20))


def test_gd_single_step_is_scaled_gradient():
    # from zero, one step of size eta lands on eta * (2/n) * sum(y_i x_i)
    _, ds = _random_ds(30, 4, sigma=0.3, seed=10)
    eta = 0.05
    fitted = early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(step_size=eta, max_iters=1))
    expected = eta * (2.0 / 30) * (ds.features.T @ ds.labels)
    np.testing.assert_allclose(fitted.weights, expected, rtol=1e-12)


def test_gd_converges_to_least_squares():
    _, ds = _random_ds(200, 5, sigma=0.0, seed=11)
    fitted = early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(max_iters=10_000))
    target = exact_ls(ds, 0.0)
    np.testing.assert_allclose(fitted.weights, target.weights, atol=1e-6)
    np.testing.assert_allclose(
        predict_batch(fitted, ds.features), predict_batch(target, ds.features), atol=1e-6
    )


@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS])
def test_gd_risk_is_non_increasing(kernel):
    _, ds = _random_ds(40, 3, sigma=0.5, seed=12)
    risks = [
        empirical_risk(early_stopping_gd(ds, kernel, SolverConfig(max_iters=t)), ds)
        for t in range(0, 25)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(risks, risks[1:]))


def test_gd_divergence_detected():
    _, ds = _random_ds(50, 4, sigma=0.2, seed=13)
    curvature = 2.0 * np.linalg.eigvalsh(ds.features.T @ ds.features)[-1] / 50
    bad_step = 3.0 / curvature
    with pytest.raises(DivergenceError) as excinfo:
        early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(step_size=bad_step, max_iters=50))
    assert excinfo.value.step_size == pytest.approx(bad_step)


def _upper_product(k, v):
    """k @ v from k's upper triangle, by the dsymv call the solver makes:
    the lower triangle of the Fortran-ordered view k.T."""
    return scipy.linalg.blas.dsymv(1.0, k.T, v, lower=1)


def _power_iteration(matrix, seed, product):
    """``top_eigenvalue`` written out, with ``product(matrix, v)`` in every pass."""
    v = child_rng(seed, "power-iteration").standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(500):
        w = product(matrix, v)
        new_estimate = float(v @ w)
        v = w / np.linalg.norm(w)
        if abs(new_estimate - estimate) <= 1e-6 * abs(new_estimate):
            return new_estimate
        estimate = new_estimate
    return estimate


def _gd_separate_loops(ds, kernel, iters, seed=0):
    """Primal and dual gradient descent as two hand-written loops (auto step).
    The power iterations and the dual loop read one triangle, as the solver does."""
    n, a, y = ds.n_samples, ds.features, ds.labels
    if kernel.kind == "linear":
        step = 1.0 / (2.0 * _power_iteration(a.T @ a, seed, _upper_product) / n)
        w = np.zeros(ds.dimension)
        for _ in range(iters):
            w = w - step * (2.0 / n) * (a.T @ (a @ w - y))
        return w
    k = kernel.matrix(a, a)
    step = 1.0 / (2.0 * _power_iteration(k, seed, _upper_product) / n)
    alpha = np.zeros(n)
    for _ in range(iters):
        alpha = alpha - step * (2.0 / n) * (_upper_product(k, alpha) - y)
    return alpha


@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS])
def test_gd_matches_separate_primal_and_dual_loops_bit_for_bit(kernel):
    _, ds = _random_ds(60, 4, sigma=0.3, seed=15)
    fitted = early_stopping_gd(ds, kernel, SolverConfig(max_iters=12, seed=3))
    coef = fitted.weights if kernel.kind == "linear" else fitted.coefficients
    assert coef.tobytes() == _gd_separate_loops(ds, kernel, 12, seed=3).tobytes()


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_dual_gd_is_within_1e_12_of_the_full_product_loop(law):
    # a Gaussian K(x, x) is symmetric only up to its last bits, so reading one
    # triangle moves the coefficients by rounding alone
    problem = SyntheticProblem(10, 0.5, law)
    ds = sample_dataset(problem, 700, seed=4)
    n, y = ds.n_samples, ds.labels
    k = GAUSS.matrix(ds.features, ds.features)
    step = 1.0 / (2.0 * _power_iteration(k, 2, np.matmul) / n)
    alpha = np.zeros(n)
    for _ in range(27):  # ceil(sqrt(700))
        alpha = alpha - step * (2.0 / n) * (k @ alpha - y)
    fitted = early_stopping_gd(ds, GAUSS, SolverConfig(seed=2)).coefficients
    assert np.abs(fitted - alpha).max() <= 1e-12 * np.abs(alpha).max()


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_top_eigenvalue_of_a_gaussian_gram_matches_dense(law):
    points = sample_dataset(SyntheticProblem(10, 0.5, law), 300, seed=5).features
    k = GAUSS.matrix(points, points)
    top = top_eigenvalue(k, seed=1)
    assert top == pytest.approx(scipy.linalg.eigvalsh(k)[-1], rel=1e-4)
    assert top == _power_iteration(k, 1, _upper_product)


def test_gd_default_budget_is_sqrt_n():
    _, ds = _random_ds(100, 2, sigma=0.1, seed=14)
    default = early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(seed=0))
    explicit = early_stopping_gd(ds, LINEAR_KERNEL, SolverConfig(max_iters=10, seed=0))
    np.testing.assert_array_equal(default.weights, explicit.weights)


def test_top_eigenvalue_matches_dense():
    rng = child_rng(15, "eig")
    a = rng.standard_normal((30, 30))
    spd = a @ a.T
    assert top_eigenvalue(spd, seed=1) == pytest.approx(
        np.linalg.eigvalsh(spd)[-1], rel=1e-4
    )


# ---------------------------------------------------------------------------
# divide and conquer

def test_dnc_single_block_equals_krr():
    problem, ds = _random_ds(60, 4, sigma=0.3, seed=16)
    lam = 0.05
    merged = divide_and_conquer(ds, GAUSS, SolverConfig(lam=lam, partitions=1, seed=3))
    reference = krr(ds, GAUSS, lam)
    test_x = sample_dataset(problem, 50, seed=77).features
    np.testing.assert_allclose(
        predict_batch(merged, test_x), predict_batch(reference, test_x), atol=1e-10
    )


def test_dnc_per_sample_blocks_match_hand_formula():
    # p=n with lam*n_block=1 averages scalar ridge fits y_i x_i / (x_i^2 + 1)
    problem = SyntheticProblem(1, 0.2, input_law="gaussian_clipped", seed=17)
    ds = sample_dataset(problem, 12, seed=18)
    fitted = divide_and_conquer(ds, LINEAR_KERNEL, SolverConfig(lam=1.0, partitions=12, seed=4))
    x = ds.features[:, 0]
    slope = np.mean(ds.labels * x / (x**2 + 1.0))
    assert predict_batch(fitted, np.array([[1.7]]))[0] == pytest.approx(slope * 1.7, rel=1e-10)


def test_dnc_duplicated_blocks_equal_single_block():
    # construct a dataset whose two seeded blocks hold identical copies
    problem, base = _random_ds(15, 3, sigma=0.4, seed=19)
    seed = 5
    n2 = 2 * base.n_samples
    perm = child_rng(seed, "blocks").permutation(n2)
    features = np.empty((n2, 3))
    labels = np.empty(n2)
    for slot, position in enumerate(perm):
        features[position] = base.features[slot % 15]
        labels[position] = base.labels[slot % 15]
    doubled = Dataset(features=features, labels=labels)
    two = divide_and_conquer(doubled, LINEAR_KERNEL, SolverConfig(lam=0.1, partitions=2, seed=seed))
    one = divide_and_conquer(doubled, LINEAR_KERNEL, SolverConfig(lam=0.1, partitions=1, seed=seed))
    test_x = sample_dataset(problem, 40, seed=88).features
    np.testing.assert_allclose(
        predict_batch(two, test_x), predict_batch(one, test_x), atol=1e-10
    )


def test_dnc_rejects_too_many_partitions():
    _, ds = _random_ds(5, 2, seed=20)
    with pytest.raises(ConfigError):
        divide_and_conquer(ds, LINEAR_KERNEL, SolverConfig(partitions=6))


# ---------------------------------------------------------------------------
# nystrom

@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS])
def test_nystrom_full_landmarks_recover_krr(kernel):
    _, ds = _random_ds(50, 3, sigma=0.3, seed=21)
    lam = 0.05
    sub = nystrom(ds, kernel, SolverConfig(lam=lam, landmarks=50, seed=6))
    full = krr(ds, kernel, lam)
    np.testing.assert_allclose(
        predict_batch(sub, ds.features), predict_batch(full, ds.features), atol=1e-6
    )


def test_nystrom_single_landmark_hand_formula():
    # one landmark, linear kernel in 1d: prediction x * sum(x_i y_i) / (sum(x_i^2) + lam*n)
    problem = SyntheticProblem(1, 0.3, input_law="gaussian_clipped", seed=22)
    ds = sample_dataset(problem, 20, seed=23)
    lam = 0.1
    fitted = nystrom(ds, LINEAR_KERNEL, SolverConfig(lam=lam, landmarks=1, seed=7))
    x = ds.features[:, 0]
    slope = float(np.sum(x * ds.labels) / (np.sum(x**2) + lam * 20))
    assert predict_batch(fitted, np.array([[0.9]]))[0] == pytest.approx(slope * 0.9, rel=1e-10)


def test_nystrom_rank_deficient_at_zero_lam_raises():
    # 1-d data with 2 landmarks: reduced system has rank 1
    problem = SyntheticProblem(1, 0.2, seed=24)
    ds = sample_dataset(problem, 10, seed=25)
    with pytest.raises(SingularSystemError):
        nystrom(ds, LINEAR_KERNEL, SolverConfig(lam=0.0, landmarks=2, seed=8))


@pytest.mark.parametrize(
    "solver, kernel",
    [("nystrom", LINEAR_KERNEL), ("nystrom", GAUSS), ("exact_ls", LINEAR_KERNEL)],
    ids=["nystrom-linear", "nystrom-gaussian", "exact_ls-linear"],
)
def test_small_solve_that_fails_the_residual_gate_raises_naming_its_solver(solver, kernel, monkeypatch):
    # no fallback returns a solution that the gate did not pass
    def failing_gate(solve, m, rhs, context):
        raise NumericalError(f"{context}: residual gate failed")

    monkeypatch.setattr(solvers, "_gated", failing_gate)
    _, ds = _random_ds(40, 3, sigma=0.3, seed=27)
    with pytest.raises(NumericalError, match=solver):
        fit_solver(solver, ds, kernel, SolverConfig(lam=0.05, seed=9))


def _scipy_solve_spd(paths: list):
    """The small-system solve as it ran on scipy: cho_factor/cho_solve, or
    the eigh-clipped fallback where Cholesky breaks down, gated alike; each
    call appends the path it took to ``paths``."""
    def solve_spd(m, rhs, context):
        try:
            factor = scipy.linalg.cho_factor(m, check_finite=False)
            solve = lambda r: scipy.linalg.cho_solve(factor, r, check_finite=False)
            paths.append("cholesky")
        except scipy.linalg.LinAlgError:
            evals, vecs = scipy.linalg.eigh(m)
            evals = np.maximum(evals, solvers.EIG_FLOOR)
            solve = lambda r: vecs @ ((vecs.T @ r) / evals)
            paths.append("eig_clip")
        return solvers._gated(solve, lambda v: m @ v, rhs, context)
    return solve_spd


def _relative_gap(new, old):
    return float(np.linalg.norm(new - old) / np.linalg.norm(old))


@pytest.mark.parametrize("law", INPUT_LAWS)
@pytest.mark.parametrize("d", [1, 3, 10, 60])
def test_exact_ls_agrees_with_the_scipy_cholesky_solve(d, law, monkeypatch):
    problem = SyntheticProblem(d, 0.5, law, seed=d)
    ds = sample_dataset(problem, 256, seed=d + 1)  # full rank, so lam = 0 is solvable
    for lam in (0.0, 1e-10, None, 1e3):  # None is n^(-1/2)
        numpy_weights = exact_ls(ds, lam).weights
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_solve_spd", _scipy_solve_spd([]))
            scipy_weights = exact_ls(ds, lam).weights
        assert _relative_gap(numpy_weights, scipy_weights) <= 1e-12, lam


@pytest.mark.parametrize("law", INPUT_LAWS)
def test_linear_nystrom_agrees_with_the_scipy_solve_through_the_clipped_fallback(law, monkeypatch):
    # the squared m x m system is singular for m > d, so most of these fits take
    # the eigenvalue-clipped solve; coefficients along its null space are
    # rounding noise, so the predictors are compared through their weights
    problem = SyntheticProblem(10, 0.5, law, seed=0)
    paths = []
    for n in (64, 256, 1024, 4096):
        for trial in range(5):
            ds = sample_dataset(problem, n, derive_seed(0, "data", n, trial))
            config = SolverConfig(seed=trial)
            numpy_fit = nystrom(ds, LINEAR_KERNEL, config)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_solve_spd", _scipy_solve_spd(paths))
                scipy_fit = nystrom(ds, LINEAR_KERNEL, config)
            assert _relative_gap(linear_weights(numpy_fit), linear_weights(scipy_fit)) <= 1e-12, (n, trial)
    assert paths.count("eig_clip") >= 10  # of 20: the fallback is what this compares


def _patch_scipy_lapack(patch) -> None:
    """The n x n Cholesky and dsymv as they ran on scipy: cho_factor, cho_solve
    and scipy's dsymv in place of qlimits.blas's entry points. cho_factor
    overwrites the Fortran-ordered system in place, as ``cholesky_upper`` does."""
    patch.setattr(solvers, "cholesky_upper",
                  lambda k: scipy.linalg.cho_factor(k, overwrite_a=True, check_finite=False))
    patch.setattr(solvers, "cholesky_solve", lambda f, r: scipy.linalg.cho_solve(f, r, check_finite=False))
    patch.setattr(solvers, "lower_symmetric_product",
                  lambda a, x: scipy.linalg.blas.dsymv(1.0, a, x, lower=1))


def _coefficients(fit):
    return fit.weights if isinstance(fit, PrimalPredictor) else fit.coefficients


@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS], ids=["linear", "gaussian"])
@pytest.mark.parametrize("solver", ["krr", "early_stopping_gd", "divide_and_conquer"])
def test_kernel_solvers_agree_with_the_scipy_lapack_calls(solver, kernel, monkeypatch):
    problem = SyntheticProblem(10, 0.5, seed=3)
    for n in (64, 256, 1024, 2048):
        ds = sample_dataset(problem, n, derive_seed(0, "data", n))
        config = SolverConfig(partitions=4, seed=n)
        numpy_fit = fit_solver(solver, ds, kernel, config)
        with monkeypatch.context() as patch:
            _patch_scipy_lapack(patch)
            scipy_fit = fit_solver(solver, ds, kernel, config)
        assert _relative_gap(_coefficients(numpy_fit), _coefficients(scipy_fit)) <= 1e-12, n


def _negated(system):
    """The system negated in its own buffer: dpotrf breaks down at its first
    leading minor."""
    return blas.cholesky_upper(np.negative(system, out=system))


def _last_minor_broken(system):
    """The system with its last diagonal entry made negative: dpotrf
    overwrites every column before it, then breaks down at the last leading
    minor."""
    system[-1, -1] = -1.0
    return blas.cholesky_upper(system)


@pytest.mark.parametrize("solver, kernel", [("krr", GAUSS), ("exact_ls", LINEAR_KERNEL), ("nystrom", GAUSS)],
                         ids=["krr-gaussian", "exact_ls-linear", "nystrom-gaussian"])
def test_cholesky_breakdown_takes_the_clipped_eigen_solve(solver, kernel, monkeypatch):
    # the failed factor leaves its buffer overwritten (KRR's K, a small
    # system's Fortran copy), so the fallback must clip the system as it was
    # handed to the factor: KRR computes K again, a small system keeps it
    _, ds = _random_ds(80, 3, sigma=0.3, seed=5)
    config = SolverConfig(lam=0.01, landmarks=5, seed=4)
    expected = _coefficients(fit_solver(solver, ds, kernel, config))
    eig_clip_solver = solvers._eig_clip_solver
    for breaking in (_negated, _last_minor_broken):
        factored, clipped = [], []
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "cholesky_upper", lambda a: factored.append(a.copy()) or breaking(a))
            patch.setattr(solvers, "_eig_clip_solver", lambda m: clipped.append(m.copy()) or eig_clip_solver(m))
            fallback = _coefficients(fit_solver(solver, ds, kernel, config))  # passed the residual gate
        assert len(factored) == 1 and len(clipped) == 1, breaking.__name__
        assert np.array_equal(clipped[0], factored[0]), breaking.__name__
        assert _relative_gap(fallback, expected) <= 1e-10, breaking.__name__


@pytest.mark.parametrize("wrong", [0.5, math.nan], ids=["halved", "nan"])
@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS], ids=["linear", "gaussian"])
def test_krr_whose_solve_misses_the_gate_raises_naming_krr(kernel, wrong, monkeypatch):
    # the gate's product reads K from what the factor leaves; a wrong solve
    # still fails it, after its one refinement step, and a NaN residual
    # counts as a miss
    monkeypatch.setattr(solvers, "cholesky_solve", lambda factor, r: wrong * r)
    _, ds = _random_ds(200, 3, sigma=0.3, seed=6)
    with pytest.raises(NumericalError, match="krr: solve residual"):
        krr(ds, kernel)


def _oracle_krr_coefficients(features, labels, kernel, lam):
    """KRR's coefficients from a Fortran-ordered copy of K^T + lam*n*I, the
    system KRR's C-ordered buffer holds in its Fortran view: ``dpotrf('U')``
    and ``dpotrs`` on that copy, with no residual gate."""
    n = labels.shape[0]
    k = kernel.matrix(features, features)
    k.flat[:: n + 1] += lam * n
    return blas.cholesky_solve(blas.cholesky_upper(np.array(k.T, order="F")), labels)


@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS], ids=["linear", "gaussian"])
@pytest.mark.parametrize("law", INPUT_LAWS)
@pytest.mark.parametrize("d", [1, 3, 10, 64])
def test_krr_keeps_the_bytes_of_factoring_a_fortran_copy(d, law, kernel):
    problem = SyntheticProblem(d, 0.5, law, seed=d)
    for n in (1, 7, 255, 300, 1000, 2048):
        ds = sample_dataset(problem, n, derive_seed(1, "data", n))
        lam = n**-0.5
        expected = _oracle_krr_coefficients(ds.features, ds.labels, kernel, lam)
        assert krr(ds, kernel).coefficients.tobytes() == expected.tobytes(), n
        p = min(2, n)
        blocks = np.array_split(child_rng(n, "blocks").permutation(n), p)
        expected = np.concatenate([
            _oracle_krr_coefficients(ds.features[b], ds.labels[b], kernel, lam) / p for b in blocks
        ])
        fitted = divide_and_conquer(ds, kernel, SolverConfig(partitions=p, seed=n))
        assert fitted.coefficients.tobytes() == expected.tobytes(), n
        # the gate's product: K's strict upper triangle and saved diagonal, read
        # from the factored view with the diagonal restored after each call
        k = kernel.matrix(ds.features, ds.features)
        k.flat[:: n + 1] += lam * n
        system = k.copy().T
        diagonal = system.diagonal().copy()
        factor = blas.cholesky_upper(system).copy(order="F")
        v = child_rng(n, "gate-vector").standard_normal(n)
        product = solvers._factored_product(system, diagonal, v)
        assert product.tobytes() == blas.lower_symmetric_product(k.T, v).tobytes(), n
        assert np.linalg.norm(product - k @ v) <= 1e-14 * np.linalg.norm(k @ v), n
        assert system.tobytes("A") == factor.tobytes("A"), n


def test_krr_factors_the_lower_triangle_of_a_gaussian_k(monkeypatch):
    # a Gaussian K is symmetric only up to its last bits: the factor reads its
    # lower triangle, so a few ulps in the strict upper one (which only the
    # residual gate reads) leave the coefficients' bytes as they are
    _, ds = _random_ds(300, 3, sigma=0.3, seed=9)
    expected = krr(ds, GAUSS).coefficients.tobytes()
    matrix = Kernel.matrix
    for strict_triangle, unchanged in (("upper", True), ("lower", False)):
        def perturbed(self, a, b):
            k = matrix(self, a, b)
            rows, cols = np.triu_indices(k.shape[0], 1)
            if strict_triangle == "lower":
                rows, cols = cols, rows
            k[rows, cols] *= 1.0 + 4.0 * np.finfo(np.float64).eps
            return k

        with monkeypatch.context() as patch:
            patch.setattr(Kernel, "matrix", perturbed)
            coefficients = krr(ds, GAUSS).coefficients.tobytes()
        assert (coefficients == expected) is unchanged, strict_triangle


@pytest.mark.parametrize("kernel", [LINEAR_KERNEL, GAUSS], ids=["linear", "gaussian"])
def test_krr_holds_one_n_by_n_matrix(kernel):
    _, ds = _random_ds(1024, 3, sigma=0.3, seed=8)
    krr(ds, kernel)  # the first call also finds LAPACK
    assert _peak_bytes(lambda: krr(ds, kernel)) <= 1024 * 1024 * 8 + 2**20


def test_nystrom_rejects_too_many_landmarks():
    _, ds = _random_ds(5, 2, seed=26)
    with pytest.raises(ConfigError):
        nystrom(ds, LINEAR_KERNEL, SolverConfig(landmarks=6))


def test_nystrom_sqrt_landmarks_competitive_with_full_krr():
    # sqrt(n) landmarks should stay within a factor 2 of full KRR's excess risk
    problem = SyntheticProblem(10, 0.5, seed=0)
    kern = Kernel("gaussian", bandwidth=1.0)
    n = 2048
    lam = n**-0.5
    full_excess, sub_excess = [], []
    for trial in range(20):
        ds = sample_dataset(problem, n, seed=derive_seed(3, "nys-data", trial))
        eval_seed = derive_seed(3, "nys-eval", trial)
        full = krr(ds, kern, lam)
        sub = nystrom(ds, kern, SolverConfig(lam=lam, landmarks=46, seed=trial))
        full_excess.append(excess_risk(full, problem, n_eval=4000, seed=eval_seed))
        sub_excess.append(excess_risk(sub, problem, n_eval=4000, seed=eval_seed))
    assert np.median(sub_excess) <= 2.0 * np.median(full_excess)


# ---------------------------------------------------------------------------
# prediction and serialization

def test_predict_hand_cases():
    primal = PrimalPredictor(np.array([1.0, 2.0]))
    assert predict_batch(primal, np.array([[3.0, 4.0], [1.0, -0.5]])).tolist() == [11.0, 0.0]
    zero_dual = DualPredictor(
        coefficients=np.zeros(2), landmarks=np.eye(2), kernel=LINEAR_KERNEL
    )
    assert predict_batch(zero_dual, np.array([[5.0, 6.0]])).tolist() == [0.0]
    dual = DualPredictor(
        coefficients=np.array([1.0]), landmarks=np.array([[2.0, 0.0]]), kernel=LINEAR_KERNEL
    )
    assert predict_batch(dual, np.array([[3.0, 0.0], [-1.0, 7.0]])).tolist() == [6.0, -2.0]


def _whole_gaussian(x, landmarks, coefficients, bandwidth):
    """The reference prediction: the unblocked product over cdist's kernel."""
    return np.exp(-cdist(x, landmarks, "sqeuclidean") / (2.0 * bandwidth**2)) @ coefficients


def _points(rng, rows, dim=10):
    return rng.standard_normal((rows, dim)) / np.sqrt(dim)


PREDICTION_LANDMARKS = [1, 7, 257, 2048]
PREDICTION_ROWS = [1, 63, 64, 65, 129, 640, 4001]


@pytest.mark.parametrize("n_landmarks", PREDICTION_LANDMARKS)
@pytest.mark.parametrize("rows", PREDICTION_ROWS)
def test_blocked_prediction_equals_the_whole_kernel_product(rows, n_landmarks):
    rng = child_rng(rows * 10_000 + n_landmarks, "blocked-prediction")
    x, landmarks = _points(rng, rows), _points(rng, n_landmarks)
    coefficients = rng.standard_normal(n_landmarks)
    # kernel entries are within 1e-14 of cdist's, so predictions are within 1e-14 sum|c|
    tolerance = 1e-14 * np.abs(coefficients).sum()
    for bandwidth in (0.7, 1.0, 1.5):
        dual = DualPredictor(coefficients, landmarks, Kernel("gaussian", bandwidth=bandwidth))
        error = np.abs(predict_batch(dual, x) - _whole_gaussian(x, landmarks, coefficients, bandwidth))
        assert error.max() <= tolerance
    # 640 x 257 is a shape where row blocks would change the linear gemm's last bits
    linear = DualPredictor(coefficients, landmarks, LINEAR_KERNEL)
    assert np.array_equal(predict_batch(linear, x), (x @ landmarks.T) @ coefficients)


@pytest.mark.parametrize("n_landmarks", PREDICTION_LANDMARKS)
@pytest.mark.parametrize("rows", PREDICTION_ROWS)
def test_prediction_from_prepared_landmarks_is_bit_identical(rows, n_landmarks):
    rng = child_rng(rows * 10_000 + n_landmarks, "prepared-landmarks")
    x, landmarks = _points(rng, rows), _points(rng, n_landmarks)
    coefficients = rng.standard_normal(n_landmarks)
    block = max(PREDICT_BLOCK_ENTRIES // n_landmarks, 1)
    for bandwidth in (0.7, 1.0, 1.5):
        kernel = Kernel("gaussian", bandwidth=bandwidth)
        prepared = kernel._prepare(landmarks)
        assert kernel.matrix(x, prepared).tobytes() == kernel.matrix(x, landmarks).tobytes()
        per_block = np.concatenate([
            kernel.matrix(x[i:i + block], landmarks) @ coefficients for i in range(0, rows, block)
        ])
        blocked = predict_batch(DualPredictor(coefficients, landmarks, kernel), x)
        assert blocked.tobytes() == per_block.tobytes()


@pytest.mark.parametrize("bandwidth", [0.3, 0.7, 1.3, 2.9, 10.0 / 3.0])
def test_gaussian_matrix_is_within_1e_14_of_cdist(bandwidth):
    kernel = Kernel("gaussian", bandwidth=bandwidth)
    reference = lambda a, b: np.exp(-cdist(a, b, "sqeuclidean") / (2.0 * bandwidth**2))
    for law in INPUT_LAWS:
        problem = SyntheticProblem(10, 0.5, law)
        a = sample_dataset(problem, 300, seed=1).features
        b = sample_dataset(problem, 200, seed=2).features
        # a far offset cancels catastrophically unless the inputs are centred first
        for left, right in ((a, b), (a + 1e3, b + 1e3)):
            k = kernel.matrix(left, right)
            assert np.abs(k - reference(left, right)).max() <= 1e-14
            assert k.min() >= 0.0 and k.max() <= 1.0
        # at coincident points the exponent's error is a few ulps of |a|^2 / (2 h^2)
        k = kernel.matrix(a, a)
        scale = max(1.0, np.max(np.sum(a * a, axis=1)) / (2.0 * bandwidth**2))
        assert np.abs(k - reference(a, a)).max() <= 1e-14 * scale
        assert k.min() >= 0.0 and k.max() <= 1.0


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_blocked_prediction_peaks_under_4_mb_beyond_its_output():
    rng = child_rng(0, "prediction-memory")
    x, landmarks = _points(rng, 4000), _points(rng, 2048)
    dual = DualPredictor(rng.standard_normal(2048), landmarks, GAUSS)
    output_bytes = 4000 * 8
    assert _peak_bytes(lambda: predict_batch(dual, x)) - output_bytes < 4 * 2**20


def test_gaussian_matrix_allocates_one_full_size_array():
    rng = child_rng(1, "prediction-memory")
    a = _points(rng, 2048)
    full = 2048 * 2048 * 8
    assert full <= _peak_bytes(lambda: GAUSS.matrix(a, a)) < 1.5 * full


def test_predict_dimension_mismatch():
    from qlimits import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        predict_batch(PrimalPredictor(np.array([1.0, 2.0])), np.array([[1.0, 2.0, 3.0]]))


def test_predictor_json_roundtrip():
    primal = PrimalPredictor(np.array([1.5, -2.25]))
    back = predictor_from_json(predictor_to_json(primal))
    np.testing.assert_array_equal(back.weights, primal.weights)

    dual = DualPredictor(
        coefficients=np.array([0.5, -0.125]),
        landmarks=np.array([[1.0, 2.0], [3.0, 4.0]]),
        kernel=GAUSS,
    )
    back = predictor_from_json(predictor_to_json(dual))
    np.testing.assert_array_equal(back.coefficients, dual.coefficients)
    np.testing.assert_array_equal(back.landmarks, dual.landmarks)
    assert back.kernel == dual.kernel

    with pytest.raises(ConfigError):
        predictor_from_json({"form": "sparse"})
    with pytest.raises(ConfigError):
        predictor_from_json({"form": "primal", "weights": [1.0], "bias": 0.5})
    dual_json = predictor_to_json(dual)
    for bad, field in (
        ({"form": "primal"}, "weights"),
        ({"form": "primal", "weights": ["a"]}, "weights"),
        ({"form": "primal", "weights": [[1.0], [2.0, 3.0]]}, "weights"),
        ({k: v for k, v in dual_json.items() if k != "kernel"}, "kernel"),
        ({**dual_json, "landmarks": "x"}, "landmarks"),
        ({**dual_json, "kernel": {"kind": "gaussian", "bandwidth": "1"}}, "bandwidth"),
        ({**dual_json, "kernel": ["gaussian"]}, "kernel"),
        # a float array would take these as 1.0, 0.0 and 1.5
        ({"form": "primal", "weights": [True, False]}, "weights"),
        ({"form": "primal", "weights": ["1.5", "2"]}, "weights"),
        ({**dual_json, "coefficients": [0.5, True]}, "coefficients"),
        ({**dual_json, "landmarks": [[1.0, "2"], [3.0, 4.0]]}, "landmarks"),
    ):
        with pytest.raises(ConfigError, match=field):
            predictor_from_json(bad)


@pytest.mark.parametrize("content", [b"{\"form\": ", b"\xff\xfe{}"], ids=["invalid_json", "not_utf8"])
def test_predictor_file_that_is_not_utf8_json_is_a_config_error(tmp_path, content):
    path = tmp_path / "bad.pred.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match="bad.pred.json"):
        load_predictor(path)


def test_dual_predictor_files_that_omit_a_null_bandwidth_still_load(tmp_path):
    # a linear dual predictor file written before its kernel block was spelled as in configs
    path = tmp_path / "old.pred.json"
    path.write_text(json.dumps({
        "form": "dual", "coefficients": [0.5], "landmarks": [[1.0, 2.0]], "kernel": {"kind": "linear"}
    }))
    predictor = load_predictor(path)
    assert predictor.kernel == LINEAR_KERNEL
    assert predictor_to_json(predictor)["kernel"] == {"kind": "linear", "bandwidth": None}


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        SolverConfig(step_size=0.0)
    with pytest.raises(ConfigError):
        SolverConfig(partitions=0)
    with pytest.raises(ConfigError):
        SolverConfig(landmarks=0)
