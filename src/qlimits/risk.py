"""Squared-loss empirical risk, expected risk and excess risk.

Excess risk is ``E[(f(x) - w*.x)^2]``, the risk above the Bayes risk: the
label noise is independent and zero-mean, so it adds exactly the noise
variance to the risk of every predictor. ``excess_risks`` and
``excess_risk`` estimate that one quantity for every predictor. A linear
predictor ``w`` has it in closed form: every input law here is isotropic
with ``E[x x^T] = s I``, so it is exactly ``s |w - w*|^2``
(``input_second_moment`` gives ``s``). A Gaussian-kernel predictor is scored
by the mean of ``(f(x) - x.w*)^2`` over a fresh sample, against the clean
target, so the label noise adds nothing to its standard error.
``expected_risk_mc`` estimates the risk itself, on noisy labels, as a
``(risk, standard error)`` pair; no command calls it.

Risk averages and the closed form's sum of squares use a fixed summation
scheme (sort ascending, then pairwise tree sum) so they are exactly
invariant under permutation of the data and reproducible across platforms.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, integer
from .solvers import Predictor, PrimalPredictor, predict_batch
from .synth import Dataset, SyntheticProblem, sample_dataset

def pairwise_sum(values: np.ndarray) -> float:
    """Tree summation: pad with zeros to a power of two, fold halves."""
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        return 0.0
    size = 1 << (a.size - 1).bit_length()
    if size != a.size:
        a = np.concatenate([a, np.zeros(size - a.size)])
    while a.size > 1:
        a = a[0::2] + a[1::2]
    return float(a[0])


def stable_mean(values: np.ndarray) -> float:
    """Permutation-invariant mean: sort ascending, then pairwise sum."""
    a = np.asarray(values, dtype=np.float64).ravel()
    if a.size == 0:
        raise ConfigError("mean of empty array")
    return pairwise_sum(np.sort(a)) / a.size


def _check_dims(predictor: Predictor, dimension: int) -> None:
    if predictor.dimension != dimension:
        raise DimensionMismatchError(
            f"predictor dimension {predictor.dimension} != data dimension {dimension}"
        )


def _squared_errors(predictor: Predictor, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    diff = predict_batch(predictor, features) - targets
    return diff * diff


def _mean_and_std_error(values: np.ndarray) -> tuple[float, float]:
    """Mean of ``values`` (at least two, one per evaluation point) and its
    standard error, each sum taken ascending by ``pairwise_sum``."""
    values = np.sort(values)
    mean = pairwise_sum(values) / values.size
    variance = pairwise_sum(np.sort((values - mean) ** 2)) / (values.size - 1)
    return mean, float(np.sqrt(variance / values.size))


def empirical_risk(predictor: Predictor, dataset: Dataset) -> float:
    """Average squared loss over the dataset; deterministic and permutation-invariant."""
    _check_dims(predictor, dataset.dimension)
    return stable_mean(_squared_errors(predictor, dataset.features, dataset.labels))


def expected_risk_mc(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """Unbiased estimate of the risk on noisy labels, on a fresh sample of
    ``n_eval`` points, and its standard error; it includes the Bayes risk."""
    _check_dims(predictor, problem.dimension)
    fresh = sample_dataset(problem, integer("n_eval", n_eval, 2), seed)
    return _mean_and_std_error(_squared_errors(predictor, fresh.features, fresh.labels))


def _upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) at an integer or half-integer
    ``a > 0``: the finite sum of ``e^-x x^j / Gamma(j + 1)`` over j = a - 1,
    a - 2, ... down to 0 or 1/2, plus ``erfc(sqrt x)`` at a half-integer. Each
    term is the last times ``x / j``, so none overflows."""
    j = a % 1.0
    term = math.exp(-x) * x**j / math.gamma(j + 1)
    total = math.erfc(math.sqrt(x)) if j else 0.0
    while j < a:
        total += term
        j += 1
        term *= x / j
    return total


def input_second_moment(problem: SyntheticProblem) -> float:
    """``s`` with ``E[x x^T] = s I`` under the problem's input law.

    Uniform on the unit sphere: ``s = 1/d``. Standard Gaussian clipped to
    radius R: ``E|x|^2 = d P(chi2_{d+2} <= R^2) + R^2 P(chi2_d > R^2)``,
    divided by d; at R^2 = 9d it is within 1e-5 of 1 for d >= 3.
    """
    d = problem.dimension
    if problem.input_law == "unit_sphere_uniform":
        return 1.0 / d
    r2 = problem.input_radius**2
    # P(chi2_k > y) = Q(k/2, y/2)
    return 1.0 - _upper_gamma((d + 2) / 2, r2 / 2) + (r2 / d) * _upper_gamma(d / 2, r2 / 2)


def linear_weights(predictor: Predictor) -> np.ndarray | None:
    """The ``w`` with predictor(x) = w.x, or None for a Gaussian-kernel predictor."""
    if isinstance(predictor, PrimalPredictor):
        return predictor.weights
    if predictor.kernel.kind == "linear":
        return predictor.landmarks.T @ predictor.coefficients
    return None


def excess_risks(
    predictors: Sequence[Predictor],
    problem: SyntheticProblem,
    n_eval: int,
    seed: int | Callable[[], int],
) -> tuple[tuple[float, float], ...]:
    """(excess risk, standard error) of every predictor.

    With every predictor linear, each is ``s * |w - w*|^2`` with standard
    error 0.0, and ``n_eval`` and ``seed`` are not read. Otherwise each is
    the mean of ``(f(x) - x.w*)^2`` over the one sample of ``n_eval`` points
    drawn from ``seed``, with its standard error. A ``seed`` that is a
    function is called for the seed only then, when the sample is drawn.
    """
    n_eval = integer("n_eval", n_eval, 2)
    for predictor in predictors:
        _check_dims(predictor, problem.dimension)
    weights = [linear_weights(p) for p in predictors]
    if all(w is not None for w in weights):
        s = input_second_moment(problem)
        return tuple(
            (s * pairwise_sum(np.sort((w - problem.target_weights) ** 2)), 0.0) for w in weights
        )
    fresh = sample_dataset(problem, n_eval, seed() if callable(seed) else seed)
    clean = fresh.features @ problem.target_weights
    return tuple(_mean_and_std_error(_squared_errors(p, fresh.features, clean)) for p in predictors)


def excess_risk(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> float:
    """Expected risk minus the problem's Bayes risk: exact for a linear
    predictor, else estimated on ``n_eval`` points (see ``excess_risks``)."""
    ((excess, _),) = excess_risks((predictor,), problem, n_eval, seed)
    return excess

