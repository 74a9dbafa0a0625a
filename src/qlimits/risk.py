"""Squared-loss empirical risk, expected and excess risk, and derived gaps.

Expected risk is estimated by Monte Carlo on a fresh sample. Excess risk of
a linear predictor ``w`` also has a closed form: the label noise is
independent and zero-mean, and every input law here is isotropic with
``E[x x^T] = s I``, so the excess risk is exactly ``s |w - w*|^2``
(``input_second_moment`` gives ``s``). ``excess_risks`` and ``excess_risk``
use it when every predictor is linear and Monte Carlo otherwise (Gaussian
kernels).

Risk averages and the closed form's sum of squares use a fixed summation
scheme (sort ascending, then pairwise tree sum) so they are exactly
invariant under permutation of the data and reproducible across platforms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
# scipy.special, not scipy.stats: importing scipy.stats costs about as much
# as importing all of qlimits
from scipy.special import gammainc, gammaincc

from .errors import ConfigError, DimensionMismatchError
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


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo estimate of the expected risk, with its standard error."""

    value: float
    std_error: float
    n_eval: int

    def to_json(self) -> dict:
        return {"value": self.value, "std_error": self.std_error, "n_eval": self.n_eval}

    @staticmethod
    def from_json(obj: dict) -> "RiskEstimate":
        extra = set(obj) - {"value", "std_error", "n_eval"}
        if extra:
            raise ConfigError(f"unknown risk estimate fields: {sorted(extra)}")
        return RiskEstimate(
            value=float(obj["value"]), std_error=float(obj["std_error"]), n_eval=int(obj["n_eval"])
        )


def _check_dims(predictor: Predictor, dimension: int) -> None:
    if predictor.dimension != dimension:
        raise DimensionMismatchError(
            f"predictor dimension {predictor.dimension} != data dimension {dimension}"
        )


def _squared_errors(predictor: Predictor, dataset: Dataset) -> np.ndarray:
    diff = predict_batch(predictor, dataset.features) - dataset.labels
    return diff * diff


def empirical_risk(predictor: Predictor, dataset: Dataset) -> float:
    """Average squared loss over the dataset; deterministic and permutation-invariant."""
    _check_dims(predictor, dataset.dimension)
    return stable_mean(_squared_errors(predictor, dataset))


def expected_risks_mc(
    predictors: Sequence[Predictor],
    problem: SyntheticProblem,
    n_eval: int = 100_000,
    seed: int = 0,
) -> tuple[RiskEstimate, ...]:
    """Unbiased risk estimates of every predictor, all on one fresh sample of
    ``n_eval`` points; each equals ``expected_risk_mc`` of that predictor."""
    if n_eval < 2:
        raise ConfigError(f"n_eval must be >= 2, got {n_eval}")
    for predictor in predictors:
        _check_dims(predictor, problem.dimension)
    fresh = sample_dataset(problem, n_eval, seed)
    estimates = []
    for predictor in predictors:
        losses = np.sort(_squared_errors(predictor, fresh))
        value = pairwise_sum(losses) / n_eval
        variance = pairwise_sum(np.sort((losses - value) ** 2)) / (n_eval - 1)
        estimates.append(
            RiskEstimate(value=value, std_error=float(np.sqrt(variance / n_eval)), n_eval=n_eval)
        )
    return tuple(estimates)


def expected_risk_mc(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> RiskEstimate:
    """Unbiased risk estimate on a fresh sample of ``n_eval`` points."""
    (estimate,) = expected_risks_mc((predictor,), problem, n_eval, seed)
    return estimate


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
    # P(chi2_k <= x) = gammainc(k/2, x/2), its complement gammaincc
    return float(gammainc((d + 2) / 2, r2 / 2) + (r2 / d) * gammaincc(d / 2, r2 / 2))


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
    seed: int,
) -> tuple[tuple[float, float], ...]:
    """(excess risk, standard error) of every predictor.

    With every predictor linear, each is ``s * |w - w*|^2`` with standard
    error 0.0, and ``n_eval`` and ``seed`` are not read. Otherwise each is
    the ``expected_risks_mc`` estimate on the one sample of ``n_eval`` points
    drawn from ``seed``, less the Bayes risk, with that estimate's standard
    error.
    """
    for predictor in predictors:
        _check_dims(predictor, problem.dimension)
    weights = [linear_weights(p) for p in predictors]
    if all(w is not None for w in weights):
        s = input_second_moment(problem)
        return tuple(
            (s * pairwise_sum(np.sort((w - problem.target_weights) ** 2)), 0.0) for w in weights
        )
    estimates = expected_risks_mc(predictors, problem, n_eval, seed)
    return tuple((e.value - problem.bayes_risk, e.std_error) for e in estimates)


def excess_risk(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> float:
    """Expected risk minus the problem's Bayes risk: exact for a linear
    predictor, else estimated on ``n_eval`` points (see ``excess_risks``)."""
    ((excess, _),) = excess_risks((predictor,), problem, n_eval, seed)
    return excess


def generalization_gap(
    predictor: Predictor,
    train: Dataset,
    problem: SyntheticProblem,
    n_eval: int = 100_000,
    seed: int = 0,
) -> float:
    """|empirical risk on the training set - Monte Carlo expected risk|."""
    train_risk = empirical_risk(predictor, train)
    mc = expected_risk_mc(predictor, problem, n_eval, seed)
    return abs(train_risk - mc.value)
