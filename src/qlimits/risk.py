"""Squared-loss empirical risk, Monte Carlo expected risk, and derived gaps.

Risk averages use a fixed summation scheme (sort ascending, then pairwise
tree sum) so they are exactly invariant under permutation of the data and
reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .solvers import Predictor, predict_batch
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


def expected_risk_mc(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> RiskEstimate:
    """Unbiased risk estimate on a fresh sample of ``n_eval`` points."""
    if n_eval < 2:
        raise ConfigError(f"n_eval must be >= 2, got {n_eval}")
    _check_dims(predictor, problem.dimension)
    fresh = sample_dataset(problem, n_eval, seed)
    losses = np.sort(_squared_errors(predictor, fresh))
    value = pairwise_sum(losses) / n_eval
    variance = pairwise_sum(np.sort((losses - value) ** 2)) / (n_eval - 1)
    return RiskEstimate(
        value=value, std_error=float(np.sqrt(variance / n_eval)), n_eval=n_eval
    )


def excess_risk(
    predictor: Predictor, problem: SyntheticProblem, n_eval: int = 100_000, seed: int = 0
) -> float:
    """Estimated expected risk minus the problem's Bayes risk."""
    return expected_risk_mc(predictor, problem, n_eval, seed).value - problem.bayes_risk


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
