"""Noisy quantum-solver model: error channels and symbolic runtime costs.

The simulated pipeline composes two error channels on top of the exact
solver output: a solver-precision perturbation of magnitude exactly
``solver_error``, and a tomography readout perturbation of magnitude
``tomography_error(m)`` set by the measurement regime,

* ``exact``       tau = 0
* ``shot_noise``  tau = a / sqrt(m)   (standard quantum limit)
* ``heisenberg``  tau = a / m         (metrology-assisted limit)

Both channels shift the unnormalized weight vector directly, by exactly
their magnitude (the worst case on the error sphere, which keeps the bound
checks sharp); recovery of the solution's scale is assumed exact, so any
scale-estimation error is folded into the readout channel.

Runtime cost models are evaluated in abstract operation units under a fixed
polylog convention: each polylog factor is the product of single base-2
logarithms of its arguments, floored at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import risk
from .errors import ConfigError
from .rng import child_rng
from .solvers import Predictor, PrimalPredictor, ceil_sqrt, exact_ls, predict_batch
from .synth import Dataset, unit_vector

REGIMES = ("exact", "shot_noise", "heisenberg")


@dataclass(frozen=True)
class NoiseModel:
    """Error budget of the simulated quantum solve."""

    solver_error: float = 0.0
    regime: str = "exact"
    measurements: int = 1
    precision_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.solver_error) and self.solver_error >= 0):
            raise ConfigError(f"solver_error must be >= 0, got {self.solver_error}")
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}, expected one of {REGIMES}")
        if self.measurements < 1:
            raise ConfigError(f"measurements must be >= 1, got {self.measurements}")
        if not (np.isfinite(self.precision_scale) and self.precision_scale > 0):
            raise ConfigError(f"precision_scale must be > 0, got {self.precision_scale}")

    def tomography_error(self) -> float:
        """Readout error magnitude tau(m) for this regime."""
        if self.regime == "exact":
            return 0.0
        if self.regime == "shot_noise":
            return self.precision_scale / math.sqrt(self.measurements)
        return self.precision_scale / self.measurements


def perturb_solution(weights: np.ndarray, magnitude: float, seed: int = 0) -> np.ndarray:
    """weights + magnitude * u for a seeded random unit direction u."""
    if not (np.isfinite(magnitude) and magnitude >= 0):
        raise ConfigError(f"magnitude must be >= 0, got {magnitude}")
    w = np.asarray(weights, dtype=np.float64)
    u = unit_vector(child_rng(seed, "solver-perturbation"), w.shape[0])
    return w + magnitude * u


def tomography_estimate(weights: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Classical readout of the state: shifts by exactly tau(m) in a random direction."""
    w = np.asarray(weights, dtype=np.float64)
    tau = noise.tomography_error()
    u = unit_vector(child_rng(noise.seed, "tomography"), w.shape[0])
    return w + tau * u


def apply_channels(weights: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Solver perturbation, then tomography readout, of exact solve weights."""
    w = perturb_solution(weights, noise.solver_error, seed=noise.seed)
    return tomography_estimate(w, noise)


def quantum_ls_pipeline(
    dataset: Dataset, lam: float | None, noise: NoiseModel
) -> PrimalPredictor:
    """Exact Tikhonov solve, then the two error channels."""
    return PrimalPredictor(weights=apply_channels(exact_ls(dataset, lam).weights, noise))


@dataclass(frozen=True)
class BoundCheck:
    """Observed empirical-risk gap vs the Lipschitz bound L * max|x| * magnitude."""

    gap: float
    bound: float
    holds: bool
    lipschitz: float


def algorithmic_error_bound_check(
    dataset: Dataset,
    predictor_exact: Predictor,
    predictor_perturbed: Predictor,
    magnitude: float,
) -> BoundCheck:
    """Check |risk(perturbed) - risk(exact)| <= L * max_i|x_i| * magnitude.

    L is the local Lipschitz constant of the squared loss on the observed
    residual range: twice the largest absolute residual over both predictors.
    Only primal predictors are accepted; the bound's Cauchy-Schwarz step
    needs a weight-space perturbation.
    """
    if not (
        isinstance(predictor_exact, PrimalPredictor)
        and isinstance(predictor_perturbed, PrimalPredictor)
    ):
        raise ConfigError("bound check requires primal predictors on both sides")
    resid_exact = predict_batch(predictor_exact, dataset.features) - dataset.labels
    resid_pert = predict_batch(predictor_perturbed, dataset.features) - dataset.labels
    gap = abs(
        risk.stable_mean(resid_pert**2) - risk.stable_mean(resid_exact**2)
    )
    lipschitz = 2.0 * max(float(np.max(np.abs(resid_exact))), float(np.max(np.abs(resid_pert))))
    max_x = float(np.max(np.linalg.norm(dataset.features, axis=1)))
    bound = lipschitz * max_x * magnitude
    return BoundCheck(gap=gap, bound=bound, holds=bool(gap <= bound), lipschitz=lipschitz)


# ---------------------------------------------------------------------------
# symbolic runtime costs

@dataclass(frozen=True)
class CostModel:
    """Inputs to the runtime cost formulas (abstract operation units)."""

    condition_number: float = 1.0
    frobenius_norm: float = 1.0
    n: int = 2
    d: int = 1
    solver_error: float = 0.5
    error_exponent: float | None = None  # beta in error^(-beta)
    condition_exponent: float | None = None  # c in condition_number^c

    def __post_init__(self):
        if not (np.isfinite(self.condition_number) and self.condition_number >= 1):
            raise ConfigError(f"condition_number must be >= 1, got {self.condition_number}")
        if not (np.isfinite(self.frobenius_norm) and self.frobenius_norm > 0):
            raise ConfigError(f"frobenius_norm must be > 0, got {self.frobenius_norm}")
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not (np.isfinite(self.solver_error) and self.solver_error > 0):
            raise ConfigError(f"solver_error (gamma) must be > 0, got {self.solver_error}")


def _log_factor(x: float) -> float:
    """Single polylog factor: base-2 log floored at 1."""
    return max(1.0, math.log2(x))


def _require_error_below_one(model: CostModel) -> None:
    if model.solver_error >= 1.0:
        raise ConfigError(
            f"solver_error (gamma) must be < 1 for cost evaluation, got {model.solver_error}"
        )


def cost_log_error_solver(model: CostModel) -> float:
    """Frobenius-bounded solver with logarithmic error dependency.

    frobenius_norm * condition_number * log2(n) * log2(condition_number + 1)
    * log2(1/solver_error), logs floored at 1.
    """
    _require_error_below_one(model)
    return (
        model.frobenius_norm
        * model.condition_number
        * _log_factor(model.n)
        * _log_factor(model.condition_number + 1.0)
        * _log_factor(1.0 / model.solver_error)
    )


def cost_poly_error_solver(model: CostModel) -> float:
    """Sampling-based solver with cubic error dependency.

    condition_number^2 * solver_error^(-3) * log2(n), log floored at 1.
    """
    _require_error_below_one(model)
    return model.condition_number**2 * model.solver_error**-3.0 * _log_factor(model.n)


def cost_matched_precision(model: CostModel) -> float:
    """Poly-error solver cost after pinning solver_error to n^(-1/2).

    condition_number^c * n^(beta/2) * log2(n), log floored at 1.
    """
    beta, c = model.error_exponent, model.condition_exponent
    if beta is None or not beta > 0:
        raise ConfigError(f"error_exponent must be > 0, got {beta}")
    if c is None or not c > 0:
        raise ConfigError(f"condition_exponent must be > 0, got {c}")
    return model.condition_number**c * float(model.n) ** (beta / 2.0) * _log_factor(model.n)


def required_measurements(n: int, regime: str) -> int:
    """Smallest m with tau(m) <= n^(-1/2) at unit precision scale."""
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if regime == "heisenberg":
        return ceil_sqrt(n)
    if regime == "shot_noise":
        return n
    if regime == "exact":
        raise ConfigError("exact regime needs no measurements; no budget is defined")
    raise ConfigError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# train/test complexity ladder

@dataclass(frozen=True)
class ComplexityEntry:
    """Polynomial train/test exponents in n for one algorithm family."""

    algorithm: str
    train_exponent: Fraction
    test_exponent: Fraction
    is_quantum: bool
    test_includes_retraining: bool


_COMPLEXITY_LADDER = (
    ComplexityEntry("svm_krr", Fraction(3), Fraction(1), False, False),
    ComplexityEntry("krr_fast", Fraction(2), Fraction(1), False, False),
    ComplexityEntry("divide_conquer", Fraction(2), Fraction(1), False, False),
    ComplexityEntry("nystrom", Fraction(2), Fraction(1, 2), False, False),
    ComplexityEntry("falkon", Fraction(3, 2), Fraction(1, 2), False, False),
    # Quantum rows: the trained state cannot be copied, so each test round
    # pays the training cost again; test exponents include that retraining.
    ComplexityEntry("qkls_qklr", Fraction(1, 2), Fraction(3, 2), True, True),
    ComplexityEntry("qsvm", Fraction(3, 2), Fraction(5, 2), True, True),
)

COMPLEXITY_ENTRY_NAMES = tuple(e.algorithm for e in _COMPLEXITY_LADDER)


def complexity_table() -> tuple[ComplexityEntry, ...]:
    """All seven ladder entries, classical rows first."""
    return _COMPLEXITY_LADDER


def complexity_entry(name: str) -> ComplexityEntry:
    for entry in _COMPLEXITY_LADDER:
        if entry.algorithm == name:
            return entry
    raise ConfigError(
        f"unknown complexity entry {name!r}, expected one of {COMPLEXITY_ENTRY_NAMES}"
    )
