"""Noisy quantum-solver model: error budget, error channels, symbolic runtime costs.

A ``NoiseSchedule`` is the error budget of the simulated quantum solve as a
rule in the training size n. It gives the solver precision gamma(n) and the
measurement count m(n); the measurement regime turns m into the readout
error tau (a is ``precision_scale``),

* ``exact``       tau = 0
* ``shot_noise``  tau = a / sqrt(m)   (standard quantum limit)
* ``heisenberg``  tau = a / m         (metrology-assisted limit)

The simulated pipeline evaluates the schedule at n and composes two error
channels on top of the exact solver output: a solver-precision perturbation
of magnitude gamma(n), then a tomography readout perturbation of magnitude
tau(m(n)). Both shift the unnormalized weight vector directly, by exactly
their magnitude (the worst case on the error sphere, which keeps the bound
checks sharp); recovery of the solution's scale is assumed exact, so any
scale-estimation error is folded into the readout channel.

The runtime cost formulas take their inputs (``kappa``, ``frobenius``, ``n``,
``gamma``, ``beta``, ``c``) under the names ``qlimits cost`` reads, and give
costs in abstract operation units under a fixed polylog convention: each
polylog factor is the product of single base-2 logarithms of its arguments,
floored at 1. A cost that is not a finite float raises NumericalError.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from . import risk
from .errors import ConfigError, NumericalError, integer, real
from .rng import child_rng
from .solvers import Predictor, PrimalPredictor, ceil_sqrt, exact_ls, predict_batch
from .synth import Dataset, unit_vector

REGIMES = ("exact", "shot_noise", "heisenberg")
GAMMA_RULE_KINDS = ("constant", "matched")
M_RULE_KINDS = ("fixed", "sqrt_n", "fourth_root_n", "linear_n")


@dataclass(frozen=True)
class NoiseSchedule:
    """Error budget of the simulated quantum solve as a rule in the training size n.

    gamma rules: ``constant`` uses gamma_value directly; ``matched`` uses
    gamma_value * n^(-1/2). m rules: ``fixed`` (m_value), ``sqrt_n``
    (ceil(sqrt(n))), ``fourth_root_n`` (ceil(n^(1/4))), ``linear_n`` (n).
    """

    regime: str = "exact"
    gamma_kind: str = "constant"
    gamma_value: float = 0.0
    m_kind: str = "fixed"
    m_value: int = 1
    precision_scale: float = 1.0

    def __post_init__(self):
        for name, kinds in (("regime", REGIMES), ("gamma_kind", GAMMA_RULE_KINDS), ("m_kind", M_RULE_KINDS)):
            if getattr(self, name) not in kinds:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}, expected one of {kinds}")
        integer("m_value", self.m_value, 1)
        for name, strict in (("gamma_value", False), ("precision_scale", True)):
            object.__setattr__(self, name, real(name, getattr(self, name), 0, strict=strict))

    def gamma_at(self, n: int) -> float:
        """Solver error gamma at training size n."""
        if self.gamma_kind == "constant":
            return self.gamma_value
        return self.gamma_value * float(n) ** -0.5

    def m_at(self, n: int) -> int:
        """Measurement count m at training size n."""
        if self.m_kind == "fixed":
            return self.m_value
        if self.m_kind == "sqrt_n":
            return ceil_sqrt(n)
        if self.m_kind == "fourth_root_n":
            return ceil_sqrt(ceil_sqrt(n))  # ceil(n^(1/4))
        return n

    def tau_at(self, n: int) -> float:
        """Readout error tau(m) of this regime at m = m_at(n)."""
        if self.regime == "exact":
            return 0.0
        if self.regime == "shot_noise":
            return self.precision_scale / math.sqrt(self.m_at(n))
        return self.precision_scale / self.m_at(n)


def _shift(weights: np.ndarray, magnitude: float, seed: int, stream: str) -> np.ndarray:
    """weights + magnitude * u, as a new array, for a unit direction u drawn
    from ``stream`` of ``seed``; a magnitude of 0 draws nothing."""
    real("magnitude", magnitude, 0)
    w = np.asarray(weights, dtype=np.float64)
    if magnitude == 0:  # each stream is its own child of seed, so skipping one moves no other
        return w.copy()
    u = unit_vector(child_rng(seed, stream), w.shape[0])
    return w + magnitude * u


def perturb_solution(weights: np.ndarray, magnitude: float, seed: int = 0) -> np.ndarray:
    """Solver-precision channel: shifts by exactly ``magnitude`` in a seeded
    random direction; a magnitude of 0 draws no direction."""
    return _shift(weights, magnitude, seed, "solver-perturbation")


def tomography_estimate(weights: np.ndarray, tau: float, seed: int = 0) -> np.ndarray:
    """Classical readout of the state: shifts by exactly ``tau`` in a seeded
    random direction; a ``tau`` of 0 draws no direction."""
    return _shift(weights, tau, seed, "tomography")


def apply_channels(weights: np.ndarray, noise: NoiseSchedule, n: int, seed: int) -> np.ndarray:
    """Solver perturbation by gamma(n), then tomography readout by tau(n), of
    exact solve weights; both channels draw their direction from ``seed``."""
    w = perturb_solution(weights, noise.gamma_at(n), seed)
    return tomography_estimate(w, noise.tau_at(n), seed)


def quantum_ls_pipeline(
    dataset: Dataset, lam: float | None, noise: NoiseSchedule, seed: int = 0
) -> PrimalPredictor:
    """Exact Tikhonov solve, then the two error channels at n = dataset.n_samples."""
    weights = exact_ls(dataset, lam).weights
    return PrimalPredictor(weights=apply_channels(weights, noise, dataset.n_samples, seed))


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

def _log_factor(x: float) -> float:
    """Single polylog factor: base-2 log floored at 1."""
    return max(1.0, math.log2(x))


def _check(kappa: float, n: int, **positive: float) -> None:
    """Cost inputs: kappa >= 1, n >= 1, any other finite and > 0, and gamma < 1 where read."""
    real("kappa", kappa, 1)
    integer("n", n, 1)
    for name, value in positive.items():
        if real(name, value, 0, strict=True) >= 1 and name == "gamma":
            raise ConfigError(f"`gamma` must be in (0, 1) for cost evaluation, got {value}")


def _finite(formula):
    """``formula``, raising NumericalError on a cost that is not a finite float."""
    @functools.wraps(formula)
    def checked(*args, **kwargs):
        try:
            cost = formula(*args, **kwargs)
        except OverflowError:
            cost = math.inf
        if not math.isfinite(cost):
            inputs = inspect.signature(formula).bind(*args, **kwargs).arguments
            raise NumericalError(f"{formula.__name__} is not a finite float at {dict(inputs)}")
        return cost
    return checked


@_finite
def cost_log_error_solver(
    kappa: float, frobenius: float | Literal["sqrt_n"], n: int, gamma: float
) -> float:
    """Frobenius-bounded solver with logarithmic error dependency: frobenius *
    kappa * log2(n) * log2(kappa + 1) * log2(1/gamma), logs floored at 1.
    A ``frobenius`` of ``"sqrt_n"`` is sqrt(n), taken once n is checked."""
    _check(kappa, n, gamma=gamma)
    frobenius = real("frobenius", math.sqrt(n) if frobenius == "sqrt_n" else frobenius, 0, strict=True)
    return frobenius * kappa * _log_factor(n) * _log_factor(kappa + 1.0) * _log_factor(1.0 / gamma)


@_finite
def cost_poly_error_solver(kappa: float, n: int, gamma: float) -> float:
    """Sampling-based solver with cubic error dependency: kappa^2 * gamma^(-3)
    * log2(n), log floored at 1."""
    _check(kappa, n, gamma=gamma)
    return kappa**2 * gamma**-3.0 * _log_factor(n)


@_finite
def cost_matched_precision(kappa: float, n: int, beta: float, c: float) -> float:
    """Poly-error solver of cost kappa^c * gamma^(-beta) with gamma pinned to
    n^(-1/2): kappa^c * n^(beta/2) * log2(n), log floored at 1."""
    _check(kappa, n, beta=beta, c=c)
    return kappa**c * float(n) ** (beta / 2.0) * _log_factor(n)


def required_measurements(n: int, regime: str) -> int:
    """Smallest m with tau(m) <= n^(-1/2) at unit precision scale."""
    integer("n", n, 1)
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


def complexity_table() -> tuple[ComplexityEntry, ...]:
    """All seven ladder entries, classical rows first."""
    return _COMPLEXITY_LADDER
