"""References for the excess risk ``E[(f(x) - w*.x)^2]`` that share no code
with ``qlimits``' scorer: neither its sampler nor ``predict_batch``.

``sphere_excess_risk`` is exact for x uniform on the unit sphere in R^d and a
linear or Gaussian-kernel predictor. On |x| = 1 the Gaussian kernel factors,
``exp(-|x - l|^2 / (2h^2)) = exp(-(1 + |l|^2) / (2h^2)) exp(l.x / h^2)``, so
``f(x) = sum_j alpha_j exp(b_j.x)`` with ``alpha_j = c_j exp(-(1 + |l_j|^2) /
(2h^2))`` and ``b_j = l_j / h^2``. With ``M(a) = E exp(a.x) = Gamma(d/2)
(2/r)^nu I_nu(r)``, ``r = |a|``, ``nu = d/2 - 1`` (and ``M(0) = 1``), and its
gradient ``E x exp(a.x) = (a/r) Gamma(d/2) (2/r)^nu I_{nu+1}(r)``, the risk
against a target ``u`` is

    sum_ij alpha_i alpha_j M(b_i + b_j) - 2 sum_j alpha_j u.E[x exp(b_j.x)] + |u|^2/d.

A linear part ``w.x`` of the predictor folds into the target, ``u = w* - w``.
The Bessel functions are scipy's exponentially scaled ``ive``, and each term
takes back its ``e^r`` inside one exponent that is never positive, so no term
overflows.

``drawn_excess_risk`` is the mean over an input sample that numpy draws here,
for the clipped Gaussian law, which has no closed form.

scipy is imported inside the functions, as in the other tests' oracles:
nothing in ``qlimits`` may load it.
"""

from __future__ import annotations

import math

import numpy as np

from qlimits import PrimalPredictor

# rows of inputs at a time when evaluating a kernel predictor on a draw
ROWS = 4096


def _parts(predictor):
    """(w, c, landmarks, bandwidth) with f(x) = w.x + sum_j c_j exp(-|x - l_j|^2 / (2h^2))."""
    if isinstance(predictor, PrimalPredictor):
        return predictor.weights, np.zeros(0), np.zeros((0, predictor.dimension)), 1.0
    kernel, c, landmarks = predictor.kernel, predictor.coefficients, predictor.landmarks
    if kernel.kind == "linear":
        return landmarks.T @ c, np.zeros(0), np.zeros((0, landmarks.shape[1])), 1.0
    return np.zeros(landmarks.shape[1]), c, landmarks, kernel.bandwidth


def _scaled_bessel_factor(nu: float, order: float, r: np.ndarray, d: int) -> np.ndarray:
    """``Gamma(d/2) (2/r)^nu I_order(r) e^-r`` at every r > 0."""
    from scipy.special import ive

    return math.gamma(d / 2) * (2.0 / r) ** nu * ive(order, r)


def sphere_excess_risk(predictor, target: np.ndarray) -> float:
    """``E[(f(x) - target.x)^2]`` for x uniform on the unit sphere, exactly."""
    w, c, landmarks, h = _parts(predictor)
    d = w.size
    u = np.asarray(target, dtype=np.float64) - w
    total = [float(u @ u) / d]
    if c.size:
        nu = d / 2 - 1
        log_scale = -(1.0 + np.sum(landmarks**2, axis=1)) / (2 * h**2)  # log(alpha_j / c_j)
        b = landmarks / h**2
        # sum_ij alpha_i alpha_j M(b_i + b_j)
        pair = b[:, None, :] + b[None, :, :]
        r = np.sqrt(np.sum(pair**2, axis=2))
        exponent = log_scale[:, None] + log_scale[None, :] + r
        moment = np.ones_like(r)
        positive = r > 0
        moment[positive] = _scaled_bessel_factor(nu, nu, r[positive], d)
        total.append(float(c @ (np.exp(exponent) * moment) @ c))
        # -2 sum_j alpha_j u.E[x exp(b_j.x)]; the mean of x is 0 where b_j = 0
        r = np.sqrt(np.sum(b**2, axis=1))
        positive = r > 0
        ub = b[positive] @ u / r[positive]
        grad = _scaled_bessel_factor(nu, nu + 1, r[positive], d) * ub
        total.append(-2.0 * float(c[positive] @ (np.exp(log_scale[positive] + r[positive]) * grad)))
    return math.fsum(total)


def predictions(predictor, x: np.ndarray) -> np.ndarray:
    """f at each row of ``x``, from scipy's ``cdist`` and the textbook kernel."""
    from scipy.spatial.distance import cdist

    w, c, landmarks, h = _parts(predictor)
    out = x @ w
    if c.size:
        for start in range(0, x.shape[0], ROWS):
            block = x[start:start + ROWS]
            out[start:start + ROWS] += np.exp(-cdist(block, landmarks, "sqeuclidean") / (2 * h**2)) @ c
    return out


def drawn_excess_risk(predictor, problem, n: int, seed: int) -> tuple[float, float]:
    """Mean of ``(f(x) - w*.x)^2`` over n inputs of the problem's law, and its
    standard error. ``numpy.random.default_rng(seed)`` draws standard Gaussian
    inputs, normalised onto the unit sphere or clipped to radius 3 sqrt(d)."""
    x = np.random.default_rng(seed).standard_normal((n, problem.dimension))
    norms = np.linalg.norm(x, axis=1)
    if problem.input_law == "unit_sphere_uniform":
        x /= norms[:, None]
    else:
        x *= np.minimum(1.0, 3.0 * math.sqrt(problem.dimension) / norms)[:, None]
    losses = (predictions(predictor, x) - x @ problem.target_weights) ** 2
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(n))
