"""Classical regression solvers.

Five training routes over the same dual/primal predictor types:

* ``exact_ls``           closed-form Tikhonov least squares
* ``krr``                kernel ridge regression
* ``early_stopping_gd``  fixed-iteration gradient descent on the unregularized risk
* ``divide_and_conquer`` per-block KRR, uniformly averaged
* ``nystrom``            landmark-subsampled KRR

Regularized systems are solved by Cholesky factorization; on breakdown the
solver falls back to an eigendecomposition with eigenvalues floored at 1e-12.
Every direct solve is residual-checked to 1e-10 relative; one that misses is
refined once, and raises NumericalError if it misses again. Every system is
factored by LAPACK's ``dpotrf('U')`` and solved by ``dpotrs``: the small ones
(``exact_ls``'s d x d, ``nystrom``'s m x m) in a Fortran-ordered copy, KRR's
n x n one (divide and conquer's blocks too) in place. These and early-stopped
gradient descent's ``dsymv`` products run in the BLAS that numpy links,
through ``qlimits.blas``, so no solver imports scipy or maps a second BLAS.

KRR holds one n x n array per fit, for either kernel. It builds K + lam*n*I
in C order, and ``dpotrf('U')`` factors that buffer's Fortran view, the
transpose, in place: the factor reads K's lower triangle. The residual gate
reads what the factor leaves of the view: K's strict upper triangle, which
dpotrf does not touch, and the diagonal, saved before the factor and swapped
in for each ``dsymv``. A linear K (``a @ a.T``) is exactly symmetric, so
both read K itself. A Gaussian K is symmetric only up to its last bits, so
its solution is that of K's lower triangle, and the gate's product differs
from the full K @ v in its last bits. Where Cholesky breaks down the buffer
is partly overwritten, so K is computed again for the PSD check and the
eigenvalue-clipped solve, which reads the same view.

Kernel evaluation is the test-time cost of a dual predictor (n_eval x n
entries), so it runs in BLAS and allocates as little as it can.
``Kernel.matrix`` gets the Gaussian kernel's squared distances from one GEMM
over the inputs augmented by their squared norms, after centring both on the
second argument's mean (the kernel is translation-invariant, and centring
keeps the norms, and so the cancellation, at the scale of the data's spread).
It then clips the exponent at 0 in a block whose largest exponent rounds
positive (a Gram's diagonal can; rows against fresh points seldom do) and
exponentiates in place: one n_a x n_b array in all, every entry in [0, 1].
This is not bit-identical to ``exp(-cdist / (2 h^2))``. Between independent
draws of either input law, for bandwidths 0.3 to 3.3, the entries differ by
at most about 1e-15. The
exponent's error is a few ulps of the centred squared norms over 2 h^2, so at
coincident points (the diagonal of K(a, a)) it reaches 7e-14 at h = 0.3 on
clipped-Gaussian inputs. The GEMM forms a_i . (2s b_j) and a_j . (2s b_i)
separately, so a Gaussian K(x, x) is symmetric only up to its last bits.

Early-stopped gradient descent reads one triangle of its Gram, the upper
one that KRR's gate reads too: in its power iteration and, for a Gaussian
kernel, in every pass of its dual loop. Each product is a BLAS dsymv, which
streams half the matrix that a full product would.

``predict_batch`` streams a Gaussian predictor's kernel rows through blocks
of about ``PREDICT_BLOCK_ENTRIES`` entries, so prediction never holds the
whole n_eval x n matrix and each block stays in cache. It centres and
augments the landmarks once per call (``Kernel._prepare``) and evaluates
every block against them, with the same bits as from the raw landmarks. A
GEMM's rounding can depend on the BLAS thread count, so a Gaussian
prediction made outside a pinned region can too, as a linear one always
could; sweeps and ``qlimits fit`` pin BLAS to one thread, so their outputs
do not. The linear kernel's product is evaluated whole: the rounding of its
gemm's edge tiles depends on how the row count splits into panels, so row
blocks would change its last bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .blas import cholesky_solve, cholesky_upper, lower_symmetric_product
from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    KernelNotPSDError,
    NumericalError,
    SingularSystemError,
    integer,
    read_json,
    real,
)
from .rng import child_rng
from .synth import Dataset

RESIDUAL_RTOL = 1e-10
EIG_FLOOR = 1e-12
KERNEL_PSD_RTOL = 1e-8
POWER_ITER_TOL = 1e-6
POWER_ITER_MAX = 500
PREDICT_BLOCK_ENTRIES = 2**17  # kernel entries per prediction block (1 MiB)


@dataclass(frozen=True)
class Kernel:
    """Linear or Gaussian kernel; Gaussian is exp(-|a-b|^2 / (2 bandwidth^2)).

    Its two fields are the ``kernel`` block of a config and of a predictor
    file; a Gaussian bandwidth is a real number, stored as a float."""

    kind: str = "linear"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.bandwidth is not None:
                raise ConfigError("linear kernel takes no bandwidth")
        elif self.kind == "gaussian":
            object.__setattr__(self, "bandwidth", real("bandwidth", self.bandwidth, 0, strict=True))
            try:  # the exponent's scale 1 / (2 h^2), as matrix() and _prepare() take it
                scale = 0.5 / self.bandwidth**2
            except (OverflowError, ZeroDivisionError):
                scale = math.nan
            if not (math.isfinite(scale) and scale > 0):
                raise ConfigError(
                    f"gaussian kernel bandwidth {self.bandwidth} is out of range: "
                    "0.5 / bandwidth**2 must be a finite positive float"
                )
        else:
            raise ConfigError(f"unknown kernel kind {self.kind!r}, expected 'linear' or 'gaussian'")

    def _prepare(self, b: np.ndarray) -> PreparedLandmarks:
        """``b`` in the form the Gaussian branch of ``matrix`` evaluates rows
        against: its mean and the factor [2s (b - mean), 1, |b - mean|^2]."""
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        centre = b.mean(axis=0)
        b = b - centre
        s = 0.5 / self.bandwidth**2
        with np.errstate(over="ignore"):  # matrix() raises for an overflowing exponent
            sq_b = np.einsum("ij,ij->i", b, b)[:, None]
            return PreparedLandmarks(centre, np.hstack(((2.0 * s) * b, np.ones_like(sq_b), sq_b)))

    def matrix(self, a: np.ndarray, b: np.ndarray | PreparedLandmarks) -> np.ndarray:
        """K(a_i, b_j) for every row pair; a Gaussian kernel's ``b`` may come
        from ``_prepare``, which gives the same bits as the raw landmarks. The
        exponent is clipped at 0 only in a block whose largest is positive."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        if self.kind == "linear":
            return a @ np.atleast_2d(np.asarray(b, dtype=np.float64)).T
        if not isinstance(b, PreparedLandmarks):
            b = self._prepare(b)
        # -|a - b|^2 / (2 h^2) from one GEMM, [a, -s|a|^2, -s] . [2s b, 1, |b|^2]
        # with s = 1 / (2 h^2), on inputs centred on b's mean (module docstring)
        a = a - b.centre
        s = 0.5 / self.bandwidth**2
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, alone
            sq_a = np.einsum("ij,ij->i", a, a)[:, None]
            left = np.hstack((a, -s * sq_a, np.full_like(sq_a, -s)))
            k = left @ b.factor.T
        top = k.max(initial=-math.inf)
        if not top < math.inf:  # the exact exponent is <= 0
            raise ConfigError(
                f"gaussian kernel bandwidth {self.bandwidth} is out of range for these "
                "inputs: the exponent |a - b|^2 / (2 bandwidth**2) overflows"
            )
        if top > 0:  # rounding can leave a tiny positive exponent
            np.minimum(k, 0.0, out=k)
        return np.exp(k, out=k)


LINEAR_KERNEL = Kernel("linear")


@dataclass(frozen=True, eq=False)
class PreparedLandmarks:
    """A Gaussian kernel's landmarks, centred and augmented once (``Kernel._prepare``)."""

    centre: np.ndarray
    factor: np.ndarray


@dataclass(frozen=True, eq=False)
class PrimalPredictor:
    """f(x) = weights . x"""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1:
            raise ConfigError(f"weights must be a vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ConfigError("weights must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class DualPredictor:
    """f(x) = sum_j coefficients[j] * K(landmarks[j], x)"""

    coefficients: np.ndarray
    landmarks: np.ndarray
    kernel: Kernel

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        lm = np.asarray(self.landmarks, dtype=np.float64)
        if lm.ndim != 2 or c.shape != (lm.shape[0],):
            raise ConfigError(
                f"coefficients {c.shape} must match landmark rows {lm.shape}"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(lm))):
            raise ConfigError("dual predictor entries must be finite")
        c.flags.writeable = False
        lm.flags.writeable = False
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "landmarks", lm)

    @property
    def dimension(self) -> int:
        return self.landmarks.shape[1]


Predictor = PrimalPredictor | DualPredictor


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver options.

    ``lam=None`` resolves to the default schedule n^(-1/2); ``step_size=None``
    auto-computes a safe gradient step; ``max_iters=None`` and
    ``landmarks=None`` both resolve to ceil(sqrt(n)).
    """

    lam: float | None = None
    step_size: float | None = None
    max_iters: int | None = None
    partitions: int = 1
    landmarks: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", real("lam", self.lam, 0, optional=True))
        object.__setattr__(self, "step_size", real("step_size", self.step_size, 0, strict=True, optional=True))
        integer("max_iters", self.max_iters, 0, optional=True)
        integer("partitions", self.partitions, 1)
        integer("landmarks", self.landmarks, 1, optional=True)
        integer("seed", self.seed)


def resolve_lam(lam: float | None, n: int) -> float:
    """``lam``, a real >= 0, or the default regularization schedule n^(-1/2) when it is None."""
    return float(n) ** -0.5 if lam is None else real("lam", lam, 0)


def ceil_sqrt(n: int) -> int:
    """ceil(sqrt(n)) in exact integer arithmetic, for n >= 1."""
    return math.isqrt(n - 1) + 1


# ---------------------------------------------------------------------------
# prediction

def predict_batch(predictor: Predictor, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != predictor.dimension:
        raise DimensionMismatchError(
            f"point dimension {x.shape[1]} != predictor dimension {predictor.dimension}"
        )
    if isinstance(predictor, PrimalPredictor):
        return x @ predictor.weights
    m = x.shape[0]
    kernel, landmarks = predictor.kernel, predictor.landmarks
    if kernel.kind == "linear":
        rows = max(m, 1)  # evaluated whole (see the module docstring)
    else:
        rows = max(PREDICT_BLOCK_ENTRIES // max(landmarks.shape[0], 1), 1)
        landmarks = kernel._prepare(landmarks)
    out = np.empty(m)
    for i in range(0, m, rows):
        out[i:i + rows] = kernel.matrix(x[i:i + rows], landmarks) @ predictor.coefficients
    return out


# ---------------------------------------------------------------------------
# SPD solving with residual gate

def _gated(solve, product, rhs: np.ndarray, context: str) -> np.ndarray:
    """Apply ``solve``, verify the residual gate against the system's
    ``product`` (v -> M v), refine once if needed."""
    sol = solve(rhs)
    rhs_norm = np.linalg.norm(rhs)
    residual = rhs - product(sol)
    if not np.linalg.norm(residual) <= RESIDUAL_RTOL * rhs_norm:  # a NaN misses too
        sol = sol + solve(residual)  # one step of iterative refinement
        residual = rhs - product(sol)
        if not np.linalg.norm(residual) <= RESIDUAL_RTOL * rhs_norm:
            raise NumericalError(
                f"{context}: solve residual {np.linalg.norm(residual):.3e} exceeds "
                f"{RESIDUAL_RTOL:.0e} * |rhs| = {RESIDUAL_RTOL * rhs_norm:.3e}"
            )
    return sol


def _eig_clip_solver(m: np.ndarray):
    evals, vecs = np.linalg.eigh(m)
    evals = np.maximum(evals, EIG_FLOOR)
    return lambda r: vecs @ ((vecs.T @ r) / evals)


def _solve_spd(m: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Gated solve of a small system, factored by ``dpotrf`` in a Fortran copy
    so that the eigenvalue-clipped fallback reads ``m`` untouched."""
    try:
        factor = cholesky_upper(np.array(m, order="F"))
        solve = lambda r: cholesky_solve(factor, r)
    except np.linalg.LinAlgError:
        solve = _eig_clip_solver(m)
    return _gated(solve, lambda v: m @ v, rhs, context)


def _check_not_singular(m: np.ndarray, context: str) -> None:
    evals = np.linalg.eigvalsh(m)
    top = float(evals[-1])
    if top <= 0 or float(evals[0]) <= EIG_FLOOR * top:
        raise SingularSystemError(
            f"{context}: system is numerically singular at lam=0 "
            f"(eigenvalue range [{evals[0]:.3e}, {top:.3e}])"
        )


# ---------------------------------------------------------------------------
# solvers

def exact_ls(dataset: Dataset, lam: float | None = None) -> PrimalPredictor:
    """Closed-form solve of (sum x_i x_i^T + lam*n*I) w = sum y_i x_i."""
    n = dataset.n_samples
    lam = resolve_lam(lam, n)
    a, y = dataset.features, dataset.labels
    gram = a.T @ a
    rhs = a.T @ y
    if lam == 0.0:
        _check_not_singular(gram, "exact_ls")
        system = gram
    else:
        system = gram + (lam * n) * np.eye(dataset.dimension)
    w = _solve_spd(system, rhs, "exact_ls")
    return PrimalPredictor(weights=w)


def _factored_product(system: np.ndarray, diagonal: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K @ v for the K that ``dpotrf('U')`` factored in place in ``system``,
    the Fortran view ``k.T`` of KRR's C-ordered K: dsymv reads the view's
    strict lower triangle (K's strict upper), which dpotrf leaves as it was,
    with K's ``diagonal`` swapped in for U's during the call."""
    u_diagonal = system.diagonal().copy()
    np.fill_diagonal(system, diagonal)
    product = lower_symmetric_product(system, v)
    np.fill_diagonal(system, u_diagonal)
    return product


def krr(dataset: Dataset, kernel: Kernel = LINEAR_KERNEL, lam: float | None = None) -> DualPredictor:
    """Kernel ridge regression: coefficients (K + lam*n*I)^(-1) y on all points.

    K + lam*n*I is factored in place through its Fortran view, reading K's
    lower triangle, and residual-checked from K's strict upper triangle and
    saved diagonal, which the factor leaves (module docstring). The built-in
    kernels are PSD by construction, so the full eigencheck runs only on the
    cold path where Cholesky factorization breaks down.
    """
    n = dataset.n_samples
    lam = real("lam", resolve_lam(lam, n), 0, strict=True)  # > 0: K may be singular
    k = kernel.matrix(dataset.features, dataset.features)
    k.flat[:: n + 1] += lam * n  # in place: K becomes K + lam*n*I
    system = k.T  # the Fortran view of k's own memory
    diagonal = system.diagonal().copy()
    try:
        factor = cholesky_upper(system)
        solve = lambda r: cholesky_solve(factor, r)
        product = lambda v: _factored_product(system, diagonal, v)
    except np.linalg.LinAlgError:
        del system, k  # the failed factor overwrote part of the buffer
        k = kernel.matrix(dataset.features, dataset.features)
        check_kernel_psd(k)
        k.flat[:: n + 1] += lam * n
        solve, product = _eig_clip_solver(k.T), lambda v: k.T @ v
    alpha = _gated(solve, product, dataset.labels, "krr")
    return DualPredictor(coefficients=alpha, landmarks=dataset.features, kernel=kernel)


def check_kernel_psd(k: np.ndarray) -> None:
    """Raise unless the matrix is PSD up to eigenvalues >= -1e-8 * scale."""
    evals = np.linalg.eigvalsh((k + k.T) / 2.0)
    if float(evals[0]) < -KERNEL_PSD_RTOL * max(float(np.max(np.abs(evals))), 1.0):
        raise KernelNotPSDError(
            f"kernel matrix has eigenvalue {evals[0]:.3e} below PSD tolerance"
        )


def _symmetric_product(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``matrix @ v`` from the upper triangle alone, the one KRR's gate reads.

    ``matrix.T`` is the Fortran-ordered view of a C-ordered matrix, so dsymv
    gets it without a copy, and its lower triangle is ``matrix``'s upper.
    """
    return lower_symmetric_product(matrix.T, v)


def top_eigenvalue(matrix: np.ndarray, seed: int = 0) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration,
    reading its upper triangle."""
    dim = matrix.shape[0]
    rng = child_rng(seed, "power-iteration")
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(POWER_ITER_MAX):
        w = _symmetric_product(matrix, v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new_estimate = float(v @ w)
        v = w / norm
        if abs(new_estimate - estimate) <= POWER_ITER_TOL * max(abs(new_estimate), 1e-30):
            return new_estimate
        estimate = new_estimate
    return estimate


def early_stopping_gd(
    dataset: Dataset,
    kernel: Kernel = LINEAR_KERNEL,
    config: SolverConfig = SolverConfig(),
) -> Predictor:
    """Fixed-budget full-gradient descent on the unregularized empirical risk.

    Starts from zero and runs exactly ``max_iters`` iterations (default
    ceil(sqrt(n))), relying on the iteration budget, not a penalty term, to
    regularize. The step must not exceed 1/L, where L is the top curvature
    (Hessian eigenvalue, twice the top covariance eigenvalue) of the risk;
    auto mode uses exactly 1/L, which makes the risk non-increasing.
    """
    n = dataset.n_samples
    t = config.max_iters if config.max_iters is not None else ceil_sqrt(n)
    a, y = dataset.features, dataset.labels
    # One loop for both forms: residual forward(coef) - y, step along back(residual).
    # Primal: forward a @ c, back a.T @ r, curvature of the d x d Gram. Dual:
    # forward K @ c from K's upper triangle, curvature of K.
    if kernel.kind == "linear":
        gram = a.T @ a
        forward, back = lambda c: a @ c, lambda r: a.T @ r
    else:
        gram = kernel.matrix(a, a)
        forward, back = lambda c: _symmetric_product(gram, c), lambda r: r
    curvature = 2.0 * top_eigenvalue(gram, seed=config.seed) / n
    auto_step = 1.0 / curvature if curvature > 0 else 1.0
    step = config.step_size if config.step_size is not None else auto_step
    coef = np.zeros(gram.shape[0])
    rises = 0
    prev_risk = float(y @ y) / n
    for _ in range(t):
        resid = forward(coef) - y
        coef = coef - step * (2.0 / n) * back(resid)
        risk = float(resid @ resid) / n  # risk at the pre-update iterate
        rises = rises + 1 if risk > prev_risk * (1.0 + 1e-12) else 0
        if rises >= 5:
            raise DivergenceError(step_size=step, n_increases=rises)
        prev_risk = risk
    if kernel.kind == "linear":
        return PrimalPredictor(weights=coef)
    return DualPredictor(coefficients=coef, landmarks=a, kernel=kernel)


def divide_and_conquer(
    dataset: Dataset,
    kernel: Kernel = LINEAR_KERNEL,
    config: SolverConfig = SolverConfig(),
) -> DualPredictor:
    """KRR on p disjoint blocks (seeded shuffle), predictors averaged uniformly.

    The averaged model is represented as one dual predictor: block
    coefficients scaled by 1/p over the concatenated block landmarks. ``lam``
    is resolved against the full dataset size and shared by every block.
    """
    n = dataset.n_samples
    p = config.partitions
    if p > n:
        raise ConfigError(f"partitions={p} exceeds n={n}")
    lam = resolve_lam(config.lam, n)
    perm = child_rng(config.seed, "blocks").permutation(n)
    coeffs, points = [], []
    for block in np.array_split(perm, p):
        sub = Dataset(features=dataset.features[block], labels=dataset.labels[block])
        fitted = krr(sub, kernel, lam)
        coeffs.append(fitted.coefficients / p)
        points.append(fitted.landmarks)
    return DualPredictor(
        coefficients=np.concatenate(coeffs),
        landmarks=np.concatenate(points, axis=0),
        kernel=kernel,
    )


def nystrom(
    dataset: Dataset,
    kernel: Kernel = LINEAR_KERNEL,
    config: SolverConfig = SolverConfig(),
) -> DualPredictor:
    """Landmark-subsampled KRR.

    Samples m landmarks uniformly without replacement (seeded shuffle prefix)
    and solves (Knm^T Knm + lam*n*Kmm) alpha = Knm^T y. The squared system
    can be numerically singular (e.g. near m = n, or a linear kernel with
    m > d), so a failed Cholesky falls back to the eigenvalue-clipped solve.
    That is common: squaring the system squares its condition number, and a
    linear kernel took the clipped solve in 15 of 20 fits (n 64..4096,
    m = ceil(sqrt(n))). Like every solve, it must pass the residual gate;
    one that does not raises NumericalError.
    """
    n = dataset.n_samples
    m = config.landmarks if config.landmarks is not None else ceil_sqrt(n)
    if m > n:
        raise ConfigError(f"landmarks={m} exceeds n={n}")
    lam = resolve_lam(config.lam, n)
    idx = child_rng(config.seed, "landmarks").permutation(n)[:m]
    points = dataset.features[idx]
    knm = kernel.matrix(dataset.features, points)
    kmm = kernel.matrix(points, points)
    system = knm.T @ knm + (lam * n) * kmm
    if lam == 0.0:
        _check_not_singular(system, "nystrom")
    rhs = knm.T @ dataset.labels
    alpha = _solve_spd(system, rhs, "nystrom")
    return DualPredictor(coefficients=alpha, landmarks=points, kernel=kernel)


# ---------------------------------------------------------------------------
# predictor serialization

def predictor_to_json(predictor: Predictor) -> dict:
    if isinstance(predictor, PrimalPredictor):
        return {"form": "primal", "weights": predictor.weights.tolist()}
    return {
        "form": "dual",
        "coefficients": predictor.coefficients.tolist(),
        "landmarks": predictor.landmarks.tolist(),
        "kernel": asdict(predictor.kernel),
    }


_PREDICTOR_FIELDS = {"primal": ("weights",), "dual": ("coefficients", "landmarks", "kernel")}


def predictor_from_json(obj: dict) -> Predictor:
    form = obj.get("form") if isinstance(obj, dict) else None
    if form not in _PREDICTOR_FIELDS:
        raise ConfigError(f"unknown predictor form {form!r}")
    fields = _PREDICTOR_FIELDS[form]
    if set(obj) != {"form", *fields}:
        raise ConfigError(f"{form} predictor needs fields {list(fields)}, got {sorted(set(obj) - {'form'})}")

    def array(field: str) -> np.ndarray:  # entry by entry: a float array would take true or "1.5"
        values = np.asarray(obj[field], dtype=object)
        return np.array([real(field, value) for value in values.flat]).reshape(values.shape)

    if form == "primal":
        return PrimalPredictor(weights=array("weights"))
    kernel = obj["kernel"]  # a linear block may omit its null bandwidth, as files before schema 14 do
    if not (isinstance(kernel, dict) and set(kernel) <= {"kind", "bandwidth"}):
        raise ConfigError(f"predictor field `kernel` must be an object of kind and bandwidth, got {kernel!r}")
    return DualPredictor(
        coefficients=array("coefficients"),
        landmarks=array("landmarks"),
        kernel=Kernel(**kernel),
    )


def save_predictor(predictor: Predictor, path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(predictor_to_json(predictor), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_predictor(path) -> Predictor:
    return predictor_from_json(read_json(path))
