"""Synthetic regression problems with analytically known Bayes risk.

A problem is a linear target ``y = w*.x + noise`` with Gaussian label noise,
so the Bayes risk equals the noise variance exactly and excess risk can be
measured against ground truth. Four scalars determine it: the dimension, the
noise level, the input law and the seed from which ``w*`` is drawn. Inputs
are bounded by construction: either uniform on the unit sphere (norm exactly
1) or standard Gaussian clipped to radius ``3 * sqrt(d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integer, real
from .rng import child_rng

INPUT_LAWS = ("unit_sphere_uniform", "gaussian_clipped")

GAUSSIAN_CLIP_FACTOR = 3.0

# Entries of x squared at a time for the input norms (64 KiB of float64)
NORM_BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class SyntheticProblem:
    """Known data distribution: linear target plus Gaussian label noise.

    The four fields determine it and are the keys of a config's ``problem``
    block. ``target_weights``, a read-only direction drawn uniformly from
    ``seed``, is an attribute but not a field, so equality, hashing and
    ``dataclasses.asdict`` go by the four scalars. ``bayes_risk`` is
    ``noise_std ** 2`` by construction; the target itself achieves it, so the
    hypothesis class of linear functions has no irreducible deficit.
    """

    dimension: int = 10
    noise_std: float = 0.5
    input_law: str = "unit_sphere_uniform"
    seed: int = 0

    def __post_init__(self):
        # checked before the draw, since unit_vector never returns at dimension 0
        integer("dimension", self.dimension, 1)
        integer("seed", self.seed)
        object.__setattr__(self, "noise_std", real("noise_std", self.noise_std, 0))
        if self.input_law not in INPUT_LAWS:
            raise ConfigError(f"unknown input_law {self.input_law!r}, expected one of {INPUT_LAWS}")
        w = unit_vector(child_rng(self.seed, "target"), self.dimension)
        w.flags.writeable = False
        object.__setattr__(self, "target_weights", w)

    def __reduce__(self):
        # a pickled problem (as a pool worker receives) redraws its weights from the fields
        return SyntheticProblem, (self.dimension, self.noise_std, self.input_law, self.seed)

    def build(self) -> SyntheticProblem:
        """This problem; kept because the benchmark's set-up
        (``perfbench/child.py``) calls ``problem.build()``."""
        return self

    @property
    def bayes_risk(self) -> float:
        return float(self.noise_std**2)

    @property
    def input_radius(self) -> float:
        """Upper bound on the norm of every sampled input."""
        if self.input_law == "unit_sphere_uniform":
            return 1.0
        return GAUSSIAN_CLIP_FACTOR * float(np.sqrt(self.dimension))


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. sample: feature matrix (n, d), labels (n,)."""

    features: np.ndarray
    labels: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ConfigError(f"features must be a (n >= 1, d) matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ConfigError(f"labels shape {y.shape} does not match {x.shape[0]} samples")
        if not (_all_finite(x) and _all_finite(y)):
            raise ConfigError("dataset entries must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, read from its min and max (both
    propagate NaN), so no mask the size of ``a`` is made."""
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def unit_vector(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """A uniformly random direction in R^dimension."""
    while True:
        v = rng.standard_normal(dimension)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


def _sample_inputs(problem: SyntheticProblem, n: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal((n, problem.dimension))
    # np.linalg.norm's sum of squares, without the copy its conj() makes, taken
    # one row block at a time; x is then scaled in place, so a draw holds x, its
    # n norms and one block of squares, never a second n x d array
    norms = np.empty(n)
    rows = max(1, NORM_BLOCK_ENTRIES // problem.dimension)
    for start in range(0, n, rows):
        block = x[start:start + rows]
        np.add.reduce(block * block, axis=1, out=norms[start:start + rows])
    np.sqrt(norms, out=norms)
    if problem.input_law == "unit_sphere_uniform":
        # A zero draw has probability zero; guard against it anyway.
        norms[norms < 1e-12] = 1.0
        x /= norms[:, None]
        return x
    radius = problem.input_radius
    over = norms > radius
    if np.any(over):
        x[over] *= (radius / norms[over])[:, None]
    return x


def sample_dataset(problem: SyntheticProblem, n: int, seed: int = 0) -> Dataset:
    """n i.i.d. samples; bit-identical for a fixed (problem, n, seed)."""
    n = integer("n", n, 1)
    rng = child_rng(seed, "dataset")
    x = _sample_inputs(problem, n, rng)
    labels = x @ problem.target_weights
    if problem.noise_std > 0:
        # clean + noise_std * z in place; the noise vector is dropped before Dataset checks x
        noise = rng.standard_normal(n)
        noise *= problem.noise_std
        labels += noise
        del noise
    return Dataset(features=x, labels=labels, seed=seed)


# ---------------------------------------------------------------------------
# CSV import/export: header "x0,...,x{d-1},y", one sample per row.

def write_dataset_csv(dataset: Dataset, path) -> None:
    d = dataset.dimension
    header = ",".join([f"x{j}" for j in range(d)] + ["y"])
    lines = [header]
    for i in range(dataset.n_samples):
        row = [f"{v:.17g}" for v in dataset.features[i]]
        row.append(f"{dataset.labels[i]:.17g}")
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset_csv(path) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    header = lines[0].strip() if lines else ""
    cols = header.split(",")
    if len(cols) < 2 or cols[-1] != "y" or cols[:-1] != [f"x{j}" for j in range(len(cols) - 1)]:
        raise ConfigError(f"{path}: expected header 'x0,...,x{{d-1}},y', got {header!r}")
    d = len(cols) - 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ConfigError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(features=arr[:, :d], labels=arr[:, d], seed=None)
