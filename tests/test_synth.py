import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlimits import (
    ConfigError,
    Dataset,
    PrimalPredictor,
    SyntheticProblem,
    empirical_risk,
    read_dataset_csv,
    sample_dataset,
    write_dataset_csv,
)
from qlimits.rng import child_rng, derive_seed
from qlimits.synth import NORM_BLOCK_ENTRIES


@pytest.mark.parametrize("sigma,expected", [(0.0, 0.0), (0.5, 0.25), (2.0, 4.0)])
def test_bayes_risk_is_noise_variance(sigma, expected):
    problem = SyntheticProblem(10, sigma, seed=1)
    assert problem.bayes_risk == expected


def test_make_problem_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        SyntheticProblem(0, 0.5)
    with pytest.raises(ConfigError):
        SyntheticProblem(3, -0.1)
    with pytest.raises(ConfigError):
        SyntheticProblem(3, math.nan)
    with pytest.raises(ConfigError):
        SyntheticProblem(3, 0.5, input_law="cauchy")


def test_target_weights_unit_norm_and_seeded():
    a = SyntheticProblem(7, 0.1, seed=42)
    b = SyntheticProblem(7, 0.1, seed=42)
    c = SyntheticProblem(7, 0.1, seed=43)
    assert np.linalg.norm(a.target_weights) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(a.target_weights, b.target_weights)
    assert not np.array_equal(a.target_weights, c.target_weights)


def _target_draw_oracle(seed, d):
    """The target weights as drawn before the problem type drew its own: a
    standard normal vector from the seed's "target" stream, normalised."""
    rng = child_rng(seed, "target")
    while True:
        v = rng.standard_normal(d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


@pytest.mark.parametrize("law", ["unit_sphere_uniform", "gaussian_clipped"])
@pytest.mark.parametrize("d, seed", [(1, 0), (3, 7), (10, 0), (64, 2**32)])
def test_problem_is_its_four_scalars_and_draws_the_same_target(d, seed, law):
    problem = SyntheticProblem(d, 0.5, law, seed)
    w = problem.target_weights
    assert w.tobytes() == _target_draw_oracle(seed, d).tobytes()
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.target_weights = np.ones(d)
    twin = SyntheticProblem(dimension=d, noise_std=0.5, input_law=law, seed=seed)
    assert twin == problem and hash(twin) == hash(problem)
    assert SyntheticProblem(d, 0.5, law, seed + 1) != problem
    copy = pickle.loads(pickle.dumps(problem))
    assert copy == problem and hash(copy) == hash(problem)
    assert copy.target_weights.tobytes() == w.tobytes() and not copy.target_weights.flags.writeable
    assert dataclasses.asdict(problem) == {
        "dimension": d, "noise_std": 0.5, "input_law": law, "seed": seed,
    }
    assert type(SyntheticProblem(d, 1, law, seed).noise_std) is float


def test_noiseless_labels_are_exact():
    problem = SyntheticProblem(4, 0.0, seed=7)
    ds = sample_dataset(problem, 5, seed=3)
    np.testing.assert_array_equal(ds.labels, ds.features @ problem.target_weights)


def test_same_seed_reproduces_bit_exactly():
    problem = SyntheticProblem(3, 1.0, seed=1)
    a = sample_dataset(problem, 50, seed=3)
    b = sample_dataset(problem, 50, seed=3)
    c = sample_dataset(problem, 50, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_label_noise_variance_matches_sigma():
    # direct law-of-large-numbers check on the residuals
    problem = SyntheticProblem(2, 1.0, seed=5)
    ds = sample_dataset(problem, 10_000, seed=9)
    residuals = ds.labels - ds.features @ problem.target_weights
    assert np.var(residuals, ddof=1) == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("law", ["unit_sphere_uniform", "gaussian_clipped"])
def test_input_norms_bounded(law):
    problem = SyntheticProblem(6, 0.3, input_law=law, seed=2)
    ds = sample_dataset(problem, 500, seed=11)
    norms = np.linalg.norm(ds.features, axis=1)
    assert np.all(norms <= problem.input_radius * (1 + 1e-12))
    if law == "unit_sphere_uniform":
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_bayes_predictor_has_zero_risk_on_noiseless_problem():
    # without noise every label is x.w*, so the target's loss is exactly 0
    problem = SyntheticProblem(5, 0.0, seed=3)
    sample = sample_dataset(problem, 1000, seed=8)
    assert empirical_risk(PrimalPredictor(problem.target_weights), sample) == 0.0


def test_sample_dataset_rejects_empty():
    problem = SyntheticProblem(2, 0.1)
    with pytest.raises(ConfigError):
        sample_dataset(problem, 0, seed=1)
    for n in (2.5, True, "8"):  # a size is an integer
        with pytest.raises(ConfigError, match="`n`"):
            sample_dataset(problem, n, seed=1)


@pytest.mark.parametrize("seed", [True, "a", 1.5, None])
def test_a_master_seed_is_an_integer(seed):
    # a bool would draw as 1 and a string as its UTF-8 bytes; path tags stay strings or ints
    with pytest.raises(ConfigError, match="`seed` must be an integer"):
        sample_dataset(SyntheticProblem(2), 4, seed=seed)
    with pytest.raises(ConfigError, match="`seed` must be an integer"):
        derive_seed(seed, "x")
    with pytest.raises(ConfigError, match="`seed` must be an integer"):
        child_rng(seed)
    assert derive_seed(np.int64(3), "x", 4) == derive_seed(3, "x", np.int64(4))


def test_csv_roundtrip_bit_exact(tmp_path):
    problem = SyntheticProblem(3, 0.7, seed=4)
    ds = sample_dataset(problem, 20, seed=6)
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    loaded = read_dataset_csv(path)
    np.testing.assert_array_equal(loaded.features, ds.features)
    np.testing.assert_array_equal(loaded.labels, ds.labels)
    first = path.read_bytes()
    write_dataset_csv(ds, path)
    assert path.read_bytes() == first
    assert first.decode().splitlines()[0] == "x0,x1,x2,y"


def test_csv_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("a,b,y\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_dataset_csv(bad_header)
    bad_row = tmp_path / "b.csv"
    bad_row.write_text("x0,y\n1.0\n")
    with pytest.raises(ConfigError):
        read_dataset_csv(bad_row)
    empty = tmp_path / "c.csv"
    empty.write_text("x0,y\n")
    with pytest.raises(ConfigError):
        read_dataset_csv(empty)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 6),
    sigma=st.floats(0.0, 2.0),
    law=st.sampled_from(["unit_sphere_uniform", "gaussian_clipped"]),
    seed=st.integers(0, 2**32),
    n=st.integers(1, 64),
)
def test_sampling_invariants(d, sigma, law, seed, n):
    problem = SyntheticProblem(d, sigma, input_law=law, seed=seed)
    ds = sample_dataset(problem, n, seed=seed)
    again = sample_dataset(problem, n, seed=seed)
    np.testing.assert_array_equal(ds.features, again.features)
    np.testing.assert_array_equal(ds.labels, again.labels)
    assert np.all(np.isfinite(ds.features)) and np.all(np.isfinite(ds.labels))
    norms = np.linalg.norm(ds.features, axis=1)
    assert np.all(norms <= problem.input_radius * (1 + 1e-12))


def _sample_dataset_with_full_temporaries(problem, n, seed):
    """The draw as it was written before its norms were taken by row blocks:
    one n x d ``x * x`` for the norms, and labels ``clean + sigma * z``."""
    rng = child_rng(seed, "dataset")
    x = rng.standard_normal((n, problem.dimension))
    norms = np.sqrt(np.add.reduce(x * x, axis=1))
    if problem.input_law == "unit_sphere_uniform":
        norms[norms < 1e-12] = 1.0
        x /= norms[:, None]
    else:
        radius = problem.input_radius
        over = norms > radius
        if np.any(over):
            x[over] *= (radius / norms[over])[:, None]
    clean = x @ problem.target_weights
    if problem.noise_std > 0:
        return x, clean + problem.noise_std * rng.standard_normal(n)
    return x, clean


@pytest.mark.parametrize("law", ["unit_sphere_uniform", "gaussian_clipped"])
@pytest.mark.parametrize("d", [1, 3, 10, 64])
def test_blocked_draw_keeps_every_bit_of_the_full_temporary_draw(law, d):
    block = NORM_BLOCK_ENTRIES // d  # rows of x squared at a time
    for n in sorted({1, block - 1, block, block + 1, 3 * block + 7, 8192}):
        for sigma in (0.0, 0.5):
            problem = SyntheticProblem(d, sigma, input_law=law, seed=d)
            ds = sample_dataset(problem, n, seed=n)
            x, labels = _sample_dataset_with_full_temporaries(problem, n, n)
            assert ds.features.tobytes() == x.tobytes(), (n, sigma)
            assert ds.labels.tobytes() == labels.tobytes(), (n, sigma)


def _draw_peak(law, n, d):
    """The tracemalloc peak of one draw, and its features' bytes."""
    problem = SyntheticProblem(d, 0.5, input_law=law, seed=1)
    sample_dataset(problem, n, seed=0)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        ds = sample_dataset(problem, n, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, ds.features.nbytes


@pytest.mark.parametrize("law", ["unit_sphere_uniform", "gaussian_clipped"])
def test_draw_holds_no_second_n_by_d_array(law):
    # x itself, one block of squares and a few n-vectors (norms, labels,
    # noise); Dataset checks finiteness by min and max, with no mask, and an
    # n x d temporary is 10 more
    n = 8192
    peak, features = _draw_peak(law, n, 10)
    assert peak <= features + 8 * NORM_BLOCK_ENTRIES + 3 * 8 * n


@pytest.mark.parametrize("law", ["unit_sphere_uniform", "gaussian_clipped"])
def test_wide_draw_holds_no_n_by_d_finiteness_mask(law):
    # at d = 64 a boolean n x d mask (512 KiB) is twice the n-vector allowance
    n = 8192
    peak, features = _draw_peak(law, n, 64)
    assert peak <= features + 8 * NORM_BLOCK_ENTRIES + 3 * 8 * n


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["features", "labels"])
def test_dataset_rejects_a_non_finite_entry(tmp_path, bad, where):
    x, y = np.ones((4, 3)), np.ones(4)
    (x[2, 1:2] if where == "features" else y[3:])[:] = bad
    with pytest.raises(ConfigError, match="finite"):
        Dataset(x, y)
    path = tmp_path / "data.csv"
    rows = [",".join(f"{v}" for v in [*row, label]) for row, label in zip(x, y)]
    path.write_text("\n".join(["x0,x1,x2,y", *rows]) + "\n")
    with pytest.raises(ConfigError, match="finite"):
        read_dataset_csv(path)


def test_dataset_keeps_accepting_finite_and_zero_width_features():
    assert Dataset(np.full((2, 3), -1e308), np.array([1e308, 0.0])).n_samples == 2
    assert Dataset(np.empty((5, 0)), np.zeros(5)).dimension == 0
