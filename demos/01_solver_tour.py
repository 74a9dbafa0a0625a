"""Tour of the five solvers on one synthetic problem.

Fits the closed-form Tikhonov solver, kernel ridge regression, early-stopped
gradient descent, divide-and-conquer, and Nystrom subsampling on the same
training set, then scores each against the known Bayes risk.
"""

from qlimits import (
    Kernel,
    LINEAR_KERNEL,
    SolverConfig,
    SyntheticProblem,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    excess_risk,
    krr,
    nystrom,
    sample_dataset,
)

N = 1024
problem = SyntheticProblem(dimension=10, noise_std=0.5, seed=0)
train = sample_dataset(problem, N, seed=1)
lam = N**-0.5
gauss = Kernel("gaussian", bandwidth=1.0)

print(f"problem: d={problem.dimension}, sigma={problem.noise_std}, "
      f"bayes risk={problem.bayes_risk}")
print(f"training set: n={N}, default ridge lam=n^(-1/2)={lam:.4f}\n")

fits = {
    "exact_ls": exact_ls(train, lam),
    "krr (gaussian)": krr(train, gauss, lam),
    "early_stopping_gd": early_stopping_gd(train, LINEAR_KERNEL, SolverConfig()),
    "divide_and_conquer (p=8)": divide_and_conquer(
        train, gauss, SolverConfig(lam=lam, partitions=8)
    ),
    "nystrom (m=32)": nystrom(train, gauss, SolverConfig(lam=lam, landmarks=32)),
}

print(f"{'solver':28s} {'excess risk':>12s}")
for name, predictor in fits.items():
    excess = excess_risk(predictor, problem, n_eval=100_000, seed=2)
    print(f"{name:28s} {excess:12.3e}")

print("\nEvery route lands within a small multiple of the same statistical "
      "floor; the cheap approximations give up little accuracy.")
