"""Symbolic runtime costs of the fast linear-system solvers.

Two families matter: solvers whose cost grows only logarithmically in the
inverse precision, and solvers that pay a polynomial (here cubic) price.
Once the precision is matched to the statistical error gamma = n^(-1/2),
the poly-error family inherits an n^(beta/2) factor, which is where the
train/test complexity ladder's polynomial entries come from.
"""

from qlimits import (
    complexity_table,
    cost_log_error_solver,
    cost_matched_precision,
    cost_poly_error_solver,
)

print("cost in operation units at kappa=10, |A|_F = sqrt(n):\n")
print(f"{'n':>8s} {'gamma':>10s} {'log-error':>12s} {'poly-error':>14s}")
for n in (1024, 4096, 16384, 65536):
    gamma = float(n) ** -0.5
    print(f"{n:8d} {gamma:10.4f} {cost_log_error_solver(10.0, float(n) ** 0.5, n, gamma):12.3g} "
          f"{cost_poly_error_solver(10.0, n, gamma):14.3g}")

print("\nmatched-precision cost kappa^c n^(beta/2) log2(n) at kappa=10, c=2:")
print(f"{'n':>8s} {'beta=3':>12s} {'beta=4':>12s}")
for n in (1024, 4096, 16384, 65536):
    row = [cost_matched_precision(10.0, n, beta, 2) for beta in (3, 4)]
    print(f"{n:8d} {row[0]:12.3g} {row[1]:12.3g}")

print("\ntrain/test complexity ladder (exponents of n):\n")
print(f"{'algorithm':>16s} {'train':>6s} {'test':>6s} {'quantum':>8s} {'retrains':>9s}")
for entry in complexity_table():
    print(f"{entry.algorithm:>16s} {str(entry.train_exponent):>6s} "
          f"{str(entry.test_exponent):>6s} {str(entry.is_quantum):>8s} "
          f"{str(entry.test_includes_retraining):>9s}")

print("\nThe quantum rows' test exponents include retraining: the trained state")
print("cannot be copied, so every test round pays the training cost again.")
