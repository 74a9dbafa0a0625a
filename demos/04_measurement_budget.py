"""How many measurements does the readout step need?

Extracting a classical weight vector from the solver costs m measurements,
with readout error tau = a/m at the metrology-assisted (heisenberg) limit
or a/sqrt(m) at the shot-noise limit. Budgeting m = ceil(sqrt(n))
measurements keeps the readout penalty negligible; an under-budgeted
m = ceil(n^(1/4)) leaves tau^2 = n^(-1/2) of extra risk, which visibly
flattens the excess-risk decay (squared loss makes the risk penalty
quadratic in tau, so the degraded curve decays like n^(-1/2)).
"""

from qlimits import SweepConfig, measurement_experiment, required_measurements

config = SweepConfig(
    n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
    trials=10,
    master_seed=0,
)

print("minimal measurement budgets for readout error <= n^(-1/2):")
print(f"{'n':>6s} {'heisenberg':>11s} {'shot noise':>11s}")
for n in (100, 10_000, 1_000_000):
    print(f"{n:6d} {required_measurements(n, 'heisenberg'):11d} "
          f"{required_measurements(n, 'shot_noise'):11d}")

report = measurement_experiment(config, regime="heisenberg")

print("\nexcess-risk ratio vs the exact solver (heisenberg readout):\n")
print(f"{'n':>6s} {'m=ceil(sqrt(n))':>16s} {'m=ceil(n^0.25)':>15s}")
budget = dict(report.ratios("budget"))
degraded = dict(report.ratios("degraded"))
for n in config.n_grid:
    print(f"{n:6d} {budget[n]:16.3f} {degraded[n]:15.2f}")

for arm in ("exact", "budget", "degraded"):
    fit = report.arm_fit(arm)
    print(f"excess-risk decay, {arm:9s} arm: n^({fit.exponent:.3f})")

print("\nThe sqrt(n) budget tracks the exact solver; the n^(1/4) budget drags")
print("the decay toward the readout-dominated n^(-1/2) law.")
