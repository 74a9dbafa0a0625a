"""Why solver precision must shrink with the training size.

A noisy solver returns the exact weights shifted by a random direction of
magnitude gamma. If gamma is matched to the statistical error (gamma =
c0 * n^(-1/2)) the extra error stays buried under the estimation error at
every n. A constant gamma instead puts a floor under the excess risk, and
the noisy/exact ratio blows up as n grows.
"""

from qlimits import SweepConfig, matching_experiment

config = SweepConfig(
    n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
    trials=10,
    master_seed=0,
)

report = matching_experiment(config, matched_c0=0.1, constant_gamma=0.3)

print("excess-risk ratio vs the exact solver (shared data per cell):\n")
print(f"{'n':>6s} {'matched gamma=0.1/sqrt(n)':>26s} {'constant gamma=0.3':>20s}")
matched = dict(report.ratios("matched"))
constant = dict(report.ratios("constant"))
for n in config.n_grid:
    print(f"{n:6d} {matched[n]:26.3f} {constant[n]:20.2f}")

print("\nThe matched schedule never pays more than a few percent; the constant")
print("schedule falls behind by an ever-growing factor because its injected")
print("error no longer shrinks while the statistical error does.")
