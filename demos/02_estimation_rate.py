"""Measure how excess risk decays with training-set size.

Sweeps the exact Tikhonov solver (lam = n^(-1/2)) over a geometric grid of
training sizes and fits a power law to the per-size median excess risk. At
desk scale the fitted exponent sits around -0.7: between the worst-case
n^(-1/2) statistical rate and the fast n^(-1) rate this easy linear problem
would reach asymptotically.
"""

from qlimits import SweepConfig, sweep_excess_risk
from qlimits.scaling import rate_summary

config = SweepConfig(
    n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
    trials=10,
    master_seed=0,
)

table = sweep_excess_risk(config, label="exact_ls")

print(f"{'n':>6s} {'median excess':>14s} {'IQR':>10s}")
for row in table.rows:
    print(f"{row.n:6d} {row.median_excess:14.4e} {row.iqr_excess:10.2e}")

summary = rate_summary(table)
fit = summary["fit"]
print(f"\nfitted excess risk ~ n^({fit['exponent']:.3f}),  r^2 = {fit['r_squared']:.4f}")
print(f"exponent within the accepted band {summary['exponent_range']}: "
      f"{summary['rate_ok']}")
