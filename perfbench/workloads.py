"""The benchmark's workloads: the excess-risk sweeps behind the paper's results.

All use the default problem (d=10, sigma=0.5, unit-sphere inputs, linear
target) and run serially (workers=1). Each workload is a pair of functions:
``configs(seed)`` builds its sweep configs (part of set-up), and
``run(configs, csv_path)`` executes them, writes the sweep CSV and checks the
outputs.

* ``rate_sweep``: the gate-1 acceptance sweep. Its time goes to drawing the
  1e5-point evaluation samples; solves are under 1%. A faster risk or
  sampling path shows here; a faster solver must not.
* ``paired_sweeps``: the matching and measurement experiments. The only
  workload that runs the qmodel error channels, and every training set,
  evaluation sample and exact solve is repeated across its six arms, so
  shared-cell work shows here and nowhere else.
* ``kernel_sweep``: Gaussian-kernel krr, nystrom, early-stopped gradient
  descent and divide-and-conquer at a small evaluation size. Solvers and
  ``Kernel.matrix`` dominate; evaluation draws do not.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from qlimits import scaling
from qlimits.solvers import Kernel, SolverConfig

ACCEPTANCE_GRID = tuple(2**k for k in range(6, 14))  # 64 ... 8192
KERNEL_GRID = (256, 512, 1024, 2048)
KERNEL_SOLVERS = ("krr", "nystrom", "early_stopping_gd", "divide_and_conquer")


@dataclass
class Outcome:
    cells: int
    failed_cells: int
    checks: dict  # name -> bool; every one must hold for a correct run
    recorded: dict  # reported, never required
    csv_sha256: str


def _finish(tables, checks: dict, recorded: dict, csv_path) -> Outcome:
    """Write the sweep CSV and add the checks every workload shares."""
    scaling.write_sweep_csv(csv_path, tables)
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    rows = [row for table in tables for row in table.rows]
    failed = sum(row.trials_failed for row in rows)
    shared = {
        "every_cell_ok": failed == 0,
        "medians_finite_and_above_minus_3se": all(
            math.isfinite(row.median_excess)
            and row.median_excess >= -3.0 * row.median_std_error
            for row in rows
        ),
    }
    return Outcome(
        cells=sum(row.trials_ok + row.trials_failed for row in rows),
        failed_cells=failed,
        checks={**shared, **checks},
        recorded=recorded,
        csv_sha256=digest,
    )


def acceptance_configs(seed: int) -> list:
    return [scaling.SweepConfig(n_grid=ACCEPTANCE_GRID, trials=20, n_eval=100_000, master_seed=seed)]


def run_rate_sweep(configs, csv_path) -> Outcome:
    (config,) = configs
    table = scaling.sweep_excess_risk(config, "exact_ls")
    summary = scaling.rate_summary(table)
    # Gate 1's lower exponent bound (-0.8) fails by chance at some seeds
    # (risk falling faster than the gate allows), so the benchmark requires
    # only the upper bound: the risk falls at least as fast as n^-0.3.
    checks = {"rate_exponent_at_most_upper_bound": summary["fit"]["exponent"] <= scaling.RATE_EXPONENT_RANGE[1]}
    recorded = {"rate_ok": summary["rate_ok"], "rate_fit": summary["fit"]}
    return _finish([table], checks, recorded, csv_path)


def run_paired_sweeps(configs, csv_path) -> Outcome:
    (config,) = configs
    matching = scaling.matching_experiment(config, matched_c0=0.1, constant_gamma=0.3)
    measurement = scaling.measurement_experiment(
        config, regime="heisenberg", budget_rule="sqrt_n", degraded_rule="fourth_root_n"
    )
    match = scaling.matching_summary(matching)
    measure = scaling.measurement_summary(measurement)
    checks = {
        "matched_ok": match["matched_ok"],
        "constant_ok": match["constant_ok"],
        "budget_ok": measure["budget_ok"],
    }
    # Gate 4b is red by design: excess risk is quadratic in the readout error.
    recorded = {
        "degraded_ok": measure["degraded_ok"],
        "degraded_exponent": measure["degraded_exponent"],
        "max_ratio_matched": match["max_ratio_matched"],
        "ratio_constant_at_n_max": match["ratio_constant_at_n_max"],
        "max_ratio_budget": measure["max_ratio_budget"],
    }
    tables = [*matching.arm_tables().values(), *measurement.arm_tables().values()]
    return _finish(tables, checks, recorded, csv_path)


def kernel_configs(seed: int) -> list:
    gaussian = Kernel("gaussian", 1.0)
    return [
        scaling.SweepConfig(
            n_grid=KERNEL_GRID,
            trials=5,
            solver=solver,
            solver_config=SolverConfig(partitions=4 if solver == "divide_and_conquer" else 1),
            kernel=gaussian,
            n_eval=4000,
            master_seed=seed,
        )
        for solver in KERNEL_SOLVERS
    ]


def run_kernel_sweep(configs, csv_path) -> Outcome:
    tables = [scaling.sweep_excess_risk(config, config.solver) for config in configs]
    exponents = {}
    for table in tables:
        medians = table.medians()
        fits = len(medians) == len(table.rows) and all(v > 0 for _, v in medians)
        exponents[table.label] = scaling.fit_scaling(medians).exponent if fits else None
    return _finish(tables, {}, {"excess_risk_exponents": exponents}, csv_path)


WORKLOADS = {
    "rate_sweep": (acceptance_configs, run_rate_sweep),
    "paired_sweeps": (acceptance_configs, run_paired_sweeps),
    "kernel_sweep": (kernel_configs, run_kernel_sweep),
}
