"""Run-to-run spread of acceptance gate 7 (the runtime ladder), one fresh process per run.

    PYTHONPATH=src python scripts/gate7_spread.py               # 10 runs
    PYTHONPATH=src python scripts/gate7_spread.py --runs 20 --json spread.json

Each run calls ``runtime_benchmark`` with ``scaling.GATE7_LADDER``, the
arguments ``tests/test_acceptance.py::test_criterion_7_runtime_ladder`` runs
too, in a new Python process, so no run inherits another's heap. It reports,
per run, the KRR train exponent, the krr - nystrom exponent gap, the primal
(exact_ls) test exponent, whether gate 7's bounds hold (the verdicts of
``scaling.bench_summary``), the median train time of every solver at every
n, and the minor page faults the process itself took
(``resource.getrusage``). Then it prints the median, quartiles and range of
each exponent. It reports only: nothing is retried.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

from qlimits import runtime_benchmark
from qlimits.scaling import GATE7_LADDER, bench_summary


def one_run() -> dict:
    """Gate 7's ladder in this process, with its exponents and this process's minor faults."""
    report = runtime_benchmark(**GATE7_LADDER)
    summary = bench_summary(report)
    return {
        "krr_train_exponent": summary["train_exponents"]["krr"],
        "krr_nystrom_gap": summary["nystrom_gap"],
        "primal_test_exponent": summary["test_exponents"]["exact_ls"],
        "passes": (summary["krr_train_ok"] and summary["nystrom_gap_ok"] and summary["primal_test_ok"]
                   and not report.any_timed_out),
        "train_seconds": {sid: {str(r.n): r.train_seconds for r in report.rows if r.solver == sid}
                          for sid in GATE7_LADDER["solver_ids"]},
        "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
    }


def spread(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median {q2:.6g} [{q1:.6g}, {q3:.6g}], range {min(values):.6g}..{max(values):.6g}"


def at_least_one(text: str) -> int:
    runs = int(text)
    if runs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {runs}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=at_least_one, default=10, help="fresh processes to run (default 10)")
    parser.add_argument("--json", help="also write every run's record to this file")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)  # a child: one run
    args = parser.parse_args(argv)
    if args.one:
        print(json.dumps(one_run()))
        return 0

    runs = []
    ns = [str(n) for n in GATE7_LADDER["n_grid"]]
    print(f"run  krr_exp  gap    test_exp  pass  minflt  krr train ms at n = {', '.join(ns)}")
    for i in range(args.runs):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--one"],
                              capture_output=True, text=True, check=True)
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(run)
        times = " ".join(f"{1e3 * run['train_seconds']['krr'][n]:8.2f}" for n in ns)
        print(f"{i:3d}  {run['krr_train_exponent']:.3f}    {run['krr_nystrom_gap']:.3f}  "
              f"{run['primal_test_exponent']:.3f}     {'yes' if run['passes'] else 'NO ':3s}   "
              f"{run['minor_faults']:6d}  {times}", flush=True)
    for key in ("krr_train_exponent", "krr_nystrom_gap", "primal_test_exponent", "minor_faults"):
        print(f"{key}: {spread([float(run[key]) for run in runs])}")
    print(f"gate 7 passed in {sum(run['passes'] for run in runs)} of {len(runs)} runs")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
