"""Lab benchmark: time the qlimits sweeps that the paper's results come from.

    python3 perfbench/run.py --workload rate_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Closed loop, one caller: each iteration runs the workload once in a fresh
child process (child.py) with BLAS pinned to one thread, and the next starts
only after it ends. Iterations repeat while the next one is expected to
finish within --seconds; at least one always runs. The master seed of every
sweep is --seed, so every iteration of a run computes the same sweeps and
must write byte-identical CSV.

--trace 0 reports the end-to-end metrics, medians over iterations:
  setup_s      child start until qlimits is imported, BLAS pinning verified
               and the problem built (median of at least MIN_SETUPS children)
  wall_s       first experiment call until checked results and the CSV exist
  peak_rss_mb  the child's ru_maxrss
  ok_frac      sweep cells that succeeded / cells attempted (failed_frac is
               printed beside it; the result carries ok_frac because a metric
               that is 0 on a healthy run has no relative bound)
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of spans.py, plus trace.overhead_frac, the traced wall
time's excess over the untraced one.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed (sweep cells) and metrics. A full
result, with the environment block, every iteration and the span file, is
written to .perfbench_out/ in the checkout. A run that cannot be measured
(BLAS pinning unverified, qlimits missing, a child crashing) prints the
reason on stderr and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import PIN_VARS, ROOT

OUT = ROOT / ".perfbench_out"
WORKLOADS = ("rate_sweep", "paired_sweeps", "kernel_sweep")
MIN_SETUPS = 9
RUN_DEADLINE_S = 170.0  # every child of one workload's run must end by then


class RunFailed(Exception):
    """A child could not be measured; the run reports no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PIN_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed(f"{workload}: out of time before starting a child")
    command = [
        sys.executable, str(ROOT / "perfbench" / "child.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(OUT),
        "--started", repr(time.monotonic()), *flags,
    ]
    try:
        proc = subprocess.run(command, env=child_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: child did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations of one workload; return the full result record."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    untraced, traced = [], []
    while True:
        untraced.append(run_child(workload, seed, deadline))
        if trace:
            traced.append(run_child(workload, seed, deadline, "--trace"))
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(untraced)
        if elapsed + per_iteration > seconds:
            break
    iterations = untraced + traced
    setups = [r["setup_s"] for r in iterations]
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, deadline, "--setup-only")["setup_s"])

    cells = sum(r["cells"] for r in iterations)
    failed = sum(r["failed_cells"] for r in iterations)
    checks = {name: all(r["checks"][name] for r in iterations) for name in iterations[0]["checks"]}
    checks["csv_identical_across_iterations"] = len({r["csv_sha256"] for r in iterations}) == 1
    walls = [r["wall_s"] for r in untraced]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        "ok_frac": ((cells - failed) / cells, "fraction"),
    }
    self_s = {}
    if trace:
        metrics = {
            name: (statistics.median(r["layers"][name][0] for r in traced), unit)
            for name, (_, unit) in traced[0]["layers"].items()
        }
        untraced_wall = statistics.median(walls)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "fraction")
        self_s = {name: statistics.median(r["self_s"][name] for r in traced) for name in traced[0]["self_s"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(checks.values()),
        "checks": checks,
        "attempted": cells,
        "failed": failed,
        "failed_frac": failed / cells,
        "wall_s_quartiles": quartiles(walls),
        "setup_s_samples": setups,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "self_s_by_layer": dict(sorted(self_s.items(), key=lambda item: -item[1])),
        "recorded": iterations[0]["recorded"],
        "csv_sha256": iterations[0]["csv_sha256"],
        "environment": iterations[0]["environment"],
        "iterations": [{k: v for k, v in r.items() if k != "environment"} for r in iterations],
    }


def report(result: dict) -> None:
    walls = result["wall_s_quartiles"]
    print(f"{result['workload']}: seed {result['seed']}, {len(result['iterations'])} iterations, "
          f"{result['attempted']} cells, correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if not result["trace"]:
        print(f"  {'failed_frac':34s} {result['failed_frac']:.6g} fraction")
        print(f"  wall_s quartiles {walls[0]:.4f} / {walls[1]:.4f} / {walls[2]:.4f} s")
    for name, seconds in result["self_s_by_layer"].items():
        print(f"  self time {name:34s} {seconds:.4f} s")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    print(f"  recorded {json.dumps(result['recorded'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
            suffix = "-trace" if args.trace else ""
            (OUT / f"{name}-seed{args.seed}{suffix}.json").write_text(json.dumps(result, indent=2))
            report(result)
            results.append(result)
    except RunFailed as exc:
        print(f"FAILED, not timed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
