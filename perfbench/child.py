"""Run one benchmark workload once, in a fresh process, and report one JSON line.

run.py starts this script with OPENBLAS/OMP/MKL_NUM_THREADS=1 and with
PYTHONPATH set to the checkout's src/, and passes the monotonic time at which
it started the process. Set-up ends when qlimits is imported, every loaded
BLAS is verified to run one thread, and the problem is built. Exit code 3
means the run could not be measured; the reason is on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import blas  # neither imports numpy, so PIN_VARS are checked before numpy loads
import spans

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


class Unmeasurable(Exception):
    """The run cannot be timed: unpinned BLAS or the wrong qlimits."""


def git_commit(root: Path) -> str | None:
    """The checkout's commit, read from .git without running git; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(blas_libs: list, seed: int) -> dict:
    import numpy
    import qlimits
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qlimits": qlimits.__version__,
        "qlimits_path": str(Path(qlimits.__file__).parent),
        "blas": blas_libs,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "master_seed": seed,
    }


def set_up(workload: str, seed: int):
    """Import qlimits from this checkout, verify BLAS pinning, build the configs."""
    unpinned = [name for name in PIN_VARS if os.environ.get(name) != "1"]
    if unpinned:
        raise Unmeasurable(f"{', '.join(unpinned)} not set to 1 before numpy import")
    src = ROOT / "src"
    try:
        import qlimits
    except ImportError as exc:
        raise Unmeasurable(f"cannot import qlimits from {src}: {exc}") from exc
    if Path(qlimits.__file__).resolve().parent != (src / "qlimits").resolve():
        raise Unmeasurable(f"imported qlimits from {qlimits.__file__}, not from {src}")
    import workloads

    try:
        blas_libs = blas.verify_single_thread()
    except blas.BlasPinError as exc:
        raise Unmeasurable(str(exc)) from exc
    make_configs, run = workloads.WORKLOADS[workload]
    configs = make_configs(seed)
    configs[0].problem.build()
    return configs, run, blas_libs


def measure(args) -> dict:
    configs, run, blas_libs = set_up(args.workload, args.seed)
    result = {"setup_s": time.monotonic() - args.started}
    if args.setup_only:
        return result

    out = Path(args.out)
    tracer = spans.Tracer() if args.trace else None
    with spans.installed(tracer) if tracer else nullcontext():
        start = time.perf_counter()
        outcome = run(configs, out / f"{args.workload}-seed{args.seed}.csv")
        wall_s = time.perf_counter() - start
    try:
        # libraries loaded lazily during the run are checked too
        blas_libs = blas.verify_single_thread()
    except blas.BlasPinError as exc:
        raise Unmeasurable(str(exc)) from exc
    result.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cells=outcome.cells,
        failed_cells=outcome.failed_cells,
        checks=outcome.checks,
        recorded=outcome.recorded,
        csv_sha256=outcome.csv_sha256,
        environment=environment(blas_libs, args.seed),
    )
    if tracer:
        spans_path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for index, span in enumerate(tracer.spans):
                record = {"id": index, "name": span.name, "start": span.start, "end": span.end,
                          "parent": span.parent, "failed": span.failed}
                fh.write(json.dumps(record) + "\n")
        result["layers"] = spans.per_layer_metrics(tracer.spans)
        result["self_s"] = {name: layer.self_s for name, layer in spans.layers(tracer.spans).items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--out", required=True, help="directory for the CSV and spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except Unmeasurable as exc:
        print(f"unmeasurable: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
