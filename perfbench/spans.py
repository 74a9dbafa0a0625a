"""Spans recorded at qlimits' layer boundaries, and the per-layer metrics.

A traced run swaps module-level names in qlimits for timed wrappers (see
``installed``); an untraced run installs nothing. Spans stay in memory and
are written out once the workload ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import time
from dataclasses import dataclass, field

# Spelled out rather than read from qlimits, so the metric names stay the ones
# BENCHMARK.json declares and this module loads before numpy.
SOLVER_IDS = ("exact_ls", "krr", "early_stopping_gd", "divide_and_conquer", "nystrom")


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index of the enclosing span
    key: object = None  # identity of the work done, for unique_ratio
    entries: int = 0  # exact work count, where the layer has one
    failed: bool = False


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, key=None, entries=None):
        """``fn`` with a span per call.

        ``key`` maps the call's bound arguments to the identity of the work,
        ``entries`` maps the result to a work count.
        """
        signature = inspect.signature(fn) if key is not None else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
            if key is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.key = key(bound.arguments)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if entries is not None:
                span.entries = entries(result)
            return result

        return timed


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class Layer:
    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0
    failed: int = 0
    entries: int = 0
    keys: list = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def total_s(self) -> float:
        return sum(self.durations)

    @property
    def unique_ratio(self) -> float:
        """Distinct pieces of work per call; 0 when the layer never ran."""
        return len(set(self.keys)) / len(self.keys) if self.keys else 0.0

    @property
    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.durations) if self.durations else 0.0

    @property
    def tail_ms(self) -> float:
        """The call time with exactly ten calls slower than it (the slowest if
        fewer than eleven calls): the highest percentile ten samples support."""
        if not self.durations:
            return 0.0
        ranked = sorted(self.durations)
        return 1e3 * (ranked[-11] if len(ranked) > 10 else ranked[-1])


def layers(spans: list[Span]) -> dict[str, Layer]:
    out: dict[str, Layer] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = out.setdefault(span.name, Layer())
        layer.durations.append(span.end - span.start)
        layer.self_s += own
        layer.failed += span.failed
        layer.entries += span.entries
        if span.key is not None:
            layer.keys.append(span.key)
    return out


def per_layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics as name -> (value, unit); 0 where a layer never ran.

    The remaining per-layer metric, trace.overhead_frac, compares a traced
    with an untraced run, so run.py adds it.
    """
    by_name = layers(spans)

    def get(name: str) -> Layer:
        return by_name.get(name, Layer())

    cell = get("scaling.cell")
    train = get("synth.train_draw")
    draw = get("risk.eval_draw")
    metrics = {
        "scaling.cell.calls": (cell.calls, "count"),
        "scaling.cell.p50_ms": (cell.p50_ms, "ms"),
        "scaling.cell.tail_ms": (cell.tail_ms, "ms"),
        "scaling.cell.self_s": (cell.self_s, "s"),
        "synth.train_draw.s": (train.total_s, "s"),
        "synth.train_draw.calls": (train.calls, "count"),
        "synth.train_draw.unique_ratio": (train.unique_ratio, "ratio"),
        "risk.eval_draw.s": (draw.total_s, "s"),
        "risk.eval_draw.p50_ms": (draw.p50_ms, "ms"),
        "risk.eval_draw.calls": (draw.calls, "count"),
        "risk.eval_draw.unique_ratio": (draw.unique_ratio, "ratio"),
        "risk.expected_risk_mc.self_s": (get("risk.expected_risk_mc").self_s, "s"),
        "risk.predict.s": (get("risk.predict").total_s, "s"),
    }
    for sid in SOLVER_IDS:
        solver = get(f"solvers.{sid}")
        metrics[f"solvers.{sid}.s"] = (solver.total_s, "s")
        metrics[f"solvers.{sid}.calls"] = (solver.calls, "count")
        metrics[f"solvers.{sid}.failed"] = (solver.failed, "count")
    metrics["solvers.exact_ls.unique_ratio"] = (get("solvers.exact_ls").unique_ratio, "ratio")
    kernel = get("solvers.kernel_matrix")
    metrics["solvers.kernel_matrix.s"] = (kernel.total_s, "s")
    metrics["solvers.kernel_matrix.calls"] = (kernel.calls, "count")
    metrics["solvers.kernel_matrix.entries"] = (kernel.entries, "count")
    for name in ("qmodel.pipeline", "qmodel.perturb_solution", "qmodel.tomography_estimate"):
        metrics[f"{name}.s"] = (get(name).total_s, "s")
    seeds = get("rng.derive_seed")
    metrics["rng.derive_seed.calls"] = (seeds.calls, "count")
    metrics["rng.derive_seed.s"] = (seeds.total_s, "s")
    metrics["scaling.write_sweep_csv.s"] = (get("scaling.write_sweep_csv").total_s, "s")
    metrics["scaling.fit_scaling.s"] = (get("scaling.fit_scaling").total_s, "s")
    return metrics


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap qlimits' layer boundaries for ``tracer``'s wrappers; restore on exit."""
    from qlimits import qmodel, risk, scaling, solvers

    def draw_key(args):
        return (args["n"], args["seed"])

    def solve_key(args):
        return (args["dataset"].n_samples, args["dataset"].seed)

    boundaries = [
        (scaling, "_sweep_cell", "scaling.cell", {}),
        (scaling, "sample_dataset", "synth.train_draw", {"key": draw_key}),
        (risk, "sample_dataset", "risk.eval_draw", {"key": draw_key}),
        (scaling, "expected_risk_mc", "risk.expected_risk_mc", {}),
        (risk, "predict_batch", "risk.predict", {}),
        (scaling, "exact_ls", "solvers.exact_ls", {"key": solve_key}),
        (qmodel, "exact_ls", "solvers.exact_ls", {"key": solve_key}),
        *((scaling, sid, f"solvers.{sid}", {}) for sid in SOLVER_IDS if sid != "exact_ls"),
        (solvers.Kernel, "matrix", "solvers.kernel_matrix", {"entries": lambda k: k.size}),
        (scaling, "quantum_ls_pipeline", "qmodel.pipeline", {}),
        (qmodel, "perturb_solution", "qmodel.perturb_solution", {}),
        (qmodel, "tomography_estimate", "qmodel.tomography_estimate", {}),
        (scaling, "derive_seed", "rng.derive_seed", {}),
        (scaling, "write_sweep_csv", "scaling.write_sweep_csv", {}),
        (scaling, "fit_scaling", "scaling.fit_scaling", {}),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in boundaries]
    try:
        for owner, attr, name, options in boundaries:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **options))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
