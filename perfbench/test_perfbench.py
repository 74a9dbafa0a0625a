"""Tests of the benchmark's own logic: span arithmetic, unique-work counting
and BLAS pin verification. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import blas  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Each reading advances time by the next step in ``steps``."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_of_nested_spans():
    # pipeline [0, 10] holds exact_ls [1, 4] and tomography [5, 6]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 3, 1, 1, 4]))
    exact_ls = tracer.wrap(lambda: None, "solvers.exact_ls")
    tomography = tracer.wrap(lambda: None, "qmodel.tomography_estimate")

    def body():
        exact_ls()
        tomography()

    tracer.wrap(body, "qmodel.pipeline")()
    by_name = spans.layers(tracer.spans)
    assert [s.name for s in tracer.spans] == [
        "qmodel.pipeline", "solvers.exact_ls", "qmodel.tomography_estimate"
    ]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert by_name["qmodel.pipeline"].total_s == 10
    assert by_name["qmodel.pipeline"].self_s == 10 - 3 - 1
    assert by_name["solvers.exact_ls"].self_s == 3
    assert sum(spans.self_times(tracer.spans)) == 10


def test_self_time_only_subtracts_direct_children():
    grandchild = spans.Span("c", 2.0, 3.0, parent=1)
    child = spans.Span("b", 1.0, 5.0, parent=0)
    root = spans.Span("a", 0.0, 8.0)
    assert spans.self_times([root, child, grandchild]) == [4.0, 3.0, 1.0]


def test_failed_call_is_counted_and_closes_its_span():
    tracer = spans.Tracer()

    def broken():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(broken, "solvers.krr")()
    (span,) = tracer.spans
    assert span.failed and span.end >= span.start
    assert spans.layers(tracer.spans)["solvers.krr"].failed == 1


def test_unique_ratio_counts_distinct_keys_by_bound_arguments():
    tracer = spans.Tracer()

    def draw(problem, n, seed=0):
        return n

    traced = tracer.wrap(draw, "risk.eval_draw", key=lambda a: (a["n"], a["seed"]))
    traced(None, 8, 1)
    traced(None, 8, seed=1)  # same work, passed by keyword
    traced(None, 8)  # default seed
    traced(None, 16, 1)
    assert spans.layers(tracer.spans)["risk.eval_draw"].unique_ratio == 3 / 4
    assert spans.Layer().unique_ratio == 0.0


def test_tail_has_ten_samples_beyond_it():
    layer = spans.Layer(durations=[float(i) for i in range(1, 101)])
    assert layer.tail_ms == 90_000.0
    assert spans.Layer(durations=[0.001, 0.003]).tail_ms == 3.0


def test_installed_wrappers_see_the_shared_cells_of_paired_arms():
    from qlimits import scaling

    original = scaling.sample_dataset
    config = scaling.SweepConfig(n_grid=(8, 16, 32), trials=2, n_eval=50)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = scaling.matching_experiment(config)
    assert scaling.sample_dataset is original
    metrics = spans.per_layer_metrics(tracer.spans)
    assert metrics["scaling.cell.calls"][0] == 18
    for name in ("synth.train_draw", "risk.eval_draw", "solvers.exact_ls"):
        assert metrics[f"{name}.unique_ratio"][0] == pytest.approx(1 / 3)
    assert metrics["solvers.exact_ls.calls"][0] == 18
    assert metrics["qmodel.pipeline.s"][0] > 0
    pipeline = [i for i, s in enumerate(tracer.spans) if s.name == "qmodel.pipeline"]
    assert {tracer.spans[i + 1].name for i in pipeline} == {"solvers.exact_ls"}
    assert all(tracer.spans[i + 1].parent == i for i in pipeline)
    # tracing changes no result
    untraced = scaling.matching_experiment(config)
    assert scaling.sweep_csv_rows(traced.arm_tables().values()) == scaling.sweep_csv_rows(
        untraced.arm_tables().values()
    )


def test_names_match_benchmark_json():
    import run
    import workloads

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    tracer = spans.Tracer()
    names = {name: unit for name, (_, unit) in spans.per_layer_metrics(tracer.spans).items()}
    names["trace.overhead_frac"] = "fraction"
    assert names == {m["name"]: m["unit"] for m in declared["per_layer"]}


MAPS_LINE = "7f0000000000-7f0000001000 r-xp 00000000 08:01 42     {}\n"


def test_blas_libraries_found_in_maps():
    maps = "".join(
        MAPS_LINE.format(p)
        for p in (
            "/x/numpy.libs/libscipy_openblas64_-32a4b2a6.so",
            "/x/scipy/linalg/_fblas.cpython-311-x86_64-linux-gnu.so",
            "/usr/lib/libmkl_rt.so.2",
            "/usr/lib/libc.so.6",
        )
    ) + "7f0000002000-7f0000003000 rw-p 00000000 00:00 0 \n"
    assert blas.loaded_blas_paths(maps) == [
        "/usr/lib/libmkl_rt.so.2", "/x/numpy.libs/libscipy_openblas64_-32a4b2a6.so"
    ]


def test_unverifiable_blas_fails_verification():
    maps = MAPS_LINE.format("/nonexistent/libopenblas.so.0")
    with pytest.raises(blas.BlasPinError, match="cannot open"):
        blas.verify_single_thread(maps)
    with pytest.raises(blas.BlasPinError, match="no BLAS library"):
        blas.verify_single_thread(MAPS_LINE.format("/usr/lib/libc.so.6"))


def test_blas_without_thread_query_fails_verification():
    libc = next(
        line.split()[-1] for line in open("/proc/self/maps") if "/libc.so" in line or "/libc-" in line
    )
    with pytest.raises(blas.BlasPinError, match="no OpenBLAS thread query"):
        blas.probe_library(libc)


def test_blas_with_more_than_one_thread_fails_verification():
    def probe(path):
        return {"path": path, "version": None, "threads": 1 if "numpy" in path else 2}

    maps = MAPS_LINE.format("/x/numpy.libs/libopenblas.so") + MAPS_LINE.format(
        "/x/scipy.libs/libopenblas.so"
    )
    with pytest.raises(blas.BlasPinError, match=r"scipy.libs/libopenblas.so \(2 threads\)"):
        blas.verify_single_thread(maps, probe=probe)


def test_unverified_pinning_fails_the_run_without_a_result(monkeypatch, capsys):
    import run

    unpinned = {"OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": str(run.ROOT / "src")}
    monkeypatch.setattr(run, "child_env", lambda: unpinned)
    assert run.main(["--workload", "rate_sweep", "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "FAILED, not timed" in err and "OPENBLAS_NUM_THREADS" in err
