"""Command-line front end.

Subcommands: generate | fit | sweep | cost | bench. Each takes every setting
from a JSON config file plus optional ``--set key=value`` overrides with
dotted paths (which may reach into a null block), and from no flag or
environment variable. Config keys are the parameter names of the command,
or of the library dataclass or function a block feeds, with no other
spelling, so every JSON echo of a config is itself a config; ``_build``
rejects unknown keys and checks JSON types, and the library supplies every
default and checks every type (by ``qlimits.errors.integer`` and ``real``:
no bool is a number, an int is a real stored as a float, no real is NaN or
infinite) and range, for library callers too. All numeric output is written
with 17 significant digits so downstream fits reproduce exactly.

Exit codes: 0 success, 2 config/validation error, 3 numerical/solver error,
4 benchmark timeout.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
import types
import typing
from typing import Literal

from .errors import ConfigError, QlimitsError, integer, read_json, real
from .qmodel import complexity_table, cost_log_error_solver, cost_matched_precision, cost_poly_error_solver
from .risk import empirical_risk, excess_risks
from .scaling import (
    SCHEMA_VERSION,
    SweepConfig,
    bench_summary,
    fit_solver,
    matching_experiment,
    matching_summary,
    measurement_experiment,
    measurement_summary,
    rate_summary,
    runtime_benchmark,
    single_blas_thread_or_warn,
    sweep_excess_risk,
    sweep_failures,
    write_bench_csv,
    write_csv,
    write_sweep_csv,
)
from .solvers import LINEAR_KERNEL, Kernel, SolverConfig, save_predictor
from .synth import SyntheticProblem, read_dataset_csv, sample_dataset, write_dataset_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_TIMEOUT = 4


# ---------------------------------------------------------------------------
# strict config reading

_NAMES = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}


def _matches(value, kind) -> bool:
    """Whether a JSON value has the type of annotation ``kind`` (no unions)."""
    if kind in (int, float):  # as the library takes an integer and a real
        try:
            return (integer if kind is int else real)("", value) is not None
        except ConfigError:
            return False
    if typing.get_origin(kind) is tuple:
        return isinstance(value, list) and len(value) > 0
    if typing.get_origin(kind) is Literal:
        return value in typing.get_args(kind)
    return isinstance(value, dict if dataclasses.is_dataclass(kind) else kind)


def _describe(kind) -> str:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, args))
    if origin is tuple:
        return f"a non-empty list, each {_describe(args[0])}"
    if origin is Literal:
        return f"one of {args}"
    return _NAMES.get(kind, "an object")


def _typed(value, kind, key: str, context: str):
    """``value`` checked against the annotation ``kind``: ints become floats
    for float parameters, lists become tuples, and objects (or null, for the
    defaults) become the annotated dataclass."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        for alternative in args:
            if _matches(value, alternative):
                return _typed(value, alternative, key, context)
    elif dataclasses.is_dataclass(kind) and (value is None or isinstance(value, dict)):
        return _build(kind, value, key)
    elif _matches(value, kind):
        if origin is tuple:
            return tuple(_typed(v, args[0], f"{key}[{i}]", context) for i, v in enumerate(value))
        return float(value) if kind is float else value
    raise ConfigError(f"field `{key}` in {context} must be {_describe(kind)}, got {value!r}")


def _arguments(target, obj, context: str, **given) -> dict:
    """The keyword arguments that call ``target``, a dataclass or function,
    with the JSON object ``obj``.

    The keys are the target's parameter names, less the parameters that
    ``given`` supplies; unknown keys are rejected, unless the target takes
    ``**kwargs``, which receives them unchecked. Each value is checked
    against its parameter's annotation. Absent keys (or a null ``obj``) take
    the target's defaults, and the target checks the types and ranges.
    """
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {obj!r}")
    params = inspect.signature(target).parameters
    hints = typing.get_type_hints(target)
    keys = {name for name, p in params.items() if name not in given and p.kind is not p.VAR_KEYWORD}
    rest = {k: v for k, v in obj.items() if k not in keys}
    takes_rest = any(p.kind is p.VAR_KEYWORD for p in params.values())
    unknown = sorted(k for k in rest if k in given or not takes_rest)
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {context}")
    missing = sorted(k for k in keys if k not in obj and params[k].default is params[k].empty)
    if missing:
        raise ConfigError(f"missing required field(s) {missing} in {context}")
    typed = {k: _typed(v, hints[k], k, context) for k, v in obj.items() if k in keys}
    return {**typed, **rest, **given}


def _build(target, obj, context: str, **given):
    """``target`` called with ``obj`` (see ``_arguments``)."""
    return target(**_arguments(target, obj, context, **given))


def _echo(target, arguments: dict) -> dict:
    """Every parameter of ``target``, as given in ``arguments`` or by its
    default, dataclasses as objects: a config block that reruns the call."""
    bound = inspect.signature(target).bind(**arguments)
    bound.apply_defaults()
    return {key: dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
            for key, value in bound.arguments.items()}


def _apply_overrides(cfg: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            if target.get(part) is None:  # a null block, like an absent one, starts empty
                target[part] = {}
            target = target[part]
            if not isinstance(target, dict):
                raise ConfigError(f"--set path {key!r} crosses non-object field {part!r}")
        target[parts[-1]] = value
    return cfg


def _load_config(path: str, overrides) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return _apply_overrides(cfg, overrides)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands; each one's parameters are its config keys

def cmd_generate(n: int, out: str, problem: SyntheticProblem = SyntheticProblem()) -> int:
    """Draw ``n`` samples of ``problem`` with its ``seed``."""
    dataset = sample_dataset(problem, n, problem.seed)
    write_dataset_csv(dataset, out)
    _write_json(out + ".config.json", {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "problem": dataclasses.asdict(problem), "n": n, "out": out,
        "input_radius": problem.input_radius,
        "bayes_risk": problem.bayes_risk,
    })
    print(f"wrote {n} samples to {out}")
    return EXIT_OK


def cmd_fit(
    dataset: str,
    solver: str,
    out_predictor: str,
    out_report: str,
    kernel: Kernel = LINEAR_KERNEL,
    solver_config: SolverConfig = SolverConfig(),
    problem: SyntheticProblem | None = None,
    n_eval: int = SweepConfig.n_eval,
    eval_seed: int = 0,
) -> int:
    config = _echo(cmd_fit, locals())  # before any other local is bound
    data = read_dataset_csv(dataset)
    if problem is not None and problem.dimension != data.dimension:
        raise ConfigError(f"problem dimension {problem.dimension} != dataset dimension {data.dimension}")
    with single_blas_thread_or_warn():  # the report does not depend on the core count
        predictor = fit_solver(solver, data, kernel, solver_config)
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "fit",
            "config": config,
            "solver": solver,
            "n": data.n_samples,
            "d": data.dimension,
            "empirical_risk": empirical_risk(predictor, data),
            "expected_risk": None,
            "excess_risk": None,
            "bayes_risk": None,
        }
        if problem is not None:
            # exact for a linear predictor, else scored on n_eval points
            ((excess, std_error),) = excess_risks((predictor,), problem, n_eval, eval_seed)
            report["expected_risk"] = {
                "value": problem.bayes_risk + excess, "std_error": std_error, "n_eval": n_eval
            }
            report["excess_risk"] = excess
            report["bayes_risk"] = problem.bayes_risk
    save_predictor(predictor, out_predictor)
    _write_json(out_report, report)
    print(f"wrote predictor to {out_predictor} and report to {out_report}")
    return EXIT_OK


def _write_tables(out_csv: str, tables) -> dict:
    """Write the sweep CSV, then one stderr line per arm and n with failed
    cells; return the failures' JSON form."""
    write_sweep_csv(out_csv, tables)
    for table in tables:
        for row in table.rows:
            if row.trials_failed:
                causes = "; ".join(
                    f"{kind} x{count}: {message}" for kind, count, message in row.failures
                )
                print(f"warning: {table.label} n={row.n}: {row.trials_failed} of "
                      f"{row.trials_ok + row.trials_failed} cells failed; {causes}", file=sys.stderr)
    return sweep_failures(tables)


def cmd_sweep(
    out_csv: str,
    out_json: str,
    mode: Literal["rate", "matching", "measurement"] = "rate",
    matching: dict | None = None,
    measurement: dict | None = None,
    workers: int | None = None,
    **sweep,
) -> int:
    """The remaining keys are SweepConfig's; ``matching`` and ``measurement``
    hold the options of matching_experiment and measurement_experiment, and
    a mode that does not read a block must not be given it. Without
    ``workers`` the sweep runs one worker per core this process may run on
    (its CPU affinity, where the platform has one)."""
    unread = [key for key, block in (("matching", matching), ("measurement", measurement))
              if block is not None and key != mode]
    if unread:
        raise ConfigError(f"mode {mode!r} does not read {', '.join(f'`{k}`' for k in unread)}")
    if workers is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    config = _build(SweepConfig, sweep, "sweep config", workers=workers)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "mode": mode,
        "config": dataclasses.asdict(config),
    }

    if mode == "rate":
        table = sweep_excess_risk(config, label=config.solver)
        payload["failures"] = _write_tables(out_csv, [table])
        payload["summary"] = rate_summary(table)
    else:
        experiment, options, summary = {
            "matching": (matching_experiment, matching, matching_summary),
            "measurement": (measurement_experiment, measurement, measurement_summary),
        }[mode]
        report = _build(experiment, options, f"{mode} options", config=config)
        payload[mode] = options  # as given, so the echo reruns the sweep
        tables = report.arm_tables()
        payload["failures"] = _write_tables(out_csv, tables.values())
        payload["summary"] = summary(report)
        payload["ratios"] = {arm: report.ratios(arm) for arm in tables if arm != "exact"}
    _write_json(out_json, payload)
    print(f"wrote {out_csv} and {out_json}")
    return EXIT_OK


_COST_FORMULAS = {  # algorithm -> formula; it reads the keys named by its parameters
    "log_error": cost_log_error_solver,
    "poly_error": cost_poly_error_solver,
    "matched": cost_matched_precision,
}
# the value of a key that a formula reads and the config leaves out
_COST_DEFAULTS = {"kappa": 1.0, "gamma": 0.5, "n": 2, "frobenius": "sqrt_n", "beta": None, "c": None}
_ABSENT = object()  # cmd_cost's default: the key is not in the config


def cmd_cost(
    algorithm: Literal["table", "log_error", "poly_error", "matched"],
    out: str,
    kappa: float | tuple[float, ...] = _ABSENT,
    gamma: float | tuple[float, ...] = _ABSENT,
    n: int | tuple[int, ...] = _ABSENT,
    frobenius: float | Literal["sqrt_n"] = _ABSENT,
    beta: float | None = _ABSENT,
    c: float | None = _ABSENT,
) -> int:
    """``kappa``, ``gamma`` and ``n`` are a value or a list; the rows run over
    every combination. Each algorithm reads the keys of its formula's
    parameters (``table`` reads none, and ``matched`` pins gamma), any other
    key is an error, and an absent key takes its ``_COST_DEFAULTS`` value."""
    keys = {"kappa": kappa, "gamma": gamma, "n": n, "frobenius": frobenius, "beta": beta, "c": c}
    given = {key: value for key, value in keys.items() if value is not _ABSENT}
    formula = _COST_FORMULAS.get(algorithm)  # None for the table
    reads = inspect.signature(formula).parameters if formula else {}
    unread = [key for key in given if key not in reads]
    if unread:
        raise ConfigError(f"algorithm {algorithm!r} does not read {', '.join(f'`{k}`' for k in unread)}")
    if formula is None:
        rows = [
            (e.algorithm, str(e.train_exponent), str(e.test_exponent),
             e.is_quantum, e.test_includes_retraining)
            for e in complexity_table()
        ]
        write_csv(out, ("algorithm", "train_exponent", "test_exponent",
                        "is_quantum", "test_includes_retraining"), rows)
        print(f"wrote {len(rows)} ladder rows to {out}")
        return EXIT_OK

    def listed(value) -> tuple:
        return value if isinstance(value, tuple) else (value,)

    inputs = {**_COST_DEFAULTS, **given}
    rows = []
    for size in listed(inputs["n"]):
        for k in listed(inputs["kappa"]):
            for g in listed(inputs["gamma"]) if "gamma" in reads else (None,):
                point = {**inputs, "n": size, "kappa": k, "gamma": g}
                cost = formula(**{key: point[key] for key in reads})
                # matched pins gamma to n^(-1/2), taken once its formula has checked n >= 1
                rows.append((algorithm, size, k, float(size) ** -0.5 if g is None else g, cost))
    write_csv(out, ("algorithm", "n", "kappa", "gamma", "cost_units"), rows)
    print(f"wrote {len(rows)} cost rows to {out}")
    return EXIT_OK


def cmd_bench(out_csv: str, out_json: str, **options) -> int:
    """The remaining keys are runtime_benchmark's, ``cap`` among them."""
    arguments = _arguments(runtime_benchmark, options, "bench config")
    report = runtime_benchmark(**arguments)
    if report.reps == 1:
        print("warning: reps=1 gives a single timing sample per cell", file=sys.stderr)
    write_bench_csv(out_csv, report)
    _write_json(out_json, {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "config": {"out_csv": out_csv, "out_json": out_json, **_echo(runtime_benchmark, arguments)},
        "reps": report.reps,
        "summary": bench_summary(report),
        "train_fits": {sid: dataclasses.asdict(fit) for sid, fit in report.train_fits.items()},
        "test_fits": {sid: dataclasses.asdict(fit) for sid, fit in report.test_fits.items()},
    })
    print(f"wrote {out_csv} and {out_json}")
    if report.any_timed_out:
        print("warning: one or more benchmark cells timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


COMMANDS = {
    "generate": cmd_generate,
    "fit": cmd_fit,
    "sweep": cmd_sweep,
    "cost": cmd_cost,
    "bench": cmd_bench,
}


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlimits",
        description="Scaling experiments for classical and noisy quantum-style solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("generate", "sample a synthetic dataset to CSV"),
        ("fit", "train a solver on a dataset file"),
        ("sweep", "run an excess-risk scaling experiment"),
        ("cost", "evaluate symbolic runtime cost models"),
        ("bench", "wall-clock runtime ladder at desk scale"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config field (dotted path)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.set)
        return _build(COMMANDS[args.command], cfg, f"{args.command} config")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QlimitsError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
