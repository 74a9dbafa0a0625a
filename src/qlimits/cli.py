"""Command-line front end.

Subcommands: generate | fit | sweep | cost | bench. Each reads a JSON config
file plus optional ``--set key=value`` overrides with dotted paths. Config
keys are the parameter names of the command, or of the library dataclass or
function a block feeds (``ALIASES`` lists the few that differ); ``_build``
rejects unknown keys and checks JSON types, and the library supplies every
default and range check. All numeric output is written with 17 significant
digits so downstream fits reproduce exactly.

Exit codes: 0 success, 2 config/validation error, 3 numerical/solver error,
4 benchmark timeout.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import types
import typing
from typing import Literal

from .errors import ConfigError, QlimitsError
from .qmodel import CostModel, complexity_table, cost_log_error_solver, cost_matched_precision, cost_poly_error_solver
from .risk import empirical_risk, expected_risk_mc
from .scaling import (
    SCHEMA_VERSION,
    ProblemSpec,
    SweepConfig,
    bench_summary,
    fit_solver,
    matching_experiment,
    matching_summary,
    measurement_experiment,
    measurement_summary,
    rate_summary,
    runtime_benchmark,
    sweep_excess_risk,
    sweep_failures,
    write_bench_csv,
    write_csv,
    write_sweep_csv,
)
from .solvers import LINEAR_KERNEL, Kernel, SolverConfig, save_predictor
from .synth import make_problem, read_dataset_csv, sample_dataset, write_dataset_csv

WORKERS_ENV = "QLIMITS_WORKERS"
BENCH_CAP_ENV = "QLIMITS_BENCH_CAP"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_TIMEOUT = 4


# ---------------------------------------------------------------------------
# strict config reading

# The config key of each parameter whose key differs from its name. The
# dotted keys are the noise block's rule objects, spread out by _flatten_rules.
ALIASES = {
    "dimension": "d",
    "noise_std": "sigma",
    "precision_scale": "a",
    "solver_ids": "solvers",
    "gamma_kind": "gamma_rule.kind",
    "gamma_value": "gamma_rule.value",
    "m_kind": "m_rule.kind",
    "m_value": "m_rule.value",
}
_NAMES = {int: "an integer", float: "a finite number", str: "a string", type(None): "null"}


def _matches(value, kind) -> bool:
    """Whether a JSON value has the type of annotation ``kind`` (no unions)."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
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


def _build(target, obj, context: str, **given):
    """Call ``target``, a dataclass or function, with the JSON object ``obj``.

    The keys are the target's parameter names (or their ALIASES key), less
    the parameters that ``given`` supplies; unknown keys are rejected, unless
    the target takes ``**kwargs``, which receives them unchecked. Each value
    is checked against its parameter's annotation. Absent keys (or a null
    ``obj``) take the target's defaults, and the target checks the ranges.
    """
    obj = {} if obj is None else obj
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be an object, got {obj!r}")
    params = inspect.signature(target).parameters
    hints = typing.get_type_hints(target)
    keys = {
        ALIASES.get(name, name): name
        for name, p in params.items()
        if name not in given and p.kind is not p.VAR_KEYWORD
    }
    rest = {k: v for k, v in obj.items() if k not in keys}
    takes_rest = any(p.kind is p.VAR_KEYWORD for p in params.values())
    unknown = sorted(k for k in rest if k in given or not takes_rest)
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {context}")
    missing = [k for k, name in keys.items() if k not in obj and params[name].default is params[name].empty]
    if missing:
        raise ConfigError(f"missing required field(s) {missing} in {context}")
    typed = {keys[k]: _typed(v, hints[keys[k]], k, context) for k, v in obj.items() if k in keys}
    return target(**typed, **rest, **given)


def _flatten_rules(noise):
    """Spread the noise block's rule objects ``{"kind", "value"}`` (``kind``
    required) into the dotted keys that ALIASES maps to NoiseSchedule."""
    if not isinstance(noise, dict):
        return noise  # null means no noise; _build rejects anything else
    flat = {}
    for key, value in noise.items():
        if key not in ("gamma_rule", "m_rule"):
            if "." in key:  # only a rule object may produce a dotted key
                raise ConfigError(f"unknown field(s) [{key!r}] in noise")
            flat[key] = value
        elif value is not None:
            if not isinstance(value, dict) or "kind" not in value:
                raise ConfigError(f"noise.{key} must be an object with a `kind`, got {value!r}")
            flat.update((f"{key}.{k}", v) for k, v in value.items())
    return flat


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from exc


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
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses non-object field {part!r}")
            target = node
        target[parts[-1]] = value
    return cfg


def _load_config(path: str, overrides) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return _apply_overrides(cfg, overrides)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_workers(config_value, flag_value) -> int:
    """--workers, then the config's ``workers``, then QLIMITS_WORKERS, then all cores."""
    for value in (flag_value, config_value):
        if value is not None:
            return value
    env = _env_int(WORKERS_ENV)
    return (os.cpu_count() or 1) if env is None else env


# ---------------------------------------------------------------------------
# commands; each one's parameters are its config keys

def cmd_generate(
    d: int,
    n: int,
    out: str,
    sigma: float = 0.0,
    input_law: str = ProblemSpec.input_law,
    seed: int = 0,
) -> int:
    problem = make_problem(d, sigma, input_law, seed)
    dataset = sample_dataset(problem, n, seed)
    write_dataset_csv(dataset, out)
    _write_json(out + ".config.json", {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "d": d, "n": n, "sigma": sigma, "input_law": input_law, "seed": seed, "out": out,
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
    problem: ProblemSpec | None = None,
    n_eval: int = SweepConfig.n_eval,
    eval_seed: int = 0,
) -> int:
    data = read_dataset_csv(dataset)
    if problem is not None and problem.dimension != data.dimension:
        raise ConfigError(f"problem dimension {problem.dimension} != dataset dimension {data.dimension}")
    predictor = fit_solver(solver, data, kernel, solver_config)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "solver": solver,
        "n": data.n_samples,
        "d": data.dimension,
        "empirical_risk": empirical_risk(predictor, data),
        "expected_risk": None,
        "excess_risk": None,
        "bayes_risk": None,
    }
    if problem is not None:
        truth = problem.build()
        estimate = expected_risk_mc(predictor, truth, n_eval, eval_seed)
        report["expected_risk"] = estimate.to_json()
        report["excess_risk"] = estimate.value - truth.bayes_risk
        report["bayes_risk"] = truth.bayes_risk
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
    workers_flag: int | None = None,
    **sweep,
) -> int:
    """The remaining keys are SweepConfig's; ``matching`` and ``measurement``
    hold the options of matching_experiment and measurement_experiment."""
    if "noise" in sweep:
        sweep["noise"] = _flatten_rules(sweep["noise"])
    config = _build(SweepConfig, sweep, "sweep config", workers=_resolve_workers(workers, workers_flag))
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
        experiment, options, summary, arms = {
            "matching": (matching_experiment, matching, matching_summary, ("matched", "constant")),
            "measurement": (measurement_experiment, measurement, measurement_summary,
                            ("budget", "degraded")),
        }[mode]
        report = _build(experiment, options, f"{mode} options", config=config)
        payload["failures"] = _write_tables(out_csv, report.arm_tables().values())
        payload["summary"] = summary(report)
        payload["ratios"] = {arm: report.ratios(arm) for arm in arms}
    _write_json(out_json, payload)
    print(f"wrote {out_csv} and {out_json}")
    return EXIT_OK


def cmd_cost(
    algorithm: Literal["table", "log_error", "poly_error", "matched"],
    out: str,
    kappa: float | tuple[float, ...] = CostModel.condition_number,
    gamma: float | tuple[float, ...] = CostModel.solver_error,
    n: int | tuple[int, ...] = CostModel.n,
    frobenius: float | Literal["sqrt_n"] = "sqrt_n",
    beta: float | None = None,
    c: float | None = None,
) -> int:
    """``kappa``, ``gamma`` and ``n`` are a value or a list; the rows run over
    every combination. ``matched`` reads ``beta`` and ``c`` and pins gamma."""
    if algorithm == "table":
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

    rows = []
    for size in listed(n):
        for k in listed(kappa):
            if algorithm == "matched":
                model = CostModel(condition_number=k, n=size,
                                  error_exponent=beta, condition_exponent=c)
                rows.append(("matched", size, k, float(size) ** -0.5,
                             cost_matched_precision(model)))
                continue
            if frobenius == "sqrt_n" and size < 1:
                raise ConfigError(f"`n` must be >= 1 for frobenius \"sqrt_n\", got {size}")
            frob = math.sqrt(size) if frobenius == "sqrt_n" else frobenius
            for g in listed(gamma):
                model = CostModel(condition_number=k, frobenius_norm=frob, n=size, solver_error=g)
                cost = (cost_log_error_solver(model) if algorithm == "log_error"
                        else cost_poly_error_solver(model))
                rows.append((algorithm, size, k, g, cost))
    write_csv(out, ("algorithm", "n", "kappa", "gamma", "cost_units"), rows)
    print(f"wrote {len(rows)} cost rows to {out}")
    return EXIT_OK


def cmd_bench(out_csv: str, out_json: str, **options) -> int:
    """The remaining keys are runtime_benchmark's; QLIMITS_BENCH_CAP sets the
    default ``cap``."""
    env_cap = _env_int(BENCH_CAP_ENV)
    if env_cap is not None:
        options.setdefault("cap", env_cap)
    report = _build(runtime_benchmark, options, "bench config")
    if report.reps == 1:
        print("warning: reps=1 gives a single timing sample per cell", file=sys.stderr)
    write_bench_csv(out_csv, report)
    _write_json(out_json, {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "reps": report.reps,
        "summary": bench_summary(report),
        "train_fits": {sid: fit.to_json() for sid, fit in report.train_fits.items()},
        "test_fits": {sid: fit.to_json() for sid, fit in report.test_fits.items()},
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
        if name == "sweep":
            cmd.add_argument("--workers", type=int, default=None,
                             help="parallel trial workers (default: config, env, then all cores)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {"workers_flag": args.workers} if args.command == "sweep" else {}
    try:
        cfg = _load_config(args.config, args.set)
        return _build(COMMANDS[args.command], cfg, f"{args.command} config", **given)
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
