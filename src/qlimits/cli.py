"""Command-line front end.

Subcommands: generate | fit | sweep | cost | bench. Each reads a JSON config
file (strict: unknown keys are rejected) plus optional ``--set key=value``
overrides with dotted paths. All numeric output is written with 17
significant digits so downstream fits reproduce exactly.

Exit codes: 0 success, 2 config/validation error, 3 numerical/solver error,
4 benchmark timeout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .errors import ConfigError, QlimitsError
from .qmodel import CostModel, complexity_table, cost_log_error_solver, cost_matched_precision, cost_poly_error_solver
from .risk import empirical_risk, expected_risk_mc
from .scaling import (
    BENCH_SOLVER_IDS,
    DESK_SCALE_CAP,
    SCHEMA_VERSION,
    NoiseSchedule,
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
# strict config parsing

def _check_unknown(obj: dict, allowed, context: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown field(s) {unknown} in {context}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"missing required field `{key}` in {context}")
    return obj[key]


def _as_int(value, field: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field `{field}` must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field `{field}` must be >= {minimum}, got {value}")
    return value


def _as_float(value, field: str, minimum: float | None = None, strict: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field `{field}` must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"field `{field}` must be finite, got {value!r}")
    if minimum is not None and (v < minimum or (strict and v == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"field `{field}` must be {op} {minimum}, got {value}")
    return v


def _as_str(value, field: str, choices=None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field `{field}` must be a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"field `{field}` must be one of {tuple(choices)}, got {value!r}")
    return value


def _as_number_list(value, field: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, list) and value:
        return [_as_float(v, f"{field}[{i}]") for i, v in enumerate(value)]
    raise ConfigError(f"field `{field}` must be a number or non-empty list, got {value!r}")


def _parse_n_grid(value, field: str = "n_grid") -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field `{field}` must be a non-empty list of integers")
    return tuple(_as_int(v, f"{field}[{i}]", minimum=1) for i, v in enumerate(value))


def _parse_problem(obj, context: str = "problem") -> ProblemSpec:
    if obj is None:
        return ProblemSpec()
    _check_unknown(obj, ("d", "sigma", "input_law", "seed"), context)
    return ProblemSpec(
        dimension=_as_int(obj.get("d", 10), "d", minimum=1),
        noise_std=_as_float(obj.get("sigma", 0.5), "sigma", minimum=0.0),
        input_law=_as_str(obj.get("input_law", "unit_sphere_uniform"), "input_law"),
        seed=_as_int(obj.get("seed", 0), "seed"),
    )


def _parse_kernel(obj, context: str = "kernel") -> Kernel:
    if obj is None:
        return LINEAR_KERNEL
    _check_unknown(obj, ("kind", "bandwidth"), context)
    kind = _as_str(obj.get("kind", "linear"), "kernel.kind")
    bandwidth = obj.get("bandwidth")
    if bandwidth is not None:
        bandwidth = _as_float(bandwidth, "kernel.bandwidth", minimum=0.0, strict=True)
    return Kernel(kind=kind, bandwidth=bandwidth)


def _parse_solver_config(obj, context: str = "solver_config") -> SolverConfig:
    if obj is None:
        return SolverConfig()
    _check_unknown(
        obj, ("lam", "step_size", "max_iters", "partitions", "landmarks", "seed"), context
    )
    lam = obj.get("lam")
    step = obj.get("step_size")
    iters = obj.get("max_iters")
    landmarks = obj.get("landmarks")
    return SolverConfig(
        lam=None if lam is None else _as_float(lam, "lam", minimum=0.0),
        step_size=None if step is None else _as_float(step, "step_size", minimum=0.0, strict=True),
        max_iters=None if iters is None else _as_int(iters, "max_iters", minimum=0),
        partitions=_as_int(obj.get("partitions", 1), "partitions", minimum=1),
        landmarks=None if landmarks is None else _as_int(landmarks, "landmarks", minimum=1),
        seed=_as_int(obj.get("seed", 0), "seed"),
    )


def _parse_rule(obj, field: str, default_kind: str, default_value) -> tuple[str, float]:
    if obj is None:
        return default_kind, default_value
    _check_unknown(obj, ("kind", "value"), field)
    kind = _as_str(_require(obj, "kind", field), f"{field}.kind")
    value = obj.get("value", default_value)
    return kind, value


def _parse_noise(obj, context: str = "noise") -> NoiseSchedule | None:
    if obj is None:
        return None
    _check_unknown(obj, ("regime", "gamma_rule", "m_rule", "a"), context)
    gamma_kind, gamma_value = _parse_rule(
        obj.get("gamma_rule"), "noise.gamma_rule", "constant", 0.0
    )
    m_kind, m_value = _parse_rule(obj.get("m_rule"), "noise.m_rule", "fixed", 1)
    return NoiseSchedule(
        regime=_as_str(obj.get("regime", "exact"), "noise.regime"),
        gamma_kind=gamma_kind,
        gamma_value=_as_float(gamma_value, "noise.gamma_rule.value", minimum=0.0),
        m_kind=m_kind,
        m_value=_as_int(m_value, "noise.m_rule.value", minimum=1),
        precision_scale=_as_float(obj.get("a", 1.0), "noise.a", minimum=0.0, strict=True),
    )


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


def _resolve_workers(cfg_value, flag_value) -> int:
    if flag_value is not None:
        return max(1, int(flag_value))
    if cfg_value is not None:
        return _as_int(cfg_value, "workers", minimum=1)
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# commands

def cmd_generate(cfg: dict) -> int:
    _check_unknown(cfg, ("d", "n", "sigma", "input_law", "seed", "out"), "generate config")
    d = _as_int(_require(cfg, "d", "generate config"), "d", minimum=1)
    n = _as_int(_require(cfg, "n", "generate config"), "n", minimum=1)
    sigma = _as_float(cfg.get("sigma", 0.0), "sigma", minimum=0.0)
    input_law = _as_str(cfg.get("input_law", "unit_sphere_uniform"), "input_law")
    seed = _as_int(cfg.get("seed", 0), "seed")
    out = _as_str(_require(cfg, "out", "generate config"), "out")

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


def cmd_fit(cfg: dict) -> int:
    _check_unknown(cfg, ("dataset", "solver", "solver_config", "kernel", "problem",
                         "n_eval", "eval_seed", "out_predictor", "out_report"), "fit config")
    dataset_path = _as_str(_require(cfg, "dataset", "fit config"), "dataset")
    if not os.path.exists(dataset_path):
        raise ConfigError(f"dataset file not found: {dataset_path}")
    solver = _as_str(_require(cfg, "solver", "fit config"), "solver")
    out_predictor = _as_str(_require(cfg, "out_predictor", "fit config"), "out_predictor")
    out_report = _as_str(_require(cfg, "out_report", "fit config"), "out_report")
    kernel = _parse_kernel(cfg.get("kernel"))
    solver_config = _parse_solver_config(cfg.get("solver_config"))
    n_eval = _as_int(cfg.get("n_eval", 100_000), "n_eval", minimum=2)
    eval_seed = _as_int(cfg.get("eval_seed", 0), "eval_seed")

    dataset = read_dataset_csv(dataset_path)
    predictor = fit_solver(solver, dataset, kernel, solver_config)
    save_predictor(predictor, out_predictor)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "solver": solver,
        "n": dataset.n_samples,
        "d": dataset.dimension,
        "empirical_risk": empirical_risk(predictor, dataset),
        "expected_risk": None,
        "excess_risk": None,
        "bayes_risk": None,
    }
    if cfg.get("problem") is not None:
        problem_spec = _parse_problem(cfg["problem"])
        if problem_spec.dimension != dataset.dimension:
            raise ConfigError(
                f"problem dimension {problem_spec.dimension} != dataset dimension "
                f"{dataset.dimension}"
            )
        problem = problem_spec.build()
        estimate = expected_risk_mc(predictor, problem, n_eval, eval_seed)
        report["expected_risk"] = estimate.to_json()
        report["excess_risk"] = estimate.value - problem.bayes_risk
        report["bayes_risk"] = problem.bayes_risk
    _write_json(out_report, report)
    print(f"wrote predictor to {out_predictor} and report to {out_report}")
    return EXIT_OK


def _sweep_config_from(cfg: dict, workers: int) -> SweepConfig:
    return SweepConfig(
        n_grid=_parse_n_grid(_require(cfg, "n_grid", "sweep config")),
        trials=_as_int(cfg.get("trials", 20), "trials", minimum=1),
        solver=_as_str(cfg.get("solver", "exact_ls"), "solver"),
        solver_config=_parse_solver_config(cfg.get("solver_config")),
        kernel=_parse_kernel(cfg.get("kernel")),
        problem=_parse_problem(cfg.get("problem")),
        noise=_parse_noise(cfg.get("noise")),
        n_eval=_as_int(cfg.get("n_eval", 100_000), "n_eval", minimum=2),
        master_seed=_as_int(cfg.get("master_seed", 0), "master_seed"),
        workers=workers,
    )


def cmd_sweep(cfg: dict, workers_flag=None) -> int:
    _check_unknown(cfg, ("mode", "n_grid", "trials", "solver", "solver_config", "kernel",
                         "problem", "noise", "n_eval", "master_seed", "workers",
                         "matching", "measurement", "out_csv", "out_json"), "sweep config")
    mode = _as_str(cfg.get("mode", "rate"), "mode", ("rate", "matching", "measurement"))
    out_csv = _as_str(_require(cfg, "out_csv", "sweep config"), "out_csv")
    out_json = _as_str(_require(cfg, "out_json", "sweep config"), "out_json")
    workers = _resolve_workers(cfg.get("workers"), workers_flag)
    config = _sweep_config_from(cfg, workers)

    echo = dataclasses.asdict(config)
    payload = {"schema_version": SCHEMA_VERSION, "command": "sweep", "mode": mode, "config": echo}

    if mode == "rate":
        table = sweep_excess_risk(config, label=config.solver)
        write_sweep_csv(out_csv, [table])
        payload["summary"] = rate_summary(table)
    elif mode == "matching":
        opts = cfg.get("matching") or {}
        _check_unknown(opts, ("matched_c0", "constant_gamma"), "matching options")
        report = matching_experiment(
            config,
            matched_c0=_as_float(opts.get("matched_c0", 0.1), "matched_c0", minimum=0.0),
            constant_gamma=_as_float(opts.get("constant_gamma", 0.3), "constant_gamma", minimum=0.0),
        )
        write_sweep_csv(out_csv, report.arm_tables().values())
        payload["summary"] = matching_summary(report)
        payload["ratios"] = {
            "matched": report.ratios("matched"),
            "constant": report.ratios("constant"),
        }
    else:
        opts = cfg.get("measurement") or {}
        _check_unknown(opts, ("regime", "budget_rule", "degraded_rule"), "measurement options")
        report = measurement_experiment(
            config,
            regime=_as_str(opts.get("regime", "heisenberg"), "regime"),
            budget_rule=_as_str(opts.get("budget_rule", "sqrt_n"), "budget_rule"),
            degraded_rule=_as_str(opts.get("degraded_rule", "fourth_root_n"), "degraded_rule"),
        )
        write_sweep_csv(out_csv, report.arm_tables().values())
        payload["summary"] = measurement_summary(report)
        payload["ratios"] = {
            "budget": report.ratios("budget"),
            "degraded": report.ratios("degraded"),
        }
    _write_json(out_json, payload)
    print(f"wrote {out_csv} and {out_json}")
    return EXIT_OK


def cmd_cost(cfg: dict) -> int:
    _check_unknown(cfg, ("algorithm", "kappa", "gamma", "n", "frobenius",
                         "beta", "c", "out"), "cost config")
    algorithm = _as_str(_require(cfg, "algorithm", "cost config"), "algorithm",
                        ("table", "log_error", "poly_error", "matched"))
    out = _as_str(_require(cfg, "out", "cost config"), "out")

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

    kappas = _as_number_list(cfg.get("kappa", 1.0), "kappa")
    ns = [int(v) for v in _as_number_list(cfg.get("n", 2), "n")]
    rows = []
    if algorithm == "matched":
        beta = _as_float(_require(cfg, "beta", "cost config"), "beta", minimum=0.0, strict=True)
        c = _as_float(_require(cfg, "c", "cost config"), "c", minimum=0.0, strict=True)
        for n in ns:
            for kappa in kappas:
                model = CostModel(condition_number=kappa, n=n,
                                  error_exponent=beta, condition_exponent=c)
                rows.append(("matched", n, kappa, float(n) ** -0.5,
                             cost_matched_precision(model)))
    else:
        gammas = _as_number_list(cfg.get("gamma", 0.5), "gamma")
        for g in gammas:
            if not 0.0 < g < 1.0:
                raise ConfigError(f"field `gamma` must lie in (0, 1), got {g}")
        frob = cfg.get("frobenius", "sqrt_n")
        for n in ns:
            if frob == "sqrt_n":
                frob_value = math.sqrt(n)
            else:
                frob_value = _as_float(frob, "frobenius", minimum=0.0, strict=True)
            for kappa in kappas:
                for g in gammas:
                    model = CostModel(condition_number=kappa, frobenius_norm=frob_value,
                                      n=n, solver_error=g)
                    cost = (cost_log_error_solver(model) if algorithm == "log_error"
                            else cost_poly_error_solver(model))
                    rows.append((algorithm, n, kappa, g, cost))
    write_csv(out, ("algorithm", "n", "kappa", "gamma", "cost_units"), rows)
    print(f"wrote {len(rows)} cost rows to {out}")
    return EXIT_OK


def cmd_bench(cfg: dict) -> int:
    _check_unknown(cfg, ("solvers", "n_grid", "reps", "d", "sigma", "kernel", "lam",
                         "test_points", "timeout_s", "cap", "master_seed",
                         "timer_window", "out_csv", "out_json"), "bench config")
    out_csv = _as_str(_require(cfg, "out_csv", "bench config"), "out_csv")
    out_json = _as_str(_require(cfg, "out_json", "bench config"), "out_json")
    solvers = cfg.get("solvers", list(BENCH_SOLVER_IDS))
    if not isinstance(solvers, list) or not solvers:
        raise ConfigError("field `solvers` must be a non-empty list")
    n_grid = _parse_n_grid(cfg.get("n_grid", [256, 512, 1024, 2048, 4096]))
    cap_default = DESK_SCALE_CAP
    env_cap = os.environ.get(BENCH_CAP_ENV)
    if env_cap is not None:
        try:
            cap_default = int(env_cap)
        except ValueError as exc:
            raise ConfigError(f"{BENCH_CAP_ENV} must be an integer, got {env_cap!r}") from exc
    cap = _as_int(cfg.get("cap", cap_default), "cap", minimum=1)
    if max(n_grid) > cap:
        raise ConfigError(f"n_grid maximum {max(n_grid)} exceeds desk-scale cap {cap}")
    reps = _as_int(cfg.get("reps", 5), "reps", minimum=1)
    if reps == 1:
        print("warning: reps=1 gives a single timing sample per cell", file=sys.stderr)
    lam = cfg.get("lam")

    report = runtime_benchmark(
        solver_ids=[_as_str(s, "solvers[]") for s in solvers],
        n_grid=n_grid,
        reps=reps,
        dimension=_as_int(cfg.get("d", 10), "d", minimum=1),
        noise_std=_as_float(cfg.get("sigma", 0.5), "sigma", minimum=0.0),
        kernel=_parse_kernel(cfg.get("kernel")),
        test_points=_as_int(cfg.get("test_points", 1000), "test_points", minimum=1),
        timeout_s=_as_float(cfg.get("timeout_s", 120.0), "timeout_s", minimum=0.0, strict=True),
        master_seed=_as_int(cfg.get("master_seed", 0), "master_seed"),
        lam=None if lam is None else _as_float(lam, "lam", minimum=0.0),
        timer_window=_as_float(cfg.get("timer_window", 0.2), "timer_window",
                               minimum=0.0, strict=True),
    )
    write_bench_csv(out_csv, report)
    _write_json(out_json, {
        "schema_version": SCHEMA_VERSION,
        "command": "bench",
        "reps": reps,
        "summary": bench_summary(report),
        "train_fits": {sid: fit.to_json() for sid, fit in report.train_fits.items()},
        "test_fits": {sid: fit.to_json() for sid, fit in report.test_fits.items()},
    })
    print(f"wrote {out_csv} and {out_json}")
    if report.any_timed_out:
        print("warning: one or more benchmark cells timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


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
    try:
        cfg = _load_config(args.config, args.set)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, workers_flag=args.workers)
        if args.command == "cost":
            return cmd_cost(cfg)
        return cmd_bench(cfg)
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
