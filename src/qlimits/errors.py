"""Exception hierarchy shared across the package, the checks of outside input
that raise it, and the one JSON reader and the JSON and CSV writers of every file."""

import json
import math
import numbers


class QlimitsError(Exception):
    """Base class for all package errors."""


class ConfigError(QlimitsError):
    """Invalid configuration or input validation failure (CLI exit code 2)."""


class DimensionMismatchError(QlimitsError):
    """Predictor and data dimensions disagree."""


class SingularSystemError(QlimitsError):
    """An unregularized linear system is rank-deficient; refusing to pseudo-solve."""


class KernelNotPSDError(QlimitsError):
    """Kernel matrix violates positive semidefiniteness beyond tolerance."""


class DivergenceError(QlimitsError):
    """Gradient descent diverged (risk rose repeatedly)."""

    def __init__(self, step_size: float, n_increases: int):
        self.step_size = step_size
        self.n_increases = n_increases
        super().__init__(
            f"gradient descent diverged: empirical risk increased "
            f"{n_increases} consecutive iterations at step size {step_size!r}"
        )


class NumericalError(QlimitsError):
    """A numerical quality gate failed (e.g. linear-system residual too large)."""


def integer(name: str, value, minimum=None, *, optional=False) -> int | None:
    """``value`` (field or argument ``name``) as an ``int``: a non-``bool`` integral number."""
    return _number(name, value, numbers.Integral, int, "an integer", minimum, False, optional)


def real(name: str, value, minimum=None, *, strict=False, optional=False) -> float | None:
    """``value`` (field or argument ``name``) as a ``float``: a non-``bool`` real in the float range."""
    return _number(name, value, numbers.Real, float, "a finite number", minimum, strict, optional)


def _number(name, value, kind, cast, what, minimum, strict, optional):
    if value is None and optional:
        return None
    try:  # float() raises OverflowError for an integer beyond the float range
        number = cast(value) if isinstance(value, kind) and not isinstance(value, bool) else math.nan
    except OverflowError:
        number = math.nan
    if not -math.inf < number < math.inf:
        raise ConfigError(f"`{name}` must be {what}{' or None' if optional else ''}, got {value!r}")
    if minimum is not None and not (number > minimum if strict else number >= minimum):
        raise ConfigError(f"`{name}` must be {'>' if strict else '>='} {minimum}, got {number!r}")
    return number


def read_json(path):
    """The JSON value in the file ``path``, which must be UTF-8 JSON text."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not UTF-8 JSON text ({exc})") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON text, indented with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV lines: a float with 17
    significant digits, so it reads back exactly, and a bool as 1 or 0."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
