"""The benchmark's tracer wraps qlimits names by attribute; each must exist.

``perfbench/spans.py`` swaps module-level names of qlimits for timed
wrappers while a traced run is installed. A name it wraps that the package
no longer has fails the traced benchmark, so this check runs with the unit
tests too.
"""

import importlib
from pathlib import Path

from qlimits import qmodel, risk, scaling, solvers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OWNERS = (qmodel, risk, scaling, solvers, solvers.Kernel)


def test_installed_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.installed(spans.Tracer()):
        wrapped = sum(
            vars(owner)[name] is not value
            for owner, names in zip(OWNERS, before)
            for name, value in names.items()
        )
    assert wrapped > 0
    assert [dict(vars(owner)) for owner in OWNERS] == before
