"""Every numeric config field is checked through one pair, ``errors.integer``
and ``errors.real``: the walk below covers each field of each config type,
so a field added later is covered too."""

import dataclasses
import math
import re
import types
import typing

import numpy as np
import pytest

from qlimits import ConfigError, Kernel, NoiseSchedule, SolverConfig, SweepConfig, SyntheticProblem

VALID = {  # each config type and the arguments of a valid instance
    Kernel: {"kind": "gaussian", "bandwidth": 1.0},
    SolverConfig: {},
    SyntheticProblem: {},
    SweepConfig: {"n_grid": (8, 16, 32)},
    NoiseSchedule: {},
}
FIELDS = [(config, field.name) for config in VALID for field in dataclasses.fields(config)]
REJECTED = {  # what a field of each type must reject, besides None where it is not optional
    int: [True, "1", 2.5],
    float: [True, "1", math.nan, math.inf, 10**400],
}


@pytest.mark.parametrize("config, name", FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FIELDS])
def test_every_config_field_takes_only_its_own_type(config, name):
    hint = typing.get_type_hints(config)[name]
    kinds = typing.get_args(hint) if typing.get_origin(hint) in (typing.Union, types.UnionType) else (hint,)
    optional = type(None) in kinds
    (kind,) = [k for k in kinds if k is not type(None)]
    entry = typing.get_origin(kind) is tuple  # a bad value goes in the first entry
    if entry:
        kind = typing.get_args(kind)[0]
    rejected = REJECTED.get(kind, [{}] if dataclasses.is_dataclass(kind) else [])
    rejected = rejected + ([] if optional else [None])

    def build(value):
        value = (value, *VALID[config][name][1:]) if entry and value is not None else value
        return config(**{**VALID[config], name: value})

    for value in rejected:
        with pytest.raises(ConfigError, match=re.escape(name)):
            build(value)
    if kind is float:  # stored as a float, so an asdict echo is unchanged
        for value in (1, np.float32(0.5)):
            built = build(value)
            assert type(getattr(built, name)) is float and getattr(built, name) == value
            assert type(dataclasses.asdict(built)[name]) is float
