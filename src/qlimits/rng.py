"""Deterministic random-stream derivation.

All randomness in the package flows through numpy's PCG64 generator seeded
via ``SeedSequence``. Child streams are derived by hashing the master seed
together with a path of tags (strings or integers), so results reproduce
bit-for-bit across platforms and are independent of execution order:

    rng = child_rng(master_seed, "data", n, trial)

Two different paths give statistically independent streams; the same path
always gives the same stream.
"""

from __future__ import annotations

import numpy as np

from .errors import integer


def _entropy_word(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "big")
    if isinstance(part, (int, np.integer)):
        # SeedSequence wants non-negative entropy; fold negatives into 2^64.
        return int(part) % (1 << 64)
    raise TypeError(f"seed path entries must be int or str, got {type(part).__name__}")


def seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    words = [_entropy_word(integer("seed", master_seed))] + [_entropy_word(p) for p in path]
    return np.random.SeedSequence(words)


def child_rng(master_seed: int, *path) -> np.random.Generator:
    """PCG64 generator for the stream identified by (master_seed, *path)."""
    return np.random.default_rng(seed_sequence(master_seed, *path))


def derive_seed(master_seed: int, *path) -> int:
    """Collapse (master_seed, *path) into a single reusable integer seed."""
    return int(seed_sequence(master_seed, *path).generate_state(1, np.uint64)[0])
