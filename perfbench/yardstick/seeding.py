"""Deterministic RNG stream derivation.

All randomness in the package flows from one master seed. Each purpose
(subordinator sampling, Brownian increments, jump marks, candidate draws, ...)
gets its own independent stream, and ensemble members get one stream per path
index, so results are reproducible regardless of execution order.
"""

import zlib

import numpy as np

# purpose string -> stable 32-bit key; crc32 is fixed by RFC 1952, so the
# derivation cannot drift between platforms or python versions.


def purpose_key(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8")) & 0xFFFFFFFF


def stream(master_seed: int, purpose: str, index: int | None = None) -> np.random.Generator:
    """Return the generator for (master_seed, purpose[, path index])."""
    if index is None:
        key = (purpose_key(purpose),)
    else:
        key = (purpose_key(purpose), int(index))
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=key))
