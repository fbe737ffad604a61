"""Deterministic RNG stream derivation.

All randomness in the package flows from one master seed. Each purpose
(subordinator sampling, Brownian increments, jump marks, candidate draws, ...)
gets its own independent stream, and ensemble members get one stream per path
index, so results are reproducible regardless of execution order.

The stream of (master_seed, purpose[, index]) is, bit for bit, numpy's
``default_rng(SeedSequence(master_seed, spawn_key=(purpose_key(purpose)[,
index])))``.  pcg64_states computes its PCG64 state without building that
SeedSequence, for any number of indices in one pass of array arithmetic.  It
reproduces three fixed algorithms:

* SeedSequence's entropy pool (numpy.random.bit_generator): the master
  seed's little-endian 32-bit words padded with zeros to the pool size 4,
  then the spawn key's words (the purpose key, then the index's one or more
  words), hashed and mixed in uint32 arithmetic;
* its generate_state(4, uint64), the four 64-bit seed words read off the
  pool;
* PCG64's set-sequence seeding (O'Neill 2014, "PCG: A Family of Simple
  Fast Space-Efficient Statistically Good Algorithms for Random Number
  Generation"): with s and i the 128-bit numbers of the first and last
  two seed words, inc = (i << 1) | 1 and state = ((inc + s) * M + inc)
  mod 2**128.

tests/test_seeding.py pins each stream's full generator state to numpy's
own SeedSequence.  Substreams draws the streams of many indices through
one reused Generator whose state it loads, so an ensemble builds no
SeedSequence or Generator per path; stream() is its one-index call.
"""

import functools
import operator
import zlib
from collections.abc import Sequence

import numpy as np

# numpy's SeedSequence hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_M32 = 0xFFFFFFFF
# generate_state's hash constant before each of its 8 uint32 words (and after)
_GEN_HASH = tuple((_INIT_B * pow(_MULT_B, k, 1 << 32)) & _M32 for k in range(9))
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1

# purpose string -> stable 32-bit key; crc32 is fixed by RFC 1952, so the
# derivation cannot drift between platforms or python versions.


def purpose_key(purpose: str) -> int:
    return zlib.crc32(purpose.encode("utf-8")) & 0xFFFFFFFF


def _integer(value, what: str) -> int:
    """``value`` as a non-negative int, else ValueError: int() alone would
    read 1.7 as 1 and so name another stream."""
    try:
        n = int(value)
        ok = n == value and n >= 0
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return n


def _indices(indices) -> np.ndarray:
    """The indices as a 1-d uint64 array, or an object array of ints when
    one needs more than 64 bits; ValueError for any other value."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    if idx.dtype.kind in "iu":
        if idx.size and idx.min() < 0:
            raise ValueError(f"index must be a non-negative integer, got {idx.min()}")
        return idx.astype(np.uint64)
    vals = [_integer(i, "index") for i in idx.tolist()]
    return np.array(vals, dtype=np.uint64 if max(vals, default=0) <= 2**64 - 1 else object)


def _hashmix(value, h):
    """SeedSequence's hashmix of ``value`` under the hash constant ``h``:
    (the hashed value, the next constant).  The arithmetic runs on ints,
    uint64 or object arrays alike, masked to 32 bits."""
    value = value ^ h
    h = (h * _MULT_A) & _M32
    value = (value * h) & _M32
    return value ^ (value >> 16), h


def _mix(x, y):
    z = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return z ^ (z >> 16)


@functools.lru_cache(maxsize=16)
def _first_pool(words: tuple):
    """SeedSequence.mix_entropy's pool after its first four entropy words
    and the mix of every pool word into every other, with the hash
    constant reached: it depends on the master seed alone, so all of its
    streams share it."""
    pool, h = [], _INIT_A
    for word in words:
        value, h = _hashmix(word, h)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    return tuple(pool), h


def _pool(entropy: list) -> list:
    """SeedSequence.mix_entropy: the 4-word pool of the entropy words, of
    which the first four are ints; a later word may be an array, which
    mixes one pool per element."""
    pool, h = _first_pool(tuple(entropy[:_POOL]))
    pool = list(pool)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            value, h = _hashmix(word, h)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _seed_pcg64(pool: list):
    """(state, inc) of the PCG64 seeded from the pool: generate_state(4,
    uint64), then the set-sequence seeding."""
    out = []
    for k in range(8):
        d = ((pool[k % _POOL] ^ _GEN_HASH[k]) * _GEN_HASH[k + 1]) & _M32
        out.append(d ^ (d >> 16))
    # the 32-bit words pair up little-endian into the four 64-bit seed words
    s0, s1, i0, i1 = (_wide(out[2 * j] | (out[2 * j + 1] << 32)) for j in range(4))
    inc = (((i0 << 64) | i1) << 1 | 1) & _M128
    state = ((((s0 << 64) | s1) + inc) * _PCG_MULT + inc) & _M128
    return state, inc


def _wide(x):
    """An int, or an array as an object array of ints, which shift past 64 bits."""
    return x.astype(object) if isinstance(x, np.ndarray) else x


def pcg64_states(master_seed, purpose: str, indices=None):
    """The PCG64 (state, inc) of the stream of (master_seed, purpose, i)
    for each i in ``indices``, as two lists of ints; ``indices`` None gives
    the one stream of (master_seed, purpose) without an index.  A seed or
    index that is negative or not integral raises ValueError.

    The pool of the master seed's words and the purpose key is the same
    for every index; each index's words then mix into it as array
    arithmetic, one pass per count of 32-bit words among the indices."""
    m = _integer(master_seed, "master seed")
    words = [(m >> s) & _M32 for s in range(0, max(m.bit_length(), 1), 32)]
    head = words + [0] * (_POOL - len(words)) + [purpose_key(purpose)]
    if indices is None:
        state, inc = _seed_pcg64(_pool(head))
        return [state], [inc]
    idx = _indices(indices)
    # each index's little-endian 32-bit words, zero past its own count
    cols, count, rest = [idx & _M32], np.ones(idx.size, dtype=int), idx >> 32
    while (more := rest != 0).any():
        cols.append(rest & _M32)
        count += more
        rest = rest >> 32
    state, inc = np.empty(idx.size, dtype=object), np.empty(idx.size, dtype=object)
    for c in np.unique(count):
        rows = np.flatnonzero(count == c)
        state[rows], inc[rows] = _seed_pcg64(_pool(head + [col[rows] for col in cols[:c]]))
    return state.tolist(), inc.tolist()


class _NoSeed(np.random.bit_generator.ISeedSequence):
    """Zero seed words: the PCG64 built on them is a blank whose state is
    loaded next, which skips SeedSequence's hashing."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


class Substreams(Sequence):
    """The streams of (master_seed, purpose, i) for each i in ``indices``
    (the one stream without an index for None), drawn through one reused
    Generator: item p loads the start of index p's stream into it and
    returns it.  Only the item returned last is positioned, and an item
    asked for again starts over; a caller that comes back to a stream
    keeps and restores its ``bit_generator.state``, as
    time_change.sample_subordinators does.
    """

    def __init__(self, master_seed, purpose: str, indices=None):
        self._state, self._inc = pcg64_states(master_seed, purpose, indices)
        self._rng = np.random.Generator(np.random.PCG64(_NoSeed()))

    def __len__(self):
        return len(self._state)

    def __getitem__(self, p) -> np.random.Generator:
        p = operator.index(p)
        self._rng.bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": self._state[p], "inc": self._inc[p]},
            "has_uint32": 0, "uinteger": 0}
        return self._rng


def stream(master_seed: int, purpose: str, index: int | None = None) -> np.random.Generator:
    """Return the generator for (master_seed, purpose[, path index]): the
    one-index Substreams, which equals numpy's default_rng(SeedSequence(
    master_seed, spawn_key=(purpose_key(purpose)[, index]))) bit for bit."""
    return Substreams(master_seed, purpose, None if index is None else [index])[0]
