"""The stream derivation against numpy's own SeedSequence, and the
substreams an ensemble draws through one reused generator."""

import numpy as np
import pytest

from tcfbsde import fbsde, seeding
from tcfbsde.cash import CashSpec, certify_optimality
from tcfbsde.fbsde import build_model, make_ensemble
from tcfbsde.seeding import Substreams, pcg64_states, stream

from support import numpy_stream

MASTERS = (0, 1, 2**32 - 1, 2**32, 2**64 + 1, 10**30)
INDICES = (None, 0, 1, 2047, 2**32 - 1, 2**32, 2**40)
PURPOSES = ("subordinator", "brownian", "jumps", "lsmc-brownian-3")


@pytest.mark.parametrize("purpose", PURPOSES)
def test_stream_is_numpys_seed_sequence_stream(purpose):
    """stream() gives numpy's default_rng(SeedSequence(master, spawn_key=
    (crc32(purpose)[, index]))) state for state: one- to four-word master
    seeds, one- and two-word indices and no index."""
    for master in MASTERS:
        for index in INDICES:
            got = stream(master, purpose, index).bit_generator.state
            assert got == numpy_stream(master, purpose, index).bit_generator.state, \
                (master, index)


def test_substreams_derive_every_index_in_one_pass():
    """One Substreams over indices of one and two words, in any order and
    repeated, holds at item p numpy's stream of indices[p], and a
    permutation of range(n) gives the streams of a make_ensemble pairing."""
    indices = [2**40, 0, 2047, 2**32, 1, 2**32 - 1, 0]
    for master in MASTERS:
        subs = Substreams(master, "jumps", indices)
        assert len(subs) == len(indices)
        for p, index in enumerate(indices):
            assert subs[p].bit_generator.state == \
                numpy_stream(master, "jumps", index).bit_generator.state
    perm = np.random.default_rng(8).permutation(96)
    subs = Substreams(3, "brownian", perm)
    for i in range(96):
        assert subs[i].bit_generator.state == \
            numpy_stream(3, "brownian", int(perm[i])).bit_generator.state
    assert pcg64_states(3, "brownian", perm[:5]) == pcg64_states(3, "brownian", list(perm[:5]))


def test_substreams_item_starts_its_stream_each_time():
    """Every item is one reused generator, loaded with the start of its
    index's stream each time it is asked for (negative items count from
    the end); keeping and restoring its state resumes the stream."""
    subs = Substreams(5, "subordinator", range(3))
    ref = numpy_stream(5, "subordinator", 1)
    first = ref.uniform(size=3)
    assert subs[1] is subs[0]
    for p in (1, -2):
        rng = subs[p]
        assert rng.uniform(size=3).tobytes() == first.tobytes()
    kept = rng.bit_generator.state
    subs[2].uniform(size=5)
    rng = subs[1]
    rng.bit_generator.state = kept
    assert rng.standard_exponential(size=4).tobytes() == \
        ref.standard_exponential(size=4).tobytes()
    with pytest.raises(IndexError):
        subs[3]
    with pytest.raises(TypeError):
        subs[1.0]


@pytest.mark.parametrize("master, index", [
    (1.7, 0), (1, 1.7), (-1, 0), (1, -1), (float("nan"), 0), (1, float("inf")), ("3", 0)])
def test_stream_refuses_a_seed_or_index_that_is_not_a_non_negative_integer(master, index):
    """int() would read 1.7 as 1, so seed 1.7 would certify seed 1."""
    with pytest.raises(ValueError, match="must be a non-negative integer"):
        stream(master, "x", index)


def test_integral_floats_name_the_integer_stream():
    assert stream(2.0, "x", 3.0).bit_generator.state == numpy_stream(2, "x", 3).bit_generator.state
    assert (stream(np.uint64(2**63), "x", np.int64(4)).bit_generator.state
            == numpy_stream(2**63, "x", 4).bit_generator.state)


def test_a_non_integral_seed_is_refused_before_sampling():
    with pytest.raises(ValueError, match="master seed must be a non-negative integer"):
        certify_optimality(CashSpec(), ensemble_size=8, seed=1.7)
    model, jump, sub, p = build_model("linear_test")
    with pytest.raises(ValueError, match="master seed"):
        make_ensemble(sub, jump, p["horizon"], p["step"], 4, master_seed=-2)


def test_make_ensemble_builds_one_generator_per_purpose(monkeypatch):
    """64 paths draw through three generators, one per purpose, and build
    no SeedSequence."""
    built = []
    generator = np.random.Generator

    def counted(*args):
        built.append(args)
        return generator(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built")

    monkeypatch.setattr(seeding.np.random, "Generator", counted)
    monkeypatch.setattr(seeding.np.random, "SeedSequence", refuse)
    model, jump, sub, p = build_model("linear_test")
    ens = fbsde.make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    assert len(ens) == 64 and len(built) == 3
