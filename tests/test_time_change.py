import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcfbsde.time_change import (
    MAX_STEPS,
    InversePath,
    OperationalGrid,
    SubordinatorPath,
    SubordinatorSpec,
    invert_subordinator,
    laplace_exponent,
    matched_calendar_grid,
    sample_subordinator,
    sample_subordinators,
    stable_increments,
)

from tcfbsde.seeding import Substreams

from oracles import levy_half_stable_cdf, mittag_leffler_moment
from support import numpy_stream, reference_subordinator_values


def test_laplace_exponent_values():
    assert laplace_exponent(SubordinatorSpec(0.5), 4.0) == 2.0
    assert laplace_exponent(SubordinatorSpec(0.9), 1.0) == 1.0
    got = laplace_exponent(SubordinatorSpec(0.3, scale=2.0), 8.0)
    assert abs(got - 3.7321319661472296) < 1e-12


def test_laplace_exponent_rejects_bad_xi():
    spec = SubordinatorSpec(0.5)
    with pytest.raises(ValueError):
        laplace_exponent(spec, 0.0)
    with pytest.raises(ValueError):
        laplace_exponent(spec, -1.0)
    with pytest.raises(ValueError):
        laplace_exponent(spec, np.inf)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.7, np.nan])
def test_spec_rejects_boundary_alpha(alpha):
    with pytest.raises(ValueError):
        SubordinatorSpec(alpha)


def test_spec_rejects_bad_scale():
    with pytest.raises(ValueError):
        SubordinatorSpec(0.5, scale=0.0)
    with pytest.raises(ValueError):
        SubordinatorSpec(0.5, scale=-3.0)


def test_stable_half_law_against_levy_closed_form():
    # alpha = 1/2 has the closed-form Levy(1/2) law; KS distance check
    rng = np.random.default_rng(2024)
    s = stable_increments(0.5, 50_000, rng)
    s = np.sort(s)
    grid_cdf = levy_half_stable_cdf(s)
    emp_hi = np.arange(1, s.size + 1) / s.size
    ks = np.max(np.abs(emp_hi - grid_cdf))
    # 1.63/sqrt(n) is the 1% critical value for the one-sample KS statistic
    assert ks < 1.63 / np.sqrt(s.size)


def test_increment_laplace_transform():
    # ensemble transform of D(1) against exp(-psi(xi)), three Monte Carlo
    # standard errors; D(1) assembled from 100 per-step draws
    spec = SubordinatorSpec(0.7)
    rng = np.random.default_rng(7)
    du = 0.01
    incs = (du) ** (1.0 / spec.alpha) * stable_increments(spec.alpha, (4000, 100), rng)
    d1 = incs.sum(axis=1)
    for xi in (0.5, 1.0, 2.0):
        vals = np.exp(-xi * d1)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - np.exp(-laplace_exponent(spec, xi))) < 3 * se


def test_stable_overflow_raises():
    # the Kanter power 1 / (1 - alpha) overflows on 191 of these draws
    rng = np.random.default_rng(0)
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="alpha=0.999"):
            stable_increments(0.999, 200_000, rng)


def test_sample_subordinator_passes_horizon():
    spec = SubordinatorSpec(0.6)
    grid = OperationalGrid(step=0.01, horizon=0.5)
    path = sample_subordinator(spec, 1.0, grid, seed=5)
    assert path.values[0] == 0.0
    assert np.all(np.diff(path.values) >= 0.0)
    assert path.values[-1] > 1.0
    assert path.values[-2] <= 1.0
    # the grid ends at the first passage past the level
    assert path.grid.horizon == path.grid.step * (path.values.size - 1)


def test_sample_subordinator_grows_small_grids():
    # a 4-step starting grid has to double several times to pass T = 2
    spec = SubordinatorSpec(0.8)
    path = sample_subordinator(spec, 2.0, OperationalGrid(0.05, 0.2), seed=42)
    assert path.values[-1] > 2.0
    assert path.grid.n_steps > 4


def test_unreachable_horizon_raises_fast_and_small():
    """A clock that cannot pass the level stops at the step cap, quickly and
    without a large allocation, and the error names the spec, the level
    and the step."""
    spec = SubordinatorSpec(0.7, scale=1e-30)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(RuntimeError, match=r"horizon unreachable") as err:
            sample_subordinator(spec, 1.0, OperationalGrid(0.01, 1.0), seed=0)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for part in ("alpha=0.7", "scale=1e-30", "level 1.0", "steps of 0.01"):
        assert part in str(err.value)
    assert elapsed < 1.0
    assert peak < 64 * MAX_STEPS  # a few arrays of MAX_STEPS float64s


def test_one_path_sampler_refuses_a_seed_that_is_not_an_integer():
    """seed = 1.7 was read through int() and sampled seed 1's path: it
    raises ValueError naming seed, while an integral float, a numpy integer
    and a Generator still draw seed 1's bytes."""
    spec, grid = SubordinatorSpec(0.6), OperationalGrid(0.01, 0.5)
    for seed in (1.7, -1, "1"):
        with pytest.raises(ValueError, match="seed"):
            sample_subordinator(spec, 1.0, grid, seed)
    want = sample_subordinator(spec, 1.0, grid, 1).values.tobytes()
    for seed in (1.0, np.int64(1), np.random.default_rng(1)):
        assert sample_subordinator(spec, 1.0, grid, seed).values.tobytes() == want


def test_batched_sampler_matches_the_one_path_loop():
    """Paths drawn together, doubling their grids in shared rounds, carry
    the bytes of each path drawn alone by the one-path doubling loop."""
    grid = OperationalGrid(0.01, 0.64)
    passed = []
    for alpha in (0.3, 0.6, 0.9):
        spec = SubordinatorSpec(alpha, scale=0.5)
        values, k = sample_subordinators(spec, 1.0, grid,
                                         [np.random.default_rng(s) for s in range(20)])
        passed.append(k)
        start = np.cumsum(k + 1) - (k + 1)
        for s in range(20):
            want = reference_subordinator_values(spec, 1.0, grid, np.random.default_rng(s))
            assert values[start[s]: start[s] + k[s] + 1].tobytes() == want.tobytes()
            assert sample_subordinator(spec, 1.0, grid, s).values.tobytes() == want.tobytes()
    # some paths passed in the first round, some doubled twice or more
    passed = np.concatenate(passed)
    assert (passed <= grid.n_steps).any() and (passed > 2 * grid.n_steps).any()


def test_batched_sampler_resumes_each_substream():
    """The same through one Substreams, whose items are numpy's streams of
    permuted indices: a row that doubles again resumes its own state after
    the other rows' draws, so it carries the bytes of its stream drawn
    alone by the one-path doubling loop."""
    grid = OperationalGrid(0.01, 0.64)
    perm = np.random.default_rng(4).permutation(20)
    passed = []
    for alpha in (0.3, 0.6, 0.9):
        spec = SubordinatorSpec(alpha, scale=0.5)
        values, k = sample_subordinators(spec, 1.0, grid, Substreams(11, "subordinator", perm))
        passed.append(k)
        start = np.cumsum(k + 1) - (k + 1)
        for s in range(20):
            want = reference_subordinator_values(
                spec, 1.0, grid, numpy_stream(11, "subordinator", int(perm[s])))
            assert values[start[s]: start[s] + k[s] + 1].tobytes() == want.tobytes()
    passed = np.concatenate(passed)
    assert (passed <= grid.n_steps).any() and (passed > 2 * grid.n_steps).any()


def test_batched_sampler_fails_loudly():
    """A non-finite draw in any row raises FloatingPointError, and a clock
    that cannot pass the level raises at the step cap, naming the spec."""
    rngs = [np.random.default_rng(s) for s in (1, 0)]
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="alpha=0.999"):
            sample_subordinators(SubordinatorSpec(0.999), 1.0, OperationalGrid(1e-5, 2.0), rngs)
    rngs = [np.random.default_rng(s) for s in range(3)]
    with pytest.raises(RuntimeError, match="horizon unreachable") as err:
        sample_subordinators(SubordinatorSpec(0.7, scale=1e-30), 1.0,
                             OperationalGrid(0.01, 1.0), rngs)
    for part in ("alpha=0.7", "scale=1e-30", "level 1.0", "steps of 0.01"):
        assert part in str(err.value)


def test_sample_subordinator_deterministic():
    spec = SubordinatorSpec(0.4)
    grid = OperationalGrid(0.02, 1.0)
    a = sample_subordinator(spec, 1.5, grid, seed=99)
    b = sample_subordinator(spec, 1.5, grid, seed=99)
    assert np.array_equal(a.values, b.values)
    assert a.grid.horizon == b.grid.horizon


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(0.2, 0.9), seed=st.integers(0, 2**32 - 1))
def test_sampled_paths_monotone(alpha, seed):
    path = sample_subordinator(
        SubordinatorSpec(alpha), 0.5, OperationalGrid(0.05, 0.5), seed=seed
    )
    assert path.values[0] == 0.0
    assert np.all(np.diff(path.values) >= 0.0)


def _staircase_example():
    # D(u) = u on the grid below 0.5, then a jump to 3 at u = 0.5
    grid = OperationalGrid(step=0.1, horizon=0.5)
    values = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 3.0])
    return SubordinatorPath(grid=grid, values=values)


def test_inverse_flat_across_jump():
    path = _staircase_example()
    inv = invert_subordinator(path, [0.0, 0.3, 1.0, 2.9])
    assert inv.values[0] == 0.0
    # staircase convention: E(t) is the last grid time with D <= t, so the
    # whole jump interval [0.4, 3.0) maps to u = 0.4 and stays flat
    assert inv.values[2] == pytest.approx(0.4)
    assert inv.values[3] == pytest.approx(0.4)
    assert inv.values[2] == inv.values[3]


def test_inverse_identity_at_stored_points():
    path = sample_subordinator(SubordinatorSpec(0.5), 1.0, OperationalGrid(0.01, 1.0), seed=3)
    d = path.values[:-1]
    inv = invert_subordinator(path, d[d > 0.0])
    expect = path.grid.step * np.arange(1, d.size)
    assert np.allclose(inv.values, expect[: inv.values.size], atol=0.0)
    # nudging past a stored point cannot move E below that point
    eps = 1e-12
    inv2 = invert_subordinator(path, d[d > 0.0] + eps)
    assert np.all(inv2.values >= inv.values)


def test_inverse_requires_passage():
    path = _staircase_example()
    with pytest.raises(ValueError, match="passage not reached"):
        invert_subordinator(path, [0.0, 3.5])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sandwich_property(seed):
    # D(E(t)) <= t < D(E(t) + du) at every calendar point
    path = sample_subordinator(SubordinatorSpec(0.7), 1.0, OperationalGrid(0.02, 1.0), seed=seed)
    t = np.linspace(0.0, 1.0, 37)
    inv = invert_subordinator(path, t)
    idx = np.rint(inv.values / path.grid.step).astype(int)
    assert np.all(path.values[idx] <= t)
    assert np.all(t < path.values[idx + 1])


def test_inverse_moment_matches_mittag_leffler():
    spec = SubordinatorSpec(0.5)
    grid = OperationalGrid(5e-3, 1.0)
    e1 = np.empty(2000)
    for i in range(e1.size):
        path = sample_subordinator(spec, 1.0, grid, seed=10_000 + i)
        e1[i] = invert_subordinator(path, [1.0]).values[0]
    se = e1.std(ddof=1) / np.sqrt(e1.size)
    assert abs(e1.mean() - mittag_leffler_moment(0.5, 1.0)) < 3 * se


def test_matched_calendar_grid_alignment():
    path = sample_subordinator(SubordinatorSpec(0.6), 1.0, OperationalGrid(0.01, 1.0), seed=8)
    t = matched_calendar_grid(path, 1.0)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0.0)
    inv = invert_subordinator(path, t)
    du = path.grid.step
    # every interior matched point is a stored value of D, where E(D(u_i)) = u_i
    assert np.allclose(inv.values[:-1], du * np.arange(t.size - 1), atol=0.0)
    # and the final trapping interval is flat
    assert inv.values[-1] == inv.values[-2]


def test_inverse_clock_refuses_non_finite_times():
    """NaN in a calendar grid used to read the path's last grid point, past
    first passage (E(nan) = 0.93 here): the inversion, an InversePath's
    grid and values and the matched grid's horizon refuse it, naming the
    argument."""
    path = sample_subordinator(SubordinatorSpec(0.7), 1.0, OperationalGrid(0.01, 0.04), 3)
    with pytest.raises(ValueError, match="calendar_grid must be finite"):
        invert_subordinator(path, [0.0, 0.5, np.nan])
    with pytest.raises(ValueError, match="calendar_grid must be finite"):
        InversePath(calendar_grid=np.array([0.0, np.nan]), values=np.array([0.0, 0.1]))
    with pytest.raises(ValueError, match="values must be finite"):
        InversePath(calendar_grid=np.array([0.0, 0.5]), values=np.array([0.0, np.nan]))
    for horizon in (np.nan, np.inf):
        with pytest.raises(ValueError, match="horizon must be finite"):
            matched_calendar_grid(path, horizon)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_grid_refuses_a_non_finite_horizon(horizon):
    """An infinite horizon used to raise OverflowError and NaN numpy's
    integer conversion error."""
    with pytest.raises(ValueError, match="horizon must be finite"):
        OperationalGrid(0.01, horizon)


def test_path_validation():
    grid = OperationalGrid(0.1, 0.3)
    with pytest.raises(ValueError):
        SubordinatorPath(grid=grid, values=np.array([0.0, 0.1, 0.05, 0.2]))
    with pytest.raises(ValueError):
        SubordinatorPath(grid=grid, values=np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        InversePath(calendar_grid=np.array([0.0, 0.5]), values=np.array([0.3, 0.1]))
    with pytest.raises(ValueError):
        InversePath(calendar_grid=np.array([0.0, 0.5]), values=np.array([0.1, 0.2]))


@pytest.mark.parametrize("at", [0, 1, 3])
def test_subordinator_path_refuses_nan(at):
    """A NaN anywhere in a staircase is refused.  Its nondecreasing check
    used to read False at a NaN point, so [0, nan, 0.2, 0.3] was built and
    its inverse read E(0.25) = 0.2, stepping over the NaN."""
    values = np.array([0.0, 0.1, 0.2, 0.3])
    values[at] = np.nan
    with pytest.raises(ValueError):
        SubordinatorPath(grid=OperationalGrid(0.1, 0.3), values=values)


def test_grid_validation():
    with pytest.raises(ValueError):
        OperationalGrid(step=-0.1, horizon=1.0)
    with pytest.raises(ValueError):
        OperationalGrid(step=0.3, horizon=1.0)
    assert OperationalGrid(0.25, 1.0).n_steps == 4
    assert np.allclose(OperationalGrid(0.25, 1.0).points(), [0, 0.25, 0.5, 0.75, 1.0])
