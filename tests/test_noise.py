from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcfbsde.noise import (
    BrownianPath,
    CalendarPath,
    JumpStream,
    LevyJumpSpec,
    change_of_variable_check,
    compensated_integral,
    compose_time_change,
    ito_decomposition_check,
    sample_brownian,
    sample_jumps,
)
from tcfbsde.time_change import (
    InversePath,
    OperationalGrid,
    SubordinatorSpec,
    invert_subordinator,
    matched_calendar_grid,
    sample_subordinator,
)


# ---------------------------------------------------------------- jump spec

def test_jump_spec_validation():
    with pytest.raises(ValueError):
        LevyJumpSpec(c=0.0, intensity=1.0)
    with pytest.raises(ValueError):
        LevyJumpSpec(c=1.0, intensity=-2.0)
    with pytest.raises(ValueError):
        LevyJumpSpec(c=1.0, intensity=1.0, mark_law="cauchy")
    # the triangular rule splits its nodes over two halves
    with pytest.raises(ValueError, match="even"):
        LevyJumpSpec(c=1.0, intensity=1.0, mark_law="triangular", n_quad=3)


@pytest.mark.parametrize("law", ["uniform", "triangular"])
def test_quadrature_is_a_probability_rule(law):
    spec = LevyJumpSpec(c=0.7, intensity=2.0, mark_law=law)
    z, w = spec.quadrature()
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(float(z @ w)) < 1e-12
    second = float((z**2) @ w)
    expect = spec.c**2 / 3.0 if law == "uniform" else spec.c**2 / 6.0
    assert abs(second - expect) < 1e-12
    assert abs(spec.mass_of(-spec.c, spec.c) - spec.intensity) < 1e-12


@pytest.mark.parametrize("law", ["uniform", "triangular"])
def test_quadrature_is_built_once_and_read_only(law):
    spec = LevyJumpSpec(c=0.7, intensity=2.0, mark_law=law, n_quad=6)
    z, w = spec.quadrature()
    again = spec.quadrature()
    assert again[0] is z and again[1] is w
    with pytest.raises(ValueError):
        z[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    # bitwise the Gauss-Legendre rule assembled from scratch
    if law == "uniform":
        x, wx = np.polynomial.legendre.leggauss(6)
        ref_z, ref_w = 0.7 * x, 0.7 * wx / 1.4
    else:
        x, wx = np.polynomial.legendre.leggauss(3)
        ref_z = np.concatenate([-0.35 + 0.35 * x, 0.35 + 0.35 * x])
        ref_w = (np.concatenate([0.35 * wx, 0.35 * wx])
                 * (1.0 - np.abs(ref_z) / 0.7) / 0.7)
    assert z.tobytes() == ref_z.tobytes()
    assert w.tobytes() == ref_w.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(0.1, 3.0),
    lam=st.floats(0.1, 5.0),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
    law=st.sampled_from(["uniform", "triangular"]),
)
def test_mass_of_additive(c, lam, a, b, law):
    spec = LevyJumpSpec(c=c, intensity=lam, mark_law=law)
    lo, hi = sorted((a * c, b * c))
    mid = 0.5 * (lo + hi)
    whole = spec.mass_of(lo, hi)
    assert abs(spec.mass_of(lo, mid) + spec.mass_of(mid, hi) - whole) < 1e-10
    assert whole >= 0.0


@pytest.mark.parametrize("law,var", [("uniform", 1.0 / 3.0), ("triangular", 1.0 / 6.0)])
def test_mark_sampling_law(law, var):
    spec = LevyJumpSpec(c=1.0, intensity=1.0, mark_law=law)
    rng = np.random.default_rng(11)
    z = spec.sample_marks(200_000, rng)
    assert np.all(np.abs(z) < spec.c)
    assert abs(z.mean()) < 3.0 * z.std(ddof=1) / np.sqrt(z.size)
    m2 = z**2
    assert abs(m2.mean() - var) < 3.0 * m2.std(ddof=1) / np.sqrt(z.size)


# ---------------------------------------------------------------- brownian

def test_brownian_basics():
    grid = OperationalGrid(0.25, 1.0)
    path = sample_brownian(grid, seed=1)
    assert path.values[0] == 0.0
    again = sample_brownian(grid, seed=1)
    assert np.array_equal(path.values, again.values)


def test_brownian_variance_and_independence():
    grid = OperationalGrid(0.25, 1.0)
    ends = np.empty(10_000)
    inc1 = np.empty(10_000)
    inc2 = np.empty(10_000)
    for i in range(ends.size):
        b = sample_brownian(grid, seed=1000 + i).values
        ends[i] = b[-1]
        inc1[i] = b[1] - b[0]
        inc2[i] = b[3] - b[2]
    n = ends.size
    # chi-square based standard error for the sample variance of N(0,1)
    assert abs(ends.var(ddof=1) - 1.0) < 3.0 * np.sqrt(2.0 / (n - 1))
    corr = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)


def test_brownian_path_validation():
    grid = OperationalGrid(0.5, 1.0)
    with pytest.raises(ValueError):
        BrownianPath(grid=grid, values=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        BrownianPath(grid=grid, values=np.array([0.0, 0.2]))


# ---------------------------------------------------------------- jumps

def test_sample_jumps_empty_horizon():
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    stream = sample_jumps(spec, 0.0, seed=3)
    assert stream.size == 0
    assert stream.events == []


def test_sample_jumps_mean_count_and_support():
    spec = LevyJumpSpec(c=0.4, intensity=2.0)
    counts = np.empty(10_000)
    for i in range(counts.size):
        s = sample_jumps(spec, 1.0, seed=i)
        counts[i] = s.size
        assert np.all(np.abs(s.marks) < spec.c)
        assert np.all(np.diff(s.times) > 0.0)
    assert abs(counts.mean() - 2.0) < 3.0 * counts.std(ddof=1) / np.sqrt(counts.size)


def test_jump_stream_validation():
    with pytest.raises(ValueError):
        JumpStream(times=np.array([0.2, 0.1]), marks=np.array([0.0, 0.0]), horizon=1.0)
    with pytest.raises(ValueError):
        JumpStream(times=np.array([0.2, 1.5]), marks=np.array([0.0, 0.0]), horizon=1.0)


# --------------------------------------------------- compensated integrals

def test_compensated_integral_zero_integrand():
    spec = LevyJumpSpec(c=1.0, intensity=3.0)
    stream = sample_jumps(spec, 1.0, seed=5)
    grid = OperationalGrid(0.2, 1.0)
    path = compensated_integral(lambda u, z: 0.0, stream, spec, grid)
    assert np.array_equal(path, np.zeros(6))


def test_compensated_integral_counts_events():
    spec = LevyJumpSpec(c=1.0, intensity=3.0)
    grid = OperationalGrid(0.2, 1.0)
    paths = np.empty((10_000, 6))
    for i in range(paths.shape[0]):
        stream = sample_jumps(spec, 1.0, seed=20_000 + i)
        paths[i] = compensated_integral(lambda u, z: 1.0, stream, spec, grid)
        # with h = 1 the path is exactly N(u) - lambda * u at grid points
        expect = np.sum(stream.times[:, None] <= grid.points()[None, :], axis=0)
        assert np.allclose(paths[i], expect - 3.0 * grid.points(), atol=1e-12)
    # martingale property at every checkpoint
    mean = paths.mean(axis=0)
    se = paths.std(axis=0, ddof=1) / np.sqrt(paths.shape[0])
    assert np.all(np.abs(mean[1:]) < 3.0 * se[1:])


def test_compensated_integral_symmetric_marks():
    spec = LevyJumpSpec(c=0.8, intensity=2.0)
    grid = OperationalGrid(0.25, 1.0)
    total = np.empty(4000)
    for i in range(total.size):
        stream = sample_jumps(spec, 1.0, seed=40_000 + i)
        total[i] = compensated_integral(lambda u, z: z, stream, spec, grid)[-1]
    assert abs(total.mean()) < 3.0 * total.std(ddof=1) / np.sqrt(total.size)


def test_compensated_integral_ignores_events_past_grid():
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    stream = JumpStream(times=np.array([0.5, 1.7]), marks=np.array([0.1, 0.2]), horizon=2.0)
    grid = OperationalGrid(0.5, 1.0)
    path = compensated_integral(lambda u, z: 1.0, stream, spec, grid)
    assert np.allclose(path, [0.0, 1.0 - 1.0, 1.0 - 2.0])


def test_compensated_integral_rejects_bad_integrand():
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    stream = JumpStream(times=np.array([0.3]), marks=np.array([0.5]), horizon=1.0)
    grid = OperationalGrid(0.5, 1.0)
    with pytest.raises(ValueError, match="event"):
        compensated_integral(lambda u, z: np.inf, stream, spec, grid)


def test_compensated_integral_names_the_non_finite_event():
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    stream = JumpStream(times=np.array([0.2, 0.3, 0.7]), marks=np.array([0.5, -0.25, 0.1]),
                        horizon=1.0)
    grid = OperationalGrid(0.5, 1.0)
    with pytest.raises(ValueError, match=r"event \(u=0\.3, z=-0\.25\)"):
        compensated_integral(lambda u, z: np.where(z < 0.0, np.nan, z), stream, spec, grid)
    # a scalar-only integrand takes the loop and is checked the same way
    with pytest.raises(ValueError, match=r"event \(u=0\.3, z=-0\.25\)"):
        compensated_integral(lambda u, z: float("nan") if z < 0.0 else float(z),
                             stream, spec, grid)


# ---------------------------------------------------------------- composition

def _staircase():
    grid = OperationalGrid(step=0.1, horizon=0.5)
    from tcfbsde.time_change import SubordinatorPath

    values = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 3.0])
    return SubordinatorPath(grid=grid, values=values, passage_time=0.5)


def test_compose_identity_and_flatness():
    path = _staircase()
    ident = SimpleNamespace(grid=path.grid, values=path.grid.points())
    t = np.array([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 2.9])
    inv = invert_subordinator(path, t)
    out = compose_time_change(ident, inv)
    assert isinstance(out, CalendarPath)
    # at stored points the composition recovers operational time ...
    assert np.allclose(out.values[:4], [0.0, 0.1, 0.2, 0.3])
    # ... and it is frozen across the jump interval of the staircase
    assert out.values[4] == out.values[5] == out.values[6] == out.values[7] == 0.4


def test_compose_rejects_excess_horizon():
    grid = OperationalGrid(0.1, 0.5)
    b = sample_brownian(grid, seed=0)
    inv = InversePath(calendar_grid=np.array([0.0, 1.0]), values=np.array([0.0, 0.7]))
    with pytest.raises(ValueError, match="operational horizon"):
        compose_time_change(b, inv)


def test_ito_isometry_through_composition():
    sub = SubordinatorSpec(0.6)
    n = 3000
    diff = np.empty(n)
    for i in range(n):
        path = sample_subordinator(sub, 0.3, OperationalGrid(0.02, 0.5), seed=60_000 + i)
        inv = invert_subordinator(path, [0.3])
        b = sample_brownian(path.grid, seed=90_000 + i)
        bet = compose_time_change(b, inv).values[0]
        diff[i] = bet**2 - inv.values[0]
    assert abs(diff.mean()) < 3.0 * diff.std(ddof=1) / np.sqrt(n)


# ------------------------------------------------------- change of variable

def test_change_of_variable_zero_integrand():
    path = sample_subordinator(SubordinatorSpec(0.7), 0.3, OperationalGrid(0.01, 0.5), seed=2)
    b = sample_brownian(path.grid, seed=3)
    inv = invert_subordinator(path, matched_calendar_grid(path, 0.3))
    U = SimpleNamespace(grid=path.grid, values=np.zeros(path.values.size))
    assert change_of_variable_check(U, b, inv) == 0.0


def test_change_of_variable_brownian_driver():
    path = sample_subordinator(SubordinatorSpec(0.7), 0.3, OperationalGrid(1e-3, 0.5), seed=4)
    b = sample_brownian(path.grid, seed=5)
    inv = invert_subordinator(path, matched_calendar_grid(path, 0.3))
    ones = SimpleNamespace(grid=path.grid, values=np.ones(path.values.size))
    disc = change_of_variable_check(ones, b, inv)
    assert disc <= 10.0 * np.finfo(float).eps * path.values.size
    # with U = 1 both sides are B(E(t)); check against the composition too
    sined = SimpleNamespace(grid=path.grid, values=np.sin(path.grid.points()))
    assert change_of_variable_check(sined, b, inv) < 1e-10


def test_change_of_variable_jump_driver():
    path = sample_subordinator(SubordinatorSpec(0.6), 0.4, OperationalGrid(1e-3, 1.0), seed=6)
    spec = LevyJumpSpec(c=0.5, intensity=3.0)
    stream = sample_jumps(spec, path.grid.horizon, seed=7)
    inv = invert_subordinator(path, matched_calendar_grid(path, 0.4))
    U = SimpleNamespace(grid=path.grid, values=np.sin(path.grid.points()))
    assert change_of_variable_check(U, stream, inv, spec=spec) < 1e-10
    with pytest.raises(ValueError, match="LevyJumpSpec"):
        change_of_variable_check(U, stream, inv)


def test_change_of_variable_grid_mismatch():
    path = sample_subordinator(SubordinatorSpec(0.7), 0.3, OperationalGrid(0.01, 0.5), seed=8)
    b = sample_brownian(OperationalGrid(0.02, path.grid.horizon), seed=9)
    inv = invert_subordinator(path, matched_calendar_grid(path, 0.3))
    U = SimpleNamespace(grid=path.grid, values=np.ones(path.values.size))
    with pytest.raises(ValueError, match="grid mismatch"):
        change_of_variable_check(U, b, inv)


# --------------------------------------------------------- ito decomposition

def _euler_ingredients(seed, K=120, du=0.01, sigma=0.25, lam=2.0):
    """Small jump-diffusion Euler path packaged for the decomposition check."""
    grid = OperationalGrid(du, K * du)
    spec = LevyJumpSpec(c=1.0, intensity=lam)
    znodes, w = spec.quadrature()
    rng = np.random.default_rng(seed)
    dB = rng.normal(0.0, np.sqrt(du), K)
    stream = sample_jumps(spec, grid.horizon, seed=seed + 1)
    steps = np.searchsorted(grid.points(), stream.times, side="left") - 1

    def bfun(x, z):
        return 0.1 * z * (1.0 + 0.2 * x)

    X = np.empty(K + 1)
    X[0] = 1.0
    drift = np.empty(K)
    nodes = np.empty((K, znodes.size))
    event_b = np.empty(stream.size)
    for i in range(K):
        drift[i] = -0.5 * X[i] + 0.3
        nodes[i] = bfun(X[i], znodes)
        here = steps == i
        event_b[here] = bfun(X[i], stream.marks[here])
        X[i + 1] = (X[i] + drift[i] * du + sigma * dB[i]
                    + event_b[here].sum() - lam * du * float(nodes[i] @ w))
    return SimpleNamespace(
        grid=grid, X=X, calendar_times=grid.points(), dB=dB, drift=drift,
        vol=np.full(K, sigma), jump_nodes=nodes, jump_spec=spec,
        event_steps=steps, event_b=event_b,
    ), sigma, du


def test_ito_check_time_component_is_exact():
    sol, _, _ = _euler_ingredients(100)
    res = ito_decomposition_check(lambda t1, t2, x: t2 + 0.0 * x, sol)
    assert np.max(np.abs(res)) < 1e-12


def test_ito_check_pure_drift_telescopes():
    sol, _, du = _euler_ingredients(200, sigma=0.0, lam=2.0)
    # strip the jumps so the path is pure drift
    sol.jump_nodes = np.zeros_like(sol.jump_nodes)
    sol.event_steps = np.empty(0, dtype=int)
    sol.event_b = np.empty(0)
    K = sol.grid.n_steps
    X = np.empty(K + 1)
    X[0] = 1.0
    for i in range(K):
        sol.drift[i] = -0.5 * X[i] + 0.3
        X[i + 1] = X[i] + sol.drift[i] * du
    sol.X = X
    res = ito_decomposition_check(lambda t1, t2, x: x + 0.0 * t2, sol)
    assert np.max(np.abs(res)) < 1e-12


def test_ito_check_square_reduces_to_bracket_error():
    # for F(x) = x^2 on an Euler path every smooth term cancels exactly and
    # the residual is the discrete bracket mismatch, computable by hand
    sol, sigma, du = _euler_ingredients(300)
    derivs = {
        "t1": lambda t1, t2, x: 0.0 * x,
        "t2": lambda t1, t2, x: 0.0 * x,
        "x": lambda t1, t2, x: 2.0 * x,
        "xx": lambda t1, t2, x: 2.0 + 0.0 * x,
    }
    res = ito_decomposition_check(lambda t1, t2, x: x**2, sol, derivatives=derivs)
    direct = np.sum(np.diff(sol.X) ** 2) - sigma**2 * du * sol.grid.n_steps \
        - np.sum(sol.event_b**2)
    assert abs(res[-1] - direct) < 1e-12
    assert res[0] == 0.0


def test_ito_check_rejects_bad_derivative():
    sol, _, _ = _euler_ingredients(400)
    derivs = {"x": lambda t1, t2, x: np.full_like(x, np.nan)}
    with pytest.raises(ValueError, match="derivative"):
        ito_decomposition_check(lambda t1, t2, x: x, sol, derivatives=derivs)
