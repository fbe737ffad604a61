"""Solver-level tests: forward scheme, the three backward regimes, duality
composition, and the cost functional."""

import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import ks_2samp

from oracles import linear_fbsde_ode_oracle
from support import RAGGED_STEPS, coupled_bundles, manual_bundle, mk_model, ragged_bundles
from tcfbsde import fbsde
from tcfbsde.fbsde import (
    Box,
    ConstantControl,
    FeedbackControl,
    ModelSpec,
    PerturbedControl,
    StepwiseControl,
    TableControl,
    build_model,
    compose_duality,
    evaluate_cost,
    make_ensemble,
    solve_backward_dual,
    solve_calendar_direct,
    solve_forward_dual,
)
from tcfbsde.noise import LevyJumpSpec, ito_decomposition_check
from tcfbsde.smp import gateaux_consistency_check
from tcfbsde.time_change import SubordinatorSpec


IDENTITY_DU = 0.005


def identity_bundle(seed=0, du=IDENTITY_DU, horizon=0.5, flat_noise=False, **kw):
    """Bundle whose subordinator is the identity staircase D(u) = u."""
    n_below = int(round(horizon / du))
    values = du * np.arange(n_below + 2)
    return manual_bundle(values, du, horizon, seed=seed, flat_noise=flat_noise, **kw)


# ---------------------------------------------------------------- controls

def test_box_admit_projects_and_rejects():
    box = Box(-1.0, 1.0)
    assert box.admit(1.0 + 1e-12) == 1.0
    assert box.admit(np.array([-0.5, 0.5]))[0] == -0.5
    with pytest.raises(ValueError, match="control infeasible"):
        box.admit(1.1)


def test_box_empty_raises():
    with pytest.raises(ValueError, match="empty control box"):
        Box(2.0, 2.0)


@given(st.floats(-0.999, 0.999))
def test_box_admit_is_identity_inside(v):
    assert Box(-1.0, 1.0).admit(v) == v


def test_table_control_is_left_constant():
    ctl = TableControl([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    t = np.array([-0.5, 0.0, 0.999, 1.0, 1.5, 10.0])
    assert np.array_equal(ctl.values_at(0, t, 0.0, t, None),
                          [5.0, 5.0, 5.0, 6.0, 6.0, 7.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        TableControl([0.0, 0.0], [1.0, 2.0])


def test_stepwise_control_reads_its_row():
    ctl = StepwiseControl(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ctl.values_at(1, None, None, None, np.array([1, 0]))
    assert np.array_equal(out, [4.0, 2.0])
    # column clamps at the last stored step
    out = ctl.values_at(9, None, None, None, np.array([0]))
    assert out[0] == 2.0


def test_perturbed_control_combines():
    ctl = PerturbedControl(ConstantControl(1.0), ConstantControl(2.0), rho=0.25)
    assert ctl.state_free
    assert float(ctl.values_at(0, 0.0, 0.0, 0.0, None)) == 1.5


# ------------------------------------------------------------------ models

def test_model_probe_rejects_non_finite_map():
    with pytest.raises(ValueError, match="probe"):
        mk_model(f=lambda t1, t2, x, v: np.nan + 0.0 * x)


def test_linear_terminal_flag_is_checked():
    with pytest.raises(ValueError, match="linear_terminal"):
        mk_model(phi=lambda x: x**2, M_T=1.0)


def test_only_scalar_systems():
    with pytest.raises(NotImplementedError):
        mk_model(n=2)


def test_unknown_model_name():
    with pytest.raises(KeyError):
        build_model("soup")


# --------------------------------------------------------------- ensembles

def test_make_ensemble_is_deterministic_and_consistent():
    model, jump, sub, p = build_model("linear_test")
    one = make_ensemble(sub, jump, 0.7, 0.01, 3, master_seed=42)
    two = make_ensemble(sub, jump, 0.7, 0.01, 3, master_seed=42)
    for a, b in zip(one, two):
        assert np.array_equal(a.subordinator.values, b.subordinator.values)
        assert np.array_equal(a.brownian.values, b.brownian.values)
        assert np.array_equal(a.jumps.times, b.jumps.times)
    dB = one.rows().dB
    for n, b in enumerate(one):
        vals = b.subordinator.values
        assert vals[-1] > 0.7 >= vals[-2]
        assert b.solver_steps == vals.size - 2
        assert abs(b.inverse.values[-1] - b.solver_steps * 0.01) < 1e-12
        K = b.solver_steps
        assert np.array_equal(dB[n, :K], np.diff(b.brownian.values[: K + 1]))
        assert np.all(dB[n, K:] == 0.0)


def test_pairing_reassigns_noise_streams():
    model, jump, sub, p = build_model("linear_test")
    base = make_ensemble(sub, jump, 0.5, 0.01, 4, master_seed=7)
    perm = np.array([2, 3, 0, 1])
    paired = make_ensemble(sub, jump, 0.5, 0.01, 4, master_seed=7, pairing=perm)
    for i in range(4):
        assert np.array_equal(paired[i].subordinator.values,
                              base[i].subordinator.values)
        j = perm[i]
        k = min(paired[i].brownian.values.size, base[j].brownian.values.size)
        assert np.array_equal(paired[i].brownian.values[:k],
                              base[j].brownian.values[:k])


# ----------------------------------------------------------------- forward

def test_forward_constant_when_coefficients_vanish():
    model = mk_model()
    sol = solve_forward_dual(model, 0.0, identity_bundle(seed=3))
    assert np.all(sol.X == model.x0)


def test_forward_matches_exponential_decay():
    model = mk_model(f=lambda t1, t2, x, v: -x + 0.0 * v)
    bundle = identity_bundle(seed=0, flat_noise=True)
    sol = solve_forward_dual(model, 0.0, bundle)
    u = IDENTITY_DU * np.arange(sol.X.size)
    assert np.max(np.abs(sol.X - np.exp(-u))) < 2e-3


def test_forward_blow_up_is_reported():
    model = mk_model(f=lambda t1, t2, x, v: 1e200 * (1.0 + x**2))
    bundle = manual_bundle([0.0, 0.1, 0.2, 0.3, 0.4, 1.1], 0.1, 1.0, flat_noise=True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="blow-up at step"):
            solve_forward_dual(model, 0.0, bundle)


def test_forward_rejects_infeasible_control():
    model = mk_model(control_set=Box(-5.0, 5.0))
    with pytest.raises(ValueError, match="control infeasible"):
        solve_forward_dual(model, ConstantControl(10.0), identity_bundle())


def test_forward_keeps_ito_ingredients():
    """The stored ingredients satisfy the pathwise decomposition identity."""
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=11)[0]
    sol = solve_forward_dual(model, 0.3, bundle)
    assert sol.jump_nodes.shape == (bundle.solver_steps, 16)
    assert sol.event_steps.size == sol.event_b.size
    derivs = {
        "x": lambda t1, t2, x: 2.0 * x,
        "xx": lambda t1, t2, x: 2.0 + 0.0 * x,
    }
    res = ito_decomposition_check(lambda t1, t2, x: x**2, sol, derivatives=derivs)
    assert res[0] == 0.0
    assert np.all(np.isfinite(res))
    # the residual for x**2 collapses to the quadratic bracket error
    brk = (np.sum(np.diff(sol.X) ** 2)
           - np.sum(sol.vol**2) * sol.grid.step
           - np.sum(sol.event_b**2))
    assert abs(res[-1] - brk) < 1e-12


# ---------------------------------------------------------------- backward

@pytest.mark.parametrize("method", ["ode", "affine", "lsmc"])
def test_backward_zero_data_gives_zero_solution(method):
    model = mk_model(M_T=0.0, linear={"f", "sigma", "b", "g"},
                     sigma=lambda t1, t2, x, v: 0.3 + 0.0 * x)
    bundle = identity_bundle(seed=5, horizon=0.2)
    sol = solve_forward_dual(model, 0.0, bundle)
    sol = solve_backward_dual(model, 0.0, bundle, sol, method=method, n_inner=64)
    assert np.all(sol.Y == 0.0)
    assert np.all(sol.A == 0.0)
    assert np.all(sol.r == 0.0)


def test_backward_constant_driver_grows_linearly():
    """Driver kappa0 with zero terminal data: Y(u) = kappa0 (E_T - u)."""
    kappa0 = 0.8
    spec = LevyJumpSpec(c=1.0, intensity=1.0)
    model = mk_model(
        sigma=lambda t1, t2, x, v: 0.3 + 0.0 * x,
        g=lambda t1, t2, x, y, a, r, v: kappa0 + 0.0 * y,
    )
    bundle = identity_bundle(seed=9, jump_spec=spec)
    fwd = solve_forward_dual(model, 0.0, bundle)
    ode = solve_backward_dual(model, 0.0, bundle, fwd, method="ode")
    K = bundle.solver_steps
    expect = kappa0 * IDENTITY_DU * (K - np.arange(K + 1))
    assert np.max(np.abs(ode.Y - expect)) < 1e-12

    fwd2 = solve_forward_dual(model, 0.0, bundle)
    lsmc = solve_backward_dual(model, 0.0, bundle, fwd2, method="lsmc", n_inner=128)
    assert np.max(np.abs(lsmc.Y - expect)) < 1e-6


def test_backward_matches_linear_ode_oracle():
    """Conditionally deterministic linear pair against the matrix exponential."""
    lam = 2.0
    model = mk_model(
        f=lambda t1, t2, x, v: -x + 0.0 * v,
        g=lambda t1, t2, x, y, a, r, v: (-y + 0.5 * x) / lam,
        phi=lambda x: 1.0 * x,
        M_T=1.0,
        linear={"f", "sigma", "b", "g"},
        conditionally_deterministic=True,
    )
    jump = LevyJumpSpec(c=1.0, intensity=lam)
    sub = SubordinatorSpec(alpha=0.5)
    du = 0.004
    bundle = make_ensemble(sub, jump, 0.8, du, 1, master_seed=21)[0]
    U = bundle.solver_steps * du

    fwd = solve_forward_dual(model, 0.0, bundle)
    ode = solve_backward_dual(model, 0.0, bundle, fwd, method="ode")
    x_u, y0 = linear_fbsde_ode_oracle(a=-1.0, c=0.0, gy=-1.0, gx=0.5, g0=0.0,
                                      m_terminal=1.0, f_terminal=0.0,
                                      x0=1.0, horizon=U)
    assert abs(fwd.X[-1] - x_u) < 0.01
    assert abs(ode.Y[0] - y0) < 0.01

    fwd2 = solve_forward_dual(model, 0.0, bundle)
    aff = solve_backward_dual(model, 0.0, bundle, fwd2, method="affine")
    assert abs(aff.Y[0] - ode.Y[0]) < 1e-9


def test_affine_and_lsmc_agree_on_linear_model():
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=33)[0]
    fwd = solve_forward_dual(model, 0.3, bundle)
    aff = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
    y_aff = aff.Y.copy()
    fwd2 = solve_forward_dual(model, 0.3, bundle)
    reg = solve_backward_dual(model, 0.3, bundle, fwd2, method="lsmc", n_inner=512)
    assert abs(y_aff[0] - reg.Y[0]) < 0.05


def test_lsmc_volatility_integrand_scale():
    """For dX = dB and Y = X the regression must recover A close to 1."""
    model = mk_model(sigma=lambda t1, t2, x, v: 1.0 + 0.0 * x,
                     phi=lambda x: 1.0 * x)
    bundle = identity_bundle(seed=13, du=0.01, horizon=0.7)
    fwd = solve_forward_dual(model, 0.0, bundle)
    sol = solve_backward_dual(model, 0.0, bundle, fwd, method="lsmc", n_inner=512)
    assert abs(float(np.mean(sol.A)) - 1.0) < 0.25


def test_affine_needs_flags_and_open_loop():
    model = mk_model()
    bundle = identity_bundle(horizon=0.1)
    fwd = solve_forward_dual(model, 0.0, bundle)
    with pytest.raises(ValueError, match="linearity flags"):
        solve_backward_dual(model, 0.0, bundle, fwd, method="affine")
    lin, jump, sub, p = build_model("linear_test")
    b2 = make_ensemble(sub, jump, 0.3, 0.01, 1, master_seed=3)[0]
    fb = FeedbackControl(lambda t1, t2, x: 0.1 * x)
    f2 = solve_forward_dual(lin, fb, b2)
    with pytest.raises(ValueError, match="open-loop"):
        solve_backward_dual(lin, fb, b2, f2, method="affine")
    # an explicit request is honoured, not switched to regression
    with pytest.raises(ValueError, match="open-loop"):
        evaluate_cost(lin, fb, [b2], method="affine")
    # the automatic choice falls back to regression, as evaluate_cost's does
    auto = solve_backward_dual(lin, fb, b2, solve_forward_dual(lin, fb, b2))
    lsmc = solve_backward_dual(lin, fb, b2, solve_forward_dual(lin, fb, b2), method="lsmc")
    for name in ("Y", "A", "r"):
        assert np.array_equal(getattr(auto, name), getattr(lsmc, name))


def test_unknown_backward_method():
    model = mk_model()
    bundle = identity_bundle(horizon=0.1)
    fwd = solve_forward_dual(model, 0.0, bundle)
    with pytest.raises(ValueError, match="backward method"):
        solve_backward_dual(model, 0.0, bundle, fwd, method="magic")
    with pytest.raises(ValueError, match="backward method"):
        evaluate_cost(model, 0.0, [bundle], method="magic")


# ------------------------------------------------------------- composition

def test_compose_duality_reads_the_staircase():
    model, jump, sub, p = build_model("linear_test")
    bundle = manual_bundle([0.0, 0.1, 0.2, 0.8, 0.9, 1.3], 0.1, 1.0, seed=2)
    fwd = solve_forward_dual(model, 0.3, bundle)
    sol = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
    cal = compose_duality(sol, bundle.inverse)
    assert cal.clock == "calendar"
    # matched grid: [0, .1, .2, .8, .9, 1.0] reads indices [0,1,2,3,4,4]
    assert np.array_equal(cal.X, sol.X[[0, 1, 2, 3, 4, 4]])
    assert np.array_equal(cal.Y, sol.Y[[0, 1, 2, 3, 4, 4]])

    from tcfbsde.time_change import invert_subordinator

    dense = invert_subordinator(bundle.subordinator,
                                np.array([0.0, 0.25, 0.5, 0.79, 0.95, 1.0]))
    flat = compose_duality(sol, dense)
    # E is flat across the [0.2, 0.8) calendar gap, so X must be too
    assert flat.X[1] == flat.X[2]
    assert flat.X[1] == sol.X[2]
    assert flat.X[-1] == flat.X[-2]


def test_compose_duality_rejects_horizon_mismatch():
    from tcfbsde.time_change import InversePath

    model = mk_model()
    bundle = identity_bundle(horizon=0.2)
    sol = solve_forward_dual(model, 0.0, bundle)
    inv = InversePath(calendar_grid=np.array([0.0, 1.0]),
                      values=np.array([0.0, 10.0]))
    with pytest.raises(ValueError, match="horizon mismatch"):
        compose_duality(sol, inv)
    with pytest.raises(ValueError, match="operational-clock"):
        compose_duality(compose_duality(sol, bundle.inverse), bundle.inverse)


def test_duality_round_trip_on_sampled_paths():
    """Composed dual solution equals the direct calendar simulation."""
    model, jump, sub, p = build_model("linear_test")
    for seed in range(6):
        bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=100 + seed)[0]
        fwd = solve_forward_dual(model, 0.3, bundle)
        sol = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
        cal = compose_duality(sol, bundle.inverse)
        X_dir, Y_dir, tgrid = solve_calendar_direct(model, 0.3, bundle)
        assert np.array_equal(tgrid, bundle.inverse.calendar_grid)
        assert np.max(np.abs(cal.X - X_dir)) < 1e-8
        assert np.max(np.abs(cal.Y - Y_dir)) < 1e-8


# -------------------------------------------------------------------- cost

def test_cost_zero_model_is_exactly_zero():
    model = mk_model()
    bundles = [identity_bundle(seed=s, horizon=0.2) for s in range(3)]
    est = evaluate_cost(model, 0.0, bundles, method="ode")
    assert est.mean == 0.0
    assert np.all(est.per_path == 0.0)


def test_cost_pure_terminal_returns_x0():
    model = mk_model(h=lambda x: 1.0 * x)
    bundles = [identity_bundle(seed=s, horizon=0.2) for s in range(3)]
    est = evaluate_cost(model, 0.0, bundles, method="ode")
    assert np.all(est.per_path == model.x0)
    assert est.std_error == 0.0


def test_cost_chunking_and_row_labels():
    """Chunked evaluation must hand every path its own control row."""
    model, jump, sub, p = build_model("linear_test")
    bundles = make_ensemble(sub, jump, 0.5, 0.01, 8, master_seed=55)
    rows = (0.1 + 0.05 * np.arange(8))[:, None]
    ctl = StepwiseControl(rows)
    whole = evaluate_cost(model, ctl, bundles, chunk=512)
    split = evaluate_cost(model, ctl, bundles, chunk=3)
    assert np.array_equal(whole.per_path, split.per_path)
    # and the rows genuinely differ, so a label mix-up would show
    alt = evaluate_cost(model, ConstantControl(0.1), bundles, chunk=512)
    assert not np.array_equal(whole.per_path, alt.per_path)
    # a slice of an ensemble is labelled by position in the slice in every
    # entry point, so the Gateaux quotient reads the same rows as the cost
    cash, cjump, csub, cp = build_model("cash")
    ens = make_ensemble(csub, cjump, cp["horizon"], cp["step"], 12, master_seed=0)
    part = ens[4:8]
    kmax = max(b.solver_steps for b in ens)
    ctl = StepwiseControl(0.2 + 0.15 * np.arange(12)[:, None] + 0.0 * np.arange(kmax))
    direction, rho = ConstantControl(1.0), 0.1
    quotient = (evaluate_cost(cash, PerturbedControl(ctl, direction, rho), part).per_path
                - evaluate_cost(cash, ctl, part).per_path) / rho
    (row,) = gateaux_consistency_check(cash, ctl, direction, [rho], part)
    assert row["lhs"] == float(quotient.mean())


def test_ensemble_rows_match_a_fresh_pack():
    """A gather of any rows of a packed ensemble rebuilds, byte for byte,
    the layout of those bundles packed on their own: an unsorted
    selection, a Kmax = 0 selection, an event-free selection and slices,
    with sparse and with dense jumps."""
    steps = np.array(RAGGED_STEPS)
    for intensity in (2.0, 300.0):
        ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS,
                                            jump_spec=LevyJumpSpec(c=1.0, intensity=intensity)))
        unsorted = np.array([8, 0, 5, 3, 2])
        zero = np.flatnonzero(steps == 0)
        no_events = np.flatnonzero((ens.ev_n == 0) & (steps > 0))
        cases = [unsorted, zero, np.argsort(steps, kind="stable"), np.arange(2, 7)]
        if intensity == 2.0:
            assert no_events.size
            cases.append(no_events)
            assert ens.rows(no_events).ev_p.size == 0
        else:
            assert ens.rows(unsorted).ev_p.size > 20
        for idx in cases:
            got = ens.rows(idx)
            want = fbsde.Ensemble([ens[int(i)] for i in idx]).rows(None, labels=idx)
            for name in ("K", "labels", "t", "dB", "ev_p", "ev_s", "ev_z", "ev_start"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
        assert ens.rows(zero).Kmax == 0
        # a slice shares the flat arrays and gathers the same rows
        part = ens[2:7]
        assert part.times is ens.times
        assert part.rows(None).t.tobytes() == ens.rows(np.arange(2, 7)).t.tobytes()


@pytest.mark.parametrize("name, method, make_control, node_cost", [
    ("linear_test", None, StepwiseControl, False),
    ("linear_test", "ode", StepwiseControl, False),
    ("quadratic_drift", "lsmc", StepwiseControl, False),
    ("quadratic_drift", "lsmc", lambda rows: ConstantControl(0.5), False),
    ("quadratic_drift", "lsmc",
     lambda rows: FeedbackControl(lambda t1, t2, x: 0.5 + 0.1 * np.tanh(x)), False),
    ("linear_test", None, StepwiseControl, True),
], ids=["affine-table", "ode-table", "lsmc-table", "lsmc-constant", "lsmc-feedback",
        "affine-node-cost"])
def test_cost_is_bitwise_chunk_invariant_on_ragged_ensemble(name, method, make_control,
                                                            node_cost, monkeypatch):
    """K-sorted batches must scatter every path's cost back to its own
    ensemble position, whatever the chunk size.  The ODE regime solves
    the rows of a batch together and freezes each at its horizon.  Under
    LSMC the outer paths of a batch share one regression sweep, whose
    inner rows must read their own outer path's control.  With
    ``node_cost`` the running cost varies over the quadrature nodes, so
    its jump-measure sum must be row-local too.  The ten ragged paths sum
    alike even under a BLAS product, so that case runs on the 64-path
    seed-0 ensemble, where such a product made 4 paths depend on the chunk."""
    model, jump, sub, p = build_model(name)
    if node_cost:
        base_l = model.l
        model.l = lambda t1, t2, x, y, a, r, v: base_l(t1, t2, x, y, a, r, v) + r**2
        bundles = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    else:
        bundles = ragged_bundles(RAGGED_STEPS, jump_spec=jump)
    steps = np.array([b.solver_steps for b in bundles])
    n, kmax = len(bundles), steps.max()
    # wrapped to stay inside the control box on long ensembles
    rows = (0.1 + 0.05 * np.arange(n)[:, None] + 0.01 * np.arange(kmax)) % 1.5
    ctl = make_control(rows)
    one, three, whole = (evaluate_cost(model, ctl, bundles, method=method, chunk=c).per_path
                         for c in (1, 3, 512))
    assert np.array_equal(one, three)
    assert np.array_equal(one, whole)
    # each path alone reads row 0 of its own one-row table
    alone = [evaluate_cost(model, make_control(rows[i: i + 1]), [b],
                           method=method).per_path[0]
             for i, b in enumerate(bundles)]
    assert np.array_equal(whole, alone)
    if method == "lsmc":
        # a row cap of two inner ensembles sweeps the batch in groups
        monkeypatch.setattr(fbsde, "_LSMC_ROWS", 2 * 256)
        grouped = evaluate_cost(model, ctl, bundles, method=method).per_path
        assert np.array_equal(whole, grouped)
    # a zero-step path costs gamma(Y_0) = -(phi(0) + M_T x0) and nothing else
    zero = steps == 0
    assert np.all(whole[zero] == -model.x0)
    assert np.unique(whole[~zero]).size == n - zero.sum()


def test_picard_step_is_row_local():
    """A row's implicit backward step must not depend on the rows beside
    it, or batched backward solves lose chunk invariance."""
    model = mk_model(g=lambda t1, t2, x, y, a, r, v: x * r**2 + y + 0.0 * (a + v))
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    z, _ = spec.quadrature()
    rng = np.random.default_rng(0)
    n = 300
    t, x, ey, a, v = rng.normal(size=(5, n)) * 10.0 ** rng.uniform(-3, 3, size=(5, n))
    r = rng.normal(size=(n, z.size))
    whole = fbsde._picard(model, spec, t, 0.1, x, ey, a, r, v, 0.01, 3)
    for lo, hi in [(i, i + 1) for i in range(n)] + [(3, 10), (7, 290)]:
        part = fbsde._picard(model, spec, t[lo:hi], 0.1, x[lo:hi], ey[lo:hi], a[lo:hi],
                             r[lo:hi], v[lo:hi], 0.01, 3)
        assert np.array_equal(part, whole[lo:hi])


def test_cost_blow_up_names_the_ensemble_path():
    # path 2 has the most steps, so it sits at row 8 of the sorted batch
    model = mk_model(f=lambda t1, t2, x, v: v * v + 0.0 * x, control_set=Box())
    bundles = ragged_bundles(RAGGED_STEPS)
    rows = np.zeros((len(bundles), max(RAGGED_STEPS)))
    rows[2] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"blow-up at step 0 \(path 2\)"):
            evaluate_cost(model, StepwiseControl(rows), bundles)


@pytest.mark.parametrize("method", ["ode", "affine", "lsmc"])
def test_lsmc_cost_matches_single_path_solvers_bitwise(method):
    """The cost reads each path off the batch forward and backward solves;
    it must agree bit for bit with the single-path solvers."""
    model, jump, sub, p = build_model("quadratic_drift")
    if method == "ode":
        # the same drift and driver without noise loadings (plus a y^2 term)
        model = mk_model(f=lambda t1, t2, x, v: -x + v + 0.5 * v**2,
                         g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.3 * v**2
                                                          + 0.1 * y**2 + 0.0 * (a + r)),
                         phi=lambda x: 1.0 * x, gamma=lambda y: -y,
                         control_set=Box(-2.0, 2.0), conditionally_deterministic=True)
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 48, master_seed=3)
    picks = [ens[i] for i in (5, 1, 40)]
    ctl = ConstantControl(0.5)
    est = evaluate_cost(model, ctl, picks, method=method)
    for bnd, got in zip(picks, est.per_path):
        sol = solve_backward_dual(model, ctl, bnd, solve_forward_dual(model, ctl, bnd),
                                  method=method)
        # neither model has a running or terminal cost: J = gamma(Y_0) = -Y_0
        assert got == -sol.Y[0]


def test_lsmc_rank_deficiency_names_step_and_path():
    """Without diffusion and with sparse jumps the inner states take only
    a few distinct values.  The joint sweep stops at the first Gram matrix
    past the conditioning bound and names its step and path; that path
    solved alone fails at the same step."""
    model = mk_model(b=lambda t1, t2, x, v, z: z + 0.0 * x,
                     phi=lambda x: 1.0 * x, M_T=1.0)
    bundles = ragged_bundles((7, 0, 12, 3, 9),
                             jump_spec=LevyJumpSpec(c=1.0, intensity=0.2))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"at step (\d+) \(path (\d+)\)") as err:
        evaluate_cost(model, 0.0, bundles, method="lsmc")
    step, path = re.search(r"at step (\d+) \(path (\d+)\)", str(err.value)).groups()
    bnd = bundles[int(path)]
    with pytest.raises(np.linalg.LinAlgError, match=rf"at step {step} \(path {path}\)"):
        solve_backward_dual(model, 0.0, bnd, solve_forward_dual(model, 0.0, bnd),
                            method="lsmc")


def test_cost_law_invariant_under_noise_pairing():
    model, jump, sub, p = build_model("linear_test")
    n = 256
    a = make_ensemble(sub, jump, 0.7, 0.01, n, master_seed=77)
    perm = np.roll(np.arange(n), 31)
    b = make_ensemble(sub, jump, 0.7, 0.01, n, master_seed=77, pairing=perm)
    ca = evaluate_cost(model, 0.3, a)
    cb = evaluate_cost(model, 0.3, b)
    gap = abs(ca.mean - cb.mean)
    assert gap < 4.0 * np.hypot(ca.std_error, cb.std_error)
    assert ks_2samp(ca.per_path, cb.per_path).pvalue > 0.01


def test_forward_self_convergence_is_first_order():
    """Coupled grid refinement: halving the step halves the strong error."""
    sub = SubordinatorSpec(alpha=0.7)
    jump = LevyJumpSpec(c=1.0, intensity=2.0)
    model = mk_model(
        f=lambda t1, t2, x, v: -x + 0.5 + 0.0 * v,
        sigma=lambda t1, t2, x, v: 0.2 + 0.0 * x,
        b=lambda t1, t2, x, v, z: 0.1 * z + 0.0 * x,
    )
    d_fine, d_coarse = [], []
    for k in range(160):
        lv1, lv2, lv4 = coupled_bundles(sub, jump, 0.6, 0.0025,
                                        seed=2000 + 5 * k, factors=(1, 2, 4))
        xs = [solve_forward_dual(model, 0.0, b, keep_ingredients=False).X[-1]
              for b in (lv1, lv2, lv4)]
        d_fine.append(abs(xs[0] - xs[1]))
        d_coarse.append(abs(xs[1] - xs[2]))
    ratio = np.mean(d_coarse) / np.mean(d_fine)
    assert 1.4 < ratio < 2.6
