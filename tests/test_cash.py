"""Cash application tests: model construction against hand algebra, the
explicit adjoints against the frozen candidate formula and the general
solver, the first-order condition at the computed rate, and the Monte
Carlo optimality certificate."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cash_cost_given_steps, cash_q_candidate, k_law
from support import RAGGED_STEPS, manual_bundle, ragged_bundles, solved_ensemble
from tcfbsde import cash as cash_mod, fbsde, smp
from tcfbsde.cash import (
    CashSpec,
    build_cash_model,
    cash_adjoints,
    cash_optimal_control,
    certify_optimality,
)
from tcfbsde.fbsde import (
    ConstantControl,
    ModelSpec,
    PerturbedControl,
    StepwiseControl,
    build_model,
    evaluate_cost,
    make_ensemble,
)
from tcfbsde.noise import BrownianPath, LevyJumpSpec
from tcfbsde.time_change import OperationalGrid
from tcfbsde.smp import (
    AdjointSolution,
    check_necessary_condition,
    check_sufficient_condition_hypotheses,
    expansion_check,
    hamiltonian,
    hamiltonian_grad_v,
    model_derivative,
    solve_adjoint_ensemble,
)

DU = 0.01


def rebuilt_optimum(spec, step, n_paths, seed):
    """u* exactly as certify_optimality derives it internally."""
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon,
                            step, n_paths, seed)
    adjs = cash_adjoints(spec, bundles)
    return cash_optimal_control(spec, adjs), bundles, adjs


# ------------------------------------------------------------ construction


def test_default_spec_builds_flagged_model():
    model = build_cash_model(CashSpec())
    assert model.name == "cash"
    assert model.affine_solvable
    assert not model.conditionally_deterministic
    assert model.M_T == 1.0


def test_builtin_library_exposes_cash():
    model, jspec, sub, params = build_model("cash", {"mu1": 2.0})
    assert model.name == "cash"
    assert jspec.intensity == 2.0
    assert sub.alpha == 0.7
    assert params["horizon"] == 1.0
    # the override reached the coefficients: f = -mu1 x + beta1 v
    assert model.f(0.0, 0.0, 1.0, 0.0) == -2.0


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        CashSpec(mu1=-1.0)
    with pytest.raises(ValueError):
        CashSpec(mu2=0.0)
    with pytest.raises(ValueError):
        CashSpec(beta1=np.nan)
    with pytest.raises(ValueError):
        CashSpec(horizon=0.0)
    # probe-grid checks on the evaluable maps
    with pytest.raises(ValueError):
        CashSpec(sigma_t=lambda t: 0.2 - t)
    with pytest.raises(ValueError):
        CashSpec(kappa=lambda t: np.where(t > 0.4, np.inf, 1.0))
    with pytest.raises(ValueError):
        CashSpec(eta_t=lambda t, z: np.where(t > 0.4, np.inf, z))


def test_coefficients_match_hand_algebra():
    spec = CashSpec()
    model = build_cash_model(spec)
    assert model.f(0.0, 0.0, 0.0, 0.0) == 0.0
    assert model.f(0.3, 0.0, 2.0, 3.0) == -2.0 + 3.0
    assert model.sigma(0.0, 0.0, 5.0, 2.0) == 0.4
    assert model.b(0.0, 0.0, 1.0, 2.0, 0.5) == 0.1 * 0.5 * 2.0
    lam = spec.jump.intensity
    got = model.g(0.0, 0.0, 1.5, 2.0, 9.0, 9.0, 3.0)
    assert abs(got - (-1.0 * 2.0 + 0.5 * 1.5 + 0.5 * 3.0) / lam) < 1e-15
    assert model.phi(2.0) == 2.0
    assert model.h(4.0) == 0.0
    assert model.gamma(1.7) == -1.7


def test_running_cost_is_measure_weighted_deviation():
    spec = CashSpec()
    model = build_cash_model(spec)
    z, w = spec.jump.quadrature()
    # the solver consumes intensity * sum(w * l); at v = kappa it vanishes
    # and at v = 3 it must equal (3 - 1)^2 / 2
    vals = model.l(0.0, 0.0, 0.0, 0.0, 0.0, z, 1.0)
    assert spec.jump.intensity * float(np.broadcast_to(vals, z.shape) @ w) == 0.0
    vals = model.l(0.0, 0.0, 0.0, 0.0, 0.0, z, 3.0)
    assert abs(spec.jump.intensity * float(np.broadcast_to(vals, z.shape) @ w) - 2.0) < 1e-12


def test_registered_slopes_cost_as_the_difference_probe():
    """The affine probe reads the cash model's registered slopes, scalars,
    where a model without them reads the maps' 0/1 differences, tables;
    on a cash spec whose volatility, jump loading and benchmark vary in
    time the per-path costs agree to 1e-13 relative either way."""
    spec = CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t, eta_t=lambda t, z: (0.1 + 0.05 * t) * z,
                    kappa=lambda t: 1.0 + 0.5 * t)
    model = build_cash_model(spec)
    probed = ("f_x", "sigma_x", "b_x", "g_x", "g_y", "g_a", "g_r")
    bare = dataclasses.replace(model, derivatives={
        name: d for name, d in model.derivatives.items() if name not in probed})
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 256, 3)
    ustar = cash_optimal_control(spec, cash_adjoints(spec, bundles))
    for control in (ustar, ConstantControl(0.7)):
        got, want = (evaluate_cost(m, control, bundles).per_path for m in (model, bare))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


def test_registered_derivatives_match_finite_differences():
    spec = CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t,
                    kappa=lambda t: 1.0 + 0.5 * t)
    model = build_cash_model(spec)
    t1, x, v = 0.8, 1.3, 2.1
    h = 1e-6
    fd_fx = (model.f(t1, 0.0, x + h, v) - model.f(t1, 0.0, x - h, v)) / (2 * h)
    assert abs(model_derivative(model, "f_x")(t1, 0.0, x, v) - fd_fx) < 1e-8
    fd_sv = (model.sigma(t1, 0.0, x, v + h) - model.sigma(t1, 0.0, x, v - h)) / (2 * h)
    got_sv = model_derivative(model, "sigma_v")(t1, 0.0, x, v)
    assert abs(got_sv - fd_sv) < 1e-8
    assert abs(got_sv - 0.28) < 1e-12
    fd_bv = (model.b(t1, 0.0, x, v + h, 0.7) - model.b(t1, 0.0, x, v - h, 0.7)) / (2 * h)
    assert abs(model_derivative(model, "b_v")(t1, 0.0, x, v, 0.7) - fd_bv) < 1e-8
    lam = spec.jump.intensity
    args = (t1, 0.0, x, 0.4, 0.0, 0.0, v)
    assert model_derivative(model, "g_x")(*args) == 0.5 / lam
    got_lv = model_derivative(model, "l_v")(*args)
    assert abs(got_lv - (v - 1.4) / lam) < 1e-15
    assert model_derivative(model, "gamma_y")(0.3) == -1.0


# ------------------------------------------------------------- Hamiltonian


def test_hamiltonian_v_closed_form_against_central_differences():
    spec = CashSpec()
    model = build_cash_model(spec)
    z, _ = spec.jump.quadrature()
    rng = np.random.default_rng(4)
    t1, x, y, a, v, p, q, k = rng.normal(0.0, 1.0, 8)
    t1 = abs(t1)
    r = rng.normal(0.0, 1.0, z.size)
    R = rng.normal(0.0, 1.0, z.size)
    closed = hamiltonian_grad_v(model, spec.jump, t1, 0.0, x, y, a, r, v,
                                p, q, k, R)
    h = 1e-4 * (1.0 + abs(v))
    up = hamiltonian(model, spec.jump, t1, 0.0, x, y, a, r, v + h, p, q, k, R)
    dn = hamiltonian(model, spec.jump, t1, 0.0, x, y, a, r, v - h, p, q, k, R)
    assert abs(closed - (up - dn) / (2 * h)) < 1e-6


def test_hamiltonian_v_shifts_exactly_linearly():
    spec = CashSpec()
    model = build_cash_model(spec)
    z, _ = spec.jump.quadrature()
    base = hamiltonian_grad_v(model, spec.jump, 0.4, 0.0, 1.0, 0.5, 0.1,
                              np.zeros(z.size), 1.2, 0.8, -0.9, 0.05,
                              np.zeros(z.size))
    shifted = hamiltonian_grad_v(model, spec.jump, 0.4, 0.0, 1.0, 0.5, 0.1,
                                 np.zeros(z.size), 1.2 + 0.37, 0.8, -0.9, 0.05,
                                 np.zeros(z.size))
    assert abs(float(shifted - base) - 0.37) < 1e-12


# ---------------------------------------------------------------- adjoints


def test_adjoint_exact_stepping_and_positivity():
    spec = CashSpec()
    bundle = manual_bundle([0.0, 0.1, 0.3, 0.45, 0.8, 1.2], 0.1, 1.0)
    adj = cash_adjoints(spec, bundle)
    assert adj.p[0] == 1.0
    assert np.all(adj.p > 0.0)
    assert np.all(np.diff(adj.p) < 0.0)
    ratios = adj.p[1:] / adj.p[:-1]
    assert np.max(np.abs(ratios - np.exp(-spec.mu1 * 0.1))) < 1e-15
    assert adj.q[-1] == -adj.p[-1]
    assert np.all(adj.k == 0.0) and np.all(adj.R == 0.0)


def test_adjoint_constant_where_clock_is_trapped():
    # D leaps from 0.2 to 0.9, so E is flat on that calendar stretch and
    # the calendar reading of p must not move there
    spec = CashSpec()
    bundle = manual_bundle([0.0, 0.2, 0.9, 1.5], 0.1, 1.0)
    adj = cash_adjoints(spec, bundle)
    dense = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(bundle.subordinator.values, dense, side="right") - 1
    p_cal = adj.p[np.clip(idx, 0, adj.p.size - 1)]
    trapped = (dense > 0.25) & (dense < 0.85)
    assert np.unique(p_cal[trapped]).size == 1
    assert p_cal[trapped][0] == adj.p[1]
    assert p_cal[0] == 1.0


@settings(max_examples=25, deadline=None)
@given(mu1=st.floats(0.1, 3.0), mu2=st.floats(0.1, 3.0))
def test_adjoint_satisfies_discrete_backward_equation(mu1, mu2):
    spec = CashSpec(mu1=mu1, mu2=mu2)
    bundle = manual_bundle([0.0, 0.05, 0.2, 0.4, 0.9, 1.3], 0.05, 1.0)
    adj = cash_adjoints(spec, bundle)
    res = adj.q[1:] - adj.q[:-1] - 0.05 * (mu1 * adj.q[:-1] + mu2 * adj.p[:-1])
    assert np.max(np.abs(res)) < 1e-13


def test_adjoint_matches_candidate_formula():
    spec = CashSpec()
    du = 0.005
    worst = 0.0
    for b in make_ensemble(spec.subordinator, spec.jump, spec.horizon, du, 6, 3):
        adj = cash_adjoints(spec, b)
        K = b.solver_steps
        tau = du * np.arange(K + 1)
        worst = max(worst, float(np.max(np.abs(
            adj.q - cash_q_candidate(tau, spec.mu1, spec.mu2, du * K)))))
    assert worst < 3e-3


def test_collapse_when_mu2_is_twice_mu1():
    # substitution check first: the candidate formula itself degenerates
    # to -exp(-mu1 tau), which solves the backward equation by inspection
    tau = np.linspace(0.0, 1.4, 57)
    assert np.max(np.abs(cash_q_candidate(tau, 1.0, 2.0, 1.4) + np.exp(-tau))) == 0.0
    spec = CashSpec(mu2=2.0)
    du = 0.005
    for b in make_ensemble(spec.subordinator, spec.jump, spec.horizon, du, 4, 9):
        adj = cash_adjoints(spec, b)
        tau = du * np.arange(b.solver_steps + 1)
        assert np.max(np.abs(adj.q + np.exp(-tau))) < 2.0 * du


def test_adjoints_agree_with_general_solver():
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon,
                            DU, 100, 21)
    sols = solved_ensemble(model, ConstantControl(1.0), bundles)
    gen = solve_adjoint_ensemble(model, bundles, sols)
    mine = [cash_adjoints(spec, b) for b in bundles]
    for a, g in zip(mine, gen):
        assert np.max(np.abs(a.p - g.p)) < 1e-6 + 0.5 * DU
        assert np.max(np.abs(a.q - g.q)) < 1e-6 + 0.5 * DU
        assert np.all(g.k == 0.0) and np.all(g.R == 0.0)


def test_solved_ensemble_returns_ensemble_order():
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = ragged_bundles(RAGGED_STEPS, jump_spec=spec.jump)
    n, kmax = len(bundles), max(RAGGED_STEPS)
    ctl = StepwiseControl(0.1 + 0.05 * np.arange(n)[:, None] + 0.01 * np.arange(kmax))
    ref = solved_ensemble(model, ctl, bundles, chunk=1)
    for chunk in (3, 512):
        sols = solved_ensemble(model, ctl, bundles, chunk=chunk)
        for i, (k, bnd, sol, one) in enumerate(zip(RAGGED_STEPS, bundles, sols, ref)):
            assert sol.X.size == k + 1
            assert np.array_equal(sol.calendar_times, bnd.calendar_times())
            assert np.array_equal(sol.control_values, ctl.values[i, :k])
            for name in ("X", "Y", "A", "r"):
                assert np.array_equal(getattr(sol, name), getattr(one, name))


def test_general_adjoints_ignore_the_control():
    # every coefficient derivative feeding the adjoint pair is state and
    # control free, so two different controls give bitwise equal adjoints
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 5, 2)
    out = []
    for c in (ConstantControl(1.0), ConstantControl(2.5)):
        sols = solved_ensemble(model, c, bundles)
        out.append(solve_adjoint_ensemble(model, bundles, sols))
    for a, b in zip(*out):
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


# ------------------------------------------------------------ optimal rate


def test_zero_adjoints_park_at_benchmark():
    spec = CashSpec(kappa=lambda t: 1.0 + 0.5 * t)
    z, _ = spec.jump.quadrature()
    times = np.array([0.0, 0.3, 0.6, 0.8])
    adj = AdjointSolution(grid=None, calendar_times=times,
                          p=np.zeros(4), q=np.zeros(4),
                          k=np.zeros(3), R=np.zeros((3, z.size)))
    u = cash_optimal_control(spec, adj)
    assert np.array_equal(u.values[0], 1.0 + 0.5 * times[:3])


def test_rate_zeroes_dH_dv_under_noisy_adjoints():
    # nonzero k and R (not the cash adjoints' own) must enter the rate too
    spec = CashSpec(sigma_t=lambda t: 0.2 + t)
    z, _ = spec.jump.quadrature()
    rng = np.random.default_rng(7)
    times = np.array([0.0, 0.2, 0.5, 0.9])
    p, q, k = rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
    R = rng.normal(size=(3, z.size))
    u = cash_optimal_control(spec, AdjointSolution(grid=None, calendar_times=times,
                                                   p=p, q=q, k=k, R=R))
    hv = hamiltonian_grad_v(build_cash_model(spec), spec.jump, times[:3], 0.0, 0.0, 0.0, 0.0,
                            np.zeros((3, z.size)), u.values[0], p[:3], q[:3], k, R)
    assert np.max(np.abs(hv)) < 1e-14


def test_rate_at_unstarted_clock():
    # before the clock first moves, p = 1, so u(0) = kappa - beta1 q(0) + beta2
    spec = CashSpec()
    bundle = manual_bundle([0.0, 0.1, 0.4, 1.1], 0.1, 1.0)
    adj = cash_adjoints(spec, bundle)
    u = cash_optimal_control(spec, adj)
    want = 1.0 - spec.beta1 * adj.q[0] + spec.beta2
    assert abs(u.values[0, 0] - want) < 1e-15


def test_rate_rejects_mismatched_grids():
    spec = CashSpec()
    b1 = manual_bundle([0.0, 0.3, 1.2], 0.1, 1.0)
    b2 = manual_bundle([0.0, 0.3, 1.2], 0.05, 1.0)
    # a mixed-step ensemble is rejected when it is packed
    with pytest.raises(ValueError, match="grid mismatch"):
        cash_adjoints(spec, [b1, b2])
    a1 = cash_adjoints(spec, b1)
    bad = AdjointSolution(grid=a1.grid, calendar_times=a1.calendar_times,
                          p=a1.p, q=a1.q, k=np.zeros(5), R=a1.R)
    with pytest.raises(ValueError, match="grid mismatch"):
        cash_optimal_control(spec, bad)
    with pytest.raises(ValueError, match="empty"):
        cash_adjoints(spec, [])


def test_ensemble_rejects_mixed_bundles():
    """An ensemble solves every row under one jump spec and one calendar
    horizon, so bundles that differ in either are rejected when packed."""
    spec = CashSpec()
    base = manual_bundle([0.0, 0.3, 1.2], 0.1, 1.0, jump_spec=LevyJumpSpec(c=1.0, intensity=2.0))
    marks = manual_bundle([0.0, 0.3, 1.2], 0.1, 1.0,
                          jump_spec=LevyJumpSpec(c=0.5, intensity=7.0))
    horizon = manual_bundle([0.0, 0.3, 1.2], 0.1, 0.9,
                            jump_spec=LevyJumpSpec(c=1.0, intensity=2.0))
    with pytest.raises(ValueError, match="jump spec mismatch"):
        evaluate_cost(build_cash_model(spec), 0.5, [base, marks])
    with pytest.raises(ValueError, match="horizon mismatch"):
        cash_adjoints(spec, [base, horizon])
    # the pack keeps each path's Brownian values up to first passage
    short = dataclasses.replace(base, brownian=BrownianPath(
        grid=OperationalGrid(0.1, 0.1), values=base.brownian.values[:2]))
    with pytest.raises(ValueError, match="grid mismatch"):
        cash_adjoints(spec, [base, short])


def test_cost_of_rate_matches_exact_oracle():
    """With sigma, kappa and eta constant the cost of u* on a path is a
    function of its step count alone, which the oracle computes from the
    explicit solution; every path, zero-step ones included, must match it
    to rounding."""
    spec = CashSpec()
    bundles = (list(make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 512, 0))
               + ragged_bundles((0, 3, 0), jump_spec=spec.jump))
    ustar = cash_optimal_control(spec, cash_adjoints(spec, bundles))
    cost = evaluate_cost(build_cash_model(spec), ustar, bundles).per_path
    steps = np.array([b.solver_steps for b in bundles])
    assert np.unique(steps).size > 200 and np.sum(steps == 0) == 2
    exact = {k: cash_cost_given_steps(spec, int(k), DU) for k in np.unique(steps)}
    want = np.array([exact[k] for k in steps])
    assert np.max(np.abs(cost - want) / np.abs(want)) <= 1e-14


def test_cost_of_constant_rates_matches_exact_oracle():
    """The certificate's challengers have an oracle too: every per-path
    cost of ConstantControl(0.5) and ConstantControl(1.5), zero-step paths
    included, matches the constant-rate cost of its step count to
    rounding."""
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = (list(make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 512, 0))
               + ragged_bundles((0, 3, 0), jump_spec=spec.jump))
    steps = np.array([b.solver_steps for b in bundles])
    for rate in (0.5, 1.5):
        cost = evaluate_cost(model, ConstantControl(rate), bundles).per_path
        exact = {k: cash_cost_given_steps(spec, int(k), DU, rate) for k in np.unique(steps)}
        want = np.array([exact[k] for k in steps])
        assert np.max(np.abs(cost - want) / np.abs(want)) <= 1e-14


# fixed before the first run: a seed that fails is a finding
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_certificate_lies_within_3se_of_the_exact_expectation(seed):
    """meta.cost and every gap of a 2,048-path certificate lie within 3
    standard errors of their exact expectations sum_k P(K = k) J(k), with
    the law of K from oracles.k_law and J from cash_cost_given_steps."""
    spec = CashSpec()
    rep = certify_optimality(spec, candidates=[0.5, 1.5], ensemble_size=2048, seed=seed,
                             margin_paths=64)
    pmf = k_law(spec.subordinator.alpha, spec.horizon, DU, spec.subordinator.scale)

    def expected(rate=None):
        return float(np.dot(pmf, [cash_cost_given_steps(spec, k, DU, rate)
                                  for k in range(pmf.size)]))

    base = expected()
    assert abs(rep.meta["cost"] - base) <= 3.0 * rep.meta["cost_se"]
    assert len(rep.gap_table) == 2
    for row, rate in zip(rep.gap_table, (0.5, 1.5)):
        assert abs(row["gap"] - (expected(rate) - base)) <= 3.0 * row["se"], row


def test_first_order_condition_holds_to_rounding():
    spec = CashSpec()
    model = build_cash_model(spec)
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 20, 7)
    sols = solved_ensemble(model, ustar, bundles)
    worst = 0.0
    for b, s, a in zip(bundles, sols, adjs):
        K = b.solver_steps
        if K == 0:
            continue
        hv = hamiltonian_grad_v(model, spec.jump, a.calendar_times[:K],
                                DU * np.arange(K), s.X[:K], s.Y[:K], s.A, s.r,
                                s.control_values, a.p[:K], a.q[:K], a.k, a.R)
        worst = max(worst, float(np.max(np.abs(hv))))
    assert worst < 1e-13


def test_margins_nonnegative_at_rate_and_violated_off_it():
    spec = CashSpec()
    model = build_cash_model(spec)
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 64, 5)
    sols = solved_ensemble(model, ustar, bundles)
    rep = check_necessary_condition(model, bundles, sols, adjs, count=64, seed=1)
    assert rep.min_margin >= -3.0 * rep.std_error - 1e-12
    # push the rate off its optimum; adjoints stay the same by the
    # control-independence above, and a clear violation must surface
    off = PerturbedControl(ustar, ConstantControl(1.0), 0.5)
    sols_off = solved_ensemble(model, off, bundles)
    rep_off = check_necessary_condition(model, bundles, sols_off, adjs, count=64, seed=1)
    assert rep_off.min_margin < -3.0 * rep_off.std_error
    assert rep_off.min_margin < -0.1


def test_structurally_zero_adjoints_give_the_margins_of_real_zeros():
    """cash_adjoints returns k and R as read-only broadcast zeros, which
    dH/dv and the optimal rate read as zero without a scan or a product.
    Real zero arrays in their place give the same rate and the same
    margins, at u* and off it, bit for bit."""
    spec = CashSpec(eta_t=lambda t, z: (0.1 + 0.05 * t) * z)
    model = build_cash_model(spec)
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 48, 3)
    for a in (adjs.k, adjs.R):
        assert not a.flags.writeable and not any(a.strides) and smp._structural_zero(a)
    real = dataclasses.replace(adjs, k=np.zeros(adjs.k.shape), R=np.zeros(adjs.R.shape))
    assert not smp._structural_zero(real.R)
    assert (cash_optimal_control(spec, real).values.tobytes()
            == ustar.values.tobytes())
    for ctl in (ustar, ConstantControl(0.5)):
        sols = solved_ensemble(model, ctl, bundles)
        got, want = (json.dumps(check_necessary_condition(model, bundles, sols, a, count=32,
                                                          seed=2).margins)
                     for a in (adjs, real))
        assert got == want


# ------------------------------------------------------------- certificate


def test_certificate_on_reconstructed_optimum():
    spec = CashSpec()
    ustar, _, _ = rebuilt_optimum(spec, DU, 32, 5)
    rep = certify_optimality(spec, [ustar], ensemble_size=32, seed=5)
    row = rep.gap_table[0]
    assert row["gap"] == 0.0 and row["se"] == 0.0
    assert rep.min_margin >= -3.0 * rep.margin_se - 1e-12
    assert rep.meta["certified"] is True
    assert rep.meta["ensemble"] == 32


def test_certificate_benchmark_candidate_loses():
    rep = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                             ensemble_size=256, seed=3)
    row = rep.gap_table[0]
    assert row["label"] == "constant 1"
    assert row["gap"] > 3.0 * row["se"]
    assert row["gap"] > 0.05


def test_certificate_gap_grows_quadratically():
    spec = CashSpec()
    ustar, _, _ = rebuilt_optimum(spec, DU, 256, 11)
    rep = certify_optimality(
        spec, [PerturbedControl(ustar, ConstantControl(1.0), 0.1),
               PerturbedControl(ustar, ConstantControl(1.0), 0.2)],
        ensemble_size=256, seed=11)
    g1, g2 = rep.gap_table[0]["gap"], rep.gap_table[1]["gap"]
    assert 0.0 < g1 < g2
    assert 3.5 < g2 / g1 < 4.5


def test_certificate_expansion_tables():
    spec = CashSpec()
    rep = certify_optimality(spec, [], ensemble_size=32, seed=2,
                             expansion_rhos=(0.2, 0.1), expansion_paths=16)
    assert [row["rho"] for row in rep.convergence_table] == [0.2, 0.1]
    ratio = rep.convergence_table[0]["diff"] / rep.convergence_table[1]["diff"]
    assert abs(ratio - 2.0) < 1e-6
    # the model is linear in the state and the cost quadratic in v, so
    # the expansion remainders sit at the rounding floor
    assert all(row["x2"] < 1e-20 for row in rep.remainder_table)
    blob = rep.to_json()
    round_trip = json.loads(blob)
    assert round_trip["meta"]["certified"] is True
    assert "cost gaps" in rep.to_text()


def test_certificate_on_zero_step_ensemble():
    """A horizon shorter than the first solver step leaves every path with
    K = 0: nothing can move, so every margin and every table entry is
    exactly zero and the certificate holds."""
    spec = CashSpec(horizon=1e-4)
    rep = certify_optimality(spec, [0.5], ensemble_size=4, seed=0, expansion_rhos=[0.1])
    assert rep.min_margin == 0.0 and rep.margin_se == 0.0
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 4, 0)
    assert all(b.solver_steps == 0 for b in bundles)
    model = build_cash_model(spec)
    margins = check_necessary_condition(model, bundles,
                                        solved_ensemble(model, ustar, bundles), adjs).margins
    assert len(margins) == 64 and all(row["margin"] == 0.0 for row in margins)
    assert rep.gap_table[0]["gap"] == 0.0 and rep.gap_table[0]["se"] == 0.0
    (conv,), (rem,) = rep.convergence_table, rep.remainder_table
    assert all(conv[key] == 0.0 for key in ("lhs", "rhs", "diff", "se"))
    assert all(rem[key] == 0.0 for key in ("x2", "y2", "a2", "r2"))
    assert rep.meta["certified"] is True


def test_certificate_is_byte_deterministic():
    a = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=13)
    b = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=13)
    assert a.to_json() == b.to_json()
    c = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=14)
    assert a.to_json() != c.to_json()


def test_certificate_keeps_its_witness_and_verdict():
    """The bench's certificate scaled down (256 paths, a 128-path margin
    lead, 16 expansion paths) at seeds 0 and 1: margins read off the rows'
    prefix sums of du H_v keep the witness the per-candidate products
    found (switch 52 and constant 31) and the certified verdict."""
    for seed, index, kind in ((0, 52, "switch"), (1, 31, "constant")):
        rep = certify_optimality(CashSpec(), candidates=[0.5, 1.5], ensemble_size=256,
                                 seed=seed, margin_paths=128, expansion_rhos=[0.1, 0.05],
                                 expansion_paths=16)
        assert (rep.witness["index"], rep.witness["kind"]) == (index, kind)
        assert rep.meta["certified"] is True


def test_certificate_refuses_samples_without_a_standard_error():
    """Every mean the certificate reports needs a standard error: a sample
    size below 2 raises instead of certifying on cost_se 0, and
    margin_paths=1 is no longer read as 2.  A size that is not an integer
    raises too: 2.5 paths were read as 2, and 2.5 ensemble paths died
    inside seeding."""
    for name in ("ensemble_size", "margin_paths", "expansion_paths"):
        for n in (1, 2.5):
            with pytest.raises(ValueError, match=name):
                certify_optimality(CashSpec(), [0.5], **{"ensemble_size": 8, name: n})


def test_certificate_refuses_a_zero_or_non_finite_expansion_step():
    """rho = 0 divides by zero in the difference quotients; it raises
    instead of leaving NaN rows under a certified verdict."""
    for rho in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rho"):
            certify_optimality(CashSpec(), ensemble_size=8, expansion_rhos=[0.1, rho])


@pytest.mark.parametrize("rhos", [0.1, ["a"], [[0.1]], "0.1", np.array(0.1), [0.1, 0.0]],
                         ids=["scalar", "string_item", "nested", "string", "0d_array", "zero"])
def test_expansion_steps_are_refused_before_anything_is_sampled(monkeypatch, rhos):
    """Expansion steps that are not a sequence of finite, nonzero numbers
    raise ValueError naming the argument, in the certificate before the
    ensemble is sampled, and in expansion_check before anything is solved.
    A scalar 0.1 used to raise TypeError after every cost pass and the
    margin search."""
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 4, master_seed=0)
    sols = solved_ensemble(model, 0.5, bundles)

    def refuse(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(smp, "_variational_batch", refuse)
    with pytest.raises(ValueError, match="rhos must be a sequence"):
        expansion_check(model, bundles, sols, ConstantControl(1.0), rhos)
    monkeypatch.setattr(cash_mod, "make_ensemble", refuse)
    with pytest.raises(ValueError, match="expansion_rhos must be a sequence"):
        certify_optimality(spec, [0.5], ensemble_size=8, expansion_rhos=rhos)


@pytest.mark.parametrize("x0", [1e307, 1.7e308])
def test_certificate_refuses_a_non_finite_mean(x0):
    """At these x0 every per-path cost is finite, but the standard error
    (inf at 1e307) or the mean too (-inf at 1.7e308) overflows.  The
    certificate and evaluate_cost raise, naming the mean, in place of
    reporting it under a certified verdict."""
    spec = CashSpec(x0=x0)
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 16, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(fbsde._ensemble_cost(model, 0.5, bundles)[0].per_path))
        for run in (lambda: certify_optimality(spec, ensemble_size=16, margin_paths=8),
                    lambda: evaluate_cost(model, ConstantControl(0.5), bundles)):
            with pytest.raises(FloatingPointError, match=r"^cost mean blow-up$"):
                run()


def test_certificate_solves_each_ustar_row_once(monkeypatch):
    """u*'s rows reach _batch_cost once, for the cost, whose pass keeps the
    rows of the margin lead and of the expansion base, which read them:
    64 rows, not 64 + 16."""
    batch_cost, rows = fbsde._batch_cost, []

    def counting(model, control, batch, method=None, keep=True):
        if isinstance(control, StepwiseControl):
            rows.append(batch.N)
        return batch_cost(model, control, batch, method, keep)

    for module in (fbsde, smp):
        monkeypatch.setattr(module, "_batch_cost", counting)
    certify_optimality(CashSpec(), [0.5], ensemble_size=64, margin_paths=40,
                       expansion_rhos=[0.1], expansion_paths=16)
    assert sum(rows) == 64


def _time_varying_spec():
    return CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t, eta_t=lambda t, z: (0.1 + 0.05 * t) * z,
                    kappa=lambda t: 1.0 + 0.5 * t)


def test_margins_from_clock_rows_equal_the_full_state_margins():
    """The cash model's dH/dv reads none of x, y, a, r, so the margin
    search reads the lead's clock and u*'s rates with NaN placeholders for
    the state (fbsde._clock_rows): its 64 margins, standard errors and
    witness carry the bytes of those from the solved rows, for a flat and
    a time-varying CashSpec, on a lead whose Kmax is below the
    ensemble's."""
    for spec in (CashSpec(), _time_varying_spec()):
        model = build_cash_model(spec)
        assert not smp._grad_v_reads_state(model)
        ens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 96, 4)
        adjs = cash_adjoints(spec, ens)
        ustar = cash_optimal_control(spec, adjs)
        lead = 24
        assert ens.K[:lead].max() < ens.K.max()
        solved = fbsde._ensemble_cost(model, ustar, ens, keep=len(ens))[1]
        clock = fbsde._clock_rows(model, ustar, ens, lead)
        assert np.isnan(clock.X).all() and not clock.X.flags.writeable
        for field in ("t", "v"):
            assert (getattr(clock, field).tobytes()
                    == getattr(cash_mod._leading(solved, lead), field).tobytes())
        reps = [check_necessary_condition(model, ens[:lead], rows,
                                          cash_mod._leading(adjs, lead), count=64, seed=3)
                for rows in (cash_mod._leading(solved, lead), clock)]
        assert json.dumps(reps[0].margins) == json.dumps(reps[1].margins)
        assert reps[0].witness == reps[1].witness


def test_certificate_draws_the_noise_of_the_expansion_rows_alone(monkeypatch):
    """Only the expansion check reads a path's noise in a certificate: the
    u* pass keeps the expansion rows alone, and every other pass and the
    margin search read the clock, so the ensemble draws the noise of
    expansion_paths paths, and of none without expansion_rhos."""
    draws, draw = [], fbsde.noise_mod.draw_brownian

    def counting(out, step, rng):
        draws.append(1)
        return draw(out, step, rng)

    monkeypatch.setattr(fbsde.noise_mod, "draw_brownian", counting)
    certify_optimality(CashSpec(), [0.5], ensemble_size=64, margin_paths=40,
                       expansion_rhos=[0.1], expansion_paths=16)
    assert len(draws) == 16
    certify_optimality(CashSpec(), [0.5], ensemble_size=64, margin_paths=40)
    assert len(draws) == 16


def test_certificate_refuses_a_model_whose_grad_v_may_read_the_state(monkeypatch):
    """The margin search reads dH/dv on the clock and u*'s rates alone, so
    a certificate refuses, before it samples anything, a cash twin whose
    dH/dv may read the state: one whose registered l_v reads x (adding
    0 x), and one that registers no l_v."""
    base = build_cash_model(CashSpec())
    l_v = base.derivatives["l_v"]
    reads_x = {**base.derivatives, "l_v": lambda t1, t2, x, y, a, r, v:
               l_v(t1, t2, x, y, a, r, v) + 0.0 * x}
    unregistered = {k: d for k, d in base.derivatives.items() if k != "l_v"}

    def refuse(*args, **kwargs):
        raise AssertionError("make_ensemble called")

    monkeypatch.setattr(cash_mod, "make_ensemble", refuse)
    for derivatives in (reads_x, unregistered):
        twin = dataclasses.replace(base, derivatives=derivatives)
        assert smp._grad_v_reads_state(twin)
        monkeypatch.setattr(cash_mod, "build_cash_model", lambda spec: twin)
        with pytest.raises(ValueError, match="dH/dv may read the state"):
            certify_optimality(CashSpec(), [0.5], ensemble_size=64, margin_paths=40)


def _reshaped_twin(model, reshape):
    """``model`` with the value of every map and derivative passed through
    ``reshape(value, args)``."""
    def wrap(fn):
        return lambda *args: reshape(np.asarray(fn(*args), dtype=float), args)

    maps = {name: wrap(getattr(model, name))
            for name in ("f", "sigma", "b", "g", "phi", "l", "h", "gamma")}
    return ModelSpec(**maps, control_set=model.control_set, x0=model.x0, M_T=model.M_T,
                     affine=model.affine,
                     derivatives={name: wrap(d) for name, d in model.derivatives.items()},
                     name=model.name)


def _materialised(value, args):
    """A fresh array of the arguments' full broadcast shape."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    return np.broadcast_to(value, shape).copy()


def _squeezed(value, args):
    """The value cut to length 1 along every axis it does not vary on."""
    for ax in range(value.ndim):
        first = value.take([0], axis=ax)
        if np.all(value == first) and np.all(np.signbit(value) == np.signbit(first)):
            value = first
    return value


def test_results_do_not_depend_on_map_shapes():
    """The solvers broadcast whatever a model map returns, so the pad-free
    cash model, a twin whose maps return materialised arrays of their
    arguments' full shape and a twin whose maps return the smallest shape
    that broadcasts give the same bits everywhere."""
    spec = CashSpec()
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 48, 5)
    base = build_cash_model(spec)
    direction, rhos = ConstantControl(1.0), [0.1, 0.05]
    outputs = []
    for model in (base, _reshaped_twin(base, _materialised), _reshaped_twin(base, _squeezed)):
        sols = solved_ensemble(model, ustar, bundles)
        gen = solve_adjoint_ensemble(model, bundles, sols)
        outputs.append(dict(
            cost=evaluate_cost(model, ustar, bundles).per_path,
            adjoints=[np.concatenate([a.p, a.q, a.k, a.R.ravel()]) for a in gen],
            margins=json.dumps(check_necessary_condition(
                model, bundles, sols, adjs, count=16).margins),
            expansion=json.dumps(expansion_check(model, bundles, sols, direction, rhos)),
        ))
    ref = outputs[0]
    for out in outputs[1:]:
        assert np.array_equal(out["cost"], ref["cost"])
        for mine, theirs in zip(out["adjoints"], ref["adjoints"]):
            assert np.array_equal(mine, theirs)
        for name in ("margins", "expansion"):
            assert out[name] == ref[name], name


def test_sufficiency_hypotheses_hold():
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 1, 6)
    sol = solved_ensemble(model, ConstantControl(1.0), bundles)[0]
    rep = check_sufficient_condition_hypotheses(model, spec.jump, solution=sol)
    assert rep.hamiltonian_convex and rep.h_convex and rep.gamma_convex
    assert rep.terminal_gap == 0.0
