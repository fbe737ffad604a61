"""Cash application tests: model construction against hand algebra, the
explicit adjoints against the frozen candidate formula and the general
solver, the first-order condition at the computed rate, and the Monte
Carlo optimality certificate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cash_cost_given_steps, cash_q_candidate
from support import RAGGED_STEPS, manual_bundle, ragged_bundles
from tcfbsde.cash import (
    CashSpec,
    build_cash_model,
    cash_adjoints,
    cash_optimal_control,
    certify_optimality,
    _solved_ensemble,
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
from tcfbsde.smp import (
    AdjointSolution,
    check_necessary_condition,
    check_sufficient_condition_hypotheses,
    gateaux_consistency_check,
    hamiltonian,
    hamiltonian_grad_v,
    model_derivative,
    remainder_convergence_check,
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
    assert model.adjoint_deterministic
    assert not model.conditionally_deterministic
    assert model.M_T == 1.0
    assert model.hamiltonian_v is not None


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
    sols = _solved_ensemble(model, ConstantControl(1.0), bundles)
    gen = solve_adjoint_ensemble(model, ConstantControl(1.0), bundles, sols)
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
    ref = _solved_ensemble(model, ctl, bundles, chunk=1)
    for chunk in (3, 512):
        sols = _solved_ensemble(model, ctl, bundles, chunk=chunk)
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
        sols = _solved_ensemble(model, c, bundles)
        out.append(solve_adjoint_ensemble(model, c, bundles, sols))
    for a, b in zip(*out):
        assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


def test_adjoint_needs_passage_time():
    spec = CashSpec()
    bundle = manual_bundle([0.0, 0.3, 0.7, 1.2], 0.1, 1.0)
    bundle.subordinator.passage_time = None
    with pytest.raises(ValueError, match="passage"):
        cash_adjoints(spec, bundle)


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


def test_first_order_condition_holds_to_rounding():
    spec = CashSpec()
    model = build_cash_model(spec)
    ustar, bundles, adjs = rebuilt_optimum(spec, DU, 20, 7)
    sols = _solved_ensemble(model, ustar, bundles)
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
    sols = _solved_ensemble(model, ustar, bundles)
    rep = check_necessary_condition(model, ustar, bundles, sols, adjs,
                                    count=64, seed=1)
    assert rep.min_margin >= -3.0 * rep.std_error - 1e-12
    # push the rate off its optimum; adjoints stay the same by the
    # control-independence above, and a clear violation must surface
    off = PerturbedControl(ustar, ConstantControl(1.0), 0.5)
    sols_off = _solved_ensemble(model, off, bundles)
    rep_off = check_necessary_condition(model, off, bundles, sols_off, adjs,
                                        count=64, seed=1)
    assert rep_off.min_margin < -3.0 * rep_off.std_error
    assert rep_off.min_margin < -0.1


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


def test_certificate_is_byte_deterministic():
    a = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=13)
    b = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=13)
    assert a.to_json() == b.to_json()
    c = certify_optimality(CashSpec(), [ConstantControl(1.0)],
                           ensemble_size=48, seed=14)
    assert a.to_json() != c.to_json()


def _reshaped_twin(model, reshape):
    """``model`` with the value of every map and derivative passed through
    ``reshape(value, args)``; the closed-form dH/dv is kept as it is."""
    def wrap(fn):
        return lambda *args: reshape(np.asarray(fn(*args), dtype=float), args)

    maps = {name: wrap(getattr(model, name))
            for name in ("f", "sigma", "b", "g", "phi", "l", "h", "gamma")}
    return ModelSpec(**maps, control_set=model.control_set, x0=model.x0, M_T=model.M_T,
                     linear=model.linear, adjoint_deterministic=model.adjoint_deterministic,
                     derivatives={name: wrap(d) for name, d in model.derivatives.items()},
                     hamiltonian_v=model.hamiltonian_v, name=model.name)


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
        sols = _solved_ensemble(model, ustar, bundles)
        gen = solve_adjoint_ensemble(model, ustar, bundles, sols)
        outputs.append(dict(
            cost=evaluate_cost(model, ustar, bundles).per_path,
            adjoints=[np.concatenate([a.p, a.q, a.k, a.R.ravel()]) for a in gen],
            margins=json.dumps(check_necessary_condition(
                model, ustar, bundles, sols, adjs, count=16).margins),
            gateaux=json.dumps(gateaux_consistency_check(
                model, ustar, direction, rhos, bundles)),
            remainder=json.dumps(remainder_convergence_check(
                model, ustar, direction, rhos, bundles)),
        ))
    ref = outputs[0]
    for out in outputs[1:]:
        assert np.array_equal(out["cost"], ref["cost"])
        for mine, theirs in zip(out["adjoints"], ref["adjoints"]):
            assert np.array_equal(mine, theirs)
        for name in ("margins", "gateaux", "remainder"):
            assert out[name] == ref[name], name


def test_sufficiency_hypotheses_hold():
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 1, 6)
    sol = _solved_ensemble(model, ConstantControl(1.0), bundles)[0]
    rep = check_sufficient_condition_hypotheses(model, spec.jump, solution=sol)
    assert rep.hamiltonian_convex and rep.h_convex and rep.gamma_convex
    assert rep.terminal_gap == 0.0
