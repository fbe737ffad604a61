"""Maximum-principle tests: Hamiltonian algebra, adjoint solvers against
closed forms, variational exactness on linear systems, and the optimality
certificates."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import adjoint_p_recursion, adjoint_q_recursion, cash_q_candidate
from support import (
    RAGGED_STEPS,
    lq_model,
    manual_bundle,
    mk_model,
    ragged_bundles,
    solved_ensemble,
)
from tcfbsde import fbsde, smp
from tcfbsde.cash import CashSpec, build_cash_model, cash_adjoints, cash_optimal_control
from tcfbsde.fbsde import (
    Box,
    Ensemble,
    ConstantControl,
    FeedbackControl,
    ModelSpec,
    PerturbedControl,
    StepwiseControl,
    build_model,
    compose_duality,
    evaluate_cost,
    make_ensemble,
    solve_backward_dual,
    solve_calendar_direct,
    solve_forward_dual,
)
from tcfbsde.noise import LevyJumpSpec, central_difference
from tcfbsde.time_change import invert_subordinator
from tcfbsde.smp import (
    OptimalityReport,
    _variational_batch,
    check_necessary_condition,
    check_sufficient_condition_hypotheses,
    expansion_check,
    hamiltonian,
    hamiltonian_grad_v,
    model_derivative,
    solve_adjoint,
    solve_adjoint_ensemble,
    solve_variational,
)

DU = 0.01


# --------------------------------------------------------------- derivatives

def test_model_derivative_fd_is_exact_for_polynomials():
    model, _, _, _ = build_model("quadratic_drift")
    d_fv = model_derivative(model, "f_v")
    # f = -x + v + 0.5 v^2, so f_v = 1 + v; central differences are exact
    assert abs(float(d_fv(0.0, 0.0, 2.0, 0.3)) - 1.3) < 1e-10
    d_fx = model_derivative(model, "f_x")
    assert abs(float(d_fx(0.0, 0.0, 2.0, 0.3)) + 1.0) < 1e-10


def test_model_derivative_prefers_registered_closed_form():
    model = dataclasses.replace(lq_model()[0],
                                derivatives={"f_v": lambda t1, t2, x, v: 123.0 + 0.0 * v})
    assert float(model_derivative(model, "f_v")(0, 0, 0, 0)) == 123.0
    assert abs(float(model_derivative(model, "f_x")(0, 0, 0, 0)) + 1.0) < 1e-10


def test_model_derivative_reads_one_rule():
    """On an affine model with no registered partials, f_x is f at x = 1
    less f at x = 0, to the bit, read at a non-zero state from those two
    calls alone; g's a, which g never reads, is 0.0 without a call of g.
    A v-partial, and f_x of a model not declared affine, stay central
    differences."""
    calls = []

    def f(t1, t2, x, v):
        calls.append(("f", float(x)))
        return 0.3 * x + 0.1 * t1 + 0.7 * v

    def g(t1, t2, x, y, a, r, v):
        calls.append(("g", None))
        return -y + 0.5 * x + r + 0.0 * v

    model = mk_model(f=f, g=g, phi=lambda x: 1.0 * x, M_T=1.0, affine=True)
    at = (0.2, 0.1, 2.0, 0.4)
    calls.clear()
    got = model_derivative(model, "f_x")(*at)
    assert sorted(calls) == [("f", 0.0), ("f", 1.0)]
    want = np.asarray(f(0.2, 0.1, 1.0, 0.4)) - np.asarray(f(0.2, 0.1, 0.0, 0.4))
    assert got.tobytes() == want.tobytes()
    calls.clear()
    assert model_derivative(model, "g_a")(0.2, 0.1, 2.0, 0.5, 0.7, 0.3, 0.4) == 0.0
    assert calls == []
    fd_v = central_difference(f, at, 3)
    assert model_derivative(model, "f_v")(*at).tobytes() == fd_v.tobytes()
    plain = dataclasses.replace(model, affine=False)
    fd_x = central_difference(f, at, 2)
    assert model_derivative(plain, "f_x")(*at).tobytes() == fd_x.tobytes()


def test_model_derivative_unknown_name():
    model, _, _ = lq_model()
    with pytest.raises(KeyError):
        model_derivative(model, "f_z")
    with pytest.raises(KeyError):
        model_derivative(model, "nonsense")


# ---------------------------------------------------------------- Hamiltonian

def test_hamiltonian_zero_frame_and_costless_model_is_zero():
    model = mk_model()
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    zq, _ = spec.quadrature()
    val = hamiltonian(model, spec, 0.2, 0.1, 1.5, -0.3, 0.7,
                      np.zeros(zq.size), 0.4, 0.0, 0.0, 0.0, np.zeros(zq.size))
    assert float(val) == 0.0


def test_hamiltonian_matches_independent_assembly():
    model, spec, _ = lq_model()
    zq, w = spec.quadrature()
    rng = np.random.default_rng(8)
    t1, t2 = 0.3, 0.2
    x, y, a, v = rng.normal(size=4)
    p, q, k = rng.normal(size=3)
    r = rng.normal(size=zq.size)
    R = rng.normal(size=zq.size)
    got = float(hamiltonian(model, spec, t1, t2, x, y, a, r, v, p, q, k, R))
    # assembled from the explicit coefficient formulas of the test system
    want = (q * (-x + v) + k * 0.2 * v
            - (p * (-y + 0.5 * x + 0.5 * v)
               - 0.5 * (v - 1.0) ** 2
               - 2.0 * np.sum(w * R * 0.1 * zq * v)))
    assert abs(got - want) < 1e-12


def test_hamiltonian_broadcasts_and_checks_nodes():
    model, spec, _ = lq_model()
    zq, _ = spec.quadrature()
    shape = (3, 5)
    args = [np.full(shape, 0.1)] * 2 + [np.zeros(shape)] * 3
    r = np.zeros(shape + (zq.size,))
    out = hamiltonian(model, spec, *args, r, np.zeros(shape),
                      np.ones(shape), np.ones(shape), np.zeros(shape), r)
    assert out.shape == shape
    with pytest.raises(ValueError, match="dimension mismatch"):
        hamiltonian(model, spec, 0, 0, 0, 0, 0, np.zeros(3), 0, 0, 0, 0,
                    np.zeros(zq.size))


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-3.0, 3.0), p=st.floats(-2.0, 2.0), q=st.floats(-2.0, 2.0),
       k=st.floats(-2.0, 2.0))
def test_hamiltonian_affine_in_adjoint_frame(c, p, q, k):
    model, spec, _ = lq_model()
    zq, _ = spec.quadrature()
    R = np.linspace(-1.0, 1.0, zq.size)
    r = np.zeros(zq.size)
    point = (0.1, 0.2, 0.5, -0.3, 0.4, r, 0.7)

    def H(pp, qq, kk, RR):
        return float(hamiltonian(model, spec, *point, pp, qq, kk, RR))

    base = H(0.0, 0.0, 0.0, 0.0 * R)
    full = H(p, q, k, R)
    scaled = H(c * p, c * q, c * k, c * R)
    assert abs(scaled - (base + c * (full - base))) < 1e-9


def test_grad_v_finite_difference_matches_closed_form():
    model, spec, _ = lq_model()
    zq, w = spec.quadrature()

    def closed(t1, t2, x, y, a, r, v, p, q, k, R, sp):
        return (q * 1.0 + k * 0.2 - p * 0.5
                + sp.intensity * np.sum(w * R * 0.1 * zq) + (v - 1.0))

    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y, a, v, p, q, k = rng.normal(size=7)
        R = rng.normal(size=zq.size)
        r = rng.normal(size=zq.size)
        fd = hamiltonian_grad_v(model, spec, 0.1, 0.1, x, y, a, r, v, p, q, k, R)
        cf = closed(0.1, 0.1, x, y, a, r, v, p, q, k, R, spec)
        assert abs(float(fd) - float(cf)) < 1e-6


def test_grad_v_one_sided_at_box_edge():
    model, spec, _ = lq_model(box=(0.0, 1.0))
    zq, _ = spec.quadrature()
    zeros = np.zeros(zq.size)
    # the v-partials of H's maps are central differences, exact for these
    # polynomial maps also where v +- step leaves the box
    for v in (0.0, 1.0):
        grad = hamiltonian_grad_v(model, spec, 0.0, 0.0, 0.5, 0.0, 0.0, zeros,
                                  v, 0.0, 2.0, 0.0, zeros)
        want = 2.0 * 1.0 + (v - 1.0)
        assert abs(float(grad) - want) < 1e-7


def test_grad_v_in_a_box_narrower_than_the_step():
    # dH/dv differentiates the maps, which are defined off the box too, so
    # a box narrower than the difference step costs no accuracy
    model, spec, _ = lq_model(box=(0.0, 1e-5))
    zq, _ = spec.quadrature()
    zeros = np.zeros(zq.size)
    grad = hamiltonian_grad_v(model, spec, 0.0, 0.0, 0.0, 0.0, 0.0, zeros,
                              5e-6, 0.0, 0.0, 0.0, zeros)
    assert abs(float(grad) - (5e-6 - 1.0)) < 1e-7


# ------------------------------------------------------------------ adjoints

def zero_driver_model():
    return mk_model(phi=lambda x: 1.0 * x, gamma=lambda y: -y, M_T=1.0,
                    affine=True)


def test_adjoint_zero_driver_constants():
    model = zero_driver_model()
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.8, DU, 1, master_seed=40)
    sol = solve_backward_dual(model, 0.0, bnd, solve_forward_dual(model, 0.0, bnd))
    adj = solve_adjoint(model, bnd, sol)
    # the difference probe of gamma leaves ~1e-12 relative noise in p(0)
    assert np.max(np.abs(adj.p - 1.0)) < 1e-11
    assert np.max(np.abs(adj.q + 1.0)) < 1e-11
    assert np.max(np.abs(adj.k)) == 0.0
    assert np.max(np.abs(adj.R)) == 0.0


def test_adjoint_matches_exponential_closed_forms():
    model, jspec, sspec = lq_model()
    (bnd,) = make_ensemble(sspec, jspec, 1.0, 0.005, 1, master_seed=41)
    ctrl = ConstantControl(0.7)
    sol = solve_backward_dual(model, ctrl, bnd,
                              solve_forward_dual(model, ctrl, bnd))
    adj = solve_adjoint(model, bnd, sol)
    K = bnd.solver_steps
    tau = 0.005 * np.arange(K + 1)
    # first adjoint decouples: dp = -p dE, p(0) = 1
    assert np.max(np.abs(adj.p - np.exp(-tau))) < 3e-3
    # second adjoint against the closed candidate formula
    q_ref = cash_q_candidate(tau, 1.0, 0.5, K * 0.005)
    assert np.max(np.abs(adj.q - q_ref)) < 3e-3
    assert np.max(np.abs(adj.k)) == 0.0
    assert np.max(np.abs(adj.R)) == 0.0
    # boundary invariants straight from the returned fields
    assert abs(adj.p[0] - 1.0) < 1e-11
    assert abs(adj.q[-1] + 1.0 * adj.p[-1]) < 1e-9


def _q_oracle_case(case):
    """(model, bundles, control, fx, gx, gy, p_tol) of a model whose
    adjoints carry no noise, with its drift slope fx, its lam-integrated
    g_x and g_y, and the bound on p's distance from its oracle; all three
    have l_x = l_y = 0, p_0 = 1 and the terminal q_K = -p_K.  lq_model's
    g_y is a central difference, off -1/lam by rounding, so its p gets a
    bound of its own; the cash model's partials are closed forms."""
    if case == "lq":
        model, jspec, sspec = lq_model()
        bundles = make_ensemble(sspec, jspec, 1.0, DU, 256, master_seed=42)
        return model, bundles, ConstantControl(0.4), -1.0, 0.5, -1.0, 1e-11
    spec = CashSpec()
    if case == "cash-ragged":
        bundles = ragged_bundles(RAGGED_STEPS, jump_spec=spec.jump)
        control = ConstantControl(0.7)
    else:
        bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 256,
                                master_seed=42)
        control = cash_optimal_control(spec, cash_adjoints(spec, bundles))
    return build_cash_model(spec), bundles, control, -spec.mu1, spec.mu2, -spec.mu1, 1e-15


@pytest.mark.parametrize("case", ["cash-ragged", "cash-ustar", "lq"])
def test_adjoint_q_matches_the_scalar_recursion_oracle(case):
    """The first adjoint on every row equals the oracle's explicit Euler
    recursion from p_0 = 1, and the closure's q equals the oracle's
    implicit Euler recursion run on that row's own p; both hold their
    horizon value past it.  Ragged cash rows (zero-step rows included),
    cash rows under u* and lq_model rows."""
    model, bundles, control, fx, gx, gy, p_tol = _q_oracle_case(case)
    adj = solve_adjoint_ensemble(model, bundles, solved_ensemble(model, control, bundles))
    for n, k in enumerate(adj.K):
        pad = adj.q.shape[1] - k - 1
        p_want = adjoint_p_recursion(1.0, adj.du, gy, 0.0, k)
        assert np.max(np.abs(adj.p[n] - np.append(p_want, np.full(pad, p_want[-1])))) <= p_tol, n
        p = adj.p[n, : k + 1]
        q = adjoint_q_recursion(p, adj.du, fx, gx, 0.0, -p[-1])
        want = np.concatenate([q, np.full(pad, q[-1])])
        assert np.max(np.abs(adj.q[n] - want)) <= 1e-13, n


def test_adjoint_rejects_a_nonlinear_model():
    model = mk_model(f=lambda t1, t2, x, v: -x ** 3 + 0.0 * v,
                     phi=lambda x: 1.0 * x)
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.5, DU, 1, master_seed=43)
    sol = solve_backward_dual(model, 0.0, bnd,
                              solve_forward_dual(model, 0.0, bnd), method="ode")
    with pytest.raises(NotImplementedError):
        solve_adjoint(model, bnd, sol)


def test_adjoint_refuses_a_model_outside_the_closure_before_solving_p(monkeypatch):
    """The refusal reads the solved rows only: a model that is not affine is
    refused with NotImplementedError before the first adjoint's Euler
    pass runs."""
    def refuse(*args):
        raise AssertionError("first adjoint solved")

    model = mk_model(f=lambda t1, t2, x, v: -x ** 3 + 0.0 * v, phi=lambda x: 1.0 * x)
    _, jspec, sspec, _ = build_model("linear_test")
    bundles = make_ensemble(sspec, jspec, 0.5, DU, 4, master_seed=60)
    sols = solved_ensemble(model, ConstantControl(0.5), bundles)
    monkeypatch.setattr(smp, "_p_forward_batch", refuse)
    with pytest.raises(NotImplementedError, match="affine adjoint closure"):
        solve_adjoint_ensemble(model, bundles, sols)


def _closure_case(**maps):
    """The zero model of mk_model with ``maps``, declared affine with a
    linear terminal, solved on four paths under a constant control."""
    model = mk_model(M_T=0.0, affine=True, **maps)
    assert model.affine_solvable
    _, jspec, sspec, _ = build_model("linear_test")
    bundles = make_ensemble(sspec, jspec, 0.5, DU, 4, master_seed=60)
    return model, bundles, solved_ensemble(model, ConstantControl(0.5), bundles)


@pytest.mark.parametrize("l", [
    lambda t1, t2, x, y, a, r, v: x * y,               # l_y = x moves with the state
    lambda t1, t2, x, y, a, r, v: 0.1 * a + 0.0 * x,   # l_a = 0.1 loads p with noise
], ids=["state-dependent", "noise-loaded"])
def test_adjoint_closure_needs_a_state_free_first_adjoint(l):
    """An affine_solvable model whose first adjoint is not a functional of
    the clock alone is refused by the automatic regime: one model per way
    _closure_check finds the first adjoint loaded."""
    model, bundles, sols = _closure_case(l=l)
    with pytest.raises(NotImplementedError, match="state-free first adjoint"):
        solve_adjoint_ensemble(model, bundles, sols)


def test_state_free_check_refuses_a_derivative_that_does_not_broadcast():
    """_closure_check compares each derivative at the shape it returns, but
    a return that does not broadcast to the nodewise (N, Kmax, nodes)
    layout is still refused, not compared."""
    model, bundles, sols = _closure_case()
    model = dataclasses.replace(
        model, derivatives={"l_y": lambda t1, t2, x, y, a, r, v: np.zeros(5)})
    with pytest.raises(ValueError, match="broadcast"):
        solve_adjoint_ensemble(model, bundles, sols)


def test_adjoint_closure_needs_a_cost_gradient_affine_in_the_state():
    """l = x^3 leaves the first adjoint state-free, but l_x = 3 x^2 is not
    affine in x, so the closure q = cq + Pq X does not hold."""
    model, bundles, sols = _closure_case(l=lambda t1, t2, x, y, a, r, v: x**3)
    with pytest.raises(NotImplementedError, match="cost gradients affine in the state"):
        solve_adjoint_ensemble(model, bundles, sols)


def test_adjoint_refuses_a_cost_gradient_before_probing(monkeypatch):
    """The cost-gradient refusals read the solved rows only: l = x^3 is
    refused with the probe raising, so neither the probe nor p runs first."""
    def refuse(*args):
        raise AssertionError("model probed")

    model, bundles, sols = _closure_case(l=lambda t1, t2, x, y, a, r, v: x**3)
    monkeypatch.setattr(smp, "_probe_affine", refuse)
    with pytest.raises(NotImplementedError, match="cost gradients affine in the state"):
        solve_adjoint_ensemble(model, bundles, sols)


def test_adjoint_closure_needs_a_cost_gradient_free_of_y_a_r(monkeypatch):
    """A registered l_x = y reads the backward state, while l itself reads
    no y, so the first adjoint stays state-free: solve_adjoint_ensemble
    refuses the cost gradient, before the model is probed."""
    def refuse(*args):
        raise AssertionError("model probed")

    model, bundles, sols = _closure_case(
        derivatives={"l_x": lambda t1, t2, x, y, a, r, v: y})
    monkeypatch.setattr(smp, "_probe_affine", refuse)
    with pytest.raises(NotImplementedError, match=r"cost gradients free of \(y, a, r\)"):
        solve_adjoint_ensemble(model, bundles, sols)


def test_adjoint_and_variational_checks_fire(monkeypatch):
    """The adjoint's initial and terminal conditions and the variational
    terminal condition are checked on the kernels' output: each check
    passes on the clean output and fires when one cell of it is off."""
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 4, master_seed=61)
    u = ConstantControl(0.5)
    sols = solved_ensemble(model, u, bundles)
    solve_adjoint_ensemble(model, bundles, sols)
    bnd = bundles[0]
    sol = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
    solve_variational(model, u, ConstantControl(1.0), bnd, sol)

    p_solve, q_solve, var_solve = (smp._p_forward_batch, smp._q_affine_batch,
                                   smp._variational_batch)

    def p_off(model, batch, *args):
        p = p_solve(model, batch, *args)
        p[0, 0] += 1e-6
        return p

    def q_off(model, batch, *args):
        q, k, R = q_solve(model, batch, *args)
        q[-1, batch.K[-1]] += 1e-6
        return q, k, R

    def y1_off(model, control, direction, batch, *args):
        X1, Y1, A1, r1, vd = var_solve(model, control, direction, batch, *args)
        Y1[0, batch.K[0]] += 1e-6
        return X1, Y1, A1, r1, vd

    monkeypatch.setattr(smp, "_p_forward_batch", p_off)
    with pytest.raises(AssertionError, match="^adjoint initial condition violated$"):
        solve_adjoint_ensemble(model, bundles, sols)
    monkeypatch.undo()
    monkeypatch.setattr(smp, "_q_affine_batch", q_off)
    with pytest.raises(AssertionError, match="^adjoint terminal condition violated$"):
        solve_adjoint_ensemble(model, bundles, sols)
    monkeypatch.setattr(smp, "_variational_batch", y1_off)
    with pytest.raises(AssertionError, match="^variational terminal condition violated$"):
        solve_variational(model, u, ConstantControl(1.0), bnd, sol)


def test_adjoint_margin_equals_cost_derivative():
    """The duality identity tying (p, q, k, R) to the cost gradient.

    On a linear model with quadratic costs the Richardson limit of the
    difference quotients is the exact directional derivative, and the
    Hamiltonian-gradient integral must land on it up to O(du); this
    exercises nonzero k and R.
    """
    model, jspec, sspec, _ = build_model("linear_test")
    bundles = make_ensemble(sspec, jspec, 1.0, 0.005, 48, master_seed=44)
    u = ConstantControl(0.3)
    wv = 1.1
    sols = solved_ensemble(model, u, bundles)
    adjs = solve_adjoint_ensemble(model, bundles, sols)
    assert max(np.max(np.abs(a.k)) for a in adjs) > 0.01
    assert max(np.max(np.abs(a.R)) for a in adjs) > 0.001
    du = 0.005
    margins = []
    for bnd, s, a in zip(bundles, sols, adjs):
        K = bnd.solver_steps
        hv = hamiltonian_grad_v(model, jspec, s.calendar_times[:K],
                                du * np.arange(K), s.X[:K], s.Y[:K], s.A, s.r,
                                s.control_values, a.p[:K], a.q[:K], a.k, a.R)
        margins.append(np.sum(du * hv * (wv - s.control_values)))
    margin = float(np.mean(margins))
    rows, _ = expansion_check(model, bundles, sols, ConstantControl(wv - 0.3), [0.1, 0.05])
    exact = 2.0 * rows[1]["lhs"] - rows[0]["lhs"]
    assert abs(margin - exact) < 2e-3


# --------------------------------------------------------------- variational

def test_variational_zero_direction_is_zero():
    model, jspec, sspec = lq_model()
    (bnd,) = make_ensemble(sspec, jspec, 0.8, DU, 1, master_seed=50)
    u = ConstantControl(0.5)
    sol = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
    var = solve_variational(model, u, ConstantControl(0.0), bnd, sol)
    assert np.max(np.abs(var.X1)) == 0.0
    assert np.max(np.abs(var.Y1)) == 0.0
    assert np.max(np.abs(var.A1)) == 0.0
    assert np.max(np.abs(var.r1)) == 0.0


def lq_bx_twin():
    """lq_model with b = 0.1 z v + 0.05 z x: still linear, but its jump
    coefficient has an x-slope, so X1 takes a jump at each event."""
    model, jspec, sspec = lq_model()
    return (dataclasses.replace(model, b=lambda t1, t2, x, v, z: 0.1 * z * v + 0.05 * z * x),
            jspec, sspec)


def test_variational_is_exact_difference_on_linear_system():
    """X1 and (Y1, A1, r1) equal the difference of two solves exactly, on
    lq_model and on its twin whose jumps load the state (b_x != 0)."""
    u = ConstantControl(0.3)
    d = ConstantControl(0.8)
    pert = PerturbedControl(u, d, 1.0)
    for model, jspec, sspec in (lq_model(), lq_bx_twin()):
        bundles = make_ensemble(sspec, jspec, 1.0, DU, 3, master_seed=51)
        assert sum(b.jumps.times.size for b in bundles) > 0
        for bnd in bundles:
            su = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
            sp = solve_backward_dual(model, pert, bnd,
                                     solve_forward_dual(model, pert, bnd))
            var = solve_variational(model, u, d, bnd, su)
            assert var.X1[0] == 0.0
            assert np.max(np.abs(var.X1 - (sp.X - su.X))) < 1e-11
            assert np.max(np.abs(var.Y1 - (sp.Y - su.Y))) < 1e-11
            assert np.max(np.abs(var.A1 - (sp.A - su.A))) < 1e-11
            assert np.max(np.abs(var.r1 - (sp.r - su.r))) < 1e-11
            K = bnd.solver_steps
            assert abs(var.Y1[K] - 1.0 * var.X1[K]) < 1e-10


def test_variational_needs_open_loop():
    model, jspec, sspec = lq_model()
    (bnd,) = make_ensemble(sspec, jspec, 0.5, DU, 1, master_seed=52)
    u = ConstantControl(0.2)
    sol = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
    fb = FeedbackControl(lambda t1, t2, x: 0.1 * x)
    with pytest.raises(NotImplementedError, match="open-loop"):
        solve_variational(model, fb, ConstantControl(1.0), bnd, sol)


def test_variational_needs_a_state_affine_model():
    """The linearized pair runs on the affine kernels, so a model that is
    not affine_solvable is refused even under open-loop controls."""
    model = mk_model(conditionally_deterministic=True)
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.5, DU, 1, master_seed=53)
    sol = solve_backward_dual(model, 0.2, bnd, solve_forward_dual(model, 0.2, bnd))
    with pytest.raises(NotImplementedError, match="state-affine models only"):
        solve_variational(model, ConstantControl(0.2), ConstantControl(1.0), bnd, sol)


def test_calendar_direct_solves_no_backward_part_of_a_model_that_is_not_affine():
    """solve_calendar_direct runs its backward recursion on affine_solvable
    models only; any other gets the forward state and Y = None."""
    model = mk_model(f=lambda t1, t2, x, v: -x**3 + 0.0 * v)
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.5, DU, 1, master_seed=54)
    X, Y, tgrid = solve_calendar_direct(model, 0.2, bnd)
    assert Y is None
    assert X.shape == tgrid.shape and np.all(np.isfinite(X))


@pytest.mark.parametrize("system", ["state", "adjoint", "variational", "affine"])
def test_forward_blow_up_names_the_system_and_the_path(system):
    """The state, the first adjoint and the variational state share one
    forward kernel: a non-finite value raises in each, naming the system,
    the step and the ensemble path, not the batch row (the cost's K-sorted
    batch holds path 2 at row 8).  "affine" is the state of the cost's
    affine regime, which steps by the probe's slope/intercept tables
    through the same kernel; "state" takes the step that calls the maps."""
    bundles = ragged_bundles(RAGGED_STEPS)
    rows = np.zeros((len(bundles), max(RAGGED_STEPS)))
    rows[2] = 1e200
    huge = StepwiseControl(rows)
    name = "state" if system == "affine" else system
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=rf"^{name} blow-up at step 0 \(path 2\)$"):
            if system in ("state", "affine"):
                affine = dict(affine=True, M_T=0.0) if system == "affine" else {}
                model = mk_model(f=lambda t1, t2, x, v: v * v + 0.0 * x, control_set=Box(),
                                 **affine)
                assert (fbsde.backward_method(model, huge) == "affine") == (system == "affine")
                evaluate_cost(model, huge, bundles)
            elif system == "adjoint":
                # l_y = v^2 drives p; the state and Y stay at x0 and 0.  The
                # model is in the closure, so p is solved, not refused
                model = mk_model(l=lambda t1, t2, x, y, a, r, v: y * v * v,
                                 control_set=Box(), conditionally_deterministic=True,
                                 affine=True, M_T=0.0,
                                 derivatives={"l_y": lambda t1, t2, x, y, a, r, v: v * v})
                sols = solved_ensemble(model, huge, bundles)
                solve_adjoint_ensemble(model, bundles, sols)
            else:
                # f_v = 1e200 loads the direction into X1; the base stays put
                model = mk_model(f=lambda t1, t2, x, v: 1e200 * v + 0.0 * x, M_T=0.0,
                                 control_set=Box(), affine=True)
                expansion_check(model, bundles, solved_ensemble(model, 0.0, bundles), huge,
                                [0.1])


@pytest.mark.parametrize("check", ["backward", "variational", "adjoint_initial",
                                   "adjoint_terminal"])
def test_consistency_checks_refuse_a_nan_gap(check):
    """Each terminal or initial consistency check refuses a gap that is NaN,
    where both sides overflow to inf, instead of letting it pass as a
    comparison with NaN does."""
    one = ragged_bundles((5,))[0]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(AssertionError, match="condition violated|consistency violated"):
            if check == "backward":
                # Y_T and phi(X_T) are both 1e10 * 1e300
                model = mk_model(phi=lambda x: 1e10 * x, M_T=1e10, x0=1e300, affine=True)
                solve_backward_dual(model, 0.5, one, solve_forward_dual(model, 0.5, one),
                                    method="affine")
            elif check == "variational":
                # X1_T is about 5e298, so Y1_T and phi_x X1_T are inf
                model = mk_model(f=lambda t1, t2, x, v: v + 0.0 * x, phi=lambda x: 1e10 * x,
                                 M_T=1e10, affine=True, derivatives={"phi_x": lambda x: 1e10})
                base = solve_backward_dual(model, 0.0, one, solve_forward_dual(model, 0.0, one))
                solve_variational(model, 0.0, ConstantControl(1e300), one, base)
            else:
                if check == "adjoint_initial":
                    # on zero-step paths p_0 = -gamma_y(Y_0) = 1e10 * 1e300
                    bundles = ragged_bundles((0, 0))
                    maps = dict(gamma=lambda y: -0.5e10 * y * y,
                                derivatives={"gamma_y": lambda y: -1e10 * y})
                else:
                    # q_T and its target both read h_x(X_T) = 1e10 * 1e300
                    bundles = ragged_bundles(RAGGED_STEPS)
                    maps = dict(h=lambda x: 0.5e10 * x * x,
                                derivatives={"h_x": lambda x: 1e10 * x})
                model = mk_model(phi=lambda x: 1.0 * x, M_T=1.0, x0=1e300, affine=True, **maps)
                solve_adjoint_ensemble(model, bundles, solved_ensemble(model, 0.5, bundles))


def test_adjoint_and_variational_rows_match_single_paths():
    """Every row of an ensemble's adjoint and variational solve carries the
    bytes of that path solved alone, whatever its horizon (zero-step paths
    included), so the padded kernels hold and freeze each row on its own."""
    spec = CashSpec()
    model = build_cash_model(spec)
    bundles = ragged_bundles(RAGGED_STEPS, jump_spec=spec.jump)
    u, d = ConstantControl(0.7), ConstantControl(1.0)

    def solve(bnds):
        sols = solved_ensemble(model, u, bnds)
        adj = solve_adjoint_ensemble(model, bnds, sols)
        # a batch holds its rows in K order: gather the solved rows in that
        # order and put the variational rows back in ensemble order
        order = np.argsort(sols.K, kind="stable")
        var = _variational_batch(model, u, d, Ensemble(bnds).rows(order),
                                 *(getattr(sols, f)[order] for f in "XYArv"))
        return adj, [a[np.argsort(order)] for a in var]

    adj, var = solve(bundles)
    for n, (k, bnd) in enumerate(zip(RAGGED_STEPS, bundles)):
        one_adj, one_var = solve([bnd])
        for name in ("p", "q", "k", "R"):
            assert np.array_equal(getattr(adj[n], name), getattr(one_adj[0], name)), name
        for name, got, want in zip(("X1", "Y1", "A1", "r1"), var, one_var):
            width = k + 1 if name in ("X1", "Y1") else k
            assert np.array_equal(got[n, :width], want[0, :width]), name


@st.composite
def edge_clocks(draw):
    """Staircases of one to four paths (one path: a single-path ensemble)
    on a unit horizon.  A path has 0 to 8 solver steps (0: a zero-step
    path); when it has steps, one increment takes up to 20 times the
    share of the others, so the clock stalls across that calendar gap, and
    the last increment jumps past the horizon, where the clock is
    trapped at K du."""
    paths = []
    for _ in range(draw(st.integers(1, 4))):
        inc = np.ones(draw(st.integers(0, 8)))
        if inc.size:
            inc[draw(st.integers(0, inc.size - 1))] += draw(st.floats(0.0, 20.0))
        rise = 0.9 * np.cumsum(inc) / max(inc.sum(), 1.0)
        paths.append(np.concatenate([[0.0], rise, [1.5]]))
    return paths


@settings(max_examples=25, deadline=None)
@given(paths=edge_clocks(), seed=st.integers(0, 10_000))
def test_edge_ensembles_through_adjoints_margins_and_composition(paths, seed):
    """Zero-step, trapped-clock and single-path ensembles: the boundary
    conditions of the state pair and the adjoints hold on every row, the
    margin search returns finite margins, and each composed row reads the
    padded row at E(t)/du, where A and r read 0 from the horizon on."""
    model, jspec, _ = lq_model()
    bundles = []
    for n, values in enumerate(paths):
        bnd = manual_bundle(values, DU, 1.0, jump_spec=jspec, seed=seed + 3 * n)
        bnd.seeds["path"] = n
        bundles.append(bnd)
    ens, u = Ensemble(bundles), ConstantControl(0.5)
    sols = solved_ensemble(model, u, ens)
    adj = solve_adjoint_ensemble(model, ens, sols)
    K, rows = ens.K, np.arange(len(ens))
    # X_0 = x0, Y_K = phi(X_K) = X_K, p_0 = -gamma_y(Y_0) = 1 and
    # q_K = -phi_x(X_K) p_K + h_x(X_K) = -p_K
    assert np.all(sols.X[:, 0] == model.x0)
    assert np.max(np.abs(sols.Y[rows, K] - sols.X[rows, K])) < 1e-12
    assert np.max(np.abs(adj.p[:, 0] - 1.0)) < 1e-9
    assert np.max(np.abs(adj.q[rows, K] + adj.p[rows, K])) < 1e-8
    rep = check_necessary_condition(model, ens, sols, adj, count=8, seed=0)
    assert np.all(np.isfinite([[row["margin"], row["se"]] for row in rep.margins]))
    assert rep.margins[0]["margin"] == 0.0
    calendar = np.linspace(0.0, 1.0, 9)
    for n, bnd in enumerate(bundles):
        k = int(K[n])
        for inv in (bnd.inverse, invert_subordinator(bnd.subordinator, calendar)):
            cal = compose_duality(sols[n], inv)
            idx = np.rint(inv.values / DU).astype(int)
            assert np.array_equal(cal.X, sols.X[n, idx])
            assert np.array_equal(cal.Y, sols.Y[n, idx])
            live = idx < k
            for got, row in ((cal.A, sols.A[n]), (cal.r, sols.r[n])):
                assert np.array_equal(got[live], row[idx[live]])
                assert np.all(got[~live] == 0.0)


def test_remainders_sit_on_the_floor_for_linear_models():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 24, master_seed=53)
    _, rows = expansion_check(model, bundles,
                              solved_ensemble(model, ConstantControl(0.3), bundles),
                              ConstantControl(1.0), [0.2, 0.1])
    for row in rows:
        for key in ("x2", "y2", "a2", "r2"):
            assert row[key] < 1e-16


def test_remainders_decay_quadratically_for_quadratic_coefficients():
    model, jspec, sspec, _ = build_model("quadratic_drift")
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=54)
    _, rows = expansion_check(model, bundles,
                              solved_ensemble(model, ConstantControl(0.5), bundles),
                              ConstantControl(1.0), [0.2, 0.1, 0.05])
    for key in ("x2", "y2", "a2", "r2"):
        assert rows[0][key] > 0.0
        for j in range(len(rows) - 1):
            ratio = rows[j][key] / rows[j + 1][key]
            assert 3.9 < ratio < 4.1


def test_gateaux_quotients_close_linearly():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=55)
    rows, _ = expansion_check(model, bundles,
                              solved_ensemble(model, ConstantControl(0.4), bundles),
                              ConstantControl(1.0), [0.2, 0.1, 0.05])
    # quadratic cost: the quotient misses the derivative by exactly rho/2
    # times a fixed curvature, so consecutive differences halve
    for j in range(len(rows) - 1):
        assert abs(rows[j]["diff"] / rows[j + 1]["diff"] - 2.0) < 1e-6
    assert rows[-1]["diff"] < rows[0]["diff"]


# ----------------------------------------------------------- margin searches

def optimal_lq_control(model, jspec, bundles, sols, adjs):
    zq, w = jspec.quadrature()
    rows = np.zeros((len(bundles), max(b.solver_steps for b in bundles)))
    for i, (bnd, adj) in enumerate(zip(bundles, adjs)):
        K = bnd.solver_steps
        s = (1.0 * adj.q[:K] + 0.2 * adj.k - 0.5 * adj.p[:K]
             + 2.0 * (adj.R @ (w * 0.1 * zq)))
        rows[i, :K] = 1.0 - s
    return StepwiseControl(rows)


def test_necessary_condition_margins_at_the_optimum():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=56)
    warm = ConstantControl(1.0)
    sols = solved_ensemble(model, warm, bundles)
    adjs = solve_adjoint_ensemble(model, bundles, sols)
    ustar = optimal_lq_control(model, jspec, bundles, sols, adjs)
    sols2 = solved_ensemble(model, ustar, bundles)
    adjs2 = solve_adjoint_ensemble(model, bundles, sols2)
    rep = check_necessary_condition(model, bundles, sols2, adjs2, count=32, seed=5)
    # finite differencing of H leaves a ~1e-12 noise floor in each margin
    assert rep.min_margin > -5e-11
    assert rep.margins[0]["kind"] == "current"
    assert rep.margins[0]["margin"] == 0.0
    assert rep.count == 32
    assert {"kind", "margin", "se"} <= set(rep.witness)


def test_necessary_condition_flags_a_suboptimal_control():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=21)
    bad = ConstantControl(2.0)
    sols = solved_ensemble(model, bad, bundles)
    adjs = solve_adjoint_ensemble(model, bundles, sols)
    rep = check_necessary_condition(model, bundles, sols, adjs, count=24, seed=3)
    assert rep.min_margin < -5.0 * rep.std_error
    assert rep.min_margin < -0.1


def test_margin_range_spans_the_live_rates_only():
    """Under an unbounded box the candidates span the live rates (K > i)
    widened by 1; the rate 0 parked in a zero-step path's padded row sets
    no end of that range."""
    model, jspec, _ = lq_model(box=(-np.inf, np.inf))
    bundles = ragged_bundles(RAGGED_STEPS, jump_spec=jspec)
    K, Kmax = np.array(RAGGED_STEPS), max(RAGGED_STEPS)
    u = StepwiseControl(1.5 + 0.1 * np.arange(K.size)[:, None] + 0.02 * np.arange(Kmax))
    sols = solved_ensemble(model, u, bundles)
    live = sols.v[np.arange(Kmax) < K[:, None]]
    assert live.min() > 1.0 and np.any(sols.v[K == 0] == 0.0)
    rep = check_necessary_condition(model, bundles, sols,
                                    solve_adjoint_ensemble(model, bundles, sols), count=16)
    levels = [row["value"] for row in rep.margins if row["kind"] == "constant"]
    levels += [x for row in rep.margins if row["kind"] == "switch" for x in row["levels"]]
    assert len(levels) == 7 + 2 * 8
    assert all(live.min() - 1.0 <= x <= live.max() + 1.0 for x in levels)


def test_margin_range_of_a_zero_step_ensemble_stays_in_a_one_sided_box():
    """With no live rate the range is centred on the box's interior point:
    on Box(10, inf) every candidate level lies in [10, 12], inside the box."""
    model, jspec, _ = lq_model(box=(10.0, np.inf))
    bundles = ragged_bundles((0, 0, 0), jump_spec=jspec)
    sols = solved_ensemble(model, ConstantControl(10.5), bundles)
    rep = check_necessary_condition(model, bundles, sols,
                                    solve_adjoint_ensemble(model, bundles, sols), count=8)
    levels = [row["value"] for row in rep.margins if row["kind"] == "constant"]
    levels += [x for row in rep.margins if row["kind"] == "switch" for x in row["levels"]]
    assert len(levels) == 3 + 2 * 4
    assert all(10.0 <= x <= 12.0 for x in levels)


def test_necessary_condition_rejects_empty_candidates():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 0.5, DU, 2, master_seed=57)
    sols = solved_ensemble(model, ConstantControl(0.5), bundles)
    adjs = solve_adjoint_ensemble(model, bundles, sols)
    for count in (0, 2.5):
        with pytest.raises(ValueError, match="empty"):
            check_necessary_condition(model, bundles, sols, adjs, count=count)


def reference_margins(model, bundles, sols, adjs, count, seed):
    """The margin search as one (N, Kmax) product per candidate, summed
    along each row: its rows, and per candidate the rounding scale
    mean_n sum_i |du H_v| (|w_i| + |u_i|) of that sum."""
    ens = fbsde.as_ensemble(bundles)
    K, du, v = ens.K, ens.du, sols.v
    N, Kmax = K.size, int(K.max())
    Hv = hamiltonian_grad_v(model, ens.spec, sols.t[:, :-1], np.arange(Kmax) * du,
                            sols.X[:, :-1], sols.Y[:, :-1], sols.A, sols.r, v,
                            adjs.p[:, :-1], adjs.q[:, :-1], adjs.k, adjs.R)
    act = np.arange(Kmax)[None, :] < K[:, None]
    lo, hi = model.control_set.lo, model.control_set.hi
    live, mid = v[act], model.control_set.interior_point()
    if not np.isfinite(lo):
        lo = (float(live.min()) if live.size else mid) - 1.0
    if not np.isfinite(hi):
        hi = (float(live.max()) if live.size else mid) + 1.0
    rng = np.random.default_rng(seed)
    candidates = [("current", {}, v)]
    for c in np.linspace(lo, hi, (count - 1) // 2):
        candidates.append(("constant", {"value": float(c)}, np.full((1, Kmax), float(c))))
    while len(candidates) < count:
        s = int(rng.integers(0, max(Kmax, 1)))
        levels = rng.uniform(lo, hi, size=2)
        candidates.append(("switch", {"switch_step": s, "levels": levels.tolist()},
                           np.where(np.arange(Kmax) < s, levels[0], levels[1])[None, :]))
    wHv = np.where(act, du, 0.0) * Hv
    rows, scales = [], []
    for idx, (kind, desc, vals) in enumerate(candidates):
        per_path = np.sum(wHv * (vals - v), axis=1)
        se = float(per_path.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
        rows.append(dict(index=idx, kind=kind, margin=float(per_path.mean()), se=se, **desc))
        scales.append(float(np.mean(np.sum(np.abs(wHv) * (np.abs(vals) + np.abs(v)), axis=1))))
    return rows, scales


def margin_cases():
    """(name, model, bundles, solved rows, adjoints): linear_test off its
    optimum, the cash model at u* for a flat and a time-varying CashSpec,
    a zero-step ensemble and a Kmax = 1 ensemble."""
    lin, jspec, sspec, p = build_model("linear_test")
    bundles = make_ensemble(sspec, jspec, p["horizon"], p["step"], 96, 61)
    sols = solved_ensemble(lin, ConstantControl(1.5), bundles)
    yield "linear_test", lin, bundles, sols, solve_adjoint_ensemble(lin, bundles, sols)
    timed = CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t, eta_t=lambda t, z: (0.1 + 0.05 * t) * z,
                     kappa=lambda t: 1.0 + 0.5 * t)
    for name, spec in (("cash", CashSpec()), ("cash_t", timed)):
        model = build_cash_model(spec)
        bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon, DU, 96, 62)
        adjs = cash_adjoints(spec, bundles)
        sols = solved_ensemble(model, cash_optimal_control(spec, adjs), bundles)
        yield name, model, bundles, sols, adjs
    model, jspec, _ = lq_model(box=(-np.inf, np.inf))
    for name, steps in (("zero_step", (0, 0, 0)), ("kmax_1", (1, 0, 1, 1, 0))):
        bundles = ragged_bundles(steps, jump_spec=jspec)
        sols = solved_ensemble(model, ConstantControl(0.7), bundles)
        yield name, model, bundles, sols, solve_adjoint_ensemble(model, bundles, sols)


def test_prefix_sum_margins_match_the_per_candidate_products():
    """The margins read off the rows' prefix sums of du H_v agree with one
    (N, Kmax) product per candidate to 64 eps of that sum's rounding
    scale, margin and standard error alike; u's margin and standard error
    are exactly 0.0, and the candidates' descriptors keep their bytes."""
    eps = np.finfo(float).eps
    for name, model, bundles, sols, adjs in margin_cases():
        rep = check_necessary_condition(model, bundles, sols, adjs, count=64, seed=9)
        ref, scales = reference_margins(model, bundles, sols, adjs, 64, 9)
        strip = [[{k: x for k, x in row.items() if k not in ("margin", "se")} for row in rows]
                 for rows in (rep.margins, ref)]
        assert json.dumps(strip[0]) == json.dumps(strip[1]), name
        assert rep.margins[0]["margin"] == 0.0 and rep.margins[0]["se"] == 0.0, name
        for got, want, scale in zip(rep.margins[1:], ref[1:], scales[1:]):
            for key in ("margin", "se"):
                assert abs(got[key] - want[key]) <= 64 * eps * scale, (name, got, want)
        if name == "linear_test":
            assert 0.05 < max(abs(row["margin"]) for row in ref) < 10.0


def test_margin_search_refuses_a_seed_that_is_not_an_integer():
    """seed = 2.5 leaked numpy's TypeError: it raises ValueError naming
    seed, and an integral float or a numpy integer means its integer."""
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 0.5, DU, 4, master_seed=57)
    sols = solved_ensemble(model, ConstantControl(0.5), bundles)
    adjs = solve_adjoint_ensemble(model, bundles, sols)
    for seed in (2.5, -1, "2"):
        with pytest.raises(ValueError, match="seed"):
            check_necessary_condition(model, bundles, sols, adjs, count=8, seed=seed)
    want = check_necessary_condition(model, bundles, sols, adjs, count=8, seed=2)
    for seed in (2.0, np.int64(2)):
        got = check_necessary_condition(model, bundles, sols, adjs, count=8, seed=seed)
        assert got.seed == 2 and json.dumps(got.margins) == json.dumps(want.margins)


def test_sufficiency_check_refuses_a_seed_that_is_not_an_integer():
    """The convexity cloud's seed = 2.5 raises ValueError naming seed, and
    2.0 draws seed 2's cloud."""
    model, jspec, _ = lq_model()
    for seed in (2.5, -1):
        with pytest.raises(ValueError, match="seed"):
            check_sufficient_condition_hypotheses(model, jspec, n_samples=5, seed=seed)
    got, want = (check_sufficient_condition_hypotheses(model, jspec, n_samples=5, seed=seed)
                 for seed in (2.0, 2))
    assert got.to_dict() == want.to_dict() and got.seed == 2


def test_sufficiency_report_on_a_convex_model():
    model, jspec, sspec = lq_model()
    (bnd,) = make_ensemble(sspec, jspec, 0.8, DU, 1, master_seed=58)
    u = ConstantControl(0.6)
    sol = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
    rep = check_sufficient_condition_hypotheses(model, jspec, solution=sol,
                                                n_samples=250, seed=2)
    assert rep.hamiltonian_convex and rep.h_convex and rep.gamma_convex
    assert rep.terminal_gap == 0.0
    json.dumps(rep.to_dict())


def test_sufficiency_terminal_gap_reads_the_terminal_intercept():
    """The terminal link is Y_T = phi(0) + M_T X_T: linear_test with
    phi = 2 + x solves exactly, so Y_T - phi(X_T) and the gap read 0,
    not the intercept.  A terminal map that is not affine is refused
    with a message that names the check."""
    lin, jspec, sspec, _ = build_model("linear_test")
    maps = dict(f=lin.f, sigma=lin.sigma, b=lin.b, g=lin.g, l=lin.l, h=lin.h,
                gamma=lin.gamma, control_set=lin.control_set, x0=lin.x0, M_T=1.0,
                affine=True)
    model = ModelSpec(phi=lambda x: 2.0 + x, **maps)
    (bnd,) = make_ensemble(sspec, jspec, 0.8, DU, 1, master_seed=58)
    u = ConstantControl(0.6)
    sol = solve_backward_dual(model, u, bnd, solve_forward_dual(model, u, bnd))
    assert sol.Y[-1] - model.phi(sol.X[-1]) == 0.0
    rep = check_sufficient_condition_hypotheses(model, jspec, solution=sol,
                                                n_samples=50, seed=2)
    assert rep.terminal_gap == 0.0
    with pytest.raises(ValueError, match=r"phi\(x\) is not phi\(0\) \+ M_T \* x"):
        ModelSpec(phi=lambda x: 2.0 + x * x, **maps)


def test_sufficiency_report_catches_concave_terminal_cost():
    model, jspec, sspec = lq_model()
    spoiled = ModelSpec(
        f=model.f, sigma=model.sigma, b=model.b, g=model.g, phi=model.phi,
        l=model.l, h=lambda x: -x ** 2, gamma=model.gamma,
        control_set=model.control_set, x0=model.x0, M_T=model.M_T,
        affine=model.affine)
    rep = check_sufficient_condition_hypotheses(spoiled, jspec,
                                                n_samples=250, seed=2)
    assert not rep.h_convex
    assert rep.worst_h_gap > 1e-3
    assert rep.hamiltonian_convex
    assert rep.terminal_gap is None


def test_sufficiency_check_refuses_a_sample_size_that_is_not_a_count():
    """n_samples = 2.7 was drawn as 2 and reported as 2, and 0 died in
    np.max on an empty array: each is refused, naming n_samples."""
    model, jspec, _ = lq_model()
    for n in (2.7, 0, -3, 2.0):
        with pytest.raises(ValueError, match="n_samples"):
            check_sufficient_condition_hypotheses(model, jspec, n_samples=n)
    assert check_sufficient_condition_hypotheses(model, jspec, n_samples=1).n_samples == 1


def test_optimality_report_serialization_is_stable():
    rep = OptimalityReport(
        min_margin=-1.25e-9, margin_se=3e-10,
        witness={"kind": "constant", "value": 2.0},
        gap_table=[{"delta": 0.5, "gap": 0.1497}],
        convergence_table=[{"rho": 0.1, "diff": 0.05}],
        remainder_table=[{"rho": 0.1, "x2": 1e-3}],
        meta={"seed": 7, "step": 0.01})
    blob = rep.to_json()
    again = OptimalityReport(**json.loads(blob))
    assert again.to_json() == blob
    text = rep.to_text()
    assert "min margin" in text
    assert "constant" in text
