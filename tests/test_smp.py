"""Maximum-principle tests: Hamiltonian algebra, adjoint solvers against
closed forms, variational exactness on linear systems, and the optimality
certificates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import cash_q_candidate
from support import lq_model, mk_model
from tcfbsde.fbsde import (
    Box,
    _solved_ensemble,
    ConstantControl,
    FeedbackControl,
    ModelSpec,
    PerturbedControl,
    StepwiseControl,
    build_model,
    make_ensemble,
    solve_backward_dual,
    solve_forward_dual,
)
from tcfbsde.noise import LevyJumpSpec
from tcfbsde.smp import (
    OptimalityReport,
    check_necessary_condition,
    check_sufficient_condition_hypotheses,
    gateaux_consistency_check,
    hamiltonian,
    hamiltonian_grad_v,
    model_derivative,
    remainder_convergence_check,
    solve_adjoint,
    solve_adjoint_ensemble,
    solve_variational,
)

DU = 0.01


def solved_ensemble(model, control, bundles):
    # batched solve in the padded layout the ensemble checks read; every
    # path of a whole make_ensemble draw sits at its seeds["path"] position
    return _solved_ensemble(model, control, bundles)


# --------------------------------------------------------------- derivatives

def test_model_derivative_fd_is_exact_for_polynomials():
    model, _, _, _ = build_model("quadratic_drift")
    d_fv = model_derivative(model, "f_v")
    # f = -x + v + 0.5 v^2, so f_v = 1 + v; central differences are exact
    assert abs(float(d_fv(0.0, 0.0, 2.0, 0.3)) - 1.3) < 1e-10
    d_fx = model_derivative(model, "f_x")
    assert abs(float(d_fx(0.0, 0.0, 2.0, 0.3)) + 1.0) < 1e-10


def test_model_derivative_prefers_registered_closed_form():
    model, _, _ = lq_model()
    model.derivatives["f_v"] = lambda t1, t2, x, v: 123.0 + 0.0 * v
    assert float(model_derivative(model, "f_v")(0, 0, 0, 0)) == 123.0
    assert abs(float(model_derivative(model, "f_x")(0, 0, 0, 0)) + 1.0) < 1e-10


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
        model.hamiltonian_v = closed
        cf = hamiltonian_grad_v(model, spec, 0.1, 0.1, x, y, a, r, v, p, q, k, R)
        model.hamiltonian_v = None
        assert abs(float(fd) - float(cf)) < 1e-6


def test_grad_v_one_sided_at_box_edge():
    model, spec, _ = lq_model(box=(0.0, 1.0))
    zq, _ = spec.quadrature()
    zeros = np.zeros(zq.size)
    # H is quadratic in v, so the second-order one-sided stencil is exact
    for v in (0.0, 1.0):
        grad = hamiltonian_grad_v(model, spec, 0.0, 0.0, 0.5, 0.0, 0.0, zeros,
                                  v, 0.0, 2.0, 0.0, zeros)
        want = 2.0 * 1.0 + (v - 1.0)
        assert abs(float(grad) - want) < 1e-7


def test_grad_v_stencil_needs_room():
    model, spec, _ = lq_model(box=(0.0, 1e-5))
    zq, _ = spec.quadrature()
    zeros = np.zeros(zq.size)
    with pytest.raises(ValueError, match="both directions"):
        hamiltonian_grad_v(model, spec, 0.0, 0.0, 0.0, 0.0, 0.0, zeros,
                           5e-6, 0.0, 0.0, 0.0, zeros)


# ------------------------------------------------------------------ adjoints

def zero_driver_model():
    return mk_model(phi=lambda x: 1.0 * x, gamma=lambda y: -y, M_T=1.0,
                    linear=("f", "sigma", "b", "g"))


def test_adjoint_zero_driver_constants():
    model = zero_driver_model()
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.8, DU, 1, master_seed=40)
    sol = solve_backward_dual(model, 0.0, bnd, solve_forward_dual(model, 0.0, bnd))
    adj = solve_adjoint(model, 0.0, bnd, sol)
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
    adj = solve_adjoint(model, ctrl, bnd, sol)
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


def test_adjoint_ode_and_affine_regimes_agree():
    model, jspec, sspec = lq_model()
    (bnd,) = make_ensemble(sspec, jspec, 1.0, DU, 1, master_seed=42)
    ctrl = ConstantControl(0.4)
    sol = solve_backward_dual(model, ctrl, bnd,
                              solve_forward_dual(model, ctrl, bnd))
    a1 = solve_adjoint(model, ctrl, bnd, sol, method="affine")
    a2 = solve_adjoint(model, ctrl, bnd, sol, method="ode")
    assert np.max(np.abs(a1.q - a2.q)) < 1e-10
    assert np.max(np.abs(a1.p - a2.p)) == 0.0


def test_adjoint_rejects_unflagged_nonlinear_model():
    model = mk_model(f=lambda t1, t2, x, v: -x ** 3 + 0.0 * v,
                     phi=lambda x: 1.0 * x)
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.5, DU, 1, master_seed=43)
    sol = solve_backward_dual(model, 0.0, bnd,
                              solve_forward_dual(model, 0.0, bnd), method="ode")
    with pytest.raises(NotImplementedError):
        solve_adjoint(model, 0.0, bnd, sol)
    with pytest.raises(KeyError):
        solve_adjoint(model, 0.0, bnd, sol, method="spectral")


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
    adjs = solve_adjoint_ensemble(model, u, bundles, sols)
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
    rows = gateaux_consistency_check(model, u, ConstantControl(wv - 0.3),
                                     [0.1, 0.05], bundles)
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


def test_variational_is_exact_difference_on_linear_system():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 3, master_seed=51)
    u = ConstantControl(0.3)
    d = ConstantControl(0.8)
    pert = PerturbedControl(u, d, 1.0)
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


def test_remainders_sit_on_the_floor_for_linear_models():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 24, master_seed=53)
    rows = remainder_convergence_check(model, ConstantControl(0.3),
                                       ConstantControl(1.0), [0.2, 0.1], bundles)
    for row in rows:
        for key in ("x2", "y2", "a2", "r2"):
            assert row[key] < 1e-16


def test_remainders_decay_quadratically_for_quadratic_coefficients():
    model, jspec, sspec, _ = build_model("quadratic_drift")
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=54)
    rows = remainder_convergence_check(model, ConstantControl(0.5),
                                       ConstantControl(1.0),
                                       [0.2, 0.1, 0.05], bundles)
    for key in ("x2", "y2", "a2", "r2"):
        assert rows[0][key] > 0.0
        for j in range(len(rows) - 1):
            ratio = rows[j][key] / rows[j + 1][key]
            assert 3.9 < ratio < 4.1


def test_gateaux_quotients_close_linearly():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 1.0, DU, 48, master_seed=55)
    rows = gateaux_consistency_check(model, ConstantControl(0.4),
                                     ConstantControl(1.0),
                                     [0.2, 0.1, 0.05], bundles)
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
    adjs = solve_adjoint_ensemble(model, warm, bundles, sols)
    ustar = optimal_lq_control(model, jspec, bundles, sols, adjs)
    sols2 = solved_ensemble(model, ustar, bundles)
    adjs2 = solve_adjoint_ensemble(model, ustar, bundles, sols2)
    rep = check_necessary_condition(model, ustar, bundles, sols2, adjs2,
                                    count=32, seed=5)
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
    adjs = solve_adjoint_ensemble(model, bad, bundles, sols)
    rep = check_necessary_condition(model, bad, bundles, sols, adjs,
                                    count=24, seed=3)
    assert rep.min_margin < -5.0 * rep.std_error
    assert rep.min_margin < -0.1


def test_necessary_condition_rejects_empty_candidates():
    model, jspec, sspec = lq_model()
    bundles = make_ensemble(sspec, jspec, 0.5, DU, 2, master_seed=57)
    sols = solved_ensemble(model, ConstantControl(0.5), bundles)
    adjs = solve_adjoint_ensemble(model, ConstantControl(0.5), bundles, sols)
    with pytest.raises(ValueError, match="empty"):
        check_necessary_condition(model, ConstantControl(0.5), bundles, sols,
                                  adjs, count=0)


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


def test_sufficiency_report_catches_concave_terminal_cost():
    model, jspec, sspec = lq_model()
    spoiled = ModelSpec(
        f=model.f, sigma=model.sigma, b=model.b, g=model.g, phi=model.phi,
        l=model.l, h=lambda x: -x ** 2, gamma=model.gamma,
        control_set=model.control_set, x0=model.x0, M_T=model.M_T,
        linear=tuple(model.linear))
    rep = check_sufficient_condition_hypotheses(spoiled, jspec,
                                                n_samples=250, seed=2)
    assert not rep.h_convex
    assert rep.worst_h_gap > 1e-3
    assert rep.hamiltonian_convex
    assert rep.terminal_gap is None


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
