"""Maximum-principle machinery: Hamiltonian, adjoints, variational system.

Everything here certifies optimality claims empirically, so the module is
organized around cross-checkable quantities rather than abstract operator
interfaces.  Conventions, once and for all:

* The Hamiltonian is H = <q, f> + <k, sigma> - int [<p, g> - l - <R(z), b(z)>]
  with the integral taken against the jump measure (intensity included).
  Minimization is the target, so along an optimal control the directional
  margin <H_v, w - u> must be nonnegative for every feasible w.
* Adjoint boundary conditions: p(0) = -gamma_y(Y_0) and
  q(T) = -phi_x(X_T) p(T) + h_x(X_T).
* The second adjoint (q, k, R) solves a linear backward equation.  Two
  regimes are implemented: an exact conditional closure q = cq + Pq * X for
  state-affine systems whose first adjoint is deterministic given the time
  change, which runs through the backward state's affine kernel
  (fbsde._affine_backward) with remapped coefficients, and a scalar
  backward ODE when the model flags its adjoints as conditionally
  deterministic.  Models outside both regimes are rejected loudly instead
  of being approximated silently.
* Candidate controls in the necessary-condition search are step functions
  of operational time (constants on a lattice plus randomized two-level
  switches), which keeps them adapted and feasible by construction.

Derivative coefficients come from ``model.derivatives`` closed forms when
present and otherwise from noise.central_difference, with step
1e-5 * (1 + |argument|), which is exact for the polynomial coefficient maps
used throughout.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .fbsde import (
    EnsembleSolution,
    FBSDESolution,
    ModelSpec,
    PathBundle,
    PerturbedControl,
    _affine_backward,
    _Batch,
    _batch_cost,
    _probe_affine,
    _single,
    _solver_grid,
    as_control,
    as_ensemble,
)
from .noise import central_difference
from .time_change import OperationalGrid

# argument slot of each differentiable state variable, by coefficient map
_ARG_POS = {
    "f": {"x": 2, "v": 3},
    "sigma": {"x": 2, "v": 3},
    "b": {"x": 2, "v": 3},
    "g": {"x": 2, "y": 3, "a": 4, "r": 5, "v": 6},
    "l": {"x": 2, "y": 3, "a": 4, "r": 5, "v": 6},
    "phi": {"x": 0},
    "h": {"x": 0},
    "gamma": {"y": 0},
}


def model_derivative(model: ModelSpec, name: str):
    """Partial derivative map ``<coefficient>_<argument>``, e.g. ``"f_x"``.

    Closed forms registered in ``model.derivatives`` win; the fallback is a
    central difference in the named slot.
    """
    if name in model.derivatives:
        return model.derivatives[name]
    target, _, arg = name.rpartition("_")
    if target not in _ARG_POS or arg not in _ARG_POS[target]:
        raise KeyError(f"unknown derivative name {name!r}")
    base = getattr(model, target)
    pos = _ARG_POS[target][arg]

    def fd(*args):
        out = central_difference(base, args, pos)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"non-finite derivative probe for {name}")
        return out

    return fd


# ---------------------------------------------------------------- Hamiltonian

def hamiltonian(model: ModelSpec, spec, t1, t2, x, y, a, r_nodes, v,
                p, q, k, R_nodes):
    """H at one point of the state/adjoint space; broadcasts over arrays.

    ``r_nodes`` and ``R_nodes`` carry one trailing axis over the quadrature
    nodes of ``spec``; every other argument is scalar per evaluation point.
    """
    z, _ = spec.quadrature()
    r_nodes = np.asarray(r_nodes, dtype=float)
    R_nodes = np.asarray(R_nodes, dtype=float)
    if r_nodes.shape[-1] != z.size or R_nodes.shape[-1] != z.size:
        raise ValueError(
            f"dimension mismatch: r/R tables need {z.size} quadrature nodes, "
            f"got {r_nodes.shape[-1]} and {R_nodes.shape[-1]}")
    t1, t2, x, y, a, v, p, q, k = np.broadcast_arrays(
        *(np.asarray(u, dtype=float)
          for u in (t1, t2, x, y, a, v, p, q, k)))
    e = (Ellipsis, None)
    fv = np.asarray(model.f(t1, t2, x, v), dtype=float)
    sv = np.asarray(model.sigma(t1, t2, x, v), dtype=float)
    bv = np.asarray(model.b(t1[e], t2[e], x[e], v[e], z), dtype=float)
    gv = np.asarray(model.g(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]),
                    dtype=float)
    lv = np.asarray(model.l(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]),
                    dtype=float)
    return q * fv + k * sv - spec.intensity * spec.integrate(p[e] * gv - lv - R_nodes * bv,
                                                             t1.shape)


def hamiltonian_grad_v(model: ModelSpec, spec, t1, t2, x, y, a, r_nodes, v,
                       p, q, k, R_nodes, fd_step: float = 1e-4):
    """dH/dv: closed form when the model carries one, else differences.

    The finite-difference stencil must stay inside the control set; near a
    box edge a second-order one-sided formula is used, and evaluation fails
    if neither direction has room.
    """
    if model.hamiltonian_v is not None:
        return np.asarray(model.hamiltonian_v(
            t1, t2, x, y, a, r_nodes, v, p, q, k, R_nodes, spec), dtype=float)
    box = model.control_set
    v = np.asarray(v, dtype=float)
    h = fd_step * (1.0 + np.abs(v))
    tol = 1e-12
    can_up = v + h <= box.hi + tol
    can_dn = v - h >= box.lo - tol
    central = can_up & can_dn
    fwd = ~central & (v + 2 * h <= box.hi + tol)
    bwd = ~central & ~fwd & (v - 2 * h >= box.lo - tol)
    if not np.all(central | fwd | bwd):
        raise ValueError("gradient stencil leaves the control set in both "
                         "directions; the box is narrower than the step")

    def H(vv):
        return hamiltonian(model, spec, t1, t2, x, y, a, r_nodes, vv,
                           p, q, k, R_nodes)

    h0, hp, hm = H(v), H(v + h), H(v - h)
    out = np.where(central, (hp - hm) / (2.0 * h), 0.0)
    if np.any(fwd):
        out = np.where(fwd, (-3.0 * h0 + 4.0 * hp - H(v + 2 * h)) / (2.0 * h), out)
    if np.any(bwd):
        out = np.where(bwd, (3.0 * h0 - 4.0 * hm + H(v - 2 * h)) / (2.0 * h), out)
    return out


# ------------------------------------------------------------------ adjoints

@dataclass
class AdjointSolution:
    """Adjoint pair on one path's operational grid.

    p and q live on grid points 0..K, the integrand processes k and R on
    the K step intervals (R nodewise against the jump quadrature).
    """

    grid: OperationalGrid
    calendar_times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    k: np.ndarray
    R: np.ndarray


@dataclass
class EnsembleAdjoint:
    """Adjoint pairs in the padded layout, row n holding path n of the
    ensemble.  Past its horizon a row holds t, p and q at their terminal
    values; k and R are zero there.  Index n gives path n's
    AdjointSolution as views (and iteration gives every path's).
    """

    K: np.ndarray
    du: float
    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    k: np.ndarray
    R: np.ndarray

    def __getitem__(self, n):
        k = int(self.K[n])
        return AdjointSolution(grid=_solver_grid(self.du, k),
                               calendar_times=self.t[n, : k + 1], p=self.p[n, : k + 1],
                               q=self.q[n, : k + 1], k=self.k[n, :k], R=self.R[n, :k])


def _one_row(bundle: PathBundle, sol: FBSDESolution) -> EnsembleSolution:
    """One path's solution as a one-row solved ensemble."""
    if sol.Y is None:
        raise ValueError("adjoint and variational systems need a solved "
                         "backward component on the base trajectory")
    return EnsembleSolution(K=np.array([bundle.solver_steps]),
                            du=bundle.subordinator.grid.step, t=sol.calendar_times[None],
                            X=sol.X[None], Y=sol.Y[None], A=sol.A[None], r=sol.r[None],
                            v=sol.control_values[None])


def _matching(K: np.ndarray, *padded):
    """Fail unless the padded results hold rows with step counts K."""
    if not all(np.array_equal(res.K, K) for res in padded):
        raise ValueError("grid mismatch: results and bundles disagree on the step counts")


def _nodes_interp(z_nodes: np.ndarray, rows: np.ndarray, zq: np.ndarray):
    """Row-wise linear interpolation of nodewise tables at query marks."""
    idx = np.clip(np.searchsorted(z_nodes, zq) - 1, 0, z_nodes.size - 2)
    z0, z1 = z_nodes[idx], z_nodes[idx + 1]
    frac = np.clip((zq - z0) / (z1 - z0), 0.0, 1.0)
    rr = np.arange(rows.shape[0])
    return rows[rr, idx] * (1.0 - frac) + rows[rr, idx + 1] * frac


def _p_forward_batch(model: ModelSpec, batch: _Batch, X, Y, A, r, v):
    """Forward Euler for the first adjoint over the padded batch."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    z, spec, lam = batch.znodes, batch.spec, batch.spec.intensity
    d_gy, d_ly, d_ga, d_la, d_gr, d_lr, d_gam = (model_derivative(model, name) for name in (
        "g_y", "l_y", "g_a", "l_a", "g_r", "l_r", "gamma_y"))
    p = np.empty((N, Kmax + 1))
    p[:, 0] = -np.asarray(d_gam(Y[:, 0]), dtype=float)
    for i in range(Kmax):
        act = i < batch.K
        u_i = i * du
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        pi = p[:, i]
        drift = lam * spec.integrate(d_gy(*args) * pi[:, None] - d_ly(*args), (N,))
        diff = lam * spec.integrate(d_ga(*args) * pi[:, None] - d_la(*args), (N,))
        comp = du * lam * spec.integrate(d_gr(*args) * pi[:, None] - d_lr(*args), (N,))
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            pe, ze = batch.ev_p[sl], batch.ev_z[sl]
            ev = (batch.t[pe, i], u_i, X[pe, i], Y[pe, i], A[pe, i],
                  _nodes_interp(z, r[pe, i, :], ze), v[pe, i])
            np.add.at(jump, pe, np.asarray(d_gr(*ev), dtype=float) * p[pe, i]
                      - np.asarray(d_lr(*ev), dtype=float))
        pn = pi + du * drift + batch.dB[:, i] * diff + jump - comp
        if np.any(act & ~np.isfinite(pn)):
            raise FloatingPointError(f"adjoint blow-up at step {i}")
        p[:, i + 1] = np.where(act, pn, pi)
    return p


def _affine_in_x(dfun, args, pos=2, tol=1e-8):
    """Probe a derivative map for affinity in x; return (const, slope)."""
    base = list(args)
    vals = []
    for xval in (0.0, 1.0, -1.0):
        probe = list(base)
        probe[pos] = np.asarray(xval)
        vals.append(np.asarray(dfun(*probe), dtype=float))
    c, s = vals[0], vals[1] - vals[0]
    if np.max(np.abs(vals[2] - (c - s))) > tol * (1.0 + np.max(np.abs(c))):
        raise NotImplementedError(
            "adjoint closure needs cost gradients affine in the state")
    return c, s


def _q_affine_batch(model: ModelSpec, batch: _Batch, X, Y, A, r, v, p):
    """Exact conditional closure q = cq + Pq X for affine systems.

    The second adjoint is a linear BSDE of the same implicit form as the
    backward state, so after probing the coefficients and the terminal
    pair this runs _affine_backward with remapped coefficients: the
    quadratic terms sigma_x^2 and int b_x^2 join the x-slope, the drift
    slope f_x takes the place of the driver's y-slope, the cost gradient
    and the -G_x p source form the driver, and there is no a- or r-term.
    Matching the Brownian and jump parts of q_{i+1} gives k and R.
    """
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, lam = batch.spec, batch.spec.intensity
    co = _probe_affine(model, batch, v)
    t, u = batch.t[:, :-1], np.arange(Kmax) * du
    z = batch.znodes
    d_lx = model_derivative(model, "l_x")
    d_hx = model_derivative(model, "h_x")
    # lam-integrated cost gradient, split into constant and x-slope parts;
    # the closure also needs that gradient free of (y, a, r)
    lx_args = (t[..., None], u[:, None], np.asarray(0.0), 0.0, 0.0,
               z * 0.0, v[..., None])
    probe_one = (t[..., None], u[:, None], np.asarray(0.0), 1.0, 1.0,
                 z * 0.0 + 1.0, v[..., None])
    gap = np.max(np.abs(np.asarray(d_lx(*probe_one), dtype=float)
                        - np.asarray(d_lx(*lx_args), dtype=float)))
    if gap > 1e-8:
        raise NotImplementedError(
            "adjoint closure needs cost gradients free of (y, a, r)")
    lc, ls = _affine_in_x(d_lx, lx_args)
    Lx0 = lam * spec.integrate(lc, v.shape)
    Lxx = lam * spec.integrate(ls, v.shape)
    hc, hs = _affine_in_x(d_hx, (np.asarray(0.0),), pos=0)
    pT = p[np.arange(N), batch.K]
    fx, sx, bx = co["fx"], co["sx"], co["bx"]
    qco = dict(co,
               fx=fx + sx ** 2 + lam * spec.integrate(bx ** 2, v.shape),
               f0=co["f0"] + sx * co["s0"] + lam * spec.integrate(bx * co["b0"], v.shape),
               Gy=fx, Gx=Lxx, G0=Lx0 - co["Gx"] * p[:, :-1], Ga=0.0, gr=0.0)
    q, k, R, _, _ = _affine_backward(batch, X, qco, np.full(N, float(hs)),
                                     -model.M_T * pT + float(hc))
    return q, k, R


def _q_ode_batch(model: ModelSpec, batch: _Batch, X, Y, A, r, v, p):
    """Backward implicit Euler for q when the adjoints carry no noise."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, lam = batch.spec, batch.spec.intensity
    d_fx, d_gx, d_lx, d_hx, d_px = (model_derivative(model, name) for name in (
        "f_x", "g_x", "l_x", "h_x", "phi_x"))
    XT = X[np.arange(N), batch.K]
    pT = p[np.arange(N), batch.K]
    qT = (-np.asarray(d_px(XT), dtype=float) * pT
          + np.asarray(d_hx(XT), dtype=float))
    qT = np.broadcast_to(qT, (N,)).astype(float)
    q = np.empty((N, Kmax + 1))
    q[:, Kmax] = qT
    for i in range(Kmax - 1, -1, -1):
        act = i < batch.K
        u_i = i * du
        qn = np.where(i + 1 <= batch.K, q[:, i + 1], qT)
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        fx = d_fx(batch.t[:, i], u_i, X[:, i], v[:, i])
        src = lam * spec.integrate(d_lx(*args) - d_gx(*args) * p[:, i, None], (N,))
        qi = (qn + du * src) / (1.0 - du * fx)
        q[:, i] = np.where(act, qi, qT)
    return q, np.zeros((N, Kmax)), np.zeros((N, Kmax, batch.w.size))


def _p_state_free(model: ModelSpec, batch: _Batch, X, Y, A, r, v) -> bool:
    """True when the first adjoint's coefficients ignore the state and
    carry no Brownian or jump loading, so p is a functional of the
    subordinator path alone."""
    z, w, lam = batch.znodes, batch.w, batch.spec.intensity
    t, u = batch.t[:, :-1], np.arange(batch.Kmax) * batch.du
    names = ("g_y", "l_y", "g_a", "l_a", "g_r", "l_r")
    shape = v.shape + (z.size,)
    base = (t[..., None], u[:, None], X[:, :-1, None], Y[:, :-1, None],
            A[..., None], r, v[..., None])
    zero = (t[..., None], u[:, None], np.asarray(0.0), 0.0, 0.0, z * 0.0,
            v[..., None])
    for name in names:
        d = model_derivative(model, name)
        vb = np.broadcast_to(np.asarray(d(*base), dtype=float), shape)
        vz = np.broadcast_to(np.asarray(d(*zero), dtype=float), shape)
        if np.max(np.abs(vb - vz)) > 1e-10 * (1.0 + np.max(np.abs(vb))):
            return False
        if name in ("g_a", "l_a", "g_r", "l_r") and np.max(np.abs(vb)) > 1e-12:
            return False
    return True


def solve_adjoint(model: ModelSpec, control, bundle: PathBundle,
                  solution: FBSDESolution, method=None) -> AdjointSolution:
    """Adjoint pair along one solved optimal trajectory."""
    return solve_adjoint_ensemble(model, control, [bundle], _one_row(bundle, solution),
                                  method=method)[0]


def solve_adjoint_ensemble(model: ModelSpec, control, bundles,
                           solutions: EnsembleSolution, method=None) -> EnsembleAdjoint:
    """Vectorized adjoint solve over an ensemble of solved trajectories.

    Regime selection: the affine closure when the model is state-affine
    with a linear terminal and a state-free first adjoint, the backward
    ODE when the model flags conditionally deterministic adjoints, and a
    loud refusal otherwise.
    """
    control = as_control(control)
    batch = as_ensemble(bundles).rows()
    _matching(batch.K, solutions)
    X, Y, v, A, r = solutions.X, solutions.Y, solutions.v, solutions.A, solutions.r
    p = _p_forward_batch(model, batch, X, Y, A, r, v)
    free = (method in (None, "affine") and model.affine_solvable
            and _p_state_free(model, batch, X, Y, A, r, v))
    if method is None:
        if free:
            method = "affine"
        elif model.adjoint_deterministic:
            method = "ode"
        else:
            raise NotImplementedError(
                "adjoint solver covers state-affine systems and models with "
                "conditionally deterministic adjoints only")
    if method == "affine":
        if not model.affine_solvable:
            raise ValueError("affine adjoint closure needs the linearity flags")
        if not free:
            raise NotImplementedError(
                "affine adjoint closure needs a state-free first adjoint")
        q, k, R = _q_affine_batch(model, batch, X, Y, A, r, v, p)
    elif method == "ode":
        q, k, R = _q_ode_batch(model, batch, X, Y, A, r, v, p)
    else:
        raise KeyError(f"unknown adjoint method {method!r}")
    g0 = np.asarray(model_derivative(model, "gamma_y")(Y[:, 0]), dtype=float)
    if np.any(np.abs(p[:, 0] + g0) > 1e-9 * (1.0 + np.abs(g0))):
        raise AssertionError("adjoint initial condition violated")
    rows = np.arange(batch.N)
    xT = X[rows, batch.K]
    tgt = (-np.asarray(model_derivative(model, "phi_x")(xT), dtype=float) * p[rows, batch.K]
           + np.asarray(model_derivative(model, "h_x")(xT), dtype=float))
    if np.any(np.abs(q[rows, batch.K] - tgt) > 1e-8 * (1.0 + np.abs(tgt))):
        raise AssertionError("adjoint terminal condition violated")
    return EnsembleAdjoint(K=batch.K, du=batch.du, t=batch.t, p=p, q=q, k=k, R=R)


# ------------------------------------------------------------- variational

@dataclass
class VariationalSolution:
    """First-order expansion of the state pair in a control direction."""

    grid: OperationalGrid
    calendar_times: np.ndarray
    X1: np.ndarray
    Y1: np.ndarray
    A1: np.ndarray
    r1: np.ndarray


def _quad_bar(dfun, batch, X, Y, A, r, v, i):
    """Jump-measure average of a driver derivative at one step."""
    u_i = i * batch.du
    vals = dfun(batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
    return batch.spec.integrate(vals, (batch.N,))


def _variational_batch(model: ModelSpec, control, direction, batch: _Batch,
                       X, Y, A, r, v):
    """Linearized forward/backward pair along the base trajectory."""
    if not (getattr(control, "state_free", False)
            and getattr(direction, "state_free", False)):
        raise NotImplementedError(
            "variational solver needs open-loop base and direction")
    if not model.affine_solvable:
        raise NotImplementedError(
            "variational solver covers state-affine models only")
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    z, lam = batch.znodes, batch.spec.intensity
    t, u = batch.t[:, :-1], np.arange(Kmax) * du
    Xl = X[:, :-1]
    full = (N, Kmax)
    fx, fv, sx, sv = (np.broadcast_to(np.asarray(
        model_derivative(model, name)(t, u, Xl, v), dtype=float), full)
        for name in ("f_x", "f_v", "sigma_x", "sigma_v"))
    d_bx, d_bv = model_derivative(model, "b_x"), model_derivative(model, "b_v")
    node_args = (t[..., None], u[:, None], Xl[..., None], v[..., None], z)
    bx, bv = (np.broadcast_to(np.asarray(d(*node_args), dtype=float), full + (z.size,))
              for d in (d_bx, d_bv))
    gbar = {name: np.empty(full)
            for name in ("g_x", "g_y", "g_a", "g_r", "g_v")}
    dmaps = {name: model_derivative(model, name) for name in gbar}
    X1 = np.empty((N, Kmax + 1))
    X1[:, 0] = 0.0
    vd = np.empty(full)
    for i in range(Kmax):
        act = i < batch.K
        u_i = i * du
        vd[:, i] = np.broadcast_to(np.asarray(
            direction.values_at(i, batch.t[:, i], u_i, X[:, i], batch.labels),
            dtype=float), (N,))
        for name in gbar:
            gbar[name][:, i] = _quad_bar(dmaps[name], batch, X, Y, A, r, v, i)
        x1 = X1[:, i]
        comp = du * lam * batch.spec.integrate(
            bx[:, i] * x1[:, None] + bv[:, i] * vd[:, i, None], (N,))
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            pe = batch.ev_p[sl]
            ev = (batch.t[pe, i], u_i, X[pe, i], v[pe, i], batch.ev_z[sl])
            np.add.at(jump, pe, np.asarray(d_bx(*ev), dtype=float) * x1[pe]
                      + np.asarray(d_bv(*ev), dtype=float) * vd[pe, i])
        xn = (x1 + (fx[:, i] * x1 + fv[:, i] * vd[:, i]) * du
              + (sx[:, i] * x1 + sv[:, i] * vd[:, i]) * batch.dB[:, i]
              + jump - comp)
        X1[:, i + 1] = np.where(act, xn, x1)
    d_px = model_derivative(model, "phi_x")
    XT = X[np.arange(N), batch.K]
    P_term = np.broadcast_to(np.asarray(d_px(XT), dtype=float), (N,)).astype(float)
    co = dict(fx=fx, f0=fv * vd, sx=sx, s0=sv * vd, bx=bx,
              b0=bv * vd[..., None],
              Gy=lam * gbar["g_y"], Gx=lam * gbar["g_x"],
              Ga=lam * gbar["g_a"], G0=lam * gbar["g_v"] * vd,
              gr=lam * gbar["g_r"])
    Y1, A1, r1, _, _ = _affine_backward(batch, X1, co, P_term, np.zeros(N))
    return X1, Y1, A1, r1, vd


def solve_variational(model: ModelSpec, control, direction,
                      bundle: PathBundle,
                      base: FBSDESolution) -> VariationalSolution:
    """First-order system in the given control direction on one path."""
    control = as_control(control)
    direction = as_control(direction)
    batch = _single(bundle)
    sol = _one_row(bundle, base)
    X1, Y1, A1, r1, _ = _variational_batch(model, control, direction, batch,
                                           sol.X, sol.Y, sol.A, sol.r, sol.v)
    k = batch.K[0]
    d_px = model_derivative(model, "phi_x")
    gap = abs(Y1[0, k] - float(np.asarray(d_px(sol.X[0, k]), dtype=float)) * X1[0, k])
    if gap > 1e-9 * (1.0 + abs(Y1[0, k])):
        raise AssertionError("variational terminal condition violated")
    return VariationalSolution(grid=bundle.solver_grid, calendar_times=batch.t[0, : k + 1],
                               X1=X1[0, : k + 1], Y1=Y1[0, : k + 1], A1=A1[0, :k], r1=r1[0, :k])


# ------------------------------------------------- expansion and gap checks

def remainder_convergence_check(model: ModelSpec, control, direction,
                                rhos, bundles, method=None) -> list:
    """First-order remainder norms for a shrinking perturbation size.

    Each row reports, at one rho, the four remainder norms of the
    expansion error (state sup-norm, backward sup-norm, integrated
    Brownian and jump integrand norms), all mean-square over the
    ensemble.  Common noise across rows makes the decay deterministic.
    """
    control = as_control(control)
    direction = as_control(direction)
    batch = as_ensemble(bundles).rows()
    _, X, Y, v, A, r = _batch_cost(model, control, batch, method=method)
    X1, Y1, A1, r1, _ = _variational_batch(model, control, direction, batch,
                                           X, Y, A, r, v)
    du, lam = batch.du, batch.spec.intensity
    rows = []
    for rho in rhos:
        pert = PerturbedControl(control, direction, float(rho))
        _, Xr, Yr, vr, Ar, rr = _batch_cost(model, pert, batch, method=method)
        Xt = (Xr - X) / rho - X1
        Yt = (Yr - Y) / rho - Y1
        At = (Ar - A) / rho - A1
        rt = (rr - r) / rho - r1
        rows.append(dict(
            rho=float(rho),
            x2=float(np.max(np.mean(Xt ** 2, axis=0))),
            y2=float(np.max(np.mean(Yt ** 2, axis=0))),
            a2=float(np.mean(np.sum(At ** 2, axis=1)) * du),
            r2=float(np.mean(np.sum(batch.spec.integrate(rt ** 2, rt.shape[:-1]), axis=1))
                     * du * lam),
        ))
    return rows


def gateaux_consistency_check(model: ModelSpec, control, direction,
                              rhos, bundles, method=None) -> list:
    """Difference quotients of the cost against the variational formula.

    The reference value integrates the cost gradients against the
    variational processes and adds the terminal and initial parts; the
    difference quotient uses the same noise, so their gap must shrink
    linearly in rho.
    """
    control = as_control(control)
    direction = as_control(direction)
    batch = as_ensemble(bundles).rows()
    vals_u, X, Y, v, A, r = _batch_cost(model, control, batch, method=method)
    X1, Y1, A1, r1, vd = _variational_batch(model, control, direction, batch,
                                            X, Y, A, r, v)
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    lam = batch.spec.intensity
    names = ("l_x", "l_y", "l_a", "l_r", "l_v")
    dmaps = {name: model_derivative(model, name) for name in names}
    rhs_p = np.zeros(N)
    for i in range(Kmax):
        act = i < batch.K
        u_i = i * du
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        lx, ly, la, lr, lv = (dmaps[name](*args) for name in names)
        integrand = (lx * X1[:, i, None] + ly * Y1[:, i, None]
                     + la * A1[:, i, None] + lr * r1[:, i, :]
                     + lv * vd[:, i, None])
        rhs_p += np.where(act, lam * du * batch.spec.integrate(integrand, (N,)), 0.0)
    d_hx = model_derivative(model, "h_x")
    d_gam = model_derivative(model, "gamma_y")
    XT = X[np.arange(N), batch.K]
    X1T = X1[np.arange(N), batch.K]
    rhs_p += np.asarray(d_hx(XT), dtype=float) * X1T
    rhs_p += np.asarray(d_gam(Y[:, 0]), dtype=float) * Y1[:, 0]
    rhs = float(rhs_p.mean())
    rows = []
    for rho in rhos:
        pert = PerturbedControl(control, direction, float(rho))
        vals_r, _, _, _, _, _ = _batch_cost(model, pert, batch, method=method)
        lhs_p = (vals_r - vals_u) / rho
        gap = lhs_p - rhs_p
        rows.append(dict(
            rho=float(rho),
            lhs=float(lhs_p.mean()),
            rhs=rhs,
            diff=abs(float(gap.mean())),
            se=float(gap.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0,
        ))
    return rows


# ------------------------------------------------------ optimality condition

@dataclass
class NecessaryReport:
    """Margin search result over a sampled family of feasible candidates."""

    min_margin: float
    std_error: float
    witness: dict
    margins: list
    count: int
    seed: int


def check_necessary_condition(model: ModelSpec, control, bundles, solutions,
                              adjoints, *, count: int = 64,
                              seed: int = 0) -> NecessaryReport:
    """Directional-derivative margins against sampled feasible candidates.

    The margin of candidate w is the ensemble mean of the integral of
    <H_v, w - u> along the base trajectory; at a minimizer every margin
    is nonnegative up to Monte Carlo error, and the candidate w = u sits
    at exactly zero.
    """
    if count < 1:
        raise ValueError("candidate set is empty")
    control = as_control(control)
    ens = as_ensemble(bundles)
    K, du = ens.K, ens.du
    N, Kmax = K.size, int(K.max())
    _matching(K, solutions, adjoints)
    X, Y, v = solutions.X, solutions.Y, solutions.v
    Hv = hamiltonian_grad_v(model, ens.spec, solutions.t[:, :-1], np.arange(Kmax) * du,
                            X[:, :-1], Y[:, :-1], solutions.A, solutions.r, v,
                            adjoints.p[:, :-1], adjoints.q[:, :-1], adjoints.k, adjoints.R)
    act = np.arange(Kmax)[None, :] < K[:, None]
    weight = np.where(act, du, 0.0)
    lo, hi = model.control_set.lo, model.control_set.hi
    if not np.isfinite(lo):
        lo = float(v.min()) - 1.0
    if not np.isfinite(hi):
        hi = float(v.max()) + 1.0
    rng = np.random.default_rng(seed)
    candidates = [("current", {}, v)]
    n_const = max((count - 1) // 2, 0)
    for c in np.linspace(lo, hi, n_const) if n_const else []:
        candidates.append(("constant", {"value": float(c)},
                           np.full((1, Kmax), float(c))))
    while len(candidates) < count:
        s = int(rng.integers(0, Kmax))
        levels = rng.uniform(lo, hi, size=2)
        vals = np.where(np.arange(Kmax) < s, levels[0], levels[1])
        candidates.append(("switch",
                           {"switch_step": s, "levels": levels.tolist()},
                           vals[None, :]))
    rows = []
    for idx, (kind, desc, vals) in enumerate(candidates[:count]):
        per_path = np.sum(weight * Hv * (vals - v), axis=1)
        se = float(per_path.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
        rows.append(dict(index=idx, kind=kind, margin=float(per_path.mean()),
                         se=se, **desc))
    best = min(rows, key=lambda row: row["margin"])
    return NecessaryReport(
        min_margin=best["margin"], std_error=best["se"], witness=dict(best),
        margins=rows, count=count, seed=seed)


@dataclass
class SufficiencyReport:
    """Convexity and structure probes behind the sufficient condition.

    Purely informational: violations are reported, never raised, since a
    failed hypothesis only means the sufficiency route is unavailable.
    """

    hamiltonian_convex: bool
    h_convex: bool
    gamma_convex: bool
    worst_hamiltonian_gap: float
    worst_h_gap: float
    worst_gamma_gap: float
    terminal_gap: float | None
    n_samples: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def check_sufficient_condition_hypotheses(model: ModelSpec, spec, *,
                                          solution: FBSDESolution = None,
                                          n_samples: int = 200, seed: int = 0,
                                          spread: float = 1.5) -> SufficiencyReport:
    """Midpoint-convexity cloud for H, h and gamma, plus the terminal link.

    Convexity in (x, y, a, r, v) is probed jointly at random pairs with
    the adjoint frame held fixed; a positive midpoint gap beyond rounding
    is a violation.  When the model declares a linear terminal and a
    solved trajectory is supplied, the structural identity between Y_T
    and M_T X_T is measured on it.
    """
    z, _ = spec.quadrature()
    rng = np.random.default_rng(seed)
    lo, hi = model.control_set.lo, model.control_set.hi
    if not np.isfinite(lo):
        lo = -1.0 - spread
    if not np.isfinite(hi):
        hi = 1.0 + spread
    n = int(n_samples)
    t1 = rng.uniform(0.0, 1.0, n)
    t2 = rng.uniform(0.0, 1.0, n)
    frame = {name: rng.normal(0.0, spread, n) for name in ("p", "q", "k")}
    Rn = rng.normal(0.0, spread, (n, z.size))

    def draw_point():
        return (rng.normal(0.0, spread, n), rng.normal(0.0, spread, n),
                rng.normal(0.0, spread, n), rng.normal(0.0, spread, (n, z.size)),
                rng.uniform(lo, hi, n))

    x1, y1, a1, r1, v1 = draw_point()
    x2, y2, a2, r2, v2 = draw_point()

    def H(xx, yy, aa, rr, vv):
        return hamiltonian(model, spec, t1, t2, xx, yy, aa, rr, vv,
                           frame["p"], frame["q"], frame["k"], Rn)

    H1 = H(x1, y1, a1, r1, v1)
    H2 = H(x2, y2, a2, r2, v2)
    Hm = H(0.5 * (x1 + x2), 0.5 * (y1 + y2), 0.5 * (a1 + a2),
           0.5 * (r1 + r2), 0.5 * (v1 + v2))
    scale = 1.0 + np.max(np.abs(np.concatenate([H1, H2])))
    worst_H = float(np.max(Hm - 0.5 * (H1 + H2)))

    def midpoint_gap(fn, a, b):
        fa, fb, fm = (np.asarray(fn(w), dtype=float) for w in (a, b, 0.5 * (a + b)))
        return float(np.max(fm - 0.5 * (fa + fb)))

    worst_h, worst_g = midpoint_gap(model.h, x1, x2), midpoint_gap(model.gamma, y1, y2)
    tol = 1e-9 * scale
    terminal_gap = None
    if solution is not None and model.linear_terminal and solution.Y is not None:
        terminal_gap = float(abs(solution.Y[-1] - model.M_T * solution.X[-1]))
    return SufficiencyReport(
        hamiltonian_convex=bool(worst_H <= tol),
        h_convex=bool(worst_h <= tol),
        gamma_convex=bool(worst_g <= tol),
        worst_hamiltonian_gap=worst_H,
        worst_h_gap=worst_h,
        worst_gamma_gap=worst_g,
        terminal_gap=terminal_gap,
        n_samples=n,
        seed=seed,
    )


# ------------------------------------------------------------------- report

def _format_rows(rows) -> str:
    if not rows:
        return "  (empty)"
    keys = list(rows[0].keys())
    head = "  " + "  ".join(f"{k:>12}" for k in keys)
    body = []
    for row in rows:
        cells = []
        for k in keys:
            val = row.get(k, "")
            if isinstance(val, float):
                cells.append(f"{val:>12.6g}")
            else:
                cells.append(f"{str(val):>12}")
        body.append("  " + "  ".join(cells))
    return "\n".join([head] + body)


@dataclass
class OptimalityReport:
    """Everything the certification run measured, in one serializable bag."""

    min_margin: float
    margin_se: float
    witness: dict
    gap_table: list = field(default_factory=list)
    convergence_table: list = field(default_factory=list)
    remainder_table: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        parts = [
            "optimality certificate",
            f"  min margin {self.min_margin:.6g} (se {self.margin_se:.6g})",
            f"  witness {self.witness}",
            "cost gaps",
            _format_rows(self.gap_table),
            "difference-quotient consistency",
            _format_rows(self.convergence_table),
            "expansion remainders",
            _format_rows(self.remainder_table),
            "meta",
        ]
        for key in sorted(self.meta):
            parts.append(f"  {key} = {self.meta[key]}")
        return "\n".join(parts)
