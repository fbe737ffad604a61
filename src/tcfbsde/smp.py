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
from dataclasses import dataclass, field

import numpy as np

from .fbsde import (
    FBSDESolution,
    ModelSpec,
    PathBundle,
    PerturbedControl,
    _affine_backward,
    _Batch,
    _batch_cost,
    _probe_affine,
    as_control,
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
    z, w = spec.quadrature()
    r_nodes = np.asarray(r_nodes, dtype=float)
    R_nodes = np.asarray(R_nodes, dtype=float)
    if r_nodes.shape[-1] != z.size or R_nodes.shape[-1] != z.size:
        raise ValueError(
            f"dimension mismatch: r/R tables need {z.size} quadrature nodes, "
            f"got {r_nodes.shape[-1]} and {R_nodes.shape[-1]}")
    t1, t2, x, y, a, v, p, q, k = np.broadcast_arrays(
        *(np.asarray(u, dtype=float)
          for u in (t1, t2, x, y, a, v, p, q, k)))
    shape = t1.shape + (z.size,)
    r_nodes = np.broadcast_to(r_nodes, shape)
    R_nodes = np.broadcast_to(R_nodes, shape)
    e = (Ellipsis, None)
    fv = np.asarray(model.f(t1, t2, x, v), dtype=float)
    sv = np.asarray(model.sigma(t1, t2, x, v), dtype=float)
    bv = np.asarray(model.b(t1[e], t2[e], x[e], v[e], z), dtype=float)
    gv = np.asarray(model.g(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]),
                    dtype=float)
    lv = np.asarray(model.l(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]),
                    dtype=float)
    inner = np.broadcast_to(p[e] * gv - lv - R_nodes * bv, shape)
    return q * fv + k * sv - spec.intensity * (inner @ w)


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
    z, w, lam = batch.znodes, batch.w, batch.spec.intensity
    d_gy = model_derivative(model, "g_y")
    d_ly = model_derivative(model, "l_y")
    d_ga = model_derivative(model, "g_a")
    d_la = model_derivative(model, "l_a")
    d_gr = model_derivative(model, "g_r")
    d_lr = model_derivative(model, "l_r")
    d_gam = model_derivative(model, "gamma_y")
    p = np.empty((N, Kmax + 1))
    p[:, 0] = -np.asarray(d_gam(Y[:, 0]), dtype=float)
    for i in range(Kmax):
        act = i < batch.K
        u_i = i * du
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        pi = p[:, i]
        shape = (N, z.size)
        gy = np.broadcast_to(np.asarray(d_gy(*args), dtype=float), shape)
        ly = np.broadcast_to(np.asarray(d_ly(*args), dtype=float), shape)
        ga = np.broadcast_to(np.asarray(d_ga(*args), dtype=float), shape)
        la = np.broadcast_to(np.asarray(d_la(*args), dtype=float), shape)
        gr = np.broadcast_to(np.asarray(d_gr(*args), dtype=float), shape)
        lr = np.broadcast_to(np.asarray(d_lr(*args), dtype=float), shape)
        drift = lam * ((gy * pi[:, None] - ly) @ w)
        diff = lam * ((ga * pi[:, None] - la) @ w)
        comp = du * lam * ((gr * pi[:, None] - lr) @ w)
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            pe, ze = batch.ev_p[sl], batch.ev_z[sl]
            re = _nodes_interp(z, r[pe, i, :], ze)
            gre = np.asarray(d_gr(batch.t[pe, i], u_i, X[pe, i], Y[pe, i],
                                  A[pe, i], re, v[pe, i]), dtype=float)
            lre = np.asarray(d_lr(batch.t[pe, i], u_i, X[pe, i], Y[pe, i],
                                  A[pe, i], re, v[pe, i]), dtype=float)
            np.add.at(jump, pe, gre * p[pe, i] - lre)
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
    w, lam = batch.w, batch.spec.intensity
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
    shape = v.shape + (z.size,)
    Lx0 = lam * (np.broadcast_to(lc, shape) @ w)
    Lxx = lam * (np.broadcast_to(ls, shape) @ w)
    hc, hs = _affine_in_x(d_hx, (np.asarray(0.0),), pos=0)
    pT = p[np.arange(N), batch.K]
    fx, sx, bx = co["fx"], co["sx"], co["bx"]
    zero = np.zeros_like(fx)
    qco = dict(co,
               fx=fx + sx ** 2 + lam * np.einsum("nkq,q->nk", bx ** 2, w),
               f0=co["f0"] + sx * co["s0"] + lam * np.einsum("nkq,q->nk", bx * co["b0"], w),
               Gy=fx, Gx=Lxx, G0=Lx0 - co["Gx"] * p[:, :-1], Ga=zero, gr=zero)
    q, k, R, _, _ = _affine_backward(batch, X, qco, np.full(N, float(hs)),
                                     -model.M_T * pT + float(hc))
    return q, k, R


def _q_ode_batch(model: ModelSpec, batch: _Batch, X, Y, A, r, v, p):
    """Backward implicit Euler for q when the adjoints carry no noise."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    z, w, lam = batch.znodes, batch.w, batch.spec.intensity
    d_fx = model_derivative(model, "f_x")
    d_gx = model_derivative(model, "g_x")
    d_lx = model_derivative(model, "l_x")
    d_hx = model_derivative(model, "h_x")
    d_px = model_derivative(model, "phi_x")
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
        shape = (N, z.size)
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        gx = np.broadcast_to(np.asarray(d_gx(*args), dtype=float), shape)
        lx = np.broadcast_to(np.asarray(d_lx(*args), dtype=float), shape)
        fx = np.asarray(d_fx(batch.t[:, i], u_i, X[:, i], v[:, i]), dtype=float)
        src = lam * ((lx - gx * p[:, i, None]) @ w)
        qi = (qn + du * src) / (1.0 - du * np.broadcast_to(fx, (N,)))
        q[:, i] = np.where(act, qi, qT)
    return q, np.zeros((N, Kmax)), np.zeros((N, Kmax, w.size))


def _padded_state(batch: _Batch, solutions):
    """Stack per-path solutions into the padded batch layout."""
    N, Kmax, Q = batch.N, batch.Kmax, batch.w.size
    X = np.empty((N, Kmax + 1))
    Y = np.empty((N, Kmax + 1))
    v = np.zeros((N, Kmax))
    A = np.zeros((N, Kmax))
    r = np.zeros((N, Kmax, Q))
    for pth, sol in enumerate(solutions):
        k = batch.K[pth]
        if sol.Y is None:
            raise ValueError("adjoint and variational systems need a solved "
                             "backward component on the base trajectory")
        X[pth, : k + 1] = sol.X
        X[pth, k:] = sol.X[k]
        Y[pth, : k + 1] = sol.Y
        Y[pth, k:] = sol.Y[k]
        if k > 0:
            v[pth, :k] = sol.control_values[:k]
            v[pth, k:] = sol.control_values[k - 1]
            A[pth, :k] = sol.A[:k]
            r[pth, :k, :] = sol.r[:k, :]
    return X, Y, v, A, r


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
    out = solve_adjoint_ensemble(model, control, [bundle], [solution],
                                 method=method)
    return out[0]


def solve_adjoint_ensemble(model: ModelSpec, control, bundles, solutions,
                           method=None) -> list:
    """Vectorized adjoint solve over an ensemble of solved trajectories.

    Regime selection: the affine closure when the model is state-affine
    with a linear terminal and a state-free first adjoint, the backward
    ODE when the model flags conditionally deterministic adjoints, and a
    loud refusal otherwise.
    """
    control = as_control(control)
    batch = _Batch(list(bundles))
    X, Y, v, A, r = _padded_state(batch, list(solutions))
    p = _p_forward_batch(model, batch, X, Y, A, r, v)
    if method is None:
        if model.affine_solvable and _p_state_free(model, batch, X, Y, A, r, v):
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
        if not _p_state_free(model, batch, X, Y, A, r, v):
            raise NotImplementedError(
                "affine adjoint closure needs a state-free first adjoint")
        q, k, R = _q_affine_batch(model, batch, X, Y, A, r, v, p)
    elif method == "ode":
        q, k, R = _q_ode_batch(model, batch, X, Y, A, r, v, p)
    else:
        raise KeyError(f"unknown adjoint method {method!r}")
    d_gam = model_derivative(model, "gamma_y")
    d_hx = model_derivative(model, "h_x")
    d_px = model_derivative(model, "phi_x")
    out = []
    for pth, bnd in enumerate(batch.bundles):
        kk = batch.K[pth]
        sol = AdjointSolution(
            grid=bnd.solver_grid,
            calendar_times=batch.t[pth, : kk + 1].copy(),
            p=p[pth, : kk + 1].copy(),
            q=q[pth, : kk + 1].copy(),
            k=k[pth, :kk].copy(),
            R=R[pth, :kk, :].copy(),
        )
        g0 = float(np.asarray(d_gam(Y[pth, 0]), dtype=float))
        if abs(sol.p[0] + g0) > 1e-9 * (1.0 + abs(g0)):
            raise AssertionError("adjoint initial condition violated")
        xT = X[pth, kk]
        tgt = (-float(np.asarray(d_px(xT), dtype=float)) * sol.p[-1]
               + float(np.asarray(d_hx(xT), dtype=float)))
        if abs(sol.q[-1] - tgt) > 1e-8 * (1.0 + abs(tgt)):
            raise AssertionError("adjoint terminal condition violated")
        out.append(sol)
    return out


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
    vals = np.asarray(
        dfun(batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
             A[:, i, None], r[:, i, :], v[:, i, None]), dtype=float)
    return np.broadcast_to(vals, (batch.N, batch.w.size)) @ batch.w


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
    z, w, lam = batch.znodes, batch.w, batch.spec.intensity
    t, u = batch.t[:, :-1], np.arange(Kmax) * du
    Xl = X[:, :-1]
    d_fx = model_derivative(model, "f_x")
    d_fv = model_derivative(model, "f_v")
    d_sx = model_derivative(model, "sigma_x")
    d_sv = model_derivative(model, "sigma_v")
    d_bx = model_derivative(model, "b_x")
    d_bv = model_derivative(model, "b_v")
    full = (N, Kmax)
    fx = np.broadcast_to(np.asarray(d_fx(t, u, Xl, v), dtype=float), full)
    fv = np.broadcast_to(np.asarray(d_fv(t, u, Xl, v), dtype=float), full)
    sx = np.broadcast_to(np.asarray(d_sx(t, u, Xl, v), dtype=float), full)
    sv = np.broadcast_to(np.asarray(d_sv(t, u, Xl, v), dtype=float), full)
    node_args = (t[..., None], u[:, None], Xl[..., None], v[..., None], z)
    bx = np.broadcast_to(np.asarray(d_bx(*node_args), dtype=float),
                         full + (z.size,))
    bv = np.broadcast_to(np.asarray(d_bv(*node_args), dtype=float),
                         full + (z.size,))
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
        comp = du * lam * (((bx[:, i] * x1[:, None] + bv[:, i] * vd[:, i, None])
                            @ w))
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            pe, ze = batch.ev_p[sl], batch.ev_z[sl]
            bxe = np.asarray(d_bx(batch.t[pe, i], u_i, X[pe, i], v[pe, i], ze),
                             dtype=float)
            bve = np.asarray(d_bv(batch.t[pe, i], u_i, X[pe, i], v[pe, i], ze),
                             dtype=float)
            np.add.at(jump, pe, bxe * x1[pe] + bve * vd[pe, i])
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
    batch = _Batch([bundle])
    X, Y, v, A, r = _padded_state(batch, [base])
    X1, Y1, A1, r1, _ = _variational_batch(model, control, direction, batch,
                                           X, Y, A, r, v)
    k = batch.K[0]
    d_px = model_derivative(model, "phi_x")
    gap = abs(Y1[0, k] - float(np.asarray(d_px(X[0, k]), dtype=float)) * X1[0, k])
    if gap > 1e-9 * (1.0 + abs(Y1[0, k])):
        raise AssertionError("variational terminal condition violated")
    return VariationalSolution(
        grid=bundle.solver_grid,
        calendar_times=batch.t[0, : k + 1].copy(),
        X1=X1[0, : k + 1].copy(),
        Y1=Y1[0, : k + 1].copy(),
        A1=A1[0, :k].copy(),
        r1=r1[0, :k, :].copy(),
    )


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
    batch = _Batch(list(bundles))
    _, X, Y, v, A, r = _batch_cost(model, control, batch, method=method)
    X1, Y1, A1, r1, _ = _variational_batch(model, control, direction, batch,
                                           X, Y, A, r, v)
    du, lam, w = batch.du, batch.spec.intensity, batch.w
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
            r2=float(np.mean(np.sum((rt ** 2) @ w, axis=1)) * du * lam),
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
    batch = _Batch(list(bundles))
    vals_u, X, Y, v, A, r = _batch_cost(model, control, batch, method=method)
    X1, Y1, A1, r1, vd = _variational_batch(model, control, direction, batch,
                                            X, Y, A, r, v)
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    lam, w = batch.spec.intensity, batch.w
    names = ("l_x", "l_y", "l_a", "l_r", "l_v")
    dmaps = {name: model_derivative(model, name) for name in names}
    rhs_p = np.zeros(N)
    for i in range(Kmax):
        act = i < batch.K
        u_i = i * du
        args = (batch.t[:, i, None], u_i, X[:, i, None], Y[:, i, None],
                A[:, i, None], r[:, i, :], v[:, i, None])
        shape = (N, w.size)
        lx = np.broadcast_to(np.asarray(dmaps["l_x"](*args), dtype=float), shape)
        ly = np.broadcast_to(np.asarray(dmaps["l_y"](*args), dtype=float), shape)
        la = np.broadcast_to(np.asarray(dmaps["l_a"](*args), dtype=float), shape)
        lr = np.broadcast_to(np.asarray(dmaps["l_r"](*args), dtype=float), shape)
        lv = np.broadcast_to(np.asarray(dmaps["l_v"](*args), dtype=float), shape)
        integrand = (lx * X1[:, i, None] + ly * Y1[:, i, None]
                     + la * A1[:, i, None] + lr * r1[:, i, :]
                     + lv * vd[:, i, None])
        rhs_p += np.where(act, lam * du * (integrand @ w), 0.0)
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
    batch = _Batch(list(bundles))
    X, Y, v, A, r = _padded_state(batch, list(solutions))
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    p = np.zeros((N, Kmax + 1))
    q = np.zeros((N, Kmax + 1))
    k = np.zeros((N, Kmax))
    R = np.zeros((N, Kmax, batch.w.size))
    for pth, adj in enumerate(adjoints):
        kk = batch.K[pth]
        p[pth, : kk + 1] = adj.p
        q[pth, : kk + 1] = adj.q
        if kk > 0:
            p[pth, kk:] = adj.p[-1]
            q[pth, kk:] = adj.q[-1]
            k[pth, :kk] = adj.k
            R[pth, :kk, :] = adj.R
    u_grid = np.arange(Kmax) * du
    Hv = hamiltonian_grad_v(model, batch.spec, batch.t[:, :-1], u_grid,
                            X[:, :-1], Y[:, :-1], A, r, v,
                            p[:, :-1], q[:, :-1], k, R)
    act = np.arange(Kmax)[None, :] < batch.K[:, None]
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
        return {
            "hamiltonian_convex": self.hamiltonian_convex,
            "h_convex": self.h_convex,
            "gamma_convex": self.gamma_convex,
            "worst_hamiltonian_gap": self.worst_hamiltonian_gap,
            "worst_h_gap": self.worst_h_gap,
            "worst_gamma_gap": self.worst_gamma_gap,
            "terminal_gap": self.terminal_gap,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


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
    hx1 = np.asarray(model.h(x1), dtype=float)
    hx2 = np.asarray(model.h(x2), dtype=float)
    hxm = np.asarray(model.h(0.5 * (x1 + x2)), dtype=float)
    worst_h = float(np.max(hxm - 0.5 * (hx1 + hx2)))
    gy1 = np.asarray(model.gamma(y1), dtype=float)
    gy2 = np.asarray(model.gamma(y2), dtype=float)
    gym = np.asarray(model.gamma(0.5 * (y1 + y2)), dtype=float)
    worst_g = float(np.max(gym - 0.5 * (gy1 + gy2)))
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
        return {
            "min_margin": self.min_margin,
            "margin_se": self.margin_se,
            "witness": self.witness,
            "gap_table": self.gap_table,
            "convergence_table": self.convergence_table,
            "remainder_table": self.remainder_table,
            "meta": self.meta,
        }

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
