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
* The first adjoint p and the variational state X1 are forward systems,
  linear in their own state, and run through the state's forward loop
  (fbsde._euler) with its slope/intercept step (fbsde._affine_step), built
  once from a coefficient record: p's from lam int g_y and lam int l_y,
  X1's from the maps' partials along the base rows, which its backward
  half (Y1, A1, r1) reads too.
* The second adjoint (q, k, R) solves a linear backward equation by one
  regime: the exact conditional closure q = cq + Pq * X, run through the
  backward state's affine kernel (fbsde._affine_backward) with remapped
  coefficients.  It covers affine systems with a linear terminal whose
  first adjoint is deterministic given the time change; any other model
  is rejected loudly instead of being approximated silently.
* The adjoints, the margins and the expansion check read the solved
  rows, and the control from their rates (solutions.v) alone.
* Candidate controls in the necessary-condition search are step functions
  of operational time (constants on a lattice plus randomized two-level
  switches), which keeps them adapted and feasible by construction; so
  every margin is a read of each row's prefix sums of du H_v, taken once,
  not a product over the rows per candidate.

Every partial of a model map comes from fbsde.model_derivative, by the
one rule of ModelSpec: a registered closed form, else 0.0 in an argument
the map never reads, else the exact 0/1 difference in a slot an affine
model declares affine, else a central difference.  The state slopes of
p, q and X1 are the affine probe's (fbsde._probe_affine), taken once per
solve; X1's probe takes the slopes alone, as it supplies its own
intercepts.  dH/dv goes the same way: H is linear in its maps, so
hamiltonian_grad_v is H's form over their v-partials.  expansion_check
measures the first-order (Gateaux) expansion of the cost in a control
direction, its difference quotients and its remainders, from the solved
rows, one variational and one perturbed solve per step size.
"""

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .fbsde import (
    EnsembleSolution,
    FBSDESolution,
    ModelSpec,
    PathBundle,
    PerturbedControl,
    StepwiseControl,
    _ARG_POS,
    _affine_backward,
    _affine_step,
    _Batch,
    _batch_cost,
    _euler,
    _may_read,
    _open_loop,
    _probe_affine,
    _row_cost,
    _single,
    _solver_grid,
    _sorted_batches,
    _step_args,
    _step_sum,
    as_control,
    as_ensemble,
    model_derivative,
)
from .seeding import _integer
from .time_change import OperationalGrid


# ---------------------------------------------------------------- Hamiltonian

def _structural_zero(a) -> bool:
    """True for an array that is zero by construction: every stride 0 and
    its one value 0, as np.broadcast_to(0.0, shape) makes it.  Reading
    this costs O(1); a real array of zeros does not count."""
    return not any(a.strides) and (a.size == 0 or a.flat[0] == 0.0)


# the maps H is formed over, by name
_H_MAPS = ("f", "sigma", "b", "g", "l")


def _hamiltonian_form(maps, spec, t1, t2, x, y, a, r_nodes, v, p, q, k, R_nodes):
    """<q, f> + <k, sigma> - lam int [p g - l - R b] over the five maps
    ``maps`` returns by name (_H_MAPS); H is linear in them, so the same
    form over their v-partials is dH/dv.  When R is a
    structural zero (_structural_zero, as cash_adjoints gives it) b is not
    evaluated and p g - l is integrated alone, at the shape it comes in."""
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
    f, sigma, b, g, l = (maps(name) for name in _H_MAPS)
    fv = np.asarray(f(t1, t2, x, v), dtype=float)
    sv = np.asarray(sigma(t1, t2, x, v), dtype=float)
    gv = np.asarray(g(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]), dtype=float)
    lv = np.asarray(l(t1[e], t2[e], x[e], y[e], a[e], r_nodes, v[e]), dtype=float)
    head = p[e] * gv - lv
    if not _structural_zero(R_nodes):
        # p g - l - R b in one nodewise buffer: R b is built in it and
        # p g - l subtracted into it in place, so no second full-size
        # temporary is made
        bv = np.asarray(b(t1[e], t2[e], x[e], v[e], z), dtype=float)
        rb = np.multiply(R_nodes, bv, out=np.empty(np.broadcast_shapes(
            head.shape, R_nodes.shape, bv.shape)))
        head = np.subtract(head, rb, out=rb)
    return q * fv + k * sv - spec.intensity * spec.integrate(head, t1.shape)


def hamiltonian(model: ModelSpec, spec, t1, t2, x, y, a, r_nodes, v,
                p, q, k, R_nodes):
    """H at one point of the state/adjoint space; broadcasts over arrays.

    ``r_nodes`` and ``R_nodes`` carry one trailing axis over the quadrature
    nodes of ``spec``; every other argument is scalar per evaluation point.
    """
    return _hamiltonian_form(lambda name: getattr(model, name), spec, t1, t2, x, y, a,
                             r_nodes, v, p, q, k, R_nodes)


def hamiltonian_grad_v(model: ModelSpec, spec, t1, t2, x, y, a, r_nodes, v,
                       p, q, k, R_nodes):
    """dH/dv: H's form taken over the v-partials of its maps, as
    model_derivative gives them."""
    return _hamiltonian_form(lambda name: model_derivative(model, name + "_v"), spec,
                             t1, t2, x, y, a, r_nodes, v, p, q, k, R_nodes)


def _grad_v_reads_state(model: ModelSpec) -> bool:
    """Whether dH/dv may read x, y, a or r.  False only when every map of H
    registers its v-partial and that partial's code provably reads none of
    them (_may_read); the partial of a map that registers none may read
    them."""
    for name in _H_MAPS:
        d = model.derivatives.get(f"{name}_v")
        if d is None or any(_may_read(d, pos) for slot, pos in _ARG_POS[name].items()
                            if slot != "v"):
            return True
    return False


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


def _p_forward_batch(model: ModelSpec, batch: _Batch, X, Y, A, r, v, co):
    """The first adjoint by the affine forward step on the live rows,
    p_{i+1} = p_i + du (lam int g_y p_i - lam int l_y) from
    p_0 = -gamma_y(Y_0): its record is fx = lam int g_y, the slope Gy of
    the affine probe ``co`` (_probe_affine at the solved v), and
    f0 = -lam int l_y along the solved rows, with no Brownian or jump
    loading.  That is the closure's first adjoint: _closure_check, run
    before the probe is taken, holds g_y and l_y free of the state and
    bounds g_a, l_a, g_r and l_r by 1e-12."""
    ly = batch.spec.intensity * batch.spec.integrate(
        model_derivative(model, "l_y")(*_step_args(batch, None, X, Y, A, r, v)),
        (batch.N, batch.Kmax))
    pco = dict(fx=co["Gy"], f0=-ly, sx=0.0, s0=0.0, ibx=0.0, ib0=0.0)
    p0 = -model_derivative(model, "gamma_y")(Y[:, 0])
    return _euler(batch, p0, _affine_step(batch, pco, 0.0, 0.0), "adjoint")


def _absmax(a) -> float:
    """max |a|, 0 on an empty array (a batch of zero-step paths)."""
    return float(np.max(np.abs(a), initial=0.0))


def _affine_in_x(dfun, args, pos=2):
    """Probe a derivative map for affinity in x (to 1e-8); return (const, slope)."""
    base = list(args)
    vals = []
    for xval in (0.0, 1.0, -1.0):
        probe = list(base)
        probe[pos] = np.asarray(xval)
        vals.append(dfun(*probe))
    c, s = vals[0], vals[1] - vals[0]
    if _absmax(vals[2] - (c - s)) > 1e-8 * (1.0 + _absmax(c)):
        raise NotImplementedError(
            "adjoint closure needs cost gradients affine in the state")
    return c, s


def _q_affine_batch(model: ModelSpec, batch: _Batch, X, p, co, Lx0, Lxx, hc, hs):
    """Exact conditional closure q = cq + Pq X for affine systems.

    The second adjoint is a linear BSDE of the same implicit form as the
    backward state, so from the affine probe ``co`` that p read too
    (_probe_affine at the solved v) and the probed terminal pair this runs
    _affine_backward with remapped coefficients: the
    quadratic terms sigma_x^2 and int b_x^2 join the x-slope, the drift
    slope f_x takes the place of the driver's y-slope, the cost gradient
    and the -G_x p source form the driver, and there is no a- or r-term.
    Lx0, Lxx, hc and hs are the cost gradients _closure_check returns.
    Matching the Brownian and jump parts of q_{i+1} gives k and R.
    """
    N, spec, lam = batch.N, batch.spec, batch.spec.intensity
    pT = p[np.arange(N), batch.K]
    fx, sx, bx = co["fx"], co["sx"], co["bx"]
    bb, bb0 = bx ** 2, bx * co["b0"]
    qco = dict(co,
               fx=fx + sx ** 2 + lam * spec.integrate(bb, bb.shape[:-1]),
               f0=co["f0"] + sx * co["s0"] + lam * spec.integrate(bb0, bb0.shape[:-1]),
               Gy=fx, Gx=Lxx, G0=Lx0 - co["Gx"] * p[:, :-1], Ga=0.0, gr=0.0)
    q, k, R = _affine_backward(batch, X, qco, np.full(N, float(hs)), -model.M_T * pT + float(hc))
    return q, k, R()


def _closure_check(model: ModelSpec, batch: _Batch, X, Y, A, r, v):
    """Refuse, from the solved rows alone, a model outside the affine
    adjoint closure; return lam int l_x's constant and x-slope and h_x's.

    The closure needs an affine_solvable model whose first adjoint is a
    functional of the clock alone (g_y and l_y free of the state, g_a,
    l_a, g_r and l_r within 1e-12 of 0; each compared at the shape it
    comes in, after a check that it broadcasts to (N, Kmax, nodes)), an
    l_x free of (y, a, r) and affine in x, and an h_x affine in x.
    Anything else raises NotImplementedError."""
    z, spec = batch.znodes, batch.spec
    base = _step_args(batch, None, X, Y, A, r, v)
    zero = base[:2] + (np.asarray(0.0), 0.0, 0.0, z * 0.0, base[6])

    def loads_p(name):
        d = model_derivative(model, name)
        vb, vz = (d(*args) for args in (base, zero))
        for val in (vb, vz):
            np.broadcast_to(val, v.shape + (z.size,))
        return (_absmax(vb - vz) > 1e-10 * (1.0 + _absmax(vb))
                or name in ("g_a", "l_a", "g_r", "l_r") and _absmax(vb) > 1e-12)

    if not model.affine_solvable or any(
            loads_p(name) for name in ("g_y", "l_y", "g_a", "l_a", "g_r", "l_r")):
        raise NotImplementedError(
            "the affine adjoint closure needs an affine model "
            "with a linear terminal and a state-free first adjoint")
    d_lx = model_derivative(model, "l_x")
    probe_one = base[:2] + (np.asarray(0.0), 1.0, 1.0, z * 0.0 + 1.0, base[6])
    if _absmax(d_lx(*probe_one) - d_lx(*zero)) > 1e-8:
        raise NotImplementedError(
            "adjoint closure needs cost gradients free of (y, a, r)")
    lc, ls = _affine_in_x(d_lx, zero)
    hc, hs = _affine_in_x(model_derivative(model, "h_x"), (np.asarray(0.0),), pos=0)
    return (*(spec.intensity * spec.integrate(c, v.shape) for c in (lc, ls)), hc, hs)


def solve_adjoint(model: ModelSpec, bundle: PathBundle,
                  solution: FBSDESolution) -> AdjointSolution:
    """Adjoint pair along one solved trajectory."""
    return solve_adjoint_ensemble(model, [bundle], _one_row(bundle, solution))[0]


def solve_adjoint_ensemble(model: ModelSpec, bundles,
                           solutions: EnsembleSolution) -> EnsembleAdjoint:
    """Vectorized adjoint solve over an ensemble of solved trajectories,
    whose rates solutions.v are the control, on one K-sorted batch whose
    rows return to ensemble order.

    The first adjoint p runs through the forward affine step; the second
    (q, k, R) by the affine closure, which needs a model that is affine
    with a linear terminal (affine_solvable), a state-free first adjoint
    and cost gradients affine in the state (_closure_check).  Any other
    model raises NotImplementedError, before the model is probed or p is
    solved: every refusal reads only the solved rows.  An accepted model
    is probed once at the solved v (_probe_affine), and p and q read that
    one record.
    """
    ens = as_ensemble(bundles)
    _matching(ens.K, solutions)
    (idx, batch), = _sorted_batches(ens, len(ens))
    X, Y, A, r, v = (getattr(solutions, name)[idx] for name in "XYArv")
    terms = _closure_check(model, batch, X, Y, A, r, v)
    co = _probe_affine(model, batch, v)
    p = _p_forward_batch(model, batch, X, Y, A, r, v, co)
    q, k, R = _q_affine_batch(model, batch, X, p, co, *terms)
    g0 = model_derivative(model, "gamma_y")(Y[:, 0])
    if not np.all(np.abs(p[:, 0] + g0) <= 1e-9 * (1.0 + np.abs(g0))):
        raise AssertionError("adjoint initial condition violated")
    rows = np.arange(batch.N)
    xT = X[rows, batch.K]
    tgt = (-model_derivative(model, "phi_x")(xT) * p[rows, batch.K]
           + model_derivative(model, "h_x")(xT))
    if not np.all(np.abs(q[rows, batch.K] - tgt) <= 1e-8 * (1.0 + np.abs(tgt))):
        raise AssertionError("adjoint terminal condition violated")
    back = np.argsort(idx)
    return EnsembleAdjoint(ens.K, ens.du, *(a[back] for a in (batch.t, p, q, k, R)))


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


def _variational_batch(model: ModelSpec, control, direction, batch: _Batch,
                       X, Y, A, r, v):
    """Linearized forward/backward pair along the base trajectory.

    Both the control and the direction must be open-loop (have a
    ``table``).  The direction's table vd is read first (_open_loop) and
    held past a horizon, as the base control v is.  One coefficient
    record serves both halves: the affine probe's slopes at the base v
    (_probe_affine with reads="slopes", which evaluates no intercept and,
    with b_x registered, no nodewise b), which are the system's slopes in
    the state, with the direction terms f_v vd, sigma_v vd, b_v vd and
    lam int g_v vd (the v-partials along the base rows) as intercepts.
    X1 steps by _affine_step on it, jumping by b_x X1 + b_v vd at each
    event (b's partials at the event's mark and the base left state), and
    (Y1, A1, r1) come from _affine_backward on the same record."""
    if not (hasattr(control, "table") and hasattr(direction, "table")):
        raise NotImplementedError(
            "variational solver needs open-loop base and direction")
    if not model.affine_solvable:
        raise NotImplementedError(
            "variational solver covers state-affine models only")
    N, du, spec = batch.N, batch.du, batch.spec
    t, u, Xl = batch.t[:, :-1], np.arange(batch.Kmax) * du, X[:, :-1]
    vd = _open_loop(direction, batch)
    fv, sv = (model_derivative(model, name)(t, u, Xl, v) for name in ("f_v", "sigma_v"))
    d_bx, d_bv = model_derivative(model, "b_x"), model_derivative(model, "b_v")
    b0 = d_bv(t[..., None], u[:, None], Xl[..., None], v[..., None], batch.znodes) * vd[..., None]
    gv = spec.intensity * spec.integrate(
        model_derivative(model, "g_v")(*_step_args(batch, None, X, Y, A, r, v)), (N, batch.Kmax))
    co = dict(_probe_affine(model, batch, v, "slopes"), f0=fv * vd, s0=sv * vd, b0=b0,
              ib0=spec.integrate(b0, b0.shape[:-1]), G0=gv * vd)
    # the jump of X1 at an event: b_x X1 + b_v vd at the base left state
    pe, s = batch.ev_p, batch.ev_s
    ev = (batch.t[pe, s], s * du, X[pe, s], v[pe, s], batch.ev_z)
    X1 = _euler(batch, 0.0, _affine_step(batch, co, d_bv(*ev) * vd[pe, s], d_bx(*ev)),
                "variational")
    XT = X[np.arange(N), batch.K]
    P_term = np.broadcast_to(model_derivative(model, "phi_x")(XT), (N,)).astype(float)
    Y1, A1, r1 = _affine_backward(batch, X1, co, P_term, np.zeros(N))
    return X1, Y1, A1, r1(), vd


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
    gap = abs(Y1[0, k] - float(d_px(sol.X[0, k])) * X1[0, k])
    if not gap <= 1e-9 * (1.0 + abs(Y1[0, k])):
        raise AssertionError("variational terminal condition violated")
    return VariationalSolution(grid=bundle.solver_grid, calendar_times=batch.t[0, : k + 1],
                               X1=X1[0, : k + 1], Y1=Y1[0, : k + 1], A1=A1[0, :k], r1=r1[0, :k])


# ------------------------------------------------- expansion and gap checks

def _expansion_steps(rhos, name: str = "rhos") -> list:
    """The step sizes of an expansion check as floats: ``rhos`` must be a
    list, tuple or 1-d array of finite, nonzero real numbers, else
    ValueError naming ``name`` (a zero step divides by zero in the
    difference quotients)."""
    seq = isinstance(rhos, (list, tuple)) or isinstance(rhos, np.ndarray) and rhos.ndim == 1
    if not (seq and all(isinstance(rho, numbers.Real) and np.isfinite(rho) and rho != 0.0
                        for rho in rhos)):
        raise ValueError(f"{name} must be a sequence of finite, nonzero numbers, got {rhos!r}")
    return [float(rho) for rho in rhos]


def expansion_check(model: ModelSpec, bundles, solutions, direction, rhos) -> tuple:
    """First-order expansion of the cost and the state pair in a direction.

    The base is the solved rows, whose rates solutions.v are its control
    and whose cost is read off them (_row_cost).  One variational solve
    and one perturbed solve per rho on common noise feed two tables, each
    with one row per rho:

    * Gateaux rows: the difference quotient of the cost (lhs) against the
      variational formula (rhs), which integrates the cost gradients
      against the variational processes and adds the terminal and initial
      parts; their gap (diff, with its se) must shrink linearly in rho.
    * remainder rows: the four norms of the expansion error (state
      sup-norm, backward sup-norm, integrated Brownian and jump integrand
      norms), all mean-square over the ensemble; common noise makes their
      decay deterministic.

    Every perturbed solve takes backward_method's automatic regime, on one
    K-sorted batch whose per-path results return to ensemble order before
    every mean.  ``rhos`` must be a sequence of finite, nonzero numbers,
    else ValueError before anything is solved (_expansion_steps).
    Returns (gateaux_rows, remainder_rows).
    """
    rhos = _expansion_steps(rhos)
    direction = as_control(direction)
    ens = as_ensemble(bundles)
    _matching(ens.K, solutions)
    (idx, batch), = _sorted_batches(ens, len(ens))
    back = np.argsort(idx)
    control = StepwiseControl(solutions.v)
    X, Y, A, r, v = (getattr(solutions, name)[idx] for name in "XYArv")
    vals_u = _row_cost(model, batch, X, Y, A, r, v)
    X1, Y1, A1, r1, vd = _variational_batch(model, control, direction, batch,
                                            X, Y, A, r, v)
    N, du, lam = batch.N, batch.du, batch.spec.intensity
    dmaps = [model_derivative(model, name) for name in ("l_x", "l_y", "l_a", "l_r", "l_v")]

    def cell(i, rows):
        args = _step_args(batch, i, X, Y, A, r, v, rows)
        lx, ly, la, lr, lv = (d(*args) for d in dmaps)
        return (lx * X1[rows, i, None] + ly * Y1[rows, i, None] + la * A1[rows, i, None]
                + lr * r1[rows, i] + lv * vd[rows, i, None])

    rhs_p = _step_sum(batch, cell)
    d_hx = model_derivative(model, "h_x")
    d_gam = model_derivative(model, "gamma_y")
    XT = X[np.arange(N), batch.K]
    X1T = X1[np.arange(N), batch.K]
    rhs_p += d_hx(XT) * X1T
    rhs_p += d_gam(Y[:, 0]) * Y1[:, 0]
    rhs_p = rhs_p[back]
    rhs = float(rhs_p.mean())
    gateaux, remainder = [], []
    for rho in rhos:
        pert = PerturbedControl(control, direction, float(rho))
        vals_r, Xr, Yr, _, Ar, rr = _batch_cost(model, pert, batch)
        lhs_p = ((vals_r - vals_u) / rho)[back]
        gap = lhs_p - rhs_p
        gateaux.append(dict(
            rho=float(rho),
            lhs=float(lhs_p.mean()),
            rhs=rhs,
            diff=abs(float(gap.mean())),
            se=float(gap.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0,
        ))
        Xt = ((Xr - X) / rho - X1)[back]
        Yt = ((Yr - Y) / rho - Y1)[back]
        At = ((Ar - A) / rho - A1)[back]
        rt = ((rr - r) / rho - r1)[back]
        remainder.append(dict(
            rho=float(rho),
            x2=float(np.max(np.mean(Xt ** 2, axis=0))),
            y2=float(np.max(np.mean(Yt ** 2, axis=0))),
            a2=float(np.mean(np.sum(At ** 2, axis=1)) * du),
            r2=float(np.mean(np.sum(batch.spec.integrate(rt ** 2, rt.shape[:-1]), axis=1))
                     * du * lam),
        ))
    return gateaux, remainder


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


def check_necessary_condition(model: ModelSpec, bundles, solutions, adjoints, *,
                              count: int = 64, seed: int = 0) -> NecessaryReport:
    """Directional-derivative margins against sampled feasible candidates.

    The margin of candidate w is the ensemble mean of the integral of
    <H_v, w - u> along the base trajectory, u being its solved rates
    solutions.v; at a minimizer every margin is nonnegative up to Monte
    Carlo error, and the candidate w = u sits at exactly zero.  An
    unbounded side of the control box is cut 1 beyond the extreme live
    rate (cells with K > i; the box's interior point when no path has a
    step), so the padding never sets the candidates' range.

    Every other candidate is a level a before step s and b from s on (a
    constant is s = 0), so each row's reductions are taken once: the
    prefix sums S of du H_v along the steps, with a leading zero (the
    padded cells weigh 0), their total T and U = sum du H_v u.  Path n's
    integral is then a S_s + b (T - S_s) - U, an O(N) read per candidate:
    O(N Kmax + count N) in all, against an (N, Kmax) product per candidate
    summed as sum du H_v (w - u).  The two agree up to rounding, on the
    order of eps sum |du H_v| (|w| + |u|) per path, S being a running sum;
    u's margin and standard error are exactly 0.  ``count`` must be an
    integer of at least 1 and ``seed`` a non-negative integer (an
    integral float or a numpy integer means its integer), else ValueError.
    """
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"candidate set is empty or not a count: count={count!r}")
    seed = _integer(seed, "seed")
    ens = as_ensemble(bundles)
    K, du = ens.K, ens.du
    N, Kmax = K.size, int(K.max())
    _matching(K, solutions, adjoints)
    X, Y, v = solutions.X, solutions.Y, solutions.v
    act = np.arange(Kmax)[None, :] < K[:, None]
    # du H_v, 0 on the padding, in dH/dv's own buffer
    wHv = hamiltonian_grad_v(model, ens.spec, solutions.t[:, :-1], np.arange(Kmax) * du,
                             X[:, :-1], Y[:, :-1], solutions.A, solutions.r, v,
                             adjoints.p[:, :-1], adjoints.q[:, :-1], adjoints.k,
                             adjoints.R) * np.where(act, du, 0.0)
    lo, hi = model.control_set.lo, model.control_set.hi
    # a zero-step ensemble has no live rates: centre the range on the box instead
    live, mid = v[act], model.control_set.interior_point()
    if not np.isfinite(lo):
        lo = (float(live.min()) if live.size else mid) - 1.0
    if not np.isfinite(hi):
        hi = (float(live.max()) if live.size else mid) + 1.0
    rng = np.random.default_rng(seed)
    consts = np.linspace(lo, hi, (count - 1) // 2).tolist()
    switches = [(int(rng.integers(0, max(Kmax, 1))), rng.uniform(lo, hi, size=2).tolist())
                for _ in range(count - 1 - len(consts))]
    candidates = ([("current", {})] + [("constant", {"value": c}) for c in consts]
                  + [("switch", {"switch_step": s, "levels": ab}) for s, ab in switches])
    # (s, a, b): level a before step s and b from it on; a constant c is (0, c, c)
    sab = np.reshape([(0, c, c) for c in consts] + [(s, *ab) for s, ab in switches], (-1, 3))
    S = np.zeros((N, Kmax + 1))
    np.cumsum(wHv, axis=1, out=S[:, 1:])
    Ss, T, U = S.T[sab[:, 0].astype(int)], S[:, -1], np.sum(wHv * v, axis=1)
    per_path = np.zeros((count, N))
    per_path[1:] = sab[:, 1:2] * Ss + sab[:, 2:3] * (T - Ss) - U
    margin = per_path.mean(axis=1)
    se = per_path.std(axis=1, ddof=1) / np.sqrt(N) if N > 1 else np.zeros(count)
    rows = [dict(index=idx, kind=kind, margin=float(margin[idx]), se=float(se[idx]), **desc)
            for idx, (kind, desc) in enumerate(candidates)]
    best = min(rows, key=lambda row: row["margin"])
    return NecessaryReport(min_margin=best["margin"], std_error=best["se"], witness=dict(best),
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
                                          n_samples: int = 200,
                                          seed: int = 0) -> SufficiencyReport:
    """Midpoint-convexity cloud for H, h and gamma, plus the terminal link.

    Convexity in (x, y, a, r, v) is probed jointly at random pairs with
    the adjoint frame held fixed; a positive midpoint gap beyond rounding
    is a violation.  Samples are N(0, 1.5^2), and an infinite box side is
    cut at 2.5.  When the model declares a linear terminal and a solved
    trajectory is supplied, the structural identity Y_T = phi(0) + M_T X_T
    (phi's intercept included) is measured on it.  ``n_samples`` must be
    an integer of at least 1 and ``seed`` a non-negative integer (an
    integral float or a numpy integer means its integer), else ValueError.
    """
    if not isinstance(n_samples, numbers.Integral) or n_samples < 1:
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
    seed = _integer(seed, "seed")
    z, _ = spec.quadrature()
    rng = np.random.default_rng(seed)
    spread = 1.5
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
        terminal_gap = float(abs(solution.Y[-1]
                                 - (float(model.phi(0.0)) + model.M_T * solution.X[-1])))
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
