"""Dual-system forward-backward solvers and the cost functional.

Everything here runs on the operational clock.  Conditional on one
subordinator trajectory the dual system is a classical FBSDE with
deterministic time dependence, so each path is solved on its own grid
[0, E_T] and mapped to calendar time afterwards by composition with the
inverse staircase.

Ensembles are ragged: every path has its own random horizon, heavy-tailed
in its step count K.  An Ensemble packs the paths' calendar times,
Brownian values and solver events once, into flat arrays with per-path
offsets, and gathers the padded layout of any rows from them (a _Batch,
width Kmax, cells past a row's horizon held or zero).  Ensemble-wide
solves sort the rows by K and cut that order into batches, so a batch
pads only to paths of similar horizon, and scatter per-row results back
to ensemble order; solved ensembles stay padded (EnsembleSolution) up to
the certificate.  A path reads the control row of its label: its
position in the ensemble an entry point is given, or the seeds["path"]
of a bundle solved alone.

Every backward solve goes through one dispatcher, _backward_batch, which
resolves the regime (backward_method) and runs that regime's batched
kernel on the padded batch; the single-path solvers are batch-of-one
calls of the batch code.  The regimes are:

* "ode"     the driver and terminal data are deterministic given the
            subordinator path, so Y is a backward ODE and A = r = 0,
            solved by Picard sweeps over all rows at once;
* "affine"  coefficients affine in the state, driver affine in
            (x, y, a, r), linear terminal map: the implicit scheme has
            an exact conditional solution Y_i = c_i + P_i X_i with the
            integrands read off the recursion (this is the workhorse
            for the built-in models);
* "lsmc"    least-squares Monte Carlo regression over an inner ensemble
            that shares the subordinator path, monomial basis in X up
            to degree 3 with a small ridge term.  The outer paths of a
            batch are swept backward together: their inner ensembles
            are packed into one forward solve, and at each step the
            Gram matrices of all active paths are checked for
            conditioning (one batched eigvalsh) and solved in one
            batched call.  At most _LSMC_ROWS inner rows share a sweep.

Stochastic integrals keep the left-endpoint convention of the noise
module; jump events inside a step act on the step's left state.  All
randomness is derived from a master seed through named substreams, and
reductions run in path order, so results are reproducible bit for bit.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import noise as noise_mod
from .noise import BrownianPath, JumpStream, LevyJumpSpec, sample_brownian, sample_jumps
from .seeding import stream
from .time_change import (
    InversePath,
    OperationalGrid,
    SubordinatorPath,
    SubordinatorSpec,
    invert_subordinator,
    matched_calendar_grid,
    sample_subordinator,
)


# ------------------------------------------------------------------ controls

@dataclass(frozen=True)
class Box:
    """Interval control set; infinities give an unconstrained side."""

    lo: float = -np.inf
    hi: float = np.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty control box [{self.lo}, {self.hi}]")

    def contains(self, v, tol: float = 0.0):
        v = np.asarray(v, dtype=float)
        return np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol)

    def admit(self, v, tol: float = 1e-9):
        """Project values violating the box by at most tol; error beyond."""
        v = np.asarray(v, dtype=float)
        if not self.contains(v, tol):
            raise ValueError("control infeasible: value outside the control set "
                             f"[{self.lo}, {self.hi}]")
        return np.clip(v, self.lo, self.hi)

    def interior_point(self) -> float:
        lo = self.lo if np.isfinite(self.lo) else -1.0
        hi = self.hi if np.isfinite(self.hi) else 1.0
        return 0.5 * (lo + hi)


class ConstantControl:
    """v(t) = value everywhere."""

    state_free = True

    def __init__(self, value: float):
        self.value = float(value)

    def values_at(self, i, t1, t2, x, paths):
        return np.full(np.shape(t1), self.value)


class FeedbackControl:
    """v = fn(t1, t2, x); fn must broadcast over numpy arrays."""

    state_free = False

    def __init__(self, fn):
        self.fn = fn

    def values_at(self, i, t1, t2, x, paths):
        return np.asarray(self.fn(t1, t2, x), dtype=float)


class TableControl:
    """Open-loop table on calendar time, left-constant interpolation."""

    state_free = True

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("table times must be strictly increasing")

    def values_at(self, i, t1, t2, x, paths):
        idx = np.searchsorted(self.times, np.asarray(t1, dtype=float), side="right") - 1
        return self.values[np.clip(idx, 0, self.times.size - 1)]


class StepwiseControl:
    """Per-path open-loop values on the operational solver grid.

    Row p holds the control at steps 0..K_p-1 of the path labelled p
    (padding beyond is ignored): the path at position p of the ensemble
    an entry point is given, or a bundle with seeds["path"] = p solved
    alone.  This is how path-dependent optimal controls are stored: the
    calendar-time value at t is the row entry at step E(t)/du.
    """

    state_free = True

    def __init__(self, values):
        self.values = np.atleast_2d(np.asarray(values, dtype=float))

    def values_at(self, i, t1, t2, x, paths):
        col = min(i, self.values.shape[1] - 1)
        return self.values[np.asarray(paths), col]


class PerturbedControl:
    """base + rho * direction, for variational and gap experiments."""

    def __init__(self, base, direction, rho: float):
        self.base = base
        self.direction = direction
        self.rho = float(rho)

    @property
    def state_free(self):
        return self.base.state_free and self.direction.state_free

    def values_at(self, i, t1, t2, x, paths):
        return (self.base.values_at(i, t1, t2, x, paths)
                + self.rho * self.direction.values_at(i, t1, t2, x, paths))


def as_control(value) -> "ConstantControl":
    if np.isscalar(value):
        return ConstantControl(float(value))
    return value


# ------------------------------------------------------------------- model

class ModelSpec:
    """Coefficient maps, costs, and structure flags of one control system.

    All maps must broadcast over numpy arrays.  A map may return a
    constant or any shape that broadcasts against its arguments; the
    solvers broadcast what they read, so results do not depend on which.
    Signatures:

    * f, sigma:  (t1, t2, x, v)           forward drift and volatility
    * b:         (t1, t2, x, v, z)        jump coefficient
    * g:         (t1, t2, x, y, a, r, v)  pointwise backward driver; the
      equation consumes its integral against the jump measure, so the
      solver evaluates lam * sum(w_q * g(..., r_q, ...))
    * l:         (t1, t2, x, y, a, r, v)  pointwise running cost, wrapped
      in the same jump-measure integral as g
    * phi, h:    (x) terminal maps; gamma: (y) initial cost

    ``linear`` names the coefficients that are affine in their state
    arguments ("f", "sigma", "b" in x; "g" in (x, y, a, r)); the solver
    probes affine coefficients by evaluation at 0 and 1, which is exact.
    Only scalar systems are implemented (n = m = d = k = 1).
    """

    def __init__(self, *, f, sigma, b, g, phi, l, h, gamma, control_set: Box,
                 x0: float, n=1, m=1, d=1, k=1, M_T=None, linear=(),
                 conditionally_deterministic=False, adjoint_deterministic=False,
                 derivatives=None, hamiltonian_v=None, name=""):
        if (n, m, d, k) != (1, 1, 1, 1):
            raise NotImplementedError("only scalar models are supported")
        self.n, self.m, self.d, self.k = n, m, d, k
        self.f, self.sigma, self.b, self.g = f, sigma, b, g
        self.phi, self.l, self.h, self.gamma = phi, l, h, gamma
        self.control_set = control_set
        self.x0 = float(x0)
        self.M_T = None if M_T is None else float(M_T)
        self.linear = frozenset(linear)
        self.conditionally_deterministic = bool(conditionally_deterministic)
        # the adjoint pair can be deterministic given the subordinator even
        # when the state is not (coefficients free of x and the noise terms
        # of the first adjoint vanishing); flag it to unlock the ODE regime
        self.adjoint_deterministic = bool(adjoint_deterministic)
        self.derivatives = dict(derivatives or {})
        self.hamiltonian_v = hamiltonian_v
        self.name = name
        self._validate()

    @property
    def linear_terminal(self) -> bool:
        return self.M_T is not None

    @property
    def affine_solvable(self) -> bool:
        return {"f", "sigma", "b", "g"} <= self.linear and self.linear_terminal

    def _validate(self):
        v0 = self.control_set.interior_point()
        probes = [
            self.f(0.0, 0.0, 0.0, v0), self.sigma(0.0, 0.0, 0.0, v0),
            self.b(0.0, 0.0, 0.0, v0, 0.1),
            self.g(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, v0),
            self.l(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, v0),
            self.phi(0.0), self.h(0.0), self.gamma(0.0),
        ]
        for val in probes:
            val = np.asarray(val, dtype=float)
            if val.size != 1 or not np.all(np.isfinite(val)):
                raise ValueError("model map probe returned a non-finite or "
                                 "non-scalar value at the origin")
        if self.linear_terminal:
            p0 = float(self.phi(0.0))
            for x in (-1.0, 0.3, 1.0):
                if abs(float(self.phi(x)) - p0 - self.M_T * x) > 1e-10 * (1 + abs(x)):
                    raise ValueError("linear_terminal is set but phi is not M_T * x")


# ------------------------------------------------------------------- bundles

def _solver_grid(du: float, k: int) -> OperationalGrid | None:
    # a path without solver steps (its first increment already overshoots
    # the horizon) has no grid: OperationalGrid requires at least one step
    return OperationalGrid(step=du, horizon=du * k) if k else None


@dataclass
class PathBundle:
    """One joint draw of the driving noises plus its seed bookkeeping.

    The Brownian and jump components are sampled from RNG streams
    separate from the subordinator's, mirroring the product structure
    of the underlying probability space.
    """

    subordinator: SubordinatorPath
    inverse: InversePath
    brownian: BrownianPath
    jumps: JumpStream
    jump_spec: LevyJumpSpec
    calendar_horizon: float
    seeds: dict = field(default_factory=dict)

    @property
    def solver_steps(self) -> int:
        # last grid index with D <= T, i.e. E(T) in step units
        return self.subordinator.values.size - 2

    @property
    def solver_grid(self) -> OperationalGrid | None:
        return _solver_grid(self.subordinator.grid.step, self.solver_steps)

    def calendar_times(self) -> np.ndarray:
        return self.subordinator.values[: self.solver_steps + 1]


class Ensemble:
    """Bundles packed once: path p's calendar times D(i du) and Brownian
    values B(i du), i = 0..K_p, sit in the flat arrays ``times`` and
    ``brownian`` from ``start[p]`` on, and its ``ev_n[p]`` jump events
    inside the solver horizon, bucketed to their step, in ``ev_step`` and
    ``ev_mark`` from ``ev_lo[p]`` on.  The solvers read no PathBundle
    after the pack; ``rows`` gathers the padded layout of any rows.

    An integer index returns one bundle (so an Ensemble iterates over its
    bundles); a slice or an index array returns the ensemble of those
    rows, which shares the flat arrays.
    """

    def __init__(self, bundles):
        self.bundles = list(bundles)
        if not self.bundles:
            raise ValueError("ensemble is empty")
        du = self.bundles[0].subordinator.grid.step
        for b in self.bundles:
            if abs(b.subordinator.grid.step - du) > 1e-12 * du:
                raise ValueError("grid mismatch: bundles in one ensemble must share the step")
            if b.subordinator.passage_time is None:
                raise ValueError("bundle lacks a passage time; its solver horizon "
                                 "is undefined")
        self.du, self.spec = du, self.bundles[0].jump_spec
        K = self.K = np.array([b.solver_steps for b in self.bundles])
        self.start = np.cumsum(K + 1) - (K + 1)
        self.times = np.concatenate([b.calendar_times() for b in self.bundles])
        self.brownian = np.concatenate([b.brownian.values[: k + 1]
                                        for b, k in zip(self.bundles, K)])
        owner = np.repeat(np.arange(K.size), [b.jumps.times.size for b in self.bundles])
        t = np.concatenate([b.jumps.times for b in self.bundles])
        keep = t <= K[owner] * du + 1e-12 * du
        self.ev_step = np.maximum(np.ceil(t[keep] / du - 1e-12).astype(int) - 1, 0)
        self.ev_mark = np.concatenate([b.jumps.marks for b in self.bundles])[keep]
        self.ev_n = np.bincount(owner[keep], minlength=K.size)
        self.ev_lo = np.cumsum(self.ev_n) - self.ev_n

    def __len__(self):
        return self.K.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.bundles[key]
        idx = np.arange(len(self))[key]
        if idx.size == 0:
            raise ValueError("ensemble is empty")
        sub = copy.copy(self)
        sub.bundles = [self.bundles[i] for i in idx]
        sub.K, sub.start, sub.ev_n, sub.ev_lo = (
            a[idx] for a in (self.K, self.start, self.ev_n, self.ev_lo))
        return sub

    def padded(self, flat, idx):
        """``flat`` (times or brownian) of rows ``idx`` over steps 0..max K,
        each row held at its own step K past its horizon."""
        K = self.K[idx]
        return flat[self.start[idx, None] + np.minimum(np.arange(K.max() + 1), K[:, None])]

    def rows(self, idx=None, labels=None) -> "_Batch":
        """The padded layout of rows ``idx`` (all, in order, by default)."""
        return _Batch(self, np.arange(len(self)) if idx is None else idx, labels)


def as_ensemble(bundles) -> Ensemble:
    """An Ensemble as it is; any other sequence of bundles packed once."""
    return bundles if isinstance(bundles, Ensemble) else Ensemble(bundles)


def make_ensemble(sub_spec: SubordinatorSpec, jump_spec: LevyJumpSpec,
                  calendar_horizon: float, step: float, n_paths: int,
                  master_seed: int, pairing=None) -> Ensemble:
    """Sample n_paths independent bundles from named per-path substreams.

    ``pairing`` optionally re-pairs subordinator draws with the Brownian
    and jump streams of other indices (a permutation), which must leave
    every ensemble statistic's law unchanged; the cost-independence test
    relies on that.
    """
    if n_paths < 1:
        raise ValueError("ensemble must contain at least one path")
    if pairing is None:
        pairing = np.arange(n_paths)
    pairing = np.asarray(pairing, dtype=int)
    guess = max(step, 1.2 * calendar_horizon**sub_spec.alpha)
    grid = OperationalGrid(step, step * max(4, math.ceil(guess / step)))
    bundles = []
    for i in range(n_paths):
        j = int(pairing[i])
        sub = sample_subordinator(sub_spec, calendar_horizon, grid,
                                  stream(master_seed, "subordinator", i))
        inv = invert_subordinator(sub, matched_calendar_grid(sub, calendar_horizon))
        brw = sample_brownian(sub.grid, stream(master_seed, "brownian", j))
        jmp = sample_jumps(jump_spec, sub.grid.horizon, stream(master_seed, "jumps", j))
        bundles.append(PathBundle(
            subordinator=sub, inverse=inv, brownian=brw, jumps=jmp,
            jump_spec=jump_spec, calendar_horizon=calendar_horizon,
            seeds={"master": int(master_seed), "path": i, "noise_index": j},
        ))
    return Ensemble(bundles)


# ----------------------------------------------------------------- solutions

@dataclass
class FBSDESolution:
    """One path's solution; backward fields stay None until solved.

    r is tabulated on the jump-measure quadrature nodes only, which is
    all the cost and adjoint formulas ever consume.
    """

    clock: str
    grid: OperationalGrid | None
    calendar_grid: np.ndarray | None
    X: np.ndarray
    Y: np.ndarray | None = None
    A: np.ndarray | None = None
    r: np.ndarray | None = None
    calendar_times: np.ndarray | None = None
    # realized forward ingredients (operational clock only)
    control_values: np.ndarray | None = None
    drift: np.ndarray | None = None
    vol: np.ndarray | None = None
    dB: np.ndarray | None = None
    jump_nodes: np.ndarray | None = None
    jump_spec: LevyJumpSpec | None = None
    event_steps: np.ndarray | None = None
    event_b: np.ndarray | None = None


@dataclass
class EnsembleSolution:
    """Solved paths in the padded layout, row n holding path n of the
    ensemble.  Past its horizon a row holds t, X and Y at their terminal
    values and v at its last value (0 on a zero-step path); A and r are
    zero there.  Index n gives path n's FBSDESolution as views (and
    iteration gives every path's).
    """

    K: np.ndarray
    du: float
    t: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray
    r: np.ndarray
    v: np.ndarray

    def __getitem__(self, n):
        k = int(self.K[n])
        return FBSDESolution(
            clock="operational", grid=_solver_grid(self.du, k), calendar_grid=None,
            X=self.X[n, : k + 1], Y=self.Y[n, : k + 1], A=self.A[n, :k], r=self.r[n, :k],
            calendar_times=self.t[n, : k + 1], control_values=self.v[n, :k])


@dataclass
class CostEstimate:
    mean: float
    std_error: float
    per_path: np.ndarray = field(repr=False)


# ------------------------------------------------------------ forward solver

class _Batch:
    """Padded rows ``idx`` of a packed ensemble: row n holds path idx[n]'s
    calendar times t (held at t_K past its horizon) and Brownian
    increments dB (zero past it); event e falls in step ev_s[e] of row
    ev_p[e] with mark ev_z[e], sorted by step from ev_start[step] on.
    ``labels`` are the control rows the paths read, their ensemble
    positions unless given, so sorting and chunking never change them.
    """

    def __init__(self, ens: Ensemble, idx, labels=None):
        idx = np.asarray(idx, dtype=int)
        self.ens, self.idx, self.N = ens, idx, idx.size
        self.labels = idx if labels is None else np.asarray(labels, dtype=int)
        self.du, self.spec = ens.du, ens.spec
        self.znodes, self.w = self.spec.quadrature()
        self.K = ens.K[idx]
        self.Kmax = int(self.K.max())
        self.t = ens.padded(ens.times, idx)
        B = ens.padded(ens.brownian, idx)
        self.dB = B[:, 1:] - B[:, :-1]
        n_ev = ens.ev_n[idx]
        ev_p = np.repeat(np.arange(self.N), n_ev)
        at = np.arange(ev_p.size) + np.repeat(ens.ev_lo[idx] - (np.cumsum(n_ev) - n_ev), n_ev)
        ev_s = ens.ev_step[at]
        order = np.argsort(ev_s, kind="stable")
        self.ev_p, self.ev_s, self.ev_z = ev_p[order], ev_s[order], ens.ev_mark[at][order]
        self.ev_start = np.searchsorted(self.ev_s, np.arange(self.Kmax + 1))


def _single(bundle: PathBundle) -> _Batch:
    """The one-row batch of a bundle, labelled by its own seed index."""
    return Ensemble([bundle]).rows([0], labels=[bundle.seeds.get("path", 0)])


def _sorted_batches(ens: Ensemble, chunk: int):
    """Yield (idx, batch) over an ensemble cut into K-sorted batches.

    The rows are stable-sorted by solver steps and the order is cut into
    batches of at most ``chunk`` rows, so each batch pads only to paths
    of similar horizon.  ``idx`` holds the ensemble positions of the
    batch rows, which are also the batch labels; callers scatter per-row
    results back with it, so everything downstream sees ensemble order.
    """
    order = np.argsort(ens.K, kind="stable")
    for lo in range(0, order.size, chunk):
        idx = order[lo: lo + chunk]
        yield idx, ens.rows(idx)


def _hold(a, K, park, width: int):
    """Row p of ``a`` read at columns min(j, K_p - 1), j < width: each row
    holds its last in-horizon value past its horizon, and a row with
    K_p = 0 reads ``park`` (a scalar or one value per row) throughout."""
    a = np.concatenate([a, np.broadcast_to(park, K.shape)[:, None]], axis=1)
    col = np.where(K[:, None] > 0, np.minimum(np.arange(width), K[:, None] - 1),
                   a.shape[1] - 1)
    return np.take_along_axis(a, col, axis=1)


def _forward_batch(model: ModelSpec, control, batch: _Batch, keep_nodes=False):
    """Euler scheme over the padded batch; fills X, v, drift, vol, event_b."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    lam = batch.spec.intensity
    X = np.empty((N, Kmax + 1))
    X[:, 0] = model.x0
    v = np.empty((N, Kmax))
    drift = np.zeros((N, Kmax))
    vol = np.zeros((N, Kmax))
    ev_b = np.empty(batch.ev_p.size)
    nodes = np.zeros((N, Kmax, batch.znodes.size)) if keep_nodes else None
    paths = batch.labels
    for i in range(Kmax):
        act = i < batch.K
        t1, u_i, x = batch.t[:, i], i * du, X[:, i]
        vi = model.control_set.admit(control.values_at(i, t1, u_i, x, paths))
        vi = np.broadcast_to(vi, (N,))
        v[:, i] = vi
        fi = np.broadcast_to(np.asarray(model.f(t1, u_i, x, vi), dtype=float), (N,))
        si = np.broadcast_to(np.asarray(model.sigma(t1, u_i, x, vi), dtype=float), (N,))
        drift[:, i], vol[:, i] = fi, si
        bi = model.b(t1[:, None], u_i, x[:, None], vi[:, None], batch.znodes)
        if keep_nodes:
            nodes[:, i, :] = bi
        comp = lam * du * batch.spec.integrate(bi, (N,))
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            p = batch.ev_p[sl]
            bz = np.asarray(model.b(t1[p], u_i, X[p, i], v[p, i], batch.ev_z[sl]),
                            dtype=float)
            ev_b[sl] = bz
            np.add.at(jump, p, bz)
        xn = x + fi * du + si * batch.dB[:, i] + jump - comp
        bad = act & ~np.isfinite(xn)
        if np.any(bad):
            raise FloatingPointError(
                f"blow-up at step {i} (path {int(paths[np.argmax(bad)])})")
        X[:, i + 1] = np.where(act, xn, x)
    return X, v, drift, vol, ev_b, nodes


def solve_forward_dual(model: ModelSpec, control, bundle: PathBundle,
                       keep_ingredients: bool = True) -> FBSDESolution:
    """Forward Euler on [0, E_T] for a single bundle, operational clock."""
    control = as_control(control)
    batch = _single(bundle)
    X, v, drift, vol, ev_b, nodes = _forward_batch(model, control, batch,
                                                   keep_nodes=keep_ingredients)
    sol = FBSDESolution(
        clock="operational", grid=bundle.solver_grid, calendar_grid=None,
        X=X[0], calendar_times=batch.t[0], control_values=v[0],
    )
    if keep_ingredients:
        sol.drift, sol.vol, sol.dB = drift[0], vol[0], batch.dB[0]
        sol.jump_nodes, sol.jump_spec = nodes[0], batch.spec
        sol.event_steps, sol.event_b = batch.ev_s.copy(), ev_b
    return sol


# ------------------------------------------------------- affine backward core

def _probe_affine(model: ModelSpec, batch: _Batch, v: np.ndarray):
    """Exact affine coefficients by evaluation at states 0 and 1.

    Valid when the corresponding linearity flags hold; the returned
    driver pieces are already integrated against the jump measure
    (G = lam * int g, with the r term kept nodewise as gr * w * lam).
    The pieces keep the shapes the model returns; _affine_backward
    broadcasts them to the batch layout.
    """
    t, u = batch.t[:, :-1], np.arange(batch.Kmax) * batch.du
    z = batch.znodes
    lam = batch.spec.intensity
    f0 = np.asarray(model.f(t, u, 0.0, v), dtype=float)
    fx = np.asarray(model.f(t, u, 1.0, v), dtype=float) - f0
    s0 = np.asarray(model.sigma(t, u, 0.0, v), dtype=float)
    sx = np.asarray(model.sigma(t, u, 1.0, v), dtype=float) - s0
    b0 = np.asarray(model.b(t[..., None], u[:, None], 0.0, v[..., None], z), dtype=float)
    bx = np.asarray(model.b(t[..., None], u[:, None], 1.0, v[..., None], z),
                    dtype=float) - b0
    g00 = np.asarray(model.g(t, u, 0.0, 0.0, 0.0, 0.0, v), dtype=float)
    # unit probes in x, y, a and r in turn
    gx, gy, ga, gr = (np.asarray(model.g(t, u, *e, v), dtype=float) - g00
                      for e in np.eye(4).tolist())
    return dict(fx=fx, f0=f0, sx=sx, s0=s0, bx=bx, b0=b0,
                Gy=lam * gy, Gx=lam * gx, Ga=lam * ga, G0=lam * g00, gr=lam * gr)


def _affine_backward(batch: _Batch, X: np.ndarray, co: dict,
                     P_term: np.ndarray, c_term: np.ndarray,
                     collect_r: bool = True):
    """Exact conditional solution of the implicit backward scheme.

    The scheme Y_i = Y_{i+1} + G_i du - A_i dB_i - (jump martingale)
    admits Y_i = c_i + P_i X_i when the forward coefficients are affine
    in x, the integrated driver is affine in (x, y, a, r-integral), the
    terminal map is linear, and the coefficient paths are deterministic
    given the subordinator trajectory.  A and the nodewise r follow from
    matching the Brownian and jump terms of Y_{i+1}.

    The coefficients ``co`` may take any shape that broadcasts against
    the (N, Kmax) layout, (N, Kmax, nodes) for ``bx`` and ``b0``.
    """
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    Q = batch.w.size
    co = {key: np.broadcast_to(val, (N, Kmax, Q) if key in ("bx", "b0") else (N, Kmax))
          for key, val in co.items()}
    P = np.empty((N, Kmax + 1))
    c = np.empty((N, Kmax + 1))
    P[:, Kmax] = P_term
    c[:, Kmax] = c_term
    A = np.zeros((N, Kmax))
    r = np.zeros((N, Kmax, Q)) if collect_r else None
    wr_b = batch.spec.integrate(co["bx"], (N, Kmax))
    wr_b0 = batch.spec.integrate(co["b0"], (N, Kmax))
    for i in range(Kmax - 1, -1, -1):
        act = i < batch.K
        h = du
        Pn, cn = P[:, i + 1], c[:, i + 1]
        # paths already past their horizon carry the terminal pair down
        Pn = np.where(i + 1 <= batch.K, Pn, P_term)
        cn = np.where(i + 1 <= batch.K, cn, c_term)
        den = 1.0 - h * co["Gy"][:, i]
        Pi = (Pn * (1.0 + h * co["fx"][:, i])
              + h * (co["Gx"][:, i] + co["Ga"][:, i] * Pn * co["sx"][:, i]
                     + co["gr"][:, i] * Pn * wr_b[:, i])) / den
        ci = (cn + h * (Pn * co["f0"][:, i] + co["G0"][:, i]
                        + co["Ga"][:, i] * Pn * co["s0"][:, i]
                        + co["gr"][:, i] * Pn * wr_b0[:, i])) / den
        P[:, i] = np.where(act, Pi, P_term)
        c[:, i] = np.where(act, ci, c_term)
        A[:, i] = np.where(act, Pn * (co["sx"][:, i] * X[:, i] + co["s0"][:, i]), 0.0)
        if collect_r:
            r[:, i, :] = np.where(
                act[:, None],
                Pn[:, None] * (co["bx"][:, i] * X[:, i, None] + co["b0"][:, i]),
                0.0)
    Y = c + P * X
    # freeze padded tails at each path's own terminal value
    np.copyto(Y, (c_term + P_term * X[np.arange(N), batch.K])[:, None],
              where=np.arange(Kmax + 1) >= batch.K[:, None])
    return Y, A, r, P, c


# -------------------------------------------------------------- lsmc backward

# inner rows of one regression sweep: 16 outer paths of 256 inner paths.
# Larger batches are swept in consecutive groups of their K-sorted order,
# which bounds the memory of the inner forward arrays.
_LSMC_ROWS = 4096


def _basis(x: np.ndarray, degree: int):
    """Standardised monomial basis of each outer path's inner states.

    ``x`` holds one row of inner states per outer path.  Returns the
    basis (paths, inner, degree + 1), the centre and scale of each row,
    and a mask of rows with no spread.  Such a row keeps only the
    constant column (its powers are zeroed and its scale set to 1), so
    its fit is the ridge mean and every evaluation returns it exactly.
    """
    mu, sd = x.mean(axis=1), x.std(axis=1)
    flat = sd < 1e-12
    sd = np.where(flat, 1.0, sd)
    s = (x - mu[:, None]) / sd[:, None]
    s[flat] = 0.0
    Phi = np.empty(x.shape + (degree + 1,))
    Phi[..., 0] = 1.0
    for j in range(1, degree + 1):
        Phi[..., j] = Phi[..., j - 1] * s
    return Phi, mu, sd, flat


def _poly_eval(beta, mu, sd, x):
    """Horner sum of beta_j ((x - mu) / sd)^j with one fit per outer path.

    The fits run along the leading axis of ``beta`` (paths, degree + 1),
    ``mu`` and ``sd``; ``x`` leads with the same axis.
    """
    row = (slice(None),) + (None,) * (x.ndim - 1)
    s = (x - mu[row]) / sd[row]
    out = np.zeros_like(s)
    for j in range(beta.shape[1] - 1, -1, -1):
        out = out * s + beta[:, j][row]
    return out


def _picard(model, spec, t1, u, x, ey, a, r_nodes, v, du, sweeps):
    """``sweeps`` Picard sweeps of y = ey + du * lam int g(..., y, ...) from ey:
    the implicit step of the ODE kernel and of both LSMC read-offs."""
    y = ey
    for _ in range(sweeps):
        vals = model.g(t1[:, None], u, x[:, None], y[:, None], a[:, None], r_nodes,
                       v[:, None])
        y = ey + du * (spec.intensity * spec.integrate(vals, (x.size,)))
    return y


def _inner_bundles(bundle: PathBundle, n_inner: int) -> list:
    """The inner ensemble of an outer path: its subordinator path with
    fresh noise from the path's own named substreams."""
    master = bundle.seeds.get("master", 0)
    pidx = bundle.seeds.get("path", 0)
    grid = bundle.subordinator.grid
    return [PathBundle(
        subordinator=bundle.subordinator, inverse=bundle.inverse,
        brownian=sample_brownian(grid, stream(master, f"lsmc-brownian-{pidx}", j)),
        jumps=sample_jumps(bundle.jump_spec, grid.horizon,
                           stream(master, f"lsmc-jumps-{pidx}", j)),
        jump_spec=bundle.jump_spec, calendar_horizon=bundle.calendar_horizon)
        for j in range(n_inner)]


def _lsmc_backward(model: ModelSpec, control, batch: _Batch, X, v, n_inner=256,
                   degree=3, ridge=1e-8, n_picard=3):
    """Regression solve of a batch of outer paths, each on an inner
    ensemble that shares its subordinator path.

    ``X`` and ``v`` are the batch's forward rows.  Paths with solver
    steps are taken in K-sorted order, in groups of at most
    ``_LSMC_ROWS // n_inner``.  A group's inner ensembles run through one
    forward solve (each inner row reads its outer path's label, so
    per-path controls see the outer path) and one backward sweep from
    the group's longest path.  At step i the paths with K > i are active:
    the mean and Brownian fits share a Gram matrix in X_i and are solved
    as two right-hand sides, the jump fit regresses on X_{i+1}, all
    active paths in one batched solve each, after one batched eigvalsh
    has checked every Gram matrix against the 1e12 condition bound.  The
    fits are then read off the inner states (with a Picard loop for the
    driver, which gives the next step's targets) and off the outer paths
    (the same Picard loop over the active rows).  Every path's result
    depends on its own rows only, so it does not depend on the batch.

    Returns Y (N, Kmax + 1), each row frozen at phi(X_K) from its
    horizon on, and A (N, Kmax) and r (N, Kmax, nodes), zero there.
    """
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, w, z = batch.spec, batch.w, batch.znodes
    XT = X[np.arange(N), batch.K]
    Y = np.empty((N, Kmax + 1))
    Y[:] = np.broadcast_to(np.asarray(model.phi(XT), dtype=float), (N,))[:, None]
    A = np.zeros((N, Kmax))
    r = np.zeros((N, Kmax, w.size))
    order = np.argsort(batch.K, kind="stable")
    order = order[batch.K[order] > 0]
    size = max(1, _LSMC_ROWS // n_inner)
    ridge_eye = ridge * np.eye(degree + 1)
    for lo in range(0, order.size, size):
        rows = order[lo: lo + size]
        K = batch.K[rows]
        labels = batch.labels[rows]
        inner = Ensemble([b for p in rows for b in _inner_bundles(batch.ens[batch.idx[p]],
                                                                  n_inner)])
        inner = inner.rows(labels=np.repeat(labels, n_inner))
        Xi, vi, _, _, _, _ = _forward_batch(model, control, inner)
        if not np.all(np.isfinite(Xi)):
            raise FloatingPointError("basis overflow: non-finite state values")
        Yn = np.broadcast_to(np.asarray(
            model.phi(Xi[np.arange(inner.N), inner.K]), dtype=float), (inner.N,)).copy()
        for i in range(inner.Kmax - 1, -1, -1):
            a = int(np.searchsorted(K, i, side="right"))
            P, sl, u = K.size - a, slice(a * n_inner, None), i * du
            x = np.ascontiguousarray(Xi[sl, i]).reshape(P, n_inner)
            x1 = np.ascontiguousarray(Xi[sl, i + 1]).reshape(P, n_inner)
            Phi, mu, sd, flat = _basis(x, degree)
            Phi1, mu1, sd1, flat1 = _basis(x1, degree)
            PhiT, Phi1T = Phi.transpose(0, 2, 1), Phi1.transpose(0, 2, 1)
            G = PhiT @ Phi + ridge_eye
            G1 = Phi1T @ Phi1 + ridge_eye
            # condition number above 1e12, or a smallest eigenvalue <= 0;
            # a row without spread has the constant fit and is exempt
            lam = np.linalg.eigvalsh(np.concatenate([G, G1]))
            bad = (lam[:, 0] <= 0.0) | (lam[:, -1] > 1e12 * lam[:, 0])
            bad = bad.reshape(2, P) & ~np.stack([flat, flat1])
            if np.any(bad):
                p = int(np.argmax(bad.any(axis=0)))
                raise np.linalg.LinAlgError(
                    f"regression rank deficiency at step {i} (path {labels[a + p]})")
            yn = Yn[sl].reshape(P, n_inner)
            dB = inner.dB[sl, i].reshape(P, n_inner)
            beta = np.linalg.solve(G, PhiT @ np.stack([yn, yn * dB / du], axis=-1))
            beta_v = np.linalg.solve(G1, Phi1T @ yn[..., None])[..., 0]
            beta_m, beta_a = beta[..., 0], beta[..., 1]

            # inner states: fitted expectation, integrands and driver
            fit = Phi @ beta
            Ey, Ai = fit[..., 0].ravel(), fit[..., 1].ravel()
            ti, xi, vin = inner.t[sl, i], x.ravel(), vi[sl, i]
            bi = np.broadcast_to(np.asarray(
                model.b(ti[:, None], u, xi[:, None], vin[:, None], z), dtype=float),
                (xi.size, z.size))
            ri = (_poly_eval(beta_v, mu1, sd1, x[..., None] + bi.reshape(P, n_inner, -1))
                  - _poly_eval(beta_v, mu1, sd1, x)[..., None]).reshape(xi.size, -1)
            Yn[sl] = _picard(model, spec, ti, u, xi, Ey, Ai, ri, vin, du, n_picard)

            # outer paths: the same fits read at their own states
            out = rows[a:]
            to, xo, vo = batch.t[out, i], X[out, i], v[out, i]
            A[out, i] = _poly_eval(beta_a, mu, sd, xo)
            bo = np.broadcast_to(np.asarray(
                model.b(to[:, None], u, xo[:, None], vo[:, None], z), dtype=float),
                (P, z.size))
            r[out, i] = (_poly_eval(beta_v, mu1, sd1, xo[:, None] + bo)
                         - _poly_eval(beta_v, mu1, sd1, xo)[:, None])
            Y[out, i] = _picard(model, spec, to, u, xo, _poly_eval(beta_m, mu, sd, xo),
                                A[out, i], r[out, i], vo, du, n_picard)
    return Y, A, r


# ----------------------------------------------------------- backward driver

def _ode_backward(model: ModelSpec, batch: _Batch, X, v, n_picard=4):
    """Regime "ode" (A = r = 0): ``n_picard`` Picard sweeps per step over the
    rows inside their horizon; rows past it stay frozen at phi(X_K)."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, w = batch.spec, batch.w
    XT = X[np.arange(N), batch.K]
    Y = np.empty((N, Kmax + 1))
    Y[:] = np.broadcast_to(np.asarray(model.phi(XT), dtype=float), (N,))[:, None]
    for i in range(Kmax - 1, -1, -1):
        act = i < batch.K
        n = int(act.sum())
        Y[act, i] = _picard(model, spec, batch.t[act, i], i * du, X[act, i], Y[act, i + 1],
                            np.zeros(n), np.zeros((n, w.size)), v[act, i], du, n_picard)
    return Y, np.zeros((N, Kmax)), np.zeros((N, Kmax, w.size))


def backward_method(model: ModelSpec, control, method=None) -> str:
    """Resolve the backward regime or fail loudly: by default "ode" for
    conditionally deterministic models, "affine" for fully affine models
    under open-loop controls, else "lsmc"; an explicit "affine" needs both."""
    if method is None:
        if model.conditionally_deterministic:
            return "ode"
        if model.affine_solvable and getattr(control, "state_free", False):
            return "affine"
        return "lsmc"
    if method not in ("ode", "affine", "lsmc"):
        raise ValueError(f"unknown backward method {method!r}")
    if method == "affine" and not model.affine_solvable:
        raise ValueError("affine backward requested for a model without "
                         "the full set of linearity flags")
    if method == "affine" and not getattr(control, "state_free", False):
        raise ValueError("affine backward needs an open-loop control")
    return method


def _backward_batch(model: ModelSpec, control, batch: _Batch, X, v, method=None,
                    n_inner=256):
    """(Y, A, r) of a batch from its forward rows by the resolved regime;
    past its horizon a row keeps its terminal value, with A and r zero."""
    method = backward_method(model, control, method)
    if method == "ode":
        return _ode_backward(model, batch, X, v)
    if method == "affine":
        Y, A, r, _, _ = _affine_backward(
            batch, X, _probe_affine(model, batch, v), np.full(batch.N, model.M_T),
            np.full(batch.N, float(model.phi(0.0))))
        return Y, A, r
    return _lsmc_backward(model, control, batch, X, v, n_inner=n_inner)


def solve_backward_dual(model: ModelSpec, control, bundle: PathBundle,
                        forward: FBSDESolution, method=None,
                        n_inner=256) -> FBSDESolution:
    """Fill the backward components of a forward solution, terminal first.

    A batch-of-one call of the batch dispatcher; ``method`` overrides the
    automatic regime choice ("ode", "affine", "lsmc") of backward_method.
    """
    control = as_control(control)
    method = backward_method(model, control, method)
    Y, A, r = (out[0] for out in _backward_batch(
        model, control, _single(bundle), forward.X[None, :],
        forward.control_values[None, :], method, n_inner))
    K = bundle.solver_steps
    gap = abs(Y[K] - float(model.phi(forward.X[K])))
    tol = 1e-10 if method in ("ode", "affine") else 1e-6
    if gap > tol:
        raise AssertionError(f"terminal consistency violated: |Y_T - phi(X_T)| = {gap}")
    forward.Y, forward.A, forward.r = Y, A, r
    return forward


# ------------------------------------------------------------- composition

def compose_duality(dual: FBSDESolution, inverse: InversePath) -> FBSDESolution:
    """Calendar-clock solution: every component read at E(t)."""
    if dual.clock != "operational":
        raise ValueError("compose_duality expects an operational-clock solution")
    if dual.grid is None:
        # degenerate path: the clock never advances, so every calendar
        # instant reads the initial state
        if np.max(inverse.values) > 0.0:
            raise ValueError("horizon mismatch: inverse exceeds the dual grid")
        idx = np.zeros(inverse.values.size, dtype=int)
    else:
        du = dual.grid.step
        if np.max(inverse.values) > dual.grid.horizon + 1e-9 * du:
            raise ValueError("horizon mismatch: inverse exceeds the dual grid")
        idx = np.rint(inverse.values / du).astype(int)
    out = FBSDESolution(
        clock="calendar", grid=None, calendar_grid=inverse.calendar_grid,
        X=dual.X[idx],
        Y=None if dual.Y is None else dual.Y[idx],
        A=None if dual.A is None else dual.A[np.minimum(idx, dual.A.shape[0] - 1)],
        r=None if dual.r is None else dual.r[np.minimum(idx, dual.r.shape[0] - 1)],
    )
    return out


def solve_calendar_direct(model: ModelSpec, control, bundle: PathBundle):
    """Simulate the calendar-form system directly on the matched grid.

    Deliberately a separate, slower code path from the dual solver: it
    reads composed drivers (dE, dB_E, calendar-bucketed events) step by
    step, so agreement with compose_duality is an actual check of the
    duality construction rather than a reindexing tautology.  Backward
    part requires an affine-solvable model.
    """
    control = as_control(control)
    inv = bundle.inverse
    tgrid = inv.calendar_grid
    E = inv.values
    du = bundle.subordinator.grid.step
    spec = bundle.jump_spec
    z, _ = spec.quadrature()
    lam = spec.intensity
    J = tgrid.size - 1
    dE = np.diff(E)
    bcal = noise_mod.compose_time_change(bundle.brownian, inv).values
    dBE = np.diff(bcal)

    X = np.empty(J + 1)
    X[0] = model.x0
    v = np.empty(J)
    label = np.array([bundle.seeds.get("path", 0)], dtype=int)
    for j in range(J):
        vj = np.asarray(model.control_set.admit(
            control.values_at(int(round(E[j] / du)), tgrid[j], E[j], X[j], label)))
        vj = float(vj.reshape(-1)[0])
        v[j] = vj
        here = (bundle.jumps.times > E[j]) & (bundle.jumps.times <= E[j + 1])
        jump = 0.0
        for zk in bundle.jumps.marks[here]:
            jump += float(model.b(tgrid[j], E[j], X[j], vj, zk))
        comp = lam * dE[j] * float(spec.integrate(model.b(tgrid[j], E[j], X[j], vj, z)))
        X[j + 1] = (X[j] + float(model.f(tgrid[j], E[j], X[j], vj)) * dE[j]
                    + float(model.sigma(tgrid[j], E[j], X[j], vj)) * dBE[j]
                    + jump - comp)

    if not model.affine_solvable:
        return X, None, tgrid
    # backward affine recursion in calendar steps, dE-weighted
    P = model.M_T
    c = float(model.phi(0.0))
    Y = np.empty(J + 1)
    Y[J] = c + P * X[J]
    for j in range(J - 1, -1, -1):
        h = dE[j]
        f0 = float(model.f(tgrid[j], E[j], 0.0, v[j]))
        fx = float(model.f(tgrid[j], E[j], 1.0, v[j])) - f0
        s0 = float(model.sigma(tgrid[j], E[j], 0.0, v[j]))
        sx = float(model.sigma(tgrid[j], E[j], 1.0, v[j])) - s0
        b0 = np.asarray(model.b(tgrid[j], E[j], 0.0, v[j], z), dtype=float)
        bx = np.asarray(model.b(tgrid[j], E[j], 1.0, v[j], z), dtype=float) - b0
        g00 = float(model.g(tgrid[j], E[j], 0.0, 0.0, 0.0, 0.0, v[j]))
        gx = float(model.g(tgrid[j], E[j], 1.0, 0.0, 0.0, 0.0, v[j])) - g00
        gy = float(model.g(tgrid[j], E[j], 0.0, 1.0, 0.0, 0.0, v[j])) - g00
        ga = float(model.g(tgrid[j], E[j], 0.0, 0.0, 1.0, 0.0, v[j])) - g00
        gr = float(model.g(tgrid[j], E[j], 0.0, 0.0, 0.0, 1.0, v[j])) - g00
        den = 1.0 - h * lam * gy
        Pn, cn = P, c
        P = (Pn * (1.0 + h * fx) + h * lam * (gx + ga * Pn * sx
             + gr * Pn * float(spec.integrate(bx)))) / den
        c = (cn + h * (Pn * f0 + lam * (g00 + ga * Pn * s0
             + gr * Pn * float(spec.integrate(b0))))) / den
        Y[j] = c + P * X[j]
    return X, Y, tgrid


# ------------------------------------------------------------------- cost

def _batch_cost(model: ModelSpec, control, batch: _Batch, method=None):
    X, v, _, _, _, _ = _forward_batch(model, control, batch)
    Y, A, r = _backward_batch(model, control, batch, X, v, method)
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, lam = batch.spec, batch.spec.intensity
    run = np.zeros(N)
    for i in range(Kmax):
        act = i < batch.K
        li = model.l(batch.t[:, i, None], i * du, X[:, i, None], Y[:, i, None],
                     A[:, i, None], r[:, i, :], v[:, i, None])
        run += np.where(act, lam * du * spec.integrate(li, (N,)), 0.0)
    XT = X[np.arange(N), batch.K]
    hterm = np.broadcast_to(np.asarray(model.h(XT), dtype=float), (N,))
    gterm = np.broadcast_to(np.asarray(model.gamma(Y[:, 0]), dtype=float), (N,))
    return run + hterm + gterm, X, Y, v, A, r


def evaluate_cost(model: ModelSpec, control, bundles, method=None,
                  chunk: int = 512) -> CostEstimate:
    """Monte Carlo cost over an ensemble: running + terminal + initial parts.

    Paths are solved in batches of at most ``chunk`` paths with similar
    solver-step counts, so padding stays small and memory stays flat in
    the ensemble size.  Every path's value depends on its own row only
    and lands at its ensemble position, so ``per_path`` (returned for
    paired, common-random-number comparisons), the mean and the standard
    error are bit-identical for every ``chunk``.
    """
    control = as_control(control)
    ens = as_ensemble(bundles)
    per_path = np.empty(len(ens))
    for idx, batch in _sorted_batches(ens, chunk):
        vals, _, _, _, _, _ = _batch_cost(model, control, batch, method=method)
        per_path[idx] = vals
    mean = float(per_path.mean())
    se = float(per_path.std(ddof=1) / np.sqrt(per_path.size)) if per_path.size > 1 else 0.0
    return CostEstimate(mean=mean, std_error=se, per_path=per_path)


def _solved_ensemble(model: ModelSpec, control, bundles, chunk: int = 512) -> EnsembleSolution:
    """Forward and backward components of every path, in ensemble order.

    The solves run in K-sorted batches of at most ``chunk`` paths; each
    batch's rows land at their ensemble positions, held past the batch's
    width as past their horizon, so the result does not depend on
    ``chunk``.
    """
    control = as_control(control)
    ens = as_ensemble(bundles)
    N, Kmax = len(ens), int(ens.K.max())
    t, X, Y = (np.empty((N, Kmax + 1)) for _ in range(3))
    A, v = np.zeros((N, Kmax)), np.zeros((N, Kmax))
    r = np.zeros((N, Kmax, ens.spec.n_quad))
    for idx, batch in _sorted_batches(ens, chunk):
        _, Xb, Yb, vb, Ab, rb = _batch_cost(model, control, batch)
        k = batch.Kmax
        for full, part in ((t, batch.t), (X, Xb), (Y, Yb)):
            full[idx, : k + 1] = part
            full[idx, k + 1:] = part[:, -1:]
        A[idx, :k], r[idx, :k], v[idx, :k] = Ab, rb, vb
    return EnsembleSolution(K=ens.K, du=ens.du, t=t, X=X, Y=Y, A=A, r=r,
                            v=_hold(v, ens.K, 0.0, Kmax))


# ------------------------------------------------------------ builtin models

def build_model(name: str, params=None):
    """Built-in model library: (ModelSpec, LevyJumpSpec, SubordinatorSpec, params)."""
    if name == "cash":
        from .cash import CashSpec, build_cash_model

        spec = CashSpec(**(params or {}))
        model = build_cash_model(spec)
        defaults = dict(x0=spec.x0, horizon=spec.horizon, step=0.01,
                        alpha=spec.subordinator.alpha, lam=spec.jump.intensity,
                        c=spec.jump.c)
        return model, spec.jump, spec.subordinator, defaults
    if name not in ("linear_test", "quadratic_drift"):
        raise KeyError(f"unknown model {name!r}")
    p = dict(x0=1.0, lam=2.0 if name == "linear_test" else 1.0, c=1.0, alpha=0.7,
             horizon=1.0, step=0.01)
    p.update(params or {})
    lam = p["lam"]
    if name == "linear_test":
        maps = dict(
            f=lambda t1, t2, x, v: -x,
            sigma=lambda t1, t2, x, v: 0.1 * x + 0.2,
            b=lambda t1, t2, x, v, z: 0.05 * z * x,
            g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.5 * v) / lam,
            l=lambda t1, t2, x, y, a, r, v: 0.5 * x**2 / lam)
    else:
        # affine in the state, not in v
        maps = dict(
            f=lambda t1, t2, x, v: -x + v + 0.5 * v**2,
            sigma=lambda t1, t2, x, v: 0.2 + 0.1 * v + 0.1 * v**2,
            b=lambda t1, t2, x, v, z: z * (0.1 * v + 0.05 * v**2),
            g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.3 * v**2) / lam,
            l=lambda t1, t2, x, y, a, r, v: 0.0)
    model = ModelSpec(**maps, phi=lambda x: 1.0 * x, h=lambda x: 0.0, gamma=lambda y: -y,
                      control_set=Box(-2.0, 2.0), x0=p["x0"], M_T=1.0,
                      linear={"f", "sigma", "b", "g"}, name=name)
    return model, LevyJumpSpec(c=p["c"], intensity=lam), SubordinatorSpec(alpha=p["alpha"]), p
