"""Dual-system forward-backward solvers and the cost functional.

Everything here runs on the operational clock.  Conditional on one
subordinator trajectory the dual system is a classical FBSDE with
deterministic time dependence, so each path is solved on its own grid
[0, E_T] and mapped to calendar time afterwards by composition with the
inverse staircase.

Ensembles are ragged: every path has its own random horizon, heavy-tailed
in its step count K.  An Ensemble holds the paths only as flat arrays
with per-path offsets (subordinator and Brownian values up to first
passage, jump events): make_ensemble draws each path's subordinator
straight into them and keeps its Brownian and jump substreams, from
which a path's noise is drawn the first time a batch, a bundle view or
a flat accessor reads it, once per path and shared by every
sub-ensemble; Ensemble(bundles) packs a list into the same arrays.
Every path's generator state for a purpose is derived in one vectorised
pass (seeding.Substreams) and drawn through one reused generator, the
streams of seeding.stream bit for bit, so sampling builds three
generators per ensemble, not three per path, and a late draw has the
bytes of an early one.  An integer index rebuilds one PathBundle as
views, whose inverse clock is computed only when read; no ensemble
solver reads one.  The Ensemble gathers the padded arrays of any rows,
in K order, into the one layout every solver reads (a _Batch, width
Kmax, cells past a row's horizon held or zero, its noise fields
gathered when first read); the LSMC inner ensembles are drawn straight
into the same layout.  Ensemble-wide solves sort the rows by K (the cost
cuts that order into batches, so each pads only to paths of similar
horizon) and scatter per-row results back to ensemble order before any
mean; solved ensembles stay padded (EnsembleSolution) up to the
certificate.  One pass over those batches (_ensemble_cost) gives the
cost and, on request, the solved rows of the ensemble's first paths, in
batches of their own, so a certificate solves each of its rows once.
A batch of rows nobody keeps solves only what its cost reads: in the
affine regime, with a running cost that reads none of x, y, a, r and an
h that does not read x (the cash model's), that is the P and c sweeps,
Y_0 = c_0 + P_0 x0 and l on (t1, t2, v), with no forward state, Y
table, A or r, and no noise drawn (_batch_cost).  A reader that needs
only the clock and an open-loop control's rates, such as a margin
search whose dH/dv reads no state, takes them without any solve
(_clock_rows).
A path reads the control row of its label: its position in the ensemble
an entry point is given, or the seeds["path"] of a bundle solved alone.
Every control gives values_at(i, t1, t2, x, paths), its values at one
step, which the map step and solve_calendar_direct read.  A control is
open-loop exactly when it also gives table(t, labels), its values on
rows ``labels`` at every step of ``t``, their (rows, width) calendar
times, with the bytes of values_at (ConstantControl, TableControl,
StepwiseControl, and a PerturbedControl of two such; a FeedbackControl
reads the state and has none).  Only an open-loop control selects the
affine regime, and its table is read once per batch, before any state
exists (_open_loop).

Every forward system (the state here, the first adjoint and the
variational state in smp) runs through one forward loop, _euler, stepped
on the rows live at step i only (a suffix of the K-sorted batch), so no
padded cell is computed and no control is called past a horizon (an
open-loop table read whole drops its cells there, _open_loop); each row
holds its value past its horizon.  The loop's per-step hook is one of
two steps.  The state's map step (in _forward_batch), the explicit Euler
step x_{i+1} = x_i + f du + sigma dB_i + (the step's event jumps b)
- lam du int b, serves solve_forward_dual, the ode and lsmc regimes (the
LSMC inner passes included), closed-loop controls and models that are
not affine.  Every linear system takes the slope/intercept step
z_{i+1} = alpha_i z_i + beta_i (_affine_step), built once per batch from
a coefficient record with the keys _affine_backward reads and the
jump's slope and intercept at each event: the state of the cost's
affine regime, which reads its open-loop control first and probes the
model once (_probe_affine), and smp's first adjoint and variational
state, which read one probe per solve.  The probe reads each slope in
x, y, a and r by the one rule for every partial of a model map
(_partial): the model's registered partial at the probe's x = 0
arguments, in the shape it returns, else a scalar 0.0 in an argument
the map provably never reads (ModelSpec decides that from the map's code
when it is built), else the map's value at 1 less its value at 0;
either way the state's two steps agree to rounding, not to the bit.

Every backward solve goes through one dispatcher, _backward_batch, which
resolves the regime (backward_method) and runs that regime's batched
kernel on the padded batch; the single-path solvers are batch-of-one
calls of the batch code, whose state takes the map step: a path's X from
solve_forward_dual matches the cost's affine-regime X to rounding.  The
ode and affine kernels start every row at its terminal value and step
only the rows live at step i, so a row holds that value past its
horizon; the step sums of the running cost and the Gateaux integral
(_step_sum) likewise evaluate live cells only, with one map call per
run of steps whose live rows are the same, except a running cost that
reads none of x, y, a, r (ModelSpec decides that from l's code): it is
called once per block of such runs, on the rows live at the block's
first step, whose cells past a horizon hold t and v as the probe's do,
and each row reads its sum at its last step, with the bits of the runs.
There is one r: every
regime hands it over as a zero-argument builder of its padded
(N, Kmax, nodes) table, zero past each horizon (affine: _jump_table
from the probe and the solved X and P; lsmc: the table its sweep fills;
ode: zeros), and every reader reads that plain table.  A cost pass runs
the builder at most once, and only when it keeps its rows or its
running cost can read r, which ModelSpec decides from l's code when it
is built; any other l gets a broadcast zero in its place (none of the
built-in models' l reads r).  The second adjoint's R and the
variational r1 come from the same builder.  The regimes are:

* "ode"     the driver and terminal data are deterministic given the
            subordinator path, so Y is a backward ODE and A = r = 0,
            solved by Picard sweeps over the live rows of each step;
* "affine"  coefficients affine in the state, driver affine in
            (x, y, a, r), linear terminal map: the implicit scheme has
            an exact conditional solution Y_i = c_i + P_i X_i, P and then
            c solved backward as slope/intercept recursions
            z_i = a_i z_{i+1} + b_i on coefficients built once per batch
            (_affine_sweeps).  A recursion whose coefficients hold one
            value on every live cell and whose terminal value is one
            value (the cash model's P always, its c under a constant
            rate) runs once, on scalars, by steps to go, and each row
            reads it back as z_i = s_{K-i}; any other steps its live
            rows in a loop (_sweep), with the same bits.  A is read off
            P_{i+1} in one pass after it, and r,
            (bx X_i + b0) P_{i+1}, is built as a table by a caller that
            reads it (this is the workhorse for the built-in models).
            The cost probes the coefficients once, before its forward
            pass, and the state and this kernel read the same probe;
* "lsmc"    least-squares Monte Carlo regression over an inner ensemble
            that shares the subordinator path, monomial basis in X up
            to degree 3 with a small ridge term.  The outer paths of a
            batch are swept backward together: their inner noise is
            drawn as arrays from each outer path's own named
            substreams into one padded batch and one forward solve,
            and at each step the Gram matrices of all active paths are
            checked for conditioning (one batched eigvalsh) and solved
            in one batched call.  At most _LSMC_ROWS inner rows share
            a sweep.

One rule covers non-finite values, and one helper, _finite, builds
every error it raises: FloatingPointError("<what> blow-up at step s
(path p)"), where s is the first step in the recursion's own order with
a non-finite value (the last such column of a backward table) and p the
lowest path label non-finite at s, so the message does not depend on
the batch order or ``chunk``.  _euler checks each forward step inside
its loop, before the next step hands the value to the maps and the
control (a feedback rate read at x = inf is NaN, which Box.admit would
refuse as infeasible); the affine kernel checks P once, after its sweep
(a singular implicit step).  The kernels leave c, Y, A and r (smp's q,
k, R and Y1 among them) and the costs unchecked, so each terminal or
initial consistency check reads the values it is handed and refuses a
NaN gap with its own AssertionError.
Where a value is reported, it is checked: solve_backward_dual's Y after
its terminal check, solve_calendar_direct's X at each step and its Y
once, and every reported CostEstimate, in evaluate_cost and for the
certificate's u* pass (_finite_cost): its per-path costs ("cost
blow-up (path p)", the lowest ensemble position) and its mean and
standard error ("cost mean blow-up").  So a pass's verdict is the same
for every ``keep``, ``chunk`` and regime.

Every integral against the jump measure (the drivers' and running
costs', the jump coefficient's compensator) goes through
LevyJumpSpec.integrate, which takes a value that does not vary over
the marks, such as a driver that returns one column, as that value
times the rule's mass, exactly and without materialising a nodewise
copy.  Stochastic integrals keep the left-endpoint convention of the noise
module; jump events inside a step act on the step's left state.  All
randomness is derived from a master seed through named substreams, and
reductions run in path order, so results are reproducible bit for bit.
"""

import copy
import dis
import inspect
import math
import numbers
import types
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import noise as noise_mod
from .noise import BrownianPath, JumpStream, LevyJumpSpec
from .seeding import Substreams, stream
from .time_change import (
    InversePath,
    OperationalGrid,
    SubordinatorPath,
    SubordinatorSpec,
    invert_subordinator,
    matched_calendar_grid,
    sample_subordinators,
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

    def admit(self, v):
        """Project values violating the box by at most 1e-9; error beyond,
        and on any non-finite value, which no side of a box admits."""
        v = np.asarray(v, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("control infeasible: non-finite value")
        if not self.contains(v, 1e-9):
            raise ValueError("control infeasible: value outside the control set "
                             f"[{self.lo}, {self.hi}]")
        return np.clip(v, self.lo, self.hi)

    def interior_point(self) -> float:
        """The midpoint of a bounded box, 1 inside the finite side of a
        one-sided box, and 0 on the whole line."""
        if np.isfinite(self.lo) and np.isfinite(self.hi):
            return 0.5 * (self.lo + self.hi)
        if np.isfinite(self.lo):
            return self.lo + 1.0
        return self.hi - 1.0 if np.isfinite(self.hi) else 0.0


class ConstantControl:
    """v(t) = value everywhere; open-loop (it has ``table``)."""

    def __init__(self, value: float):
        self.value = float(value)

    def values_at(self, i, t1, t2, x, paths):
        return np.full(np.shape(t1), self.value)

    def table(self, t, labels) -> np.ndarray:
        """values_at of rows ``labels`` at the steps of ``t``, their
        (rows, width) calendar times, at once."""
        return np.full(np.shape(t), self.value)


class FeedbackControl:
    """v = fn(t1, t2, x); fn must broadcast over numpy arrays.  It reads
    the state, so it has no ``table`` and is not open-loop."""

    def __init__(self, fn):
        self.fn = fn

    def values_at(self, i, t1, t2, x, paths):
        return np.asarray(self.fn(t1, t2, x), dtype=float)


class TableControl:
    """Open-loop table on calendar time, left-constant interpolation."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0.0):
            raise ValueError("table times must be finite and strictly increasing")

    def values_at(self, i, t1, t2, x, paths):
        return self.table(t1, paths)

    def table(self, t, labels) -> np.ndarray:
        """The value in force at each calendar time of ``t``, any shape."""
        idx = np.searchsorted(self.times, np.asarray(t, dtype=float), side="right") - 1
        return self.values[np.clip(idx, 0, self.times.size - 1)]


class StepwiseControl:
    """Per-path open-loop values on the operational solver grid.

    Row p holds the control at steps 0..K_p-1 of the path labelled p
    (padding beyond is ignored): the path at position p of the ensemble
    an entry point is given, or a bundle with seeds["path"] = p solved
    alone.  This is how path-dependent optimal controls are stored: the
    calendar-time value at t is the row entry at step E(t)/du.
    """

    def __init__(self, values):
        self.values = np.atleast_2d(np.asarray(values, dtype=float))

    def values_at(self, i, t1, t2, x, paths):
        col = min(i, self.values.shape[1] - 1)
        return self.values[np.asarray(paths), col]

    def table(self, t, labels) -> np.ndarray:
        """values_at of rows ``labels`` at the steps of ``t``, their
        (rows, width) calendar times, at once."""
        cols = np.minimum(np.arange(np.shape(t)[1]), self.values.shape[1] - 1)
        return self.values[np.asarray(labels)[:, None], cols]


class PerturbedControl:
    """base + rho * direction, for variational and gap experiments.  It
    is open-loop, with a ``table``, exactly when both parts are."""

    def __init__(self, base, direction, rho: float):
        self.base = base
        self.direction = direction
        self.rho = float(rho)
        if hasattr(base, "table") and hasattr(direction, "table"):
            self.table = lambda t, labels: (base.table(t, labels)
                                            + self.rho * direction.table(t, labels))

    def values_at(self, i, t1, t2, x, paths):
        return (self.base.values_at(i, t1, t2, x, paths)
                + self.rho * self.direction.values_at(i, t1, t2, x, paths))


def as_control(value) -> "ConstantControl":
    if np.isscalar(value):
        return ConstantControl(float(value))
    return value


# ------------------------------------------------------------------- model

# names through which a function can read its own frame's locals
_FRAME_READS = frozenset(("locals", "vars", "eval", "exec", "_getframe", "currentframe"))


def _may_read(fn, position: int) -> bool:
    """False only when the map ``fn`` provably never reads its argument at
    ``position`` (r is a driver's or running cost's 6th): a plain Python
    function without *args or **kwargs, no instruction of which refers to
    that parameter's name (a fused load carries a tuple of names, so
    tuples are searched too), which does not close over it and names none
    of _FRAME_READS.  Any other map (a callable object, a wrapper taking
    *args, a builtin) may read it.  Probing with values is not sound:
    np.where(r > 0, ...) swallows a NaN sentinel, and two probes can miss
    a branch."""
    if not isinstance(fn, types.FunctionType):
        return True
    code = fn.__code__
    if (code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
            or code.co_argcount <= position):
        return True
    name = code.co_varnames[position]
    if name in code.co_cellvars or _FRAME_READS & set(code.co_names):
        return True
    for ins in dis.get_instructions(code):
        val = ins.argval
        if (isinstance(val, str) and val == name) or (isinstance(val, tuple) and name in val):
            return True
    return False


# argument slot of each differentiable variable, by model map: the one
# table of the maps' signatures
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
# the state slots an affine model declares each map affine in, where the
# probe takes its slopes, and the slopes it reads as registered partials
_PROBED = {name: "".join(_ARG_POS[name]).replace("v", "") for name in ("f", "sigma", "b", "g")}
_PROBE_SLOPES = frozenset(f"{name}_{slot}" for name, slots in _PROBED.items() for slot in slots)
# the state slots of a running cost: one that reads none of them, with an
# h that does not read x, reads a solved row only through Y_0 (_batch_cost)
_STATE = frozenset("xyar")


def _difference(fn, args, pos: int, at0) -> np.ndarray:
    """``fn`` at 1 in argument ``pos`` less ``at0``, its value there at 0:
    the exact slope of a map affine in that argument."""
    return np.asarray(fn(*args[:pos], 1.0, *args[pos + 1:]), dtype=float) - at0


def _partial(model, name: str, slot: str, args, at0=None) -> np.ndarray:
    """The partial of map ``name`` in ``slot`` at ``args``, by the one rule
    for every partial of a model map: the registered ``<name>_<slot>``,
    in the shape it returns; else a scalar 0.0 in a slot the map provably
    never reads (``model._unread``); else, in a slot an affine model
    declares affine (_PROBED), the map at 1 less the map at 0 there
    (_difference; ``at0`` is the latter when the caller holds it); else a
    central difference (noise.central_difference), which must be finite."""
    d = model.derivatives.get(f"{name}_{slot}")
    if d is not None:
        return np.asarray(d(*args), dtype=float)
    if slot in model._unread[name]:
        return np.asarray(0.0)
    fn, pos = getattr(model, name), _ARG_POS[name][slot]
    if model.affine and slot in _PROBED.get(name, ""):
        if at0 is None:
            at0 = np.asarray(fn(*args[:pos], 0.0, *args[pos + 1:]), dtype=float)
        return _difference(fn, args, pos, at0)
    out = noise_mod.central_difference(fn, args, pos)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite derivative probe for {name}_{slot}")
    return out


def model_derivative(model, name: str):
    """The partial map ``<coefficient>_<argument>``, e.g. ``"f_x"``, read
    by _partial's rule at the arguments it is called with."""
    target, _, slot = name.rpartition("_")
    if slot not in _ARG_POS.get(target, ()):
        raise KeyError(f"unknown derivative name {name!r}")
    return lambda *args: _partial(model, target, slot, args)


def _slopes(model, name: str, args, slots: str, intercept: bool = True) -> list:
    """Map ``name``'s value at ``args``, whose ``slots`` are all 0, and its
    slope in each of them by _partial, which reuses that value.  Without
    ``intercept`` the map is called only for a slope that is its 0/1
    difference (no registered partial, in a slot the map may read), and
    the value is None when none is."""
    at0 = None
    if intercept or any(f"{name}_{slot}" not in model.derivatives
                        and slot not in model._unread[name] for slot in slots):
        at0 = np.asarray(getattr(model, name)(*args), dtype=float)
    return [at0] + [_partial(model, name, slot, args, at0) for slot in slots]


@dataclass(frozen=True, kw_only=True, eq=False)
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

    A spec is immutable and checked once, when it is built: every map is
    probed at the origin, a linear terminal map (``M_T``) is checked
    against phi, and on an affine model every registered probe slope is
    checked (below).  ``dataclasses.replace(model, ...)`` gives a changed
    model and runs every check again; attribute writes raise
    FrozenInstanceError, and ``derivatives`` is a read-only copy of the
    mapping given.

    ``affine`` declares f, sigma and b affine in x and g affine in
    (x, y, a, r); with a linear terminal map it makes the model
    affine_solvable, and the solvers probe its coefficients at state 0.
    Every partial of a map, keyed ``<map>_<argument>`` (e.g. "f_x",
    "l_v"), the probe's slopes and dH/dv's included, is read by one rule
    (_partial): the closed form registered in ``derivatives``, else a
    scalar 0.0 in an argument the map provably never reads, else, in a
    slot an affine model declares affine, the map at 1 less the map at 0
    there, which is exact, else a central difference of the map.  On an
    affine model each registered probe slope (f_x, sigma_x, b_x, g_x,
    g_y, g_a, g_r) must match that difference at the validation point to
    1e-10 (1 + |difference|), else ValueError.
    Only scalar systems are implemented (n = m = d = k = 1).

    When it is built, the spec also decides from each map's code which
    arguments it provably never reads (_may_read), and keeps them as
    ``_unread[name]`` for every slot of _ARG_POS.  Besides the partials,
    a cost pass that keeps no rows builds r's table only for an l that may
    read r, and the LSMC sweep reads the jump fit off its inner states
    only for a g that may; any other map gets zeros in their place.
    """

    f: Callable
    sigma: Callable
    b: Callable
    g: Callable
    phi: Callable
    l: Callable
    h: Callable
    gamma: Callable
    control_set: Box
    x0: float
    n: int = 1
    m: int = 1
    d: int = 1
    k: int = 1
    M_T: float | None = None
    affine: bool = False
    conditionally_deterministic: bool = False
    derivatives: Mapping = field(default_factory=dict)
    name: str = ""
    _unread: Mapping = field(init=False, repr=False)

    def __post_init__(self):
        if (self.n, self.m, self.d, self.k) != (1, 1, 1, 1):
            raise NotImplementedError("only scalar models are supported")
        for key, cast in (("x0", float), ("affine", bool), ("conditionally_deterministic", bool)):
            object.__setattr__(self, key, cast(getattr(self, key)))
        object.__setattr__(self, "M_T", None if self.M_T is None else float(self.M_T))
        object.__setattr__(self, "derivatives",
                           types.MappingProxyType(dict(self.derivatives or {})))
        object.__setattr__(self, "_unread", types.MappingProxyType({
            name: frozenset(s for s in slots
                            if not _may_read(getattr(self, name), _ARG_POS[name][s]))
            for name, slots in _ARG_POS.items()}))
        if not np.isfinite(self.x0):
            raise ValueError(f"initial state x0 must be finite, got {self.x0}")
        # the validation point of f, sigma, b and g
        v0 = self.control_set.interior_point()
        args = dict(f=(0.0, 0.0, 0.0, v0), sigma=(0.0, 0.0, 0.0, v0),
                    b=(0.0, 0.0, 0.0, v0, 0.1), g=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, v0))
        probes = [getattr(self, name)(*a) for name, a in args.items()] + [
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
                    raise ValueError("linear_terminal is set but phi(x) is not "
                                     "phi(0) + M_T * x")
        # the affine probe trusts a registered slope in place of its map's
        # 0/1 difference, so it must match that difference
        for key, d in self.derivatives.items():
            if not self.affine or key not in _PROBE_SLOPES:
                continue
            name, slot = key.rsplit("_", 1)
            fn, a = getattr(self, name), args[name]
            got = np.asarray(d(*a), dtype=float)
            want = _difference(fn, a, _ARG_POS[name][slot],
                               np.asarray(fn(*a), dtype=float)).item()
            if not (got.size == 1 and abs(got.item() - want) <= 1e-10 * (1.0 + abs(want))):
                raise ValueError(f"registered {key} does not match {name} at "
                                 f"{slot} = 1 less {name} at {slot} = 0")

    @property
    def linear_terminal(self) -> bool:
        return self.M_T is not None

    @property
    def affine_solvable(self) -> bool:
        return self.affine and self.linear_terminal


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
    of the underlying probability space.  The inverse clock on the
    matched calendar grid is computed from the subordinator when
    ``inverse`` is first read.
    """

    subordinator: SubordinatorPath
    brownian: BrownianPath
    jumps: JumpStream
    jump_spec: LevyJumpSpec
    calendar_horizon: float
    seeds: dict = field(default_factory=dict)

    @cached_property
    def inverse(self) -> InversePath:
        sub = self.subordinator
        return invert_subordinator(sub, matched_calendar_grid(sub, self.calendar_horizon))

    @property
    def solver_steps(self) -> int:
        # last grid index with D <= T, i.e. E(T) in step units
        return self.subordinator.values.size - 2

    @property
    def solver_grid(self) -> OperationalGrid | None:
        return _solver_grid(self.subordinator.grid.step, self.solver_steps)

    def calendar_times(self) -> np.ndarray:
        return self.subordinator.values[: self.solver_steps + 1]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``."""
    a = a.view()
    a.flags.writeable = False
    return a


class _NoiseStore:
    """The Brownian values and jump events of an ensemble's paths, each
    path's drawn from its own substreams the first time it is read.

    Path p's Brownian values B(i du), i = 0..K_p + 1, sit in ``brownian``
    from ``start[p]`` on (the layout of the ensemble's times); its
    ``ev_len[p]`` events in (0, (K_p + 1) du], sorted, sit in ``time`` and
    ``mark`` from ``ev_lo[p]`` on, and the first ``ev_n[p]`` of them lie
    inside the solver horizon K_p du.  These are read-only views of the
    buffers the store writes.  ``draw(paths)`` draws the paths not drawn
    yet, in path order, from ``streams`` (the Brownian and jump
    seeding.Substreams, item p being path p's); the substreams are keyed
    by path, so a path drawn late has the bytes of one drawn first.  The
    events sit in the order their paths were drawn, in buffers that double
    when full; ``flat()`` gathers them in path order.  A store built
    without streams is packed: every path's noise is given to it
    (``add``).
    """

    def __init__(self, K, start, du: float, spec: LevyJumpSpec, brownian, streams=None):
        self.K, self.start, self.du, self.spec = K, start, du, spec
        self._brownian, self.brownian, self._streams = brownian, _readonly(brownian), streams
        self.drawn = np.zeros(K.size, dtype=bool)
        self.ev_len, self.ev_lo, self.ev_n = (np.zeros(K.size, dtype=int) for _ in range(3))
        # the event buffers, with room to grow; time and mark view their filled part
        self._buffers = (np.empty(0), np.empty(0))
        self.time, self.mark = (_readonly(b) for b in self._buffers)

    def add(self, paths, times, marks, counts):
        """Record the events of ``paths``, ``counts[j]`` of path j in turn."""
        used = self.time.size
        end = used + times.size
        if end > self._buffers[0].size:
            size = max(end, 2 * self._buffers[0].size)
            self._buffers = tuple(np.empty(size) for _ in range(2))
            self._buffers[0][:used], self._buffers[1][:used] = self.time, self.mark
        self._buffers[0][used:end], self._buffers[1][used:end] = times, marks
        self.time, self.mark = (_readonly(b[:end]) for b in self._buffers)
        owner = np.repeat(np.arange(paths.size), counts)
        inside = times <= self.K[paths][owner] * self.du + 1e-12 * self.du
        self.ev_len[paths], self.ev_lo[paths] = counts, used + np.cumsum(counts) - counts
        self.ev_n[paths] = np.bincount(owner[inside], minlength=paths.size)
        self.drawn[paths] = True

    def draw(self, paths):
        """Draw the noise of every path in ``paths`` not drawn yet."""
        new = paths[~self.drawn[paths]]
        if not new.size:
            return
        new = np.unique(new)
        rng_b, rng_j = self._streams
        times, marks = [], []
        for p, s, k in zip(new.tolist(), self.start[new].tolist(), (self.K[new] + 1).tolist()):
            noise_mod.draw_brownian(self._brownian[s: s + k + 1], self.du, rng_b[p])
            t, z = noise_mod.draw_jumps(self.spec, self.du * k, rng_j[p])
            times.append(t)
            marks.append(z)
        self.add(new, np.concatenate(times), np.concatenate(marks),
                 np.array([t.size for t in times], dtype=int))

    def flat(self) -> dict:
        """Every path drawn, the flat arrays of the noise by name, the
        events in path order: ``brownian``, ``ev_time``, ``ev_mark``,
        ``ev_len``, ``ev_lo`` (path p's first event in ev_time) and
        ``ev_n``.  The store keeps its draw order."""
        self.draw(np.arange(self.K.size))
        lo = np.cumsum(self.ev_len) - self.ev_len
        at = np.repeat(self.ev_lo - lo, self.ev_len) + np.arange(self.time.size)
        return dict(brownian=self.brownian, ev_time=_readonly(self.time[at]),
                    ev_mark=_readonly(self.mark[at]), ev_len=self.ev_len, ev_lo=lo,
                    ev_n=self.ev_n)


class Ensemble:
    """Paths held in flat, read-only arrays; no PathBundle is kept.

    Path p's subordinator values D(i du) and Brownian values B(i du),
    i = 0..K_p + 1 (the last is the first passage past the horizon),
    sit in ``times`` and ``brownian`` from ``start[p]`` on.  Its
    ``ev_len[p]`` jump events in (0, (K_p + 1) du], sorted, sit in
    ``ev_time`` and ``ev_mark`` from ``ev_lo[p]`` on; the first
    ``ev_n[p]`` of them lie inside the solver horizon K_p du.  ``rows``
    gathers the padded layout of any rows from these arrays.

    The noise (the Brownian values and the events) is held by a
    _NoiseStore, which make_ensemble leaves undrawn: a path's noise is
    drawn the first time a batch's noise fields (``rows``), a bundle view
    or a flat accessor (``brownian``, ``ev_*``, which draw every path)
    reads it, once per path, with the bytes of an early draw.

    ``Ensemble(bundles)`` packs a list of bundles, which must share the
    step, the jump spec and the calendar horizon; make_ensemble draws
    straight into the same arrays.  An integer index builds path p's
    PathBundle, whose arrays are views into the flat ones (so an
    Ensemble iterates over its bundles, drawing every path's noise
    first); a slice or an index array returns the ensemble of those rows,
    which shares the flat arrays and the noise store.
    """

    def __init__(self, bundles):
        bundles = list(bundles)
        if not bundles:
            raise ValueError("ensemble is empty")
        first = bundles[0]
        du = first.subordinator.grid.step
        for b in bundles:
            if abs(b.subordinator.grid.step - du) > 1e-12 * du:
                raise ValueError("grid mismatch: bundles in one ensemble must share the step")
            if b.jump_spec != first.jump_spec:
                raise ValueError("jump spec mismatch: bundles in one ensemble must share "
                                 "the jump spec")
            if b.calendar_horizon != first.calendar_horizon:
                raise ValueError("horizon mismatch: bundles in one ensemble must share "
                                 "the calendar horizon")
            if b.brownian.values.size < b.subordinator.values.size:
                raise ValueError("grid mismatch: a bundle's Brownian path must cover "
                                 "its subordinator's grid")
        K = np.array([b.solver_steps for b in bundles])
        # the events a bundle's grid covers, a prefix of its sorted times
        n_ev = [int(np.searchsorted(b.jumps.times, b.subordinator.grid.horizon, "right"))
                for b in bundles]
        self._pack(
            du=du, spec=first.jump_spec, horizon=first.calendar_horizon, K=K,
            times=np.concatenate([b.subordinator.values for b in bundles]),
            brownian=np.concatenate([b.brownian.values[: k + 2] for b, k in zip(bundles, K)]),
            seeds=np.array([(b.seeds.get("master", 0), b.seeds.get("path", 0))
                            for b in bundles], dtype=np.int64),
            noise=np.array([b.seeds.get("noise_index", b.seeds.get("path", 0))
                            for b in bundles], dtype=int))
        self._store.add(np.arange(K.size),
                        np.concatenate([b.jumps.times[:n] for b, n in zip(bundles, n_ev)]),
                        np.concatenate([b.jumps.marks[:n] for b, n in zip(bundles, n_ev)]),
                        np.array(n_ev, dtype=int))

    @classmethod
    def _from_arrays(cls, **arrays) -> "Ensemble":
        """An Ensemble around flat arrays already in the packed layout."""
        ens = cls.__new__(cls)
        ens._pack(**arrays)
        return ens

    def _pack(self, du, spec, horizon, K, times, brownian, seeds, noise, streams=None):
        self.du, self.spec, self.horizon, self.K = du, spec, horizon, K
        self.start = np.cumsum(K + 2) - (K + 2)
        self.times = times
        times.setflags(write=False)
        # (master, path) name a row's LSMC inner substreams; noise[p] is the
        # index of the Brownian and jump substreams path p was paired with
        self.seeds, self.noise = seeds, noise
        # each row's path in the noise store, which sub-ensembles share
        self._paths = np.arange(K.size)
        self._store = _NoiseStore(K, self.start, du, spec, brownian, streams)

    brownian, ev_time, ev_mark = (property(lambda self, name=name: self._store.flat()[name])
                                  for name in ("brownian", "ev_time", "ev_mark"))
    ev_len, ev_lo, ev_n = (property(lambda self, name=name: self._store.flat()[name][self._paths])
                           for name in ("ev_len", "ev_lo", "ev_n"))

    def __len__(self):
        return self.K.size

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            if not -len(self) <= key < len(self):
                raise IndexError(f"path {key} out of range for {len(self)} paths")
            return self._bundle(int(key) % len(self))
        idx = np.arange(len(self))[key]
        if idx.size == 0:
            raise ValueError("ensemble is empty")
        sub = copy.copy(self)
        for name in ("K", "start", "seeds", "noise", "_paths"):
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def __iter__(self):
        # iteration reads every path: draw their noise together
        self._store.draw(self._paths)
        return (self._bundle(p) for p in range(len(self)))

    def _bundle(self, p: int) -> PathBundle:
        """Path p as a PathBundle of views into the flat arrays."""
        k, s, q, store = int(self.K[p]) + 1, self.start[p], self._paths[p], self._store
        if not store.drawn[q]:
            store.draw(self._paths[p: p + 1])
        lo, hi = store.ev_lo[q], store.ev_lo[q] + store.ev_len[q]
        grid = OperationalGrid(step=self.du, horizon=self.du * k)
        master, path = (int(x) for x in self.seeds[p])
        return PathBundle(
            subordinator=SubordinatorPath(grid=grid, values=self.times[s: s + k + 1]),
            brownian=BrownianPath(grid=grid, values=store.brownian[s: s + k + 1]),
            jumps=JumpStream(times=store.time[lo:hi], marks=store.mark[lo:hi],
                             horizon=grid.horizon),
            jump_spec=self.spec, calendar_horizon=self.horizon,
            seeds={"master": master, "path": path, "noise_index": int(self.noise[p])})

    def padded(self, flat, idx):
        """``flat`` (times or brownian) of rows ``idx`` over steps 0..max K,
        each row held at its own step K past its horizon."""
        K = self.K[idx]
        return flat[self.start[idx, None] + np.minimum(np.arange(K.max() + 1), K[:, None])]

    def rows(self, idx=None, labels=None) -> "_Batch":
        """The padded layout of rows ``idx`` (all, in ensemble order, by
        default), labelled by ``labels`` (their ensemble positions by
        default).  The rows must come in K order, else ValueError.  Their
        noise is drawn, and dB and the events gathered, when the batch
        first reads them."""
        idx = np.arange(len(self)) if idx is None else np.asarray(idx, dtype=int)
        store, paths = self._store, self._paths[idx]

        def noise():
            store.draw(paths)
            B = self.padded(store.brownian, idx)
            n_ev = store.ev_n[paths]
            ev_p = np.repeat(np.arange(idx.size), n_ev)
            at = np.arange(ev_p.size) + np.repeat(store.ev_lo[paths] - (np.cumsum(n_ev) - n_ev),
                                                  n_ev)
            # an event at time t falls in step ceil(t / du) - 1
            ev_s = np.maximum(np.ceil(store.time[at] / self.du - 1e-12).astype(int) - 1, 0)
            return B[:, 1:] - B[:, :-1], ev_p, ev_s, store.mark[at]

        return _Batch(self.padded(self.times, idx), self.K[idx],
                      idx if labels is None else np.asarray(labels, dtype=int),
                      self.spec, self.du, noise, seeds=self.seeds[idx])


def as_ensemble(bundles) -> Ensemble:
    """An Ensemble as it is; any other sequence of bundles packed once."""
    return bundles if isinstance(bundles, Ensemble) else Ensemble(bundles)


def make_ensemble(sub_spec: SubordinatorSpec, jump_spec: LevyJumpSpec,
                  calendar_horizon: float, step: float, n_paths: int,
                  master_seed: int, pairing=None) -> Ensemble:
    """Sample n_paths independent paths from named per-path substreams.

    Path i's subordinator comes from its "subordinator" substream (all
    paths drawn together by sample_subordinators), and its Brownian
    values and jump events, on the subordinator's grid up to first
    passage, from the "brownian" and "jumps" substreams of index
    pairing[i] (i by default), straight into the Ensemble's flat arrays.
    The subordinators are drawn here; the Ensemble keeps the other two
    substreams and draws a path's noise the first time it is read (see
    Ensemble), so a caller that reads only the clock draws none, and a
    late draw has the bytes of an early one.  Each purpose's substreams
    are one seeding.Substreams: every path's generator state is derived
    in one pass and drawn through one reused generator, so no
    SeedSequence or Generator is built per path, and the draws are those
    of seeding.stream bit for bit.  ``pairing`` (a permutation of
    range(n_paths), else ValueError) re-pairs subordinator draws with
    other indices' noise, which must leave every ensemble statistic's law
    unchanged; the cost-independence test relies on that.  A master seed
    that is negative or not integral, an n_paths below 1 or not integral,
    and a step or calendar_horizon not finite and positive raise
    ValueError.
    """
    if not isinstance(n_paths, numbers.Integral) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer of at least 1, got {n_paths!r}")
    for name, val in (("step", step), ("calendar_horizon", calendar_horizon)):
        if not (np.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {val}")
    pairing = np.arange(n_paths) if pairing is None else np.asarray(pairing)
    if not np.array_equal(np.sort(pairing), np.arange(n_paths)):
        raise ValueError(f"pairing must be a permutation of range({n_paths})")
    pairing = pairing.astype(int)
    guess = max(step, 1.2 * calendar_horizon**sub_spec.alpha)
    grid = OperationalGrid(step, step * max(4, math.ceil(guess / step)))
    times, k = sample_subordinators(
        sub_spec, calendar_horizon, grid,
        Substreams(master_seed, "subordinator", np.arange(n_paths)))
    return Ensemble._from_arrays(
        du=grid.step, spec=jump_spec, horizon=calendar_horizon, K=k - 1, times=times,
        brownian=np.empty_like(times),
        seeds=np.column_stack([np.full(n_paths, int(master_seed)), np.arange(n_paths)]),
        noise=pairing,
        streams=tuple(Substreams(master_seed, name, pairing) for name in ("brownian", "jumps")))


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
    """Padded rows of a ragged ensemble, the layout every solver reads.

    Row n holds a path's K[n] solver steps: its calendar times t (width
    Kmax + 1, held at t_K past its horizon) and Brownian increments dB
    (zero past it); event e falls in step ev_s[e] of row ev_p[e] with mark
    ev_z[e], and the events are sorted here by step, step i's from
    ev_start[i] on.  ``noise`` gives (dB, ev_p, ev_s, ev_z) and is called
    when one of those fields is first read, so a solver that reads only
    the clock (a cost pass that solves no state) draws no noise.
    ``labels`` are the control rows the paths read, so sorting and
    chunking never change them; ``seeds`` holds each row's (master, path)
    seed pair, which names its LSMC inner substreams (None for inner
    rows).  The rows come in K order, else ValueError, so ``live(i)``, the
    rows with K > i, is a suffix.  The kernels pair a batch with loose
    padded arrays (X, Y, A, r, v) by row number, which callers gather in
    the same order.
    """

    def __init__(self, t, K, labels, spec: LevyJumpSpec, du: float, noise, seeds=None):
        self.t, self.K, self.labels = t, K, labels
        self.spec, self.du, self.seeds = spec, du, seeds
        self.N, self.Kmax = K.size, int(K.max())
        self.znodes, self.w = spec.quadrature()
        if np.any(K[1:] < K[:-1]):
            raise ValueError("batch rows must be sorted by solver steps K")
        # the rows live at step i are the suffix from lo[i]
        self._lo = np.searchsorted(K, np.arange(self.Kmax), side="right")
        self._noise = noise

    @cached_property
    def _fields(self):
        """The noise fields, gathered on first read, the events sorted by step."""
        dB, ev_p, ev_s, ev_z = self._noise()
        del self._noise
        order = np.argsort(ev_s, kind="stable")
        ev_s = ev_s[order]
        return dB, ev_p[order], ev_s, ev_z[order], np.searchsorted(ev_s, np.arange(self.Kmax + 1))

    # each a plain attribute once read (a class with __getattr__ would slow
    # every attribute read of the kernels' loops)
    dB, ev_p, ev_s, ev_z, ev_start = (cached_property(lambda self, j=j: self._fields[j])
                                      for j in range(5))

    def live(self, i: int) -> slice:
        """The rows with K > i: a suffix slice, whose rows read as views."""
        return slice(int(self._lo[i]), None)


def _single(bundle: PathBundle) -> _Batch:
    """The one-row batch of a bundle, labelled by its own seed index."""
    return Ensemble([bundle]).rows([0], labels=[bundle.seeds.get("path", 0)])


def _sorted_batches(ens: Ensemble, chunk: int, rows=None):
    """Yield (idx, batch) over an ensemble's rows cut into K-sorted batches.

    The rows (positions ``rows``, all by default) are stable-sorted by
    solver steps and the order is cut into batches of at most ``chunk``
    rows, so each batch pads only to paths of similar horizon.  ``idx``
    holds the ensemble positions of the batch rows, which are also the
    batch labels; callers scatter per-row results back with it, so
    everything downstream sees ensemble order.
    """
    if not isinstance(chunk, numbers.Integral) or chunk < 1:
        raise ValueError(f"chunk must be an integer of at least 1 row, got {chunk!r}")
    rows = np.arange(len(ens)) if rows is None else rows
    order = rows[np.argsort(ens.K[rows], kind="stable")]
    for lo in range(0, order.size, chunk):
        idx = order[lo: lo + chunk]
        yield idx, ens.rows(idx)


def _hold(a, K, park, width: int):
    """Row p of ``a`` read at columns min(j, K_p - 1), j < width: each row
    holds its last in-horizon value past its horizon, and a row with
    K_p = 0 reads ``park`` (a scalar or one value per row) throughout.
    Cells of ``a`` past a row's horizon are never read; an ``a`` that is
    ``width`` wide is held in place and returned."""
    last = np.broadcast_to(np.asarray(park, dtype=float), K.shape)
    if a.shape[1]:
        last = np.where(K > 0, a[np.arange(K.size), np.maximum(K - 1, 0)], last)
    if a.shape[1] != width:
        out = np.empty((K.size, width))
        out[:, : a.shape[1]] = a[:, :width]
        a = out
    np.copyto(a, last[:, None], where=np.arange(width) >= K[:, None])
    return a


def _finite(values, labels, what: str, step=None):
    """``values`` when every one is finite, else FloatingPointError
    "{what} blow-up[ at step s] (path p)", the one message of every
    non-finite check (the module docstring gives the rule).  ``values``
    holds one value per label, at forward step ``step`` when given, or is
    a padded backward table, one row per label, whose step s is its last
    non-finite column, the first its recursion reaches; p is the lowest
    label non-finite at that step, so it does not depend on the batch's
    order.  Without ``labels`` (a mean and its standard error) no path is
    named."""
    if np.isfinite(values).all():
        return values
    bad = ~np.isfinite(values)
    if bad.ndim == 2:
        step = int(np.flatnonzero(bad.any(axis=0))[-1])
        bad = bad[:, step]
    at = "" if step is None else f" at step {step}"
    path = "" if labels is None else f" (path {int(labels[bad].min())})"
    raise FloatingPointError(f"{what} blow-up{at}{path}")


def _euler(batch: _Batch, z0, step, system: str) -> np.ndarray:
    """The forward recursion of a scalar system, padded.

    ``step(i, rows, z)`` gives z_{i+1} on ``rows``, the rows live at step i
    (``batch.live(i)``, a suffix), from the step's column ``z`` of every
    row.  It is made by one of two step makers: _forward_batch's map step
    of the state, or _affine_step, the slope/intercept step of every
    system affine in its own state.  Only live rows are stepped, so no
    padded cell is computed: each row is frozen at its horizon value once,
    at the end.  Each step's values pass _finite, named ``system``, before
    the next step hands them to a map or to Box.admit: checked after the
    loop, a state blow-up under a FeedbackControl would read as an
    infeasible control.
    """
    Kmax = batch.Kmax
    Z = np.zeros((batch.N, Kmax + 1))
    Z[:, 0] = z0
    for i in range(Kmax):
        rows = batch.live(i)
        Z[rows, i + 1] = _finite(step(i, rows, Z[:, i]), batch.labels[rows], system, i)
    # every row holds its horizon value, at column K, from there on
    return _hold(Z, batch.K + 1, 0.0, Kmax + 1)


def _open_loop(control, batch: _Batch, box: Box | None = None) -> np.ndarray:
    """An open-loop control's values, read before any state exists: its
    ``table`` of the rows with a step, at their calendar times, all at
    once.  Given ``box``, the live cells are admitted to it together,
    once.  Past its horizon a row holds its last value, 0 on a zero-step
    row, as _forward_batch's v does, so a table cell read there is never
    used."""
    v = np.zeros((batch.N, batch.Kmax))
    rows = batch.live(0) if batch.Kmax else slice(0)
    v[rows] = control.table(batch.t[rows, :-1], batch.labels[rows])
    if box is not None:
        live = np.arange(batch.Kmax) < batch.K[:, None]
        v[live] = box.admit(v[live])
    return _hold(v, batch.K, 0.0, batch.Kmax)


def _affine_step(batch: _Batch, co: dict, e0, e1):
    """_euler's step for a system affine in its own state z,
    z_{i+1} = alpha_i z_i + beta_i, with the per-cell slope and intercept
    built once from the coefficient record ``co`` (the keys
    _affine_backward reads, mark integrals included):

        alpha = 1 + fx du + sx dB + J1 - lam du ibx,
        beta  = f0 du + s0 dB + J0 - lam du ib0.

    J1 and J0 are the sums over the cell's events of ``e1`` and ``e0``,
    the jump's slope and intercept at each of the batch's events (in its
    event order; a scalar stands for every event)."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    lam_du = batch.spec.intensity * du
    J0, J1 = np.zeros((N, Kmax)), np.zeros((N, Kmax))
    np.add.at(J0, (batch.ev_p, batch.ev_s), e0)
    np.add.at(J1, (batch.ev_p, batch.ev_s), e1)
    alpha = 1.0 + co["fx"] * du + co["sx"] * batch.dB + J1 - lam_du * co["ibx"]
    beta = co["f0"] * du + co["s0"] * batch.dB + J0 - lam_du * co["ib0"]
    return lambda i, rows, x: alpha[rows, i] * x[rows] + beta[rows, i]


def _forward_batch(model: ModelSpec, control, batch: _Batch, v=None, co=None):
    """The state by the forward kernel and the realized v.  Returns (X, v).

    By default each step reads the control on its live rows at their
    states and takes the explicit Euler step of the maps,
    x_{i+1} = x_i + f du + sigma dB_i + (the step's event jumps b)
    - lam du int b, calling f, sigma and the nodewise b there; past its
    horizon a row of v holds its last value (0 on a zero-step row).
    Given ``v``, an open-loop control's table (_open_loop), and ``co``, an
    affine model's probe at it (_probe_affine), the state steps by
    _affine_step on the probe and the jump's slope and intercept at the
    events (read over all of them as the probe reads b's) instead, and
    calls no map in its loop; the two steps agree to rounding, as the
    probe's slopes are registered partials or 0/1 differences.
    solve_forward_dual evaluates the Ito ingredients from (X, v)."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    if co is not None:
        p, s = batch.ev_p, batch.ev_s
        e0, e1 = _slopes(model, "b", (batch.t[p, s], s * du, 0.0, v[p, s], batch.ev_z), "x")
        return _euler(batch, model.x0,
                      _affine_step(batch, co, np.broadcast_to(e0, p.shape), e1), "state"), v
    lam_du = batch.spec.intensity * du
    v = np.zeros((N, Kmax))

    def step(i, rows, col):
        x, t1, u_i = col[rows], batch.t[rows, i], i * du
        v[rows, i] = model.control_set.admit(
            control.values_at(i, t1, u_i, x, batch.labels[rows]))
        vi = v[rows, i]
        jump = np.zeros(N)
        sl = slice(batch.ev_start[i], batch.ev_start[i + 1])
        if sl.stop > sl.start:
            p = batch.ev_p[sl]
            np.add.at(jump, p, model.b(batch.t[p, i], u_i, col[p], v[p, i], batch.ev_z[sl]))
        c = model.b(t1[:, None], u_i, x[:, None], vi[:, None], batch.znodes)
        return (x + np.asarray(model.f(t1, u_i, x, vi), dtype=float) * du
                + np.asarray(model.sigma(t1, u_i, x, vi), dtype=float) * batch.dB[rows, i]
                + jump[rows] - lam_du * batch.spec.integrate(c, x.shape))

    X = _euler(batch, model.x0, step, "state")
    return X, _hold(v, batch.K, 0.0, Kmax)


def solve_forward_dual(model: ModelSpec, control, bundle: PathBundle) -> FBSDESolution:
    """Forward Euler on [0, E_T] for a single bundle, operational clock, with
    the Ito ingredients the kernel stepped with, one map call each over the
    row: drift, vol and nodewise b at each step's left state, event jumps."""
    control = as_control(control)
    batch = _single(bundle)
    X, v = _forward_batch(model, control, batch)
    K, z, s = int(batch.K[0]), batch.znodes, batch.ev_s
    t, u, x, v = batch.t[0, :K], np.arange(K) * batch.du, X[0, :K], v[0]

    def row(val, shape):
        return np.broadcast_to(np.asarray(val, dtype=float), shape).copy()

    return FBSDESolution(
        clock="operational", grid=bundle.solver_grid, calendar_grid=None,
        X=X[0], calendar_times=batch.t[0], control_values=v,
        drift=row(model.f(t, u, x, v), (K,)), vol=row(model.sigma(t, u, x, v), (K,)),
        dB=batch.dB[0], jump_spec=batch.spec,
        jump_nodes=row(model.b(t[:, None], u[:, None], x[:, None], v[:, None], z),
                       (K, z.size)),
        event_steps=s.copy(),
        event_b=row(model.b(t[s], s * batch.du, x[s], v[s], batch.ev_z), s.shape))


# ------------------------------------------------------- affine backward core

def _probe_affine(model: ModelSpec, batch: _Batch, v: np.ndarray, reads: str = "all"):
    """Exact affine coefficients from the maps at state 0.

    Valid when the model is affine (ModelSpec.affine).  Each map is
    evaluated once at x = 0 (g at x = y = a = r = 0) for its intercept,
    and each slope (f_x, sigma_x, b_x, g_x, g_y, g_a, g_r) is the model's
    registered partial read at those same arguments, else the map at 1
    less the map at 0 in that argument (_slopes).  The returned driver
    pieces are already integrated against the jump measure
    (G = lam * int g, with the r term kept nodewise as gr * w * lam), and
    the mark integrals of bx and b0 are taken once (ibx, ib0).  The
    pieces keep the shapes the model returns, so a constant registered
    slope stays a scalar (the cash model's ibx then costs nothing); the
    readers broadcast them to the batch layout.  The cost's affine regime
    probes once, before the forward pass, at the open-loop v: the state
    steps by these tables (_affine_step) and _affine_backward reads the
    same dict.

    ``reads`` names what the caller reads: "all" of it; "sweeps", what
    the P and c sweeps of _affine_backward read, for a cost pass that
    keeps no rows: no nodewise b0, and b's intercept only as ib0 where gr
    multiplies it (ib0 is a scalar 0.0 when gr is a scalar zero); or
    "slopes" alone, for a caller that supplies its own intercepts
    (_variational_batch).  A map is evaluated at state 0 only for a piece
    that is read or a slope that is its 0/1 difference, so with b_x
    registered the nodewise b is not evaluated for "slopes", nor for
    "sweeps" under a scalar-zero gr.
    """
    t, u = batch.t[:, :-1], np.arange(batch.Kmax) * batch.du
    spec, lam = batch.spec, batch.spec.intensity
    icpt = reads != "slopes"
    f0, fx = _slopes(model, "f", (t, u, 0.0, v), "x", icpt)
    s0, sx = _slopes(model, "sigma", (t, u, 0.0, v), "x", icpt)
    g00, gx, gy, ga, gr = _slopes(model, "g", (t, u, 0.0, 0.0, 0.0, 0.0, v), "xyar", icpt)
    gr = lam * gr
    b0, bx = _slopes(model, "b", (t[..., None], u[:, None], 0.0, v[..., None], batch.znodes),
                     "x", reads == "all" or icpt and not (gr.ndim == 0 and gr == 0.0))
    co = dict(fx=fx, sx=sx, bx=bx, ibx=spec.integrate(bx, bx.shape[:-1]),
              Gy=lam * gy, Gx=lam * gx, Ga=lam * ga, gr=gr)
    if icpt:
        co.update(f0=f0, s0=s0, G0=lam * g00,
                  ib0=0.0 if b0 is None else spec.integrate(b0, b0.shape[:-1]))
    if reads == "all":
        co["b0"] = b0
    return co


def _jump_table(batch: _Batch, bx, b0, X, P) -> np.ndarray:
    """The affine r, (bx X_i + b0) P_{i+1}, as the batch's padded
    (N, Kmax, nodes) table, zero past each horizon; ``bx`` and ``b0`` in
    any shape that broadcasts to it."""
    Kmax = batch.Kmax
    r = np.multiply(np.broadcast_to(bx, (batch.N, Kmax, batch.w.size)), X[:, :-1, None])
    r += b0
    r *= P[:, 1:, None]
    np.copyto(r, 0.0, where=(np.arange(Kmax) >= batch.K[:, None])[..., None])
    return r


def _affine_backward(batch: _Batch, X: np.ndarray, co: dict, P_term, c_term):
    """Exact conditional solution of the implicit backward scheme.

    The scheme Y_i = Y_{i+1} + G_i du - A_i dB_i - (jump martingale)
    admits Y_i = c_i + P_i X_i when the forward coefficients are affine
    in x, the integrated driver is affine in (x, y, a, r-integral), the
    terminal map is linear, and the coefficient paths are deterministic
    given the subordinator trajectory.  A and the nodewise r follow from
    matching the Brownian and jump terms of Y_{i+1}.

    The coefficients ``co`` may take any shape that broadcasts against
    the (N, Kmax) layout, (N, Kmax, nodes) for ``bx`` and ``b0``, whose
    mark integrals ``ibx`` and ``ib0`` come with them (_probe_affine).
    P and c come from _affine_sweeps.  A and r do not feed them: A is
    built after them in one pass from P_{i+1} and zeroed past each
    horizon, and r is handed over as a builder of its table
    (_jump_table from the probe's ``bx`` and ``b0``, X and P), run only
    by a caller that reads it.  Returns (Y, A, r), Y = c + P X on every
    cell: ``X`` must hold each row's X_K past its horizon, as _euler
    returns it and every caller passes it, so that Y holds c_T + P_T X_K
    there.
    """
    P, c = _affine_sweeps(batch, co, P_term, c_term)
    A = co["sx"] * X[:, :-1]
    A += co["s0"]
    A *= P[:, 1:]
    np.copyto(A, 0.0, where=np.arange(batch.Kmax) >= batch.K[:, None])
    bx, b0 = co["bx"], co["b0"]
    return c + P * X, A, lambda: _jump_table(batch, bx, b0, X, P)


def _affine_sweeps(batch: _Batch, co: dict, P_term, c_term):
    """(P, c) of Y_i = c_i + P_i X_i, padded (N, Kmax + 1): two
    slope/intercept recursions from the terminal pair, on coefficients
    built once from whole tables, each keeping the shape its inputs
    broadcast to (scalars stay scalar):

        P_i = aP_i P_{i+1} + bP_i,  c_i = ac_i c_{i+1} + gc_i,
        den = 1 - du Gy,  aP = (1 + du fx + du (Ga sx + gr ibx)) / den,
        bP = du Gx / den,  ac = 1 / den,
        gc = du (P_{i+1} (f0 + Ga s0 + gr ib0) + G0) / den.

    Each row starts at the terminal pair and holds it from its horizon
    on; no padded coefficient cell is read.  When P's coefficients and
    terminal value are each one value (_uniform), P is solved once by
    steps to go, on numpy float64 scalars (_steps_to_go), and every row
    reads it as P_i = s_{K - i} (_gather); c is solved the same way when
    its coefficients (den, f0 + Ga s0 + gr ib0, G0) and terminal value are
    one value too, its intercept built along the steps to go with the
    operations and order of the table's.  Any other recursion runs the
    step loop (_sweep).  Both give every cell the same bits.  Only these
    keys of ``co`` are read.  P passes _finite once, on its whole table:
    a non-finite P (from a singular step, du Gy = 1, say) raises
    "backward blow-up", naming the first step the recursion reaches with
    a non-finite cell.  c is returned unchecked (module docstring)."""
    du, Kmax = batch.du, batch.Kmax
    den = np.asarray(1.0 - du * co["Gy"])
    aP = (1.0 + du * co["fx"] + du * (co["Ga"] * co["sx"] + co["gr"] * co["ibx"])) / den
    bP = du * co["Gx"] / den
    one = _uniform(batch, (aP, bP), P_term)
    sP = None if one is None else _steps_to_go(*one, Kmax)
    P = _sweep(batch, aP, bP, P_term) if sP is None else _gather(batch, sP)
    del aP, bP
    P = _finite(P, batch.labels, "backward")
    k0 = co["f0"] + co["Ga"] * co["s0"] + co["gr"] * co["ib0"]
    one = None if sP is None else _uniform(batch, (k0, co["G0"], den), c_term)
    if one is not None:
        k0, G0, d, c_end = one
        # gc at j steps to go reads P at j - 1
        gc = sP[:-1] * k0
        gc += G0
        gc *= du
        gc /= d
        return P, _gather(batch, _steps_to_go(1.0 / d, gc, c_end, Kmax))
    gc = P[:, 1:] * k0
    del k0
    gc += co["G0"]
    gc *= du
    gc /= den
    # c's slope 1 / den overwrites den; both tables are freed on return,
    # before a caller builds A and Y: every (N, Kmax) table held at once
    # here can raise the cost pass's peak memory above that of its probe
    return P, _sweep(batch, np.divide(1.0, den, out=den), gc, c_term)


def _uniform(batch: _Batch, coefs, z_end):
    """The one value of each coefficient in ``coefs`` and of ``z_end``, as
    numpy float64 scalars, else None.  A coefficient (any shape that
    broadcasts to (N, Kmax)) must hold the same bytes in every cell of the
    rows live at step 0 (a zero-step row's cells are never read), and the
    terminal value (one per row) the same bytes on every row.  Bytes are
    compared as int64, so -0.0 and 0.0 differ, and so do NaNs of other
    payloads."""
    if not batch.Kmax:
        return None
    N, live = batch.N, batch.live(0)
    cells = [np.broadcast_to(np.asarray(val, dtype=float), (N, batch.Kmax))[live]
             for val in coefs]
    cells.append(np.broadcast_to(np.asarray(z_end, dtype=float), (N,)))
    one = []
    for val in cells:
        bits = val.view(np.int64)
        if not (val.strides == (0,) * val.ndim or (bits == bits.flat[0]).all()):
            return None
        one.append(val.flat[0])
    return one


def _steps_to_go(a, b, z, n: int) -> np.ndarray:
    """s_0 = z, s_j = a s_{j-1} + b_{j-1} for 0 < j <= n: the backward
    recursion z_i = a z_{i+1} + b_i of a row with scalar coefficients,
    indexed by steps to go.  ``a`` and ``z`` are numpy float64 scalars and
    ``b`` one or n of them; each step takes _sweep's two operations in
    its order, so the values have its bits (and its warnings)."""
    s = np.empty(n + 1)
    s[0] = z
    b = np.broadcast_to(b, (n,))
    for j in range(n):
        z = a * z + b[j]
        s[j + 1] = z
    return s


def _gather(batch: _Batch, s) -> np.ndarray:
    """The padded (N, Kmax + 1) table of a recursion solved by steps to go:
    row p reads s[max(K_p - i, 0)] at column i, so it holds s_0, the
    terminal value, from its horizon on, as _sweep's rows do.  The rows
    are copied from windows of one (2 Kmax + 1) vector."""
    Kmax = batch.Kmax
    ends = np.concatenate([s[::-1], np.full(Kmax, s[0])])
    return np.lib.stride_tricks.sliding_window_view(ends, Kmax + 1)[Kmax - batch.K]


def _sweep(batch: _Batch, a, b, z_end) -> np.ndarray:
    """z_i = a_i z_{i+1} + b_i backward from z_K = ``z_end`` (one value per
    row), padded (N, Kmax + 1), by the step loop: step i updates its live
    rows (the suffix ``batch.live(i)``) in place with two ufunc calls, so
    each row holds ``z_end`` from its horizon on and no padded cell of
    ``a`` or ``b`` (any shape that broadcasts to (N, Kmax)) is read.  The
    recursion of _affine_sweeps whose coefficients are not one value."""
    N, Kmax = batch.N, batch.Kmax
    a, b = (np.broadcast_to(val, (N, Kmax)) for val in (a, b))
    Z = np.empty((N, Kmax + 1))
    Z[:] = np.asarray(z_end, dtype=float)[..., None]
    for i in range(Kmax - 1, -1, -1):
        rows = batch.live(i)
        zi = Z[rows, i]
        np.multiply(a[rows, i], Z[rows, i + 1], out=zi)
        zi += b[rows, i]
    return Z


# -------------------------------------------------------------- lsmc backward

# inner rows of one regression sweep: 16 outer paths of 256 inner paths.
# Larger batches are swept in consecutive groups of their K-sorted order,
# which bounds the memory of the inner forward arrays.
_LSMC_ROWS = 4096
# the regression's degree and ridge, and the Picard sweeps of lsmc and ode
_LSMC_DEGREE, _LSMC_RIDGE, _LSMC_PICARD, _ODE_PICARD = 3, 1e-8, 3, 4


def _basis(x: np.ndarray):
    """Standardised monomial basis of each outer path's inner states.

    ``x`` holds one row of inner states per outer path.  Returns the
    basis (paths, inner, _LSMC_DEGREE + 1), the centre and scale of each
    row, and a mask of rows with no spread.  Such a row keeps only the
    constant column (its powers are zeroed and its scale set to 1), so
    its fit is the ridge mean and every evaluation returns it exactly.
    """
    mu, sd = x.mean(axis=1), x.std(axis=1)
    flat = sd < 1e-12
    sd = np.where(flat, 1.0, sd)
    s = (x - mu[:, None]) / sd[:, None]
    s[flat] = 0.0
    Phi = np.empty(x.shape + (_LSMC_DEGREE + 1,))
    Phi[..., 0] = 1.0
    for j in range(1, _LSMC_DEGREE + 1):
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


def _inner_batch(batch: _Batch, rows, n_inner: int) -> _Batch:
    """The inner ensembles of the outer rows ``rows`` (K-sorted, K > 0)
    in one padded batch, n_inner rows per outer path in the order of
    ``rows``.  An inner row repeats its outer row's calendar times and
    label, so it shares the subordinator path and reads the outer path's
    control.  Its noise is drawn as arrays from the outer path's two named
    substreams, which depend on its seeds alone: an (n_inner, K) block of
    N(0, du) increments, Poisson(lam K du) event counts per row, each
    event's step uniform on 0..K-1 and its mark from the mark law.  That
    is the law of the steps and events of fresh Brownian and jump paths
    on the outer path's solver grid.
    """
    spec, du = batch.spec, batch.du
    K = batch.K[rows]
    M, width = K.size * n_inner, int(K[-1])
    dB = np.zeros((M, width))
    counts, steps, marks = [], [], []
    for j, (k, (master, path)) in enumerate(zip(K, batch.seeds[rows])):
        rng = stream(master, f"lsmc-brownian-{path}")
        np.multiply(rng.standard_normal((n_inner, k)), math.sqrt(du),
                    out=dB[j * n_inner: (j + 1) * n_inner, :k])
        rng = stream(master, f"lsmc-jumps-{path}")
        counts.append(rng.poisson(spec.intensity * k * du, n_inner))
        steps.append(rng.integers(0, k, counts[-1].sum()))
        marks.append(spec.sample_marks(counts[-1].sum(), rng))
    noise = (dB, np.repeat(np.arange(M), np.concatenate(counts)), np.concatenate(steps),
             np.concatenate(marks))
    return _Batch(np.repeat(batch.t[rows, : width + 1], n_inner, axis=0), np.repeat(K, n_inner),
                  np.repeat(batch.labels[rows], n_inner), spec, du, lambda: noise)


def _lsmc_backward(model: ModelSpec, control, batch: _Batch, X, v, n_inner=256):
    """Regression solve of a batch of outer paths, each on an inner
    ensemble that shares its subordinator path.

    ``X`` and ``v`` are the batch's forward rows.  Paths with solver
    steps are taken in K-sorted order, in groups of at most
    ``_LSMC_ROWS // n_inner``.  A group's inner ensembles are drawn as
    arrays straight into one K-sorted padded batch (_inner_batch), which
    runs through one forward solve on its live rows (each inner row reads
    its outer path's label, so per-path controls see the outer path) and
    one backward sweep from the group's longest path.  An outer path's
    inner draws depend on its seeds alone, never on the group it sits
    in.  At step i the paths with K > i are active:
    the mean and Brownian fits share a Gram matrix in X_i and are solved
    as two right-hand sides, the jump fit regresses on X_{i+1}, all
    active paths in one batched solve each, after one batched eigvalsh
    has checked every Gram matrix against the 1e12 condition bound.  The
    basis is monomial up to degree _LSMC_DEGREE (3) and every Gram matrix
    carries the ridge _LSMC_RIDGE (1e-8).  The fits are then read off the
    inner states (with _LSMC_PICARD (3) Picard sweeps for the driver,
    which give the next step's targets) and off the outer paths (the same
    sweeps over the active rows).  The inner read-off evaluates the jump
    fit at every quadrature node (b and two Horner passes over
    (paths, n_inner, nodes)) only for a driver that may read r (r not in
    ``model._unread["g"]``); any other driver gets zero cells, which it
    ignores, so its Y is the same to the bit.  The jump fit itself, its
    Gram check and the outer paths' r table are built for every driver.
    Every path's result depends on its own rows only, so it does not
    depend on the batch.

    Returns Y (N, Kmax + 1), each row frozen at phi(X_K) from its
    horizon on, and A (N, Kmax) and r, zero there: r as a builder that
    returns the (N, Kmax, nodes) table the sweep fills.
    """
    if not (isinstance(n_inner, (int, np.integer)) and n_inner >= 1):
        raise ValueError(f"n_inner must be an integer >= 1, got {n_inner!r}")
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, w, z = batch.spec, batch.w, batch.znodes
    XT = X[np.arange(N), batch.K]
    Y = np.empty((N, Kmax + 1))
    Y[:] = np.broadcast_to(np.asarray(model.phi(XT), dtype=float), (N,))[:, None]
    A = np.zeros((N, Kmax))
    r = np.zeros((N, Kmax, w.size))
    order = np.flatnonzero(batch.K)
    size = max(1, _LSMC_ROWS // n_inner)
    ridge_eye = _LSMC_RIDGE * np.eye(_LSMC_DEGREE + 1)
    for lo in range(0, order.size, size):
        rows = order[lo: lo + size]
        K = batch.K[rows]
        labels = batch.labels[rows]
        inner = _inner_batch(batch, rows, n_inner)
        Xi, vi = _forward_batch(model, control, inner)
        Yn = np.broadcast_to(np.asarray(
            model.phi(Xi[np.arange(inner.N), inner.K]), dtype=float), (inner.N,)).copy()
        for i in range(inner.Kmax - 1, -1, -1):
            a = int(np.searchsorted(K, i, side="right"))
            P, sl, u = K.size - a, slice(a * n_inner, None), i * du
            x = np.ascontiguousarray(Xi[sl, i]).reshape(P, n_inner)
            x1 = np.ascontiguousarray(Xi[sl, i + 1]).reshape(P, n_inner)
            Phi, mu, sd, flat = _basis(x)
            Phi1, mu1, sd1, flat1 = _basis(x1)
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
            if "r" not in model._unread["g"]:
                bi = np.broadcast_to(np.asarray(
                    model.b(ti[:, None], u, xi[:, None], vin[:, None], z), dtype=float),
                    (xi.size, z.size))
                ri = (_poly_eval(beta_v, mu1, sd1, x[..., None] + bi.reshape(P, n_inner, -1))
                      - _poly_eval(beta_v, mu1, sd1, x)[..., None]).reshape(xi.size, -1)
            else:
                ri = np.zeros((xi.size, z.size))
            Yn[sl] = _picard(model, spec, ti, u, xi, Ey, Ai, ri, vin, du, _LSMC_PICARD)

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
                                A[out, i], r[out, i], vo, du, _LSMC_PICARD)
    return Y, A, lambda: r


# ----------------------------------------------------------- backward driver

def _ode_backward(model: ModelSpec, batch: _Batch, X, v):
    """Regime "ode" (A = r = 0, r as a builder of a zero table):
    _ODE_PICARD (4) Picard sweeps per step over the rows live at it
    (``batch.live(i)``); every row starts at phi(X_K), so a row past its
    horizon holds it."""
    N, Kmax, du = batch.N, batch.Kmax, batch.du
    spec, w = batch.spec, batch.w
    XT = X[np.arange(N), batch.K]
    Y = np.empty((N, Kmax + 1))
    Y[:] = np.broadcast_to(np.asarray(model.phi(XT), dtype=float), (N,))[:, None]
    for i in range(Kmax - 1, -1, -1):
        rows = batch.live(i)
        x = X[rows, i]
        Y[rows, i] = _picard(model, spec, batch.t[rows, i], i * du, x, Y[rows, i + 1],
                             np.zeros(x.size), np.zeros((x.size, w.size)), v[rows, i], du,
                             _ODE_PICARD)
    return Y, np.zeros((N, Kmax)), lambda: np.zeros((N, Kmax, w.size))


def backward_method(model: ModelSpec, control, method=None) -> str:
    """Resolve the backward regime or fail loudly: by default "ode" for
    conditionally deterministic models, "affine" for fully affine models
    under open-loop controls (those with a ``table``), else "lsmc"; an
    explicit "affine" needs both."""
    if method is None:
        if model.conditionally_deterministic:
            return "ode"
        if model.affine_solvable and hasattr(control, "table"):
            return "affine"
        return "lsmc"
    if method not in ("ode", "affine", "lsmc"):
        raise ValueError(f"unknown backward method {method!r}")
    if method == "affine" and not model.affine_solvable:
        raise ValueError("affine backward requested for a model without "
                         "the linearity flags (affine and M_T)")
    if method == "affine" and not hasattr(control, "table"):
        raise ValueError("affine backward needs an open-loop control")
    return method


def _backward_batch(model: ModelSpec, control, batch: _Batch, X, v, method=None,
                    n_inner=256, co=None):
    """(Y, A, r) of a batch from its forward rows by the resolved regime;
    past its horizon a row keeps its terminal value, with A and r zero.
    Every regime gives r as a zero-argument builder of its padded
    (N, Kmax, nodes) table, run only by a caller that reads r (_batch_cost
    runs it at most once).  The affine regime reads ``co``, the probe at
    ``v`` a caller already holds, else probes here."""
    method = backward_method(model, control, method)
    if method == "ode":
        return _ode_backward(model, batch, X, v)
    if method == "affine":
        return _affine_backward(
            batch, X, _probe_affine(model, batch, v) if co is None else co,
            np.full(batch.N, model.M_T), np.full(batch.N, float(model.phi(0.0))))
    return _lsmc_backward(model, control, batch, X, v, n_inner=n_inner)


def solve_backward_dual(model: ModelSpec, control, bundle: PathBundle,
                        forward: FBSDESolution, method=None,
                        n_inner=256) -> FBSDESolution:
    """A copy of a forward solution with its backward components solved,
    terminal first; ``forward`` itself is left as it is.

    A batch-of-one call of the batch dispatcher; ``method`` overrides the
    automatic regime choice ("ode", "affine", "lsmc") of backward_method,
    and r is the row of the table its regime's builder gives.  Y passes
    _finite after the terminal check, which sees a non-finite Y_T first:
    no regime's kernel checks Y, so the ode regime's blow-up raises here,
    naming the first step its backward sweep reaches with a
    non-finite Y and the bundle's seeds["path"].
    """
    control = as_control(control)
    method = backward_method(model, control, method)
    batch = _single(bundle)
    Y, A, r = _backward_batch(model, control, batch, forward.X[None, :],
                              forward.control_values[None, :], method, n_inner)
    K = bundle.solver_steps
    gap = abs(Y[0, K] - float(model.phi(forward.X[K])))
    if not gap <= (1e-10 if method in ("ode", "affine") else 1e-6):
        raise AssertionError(f"terminal consistency violated: |Y_T - phi(X_T)| = {gap}")
    return replace(forward, Y=_finite(Y, batch.labels, "backward")[0], A=A[0], r=r()[0])


# ------------------------------------------------------------- composition

def compose_duality(dual: FBSDESolution, inverse: InversePath) -> FBSDESolution:
    """Calendar-clock solution: every component read at E(t).  A and r, one
    value per step, read 0 where E(t) is the horizon K du (on a zero-step
    path, everywhere), as the padded layout holds them past a horizon."""
    if dual.clock != "operational":
        raise ValueError("compose_duality expects an operational-clock solution")
    idx = inverse.grid_indices(dual.grid)

    def steps(a):
        # step K, the horizon, reads the appended zero row
        return None if a is None else np.concatenate([a, np.zeros((1,) + a.shape[1:])])[idx]

    return FBSDESolution(clock="calendar", grid=None, calendar_grid=inverse.calendar_grid,
                         X=dual.X[idx], Y=None if dual.Y is None else dual.Y[idx],
                         A=steps(dual.A), r=steps(dual.r))


def solve_calendar_direct(model: ModelSpec, control, bundle: PathBundle):
    """Simulate the calendar-form system directly on the matched grid.

    Deliberately a separate, slower code path from the dual solver: it
    reads composed drivers (dE, dB_E, calendar-bucketed events) step by
    step, so agreement with compose_duality is an actual check of the
    duality construction rather than a reindexing tautology.  Backward
    part requires an affine-solvable model.  As the dual solvers do, it
    names a blow-up through _finite, by the bundle's seeds["path"]: X at
    each calendar step, before the next step reads the control and the
    maps there, and Y once, after its backward loop.
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
    # a calendar step trapped at the horizon (E_j = K du, so dE = 0) reads
    # step K - 1: a control is never read past the path's horizon.  A
    # zero-step path reads none: v is parked at 0 there, as _hold parks it,
    # and every dE on it is 0
    last = bundle.solver_steps - 1
    for j in range(J):
        vj = 0.0
        if last >= 0:
            vj = np.asarray(model.control_set.admit(control.values_at(
                min(int(round(E[j] / du)), last), tgrid[j], E[j], X[j], label)))
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
        _finite(X[j + 1: j + 2], label, "state", j)

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
    return X, _finite(Y[None], label, "backward")[0], tgrid


# ------------------------------------------------------------------- cost

def _step_args(batch: _Batch, i, X, Y, A, r, v, rows=slice(None)):
    """The (t1, t2, x, y, a, r, v) arguments of a driver or cost map at the
    steps of the slice i (every step for i = None) on ``rows`` (all by
    default), (rows, steps) leading, shaped to broadcast against the
    quadrature nodes."""
    if i is None:
        i = slice(0, batch.Kmax)
    u = (np.arange(batch.Kmax)[i] * batch.du)[:, None]
    return (batch.t[rows, i, None], u, X[rows, i, None], Y[rows, i, None], A[rows, i, None],
            r[rows, i], v[rows, i, None])


# cells of one call of a held step sum: each float64 temporary of the
# call stays at 64 KiB, which malloc serves from its heap.  One call over
# a whole (512, 300) cash batch made MB-sized temporaries, and a certify
# operation took 1.7k to 19k minor page faults by heap layout, against
# 1.5k to 2.3k in blocks (2-core x86-64, glibc malloc)
_HELD_CELLS = 8192


def _step_sum(batch: _Batch, cell, held: bool = False) -> np.ndarray:
    """Each row's sum over its steps i < K of lam du int cell, taken in step
    order: the running cost and the Gateaux integral.

    The steps 0..Kmax are cut into ranges wherever the live suffix
    changes, and the ranges into blocks [a, b): ``cell(steps, rows)``
    gives the nodewise integrand of one block's steps, (rows, steps)
    leading, on ``rows``, the rows live at its first step
    (``batch.live(a)``).  Each row's running total is added into the
    block's first term, the terms are summed by np.add.accumulate along
    the steps, which adds in the order of a step-by-step loop, and each
    row reads the sum at its last step in the block, so every row has the
    bits such a loop gives it.

    Each range is a block, so no padded cell is evaluated and the map is
    called once per range, unless ``held``: then, for a cell that may be
    evaluated past a horizon (a running cost that reads no state, whose
    padded cells see the held t and v), consecutive ranges are merged
    while a block holds at most _HELD_CELLS cells.  A first term of -0.0
    reads 0.0 either way: the first block adds the zero running total
    into it."""
    lam_du = batch.spec.intensity * batch.du
    N, Kmax, lo = batch.N, batch.Kmax, batch._lo
    run = np.zeros(N)
    bounds = [0, *(np.flatnonzero(np.diff(lo)) + 1).tolist(), Kmax]
    if held:
        merged = [0]
        for end, nxt in zip(bounds[1:-1], bounds[2:]):
            if (nxt - merged[-1]) * (N - lo[merged[-1]]) > _HELD_CELLS:
                merged.append(end)
        bounds = merged + [Kmax]
    for a, b in zip(bounds[:-1], bounds[1:]) if Kmax else ():
        rows = batch.live(a)
        part = run[rows]
        terms = lam_du * batch.spec.integrate(cell(slice(a, b), rows), (part.size, b - a))
        terms[:, 0] += part
        sums = np.add.accumulate(terms, axis=1)
        # a row that ends inside a merged block reads its last step's sum
        run[rows] = (sums[:, -1] if lo[b - 1] == lo[a] else
                     sums[np.arange(part.size), np.minimum(batch.K[rows], b) - 1 - a])
    return run


def _batch_cost(model: ModelSpec, control, batch: _Batch, method=None, keep: bool = True):
    """Each row's cost and the batch's solved rows (X, Y, v, A, r); the
    cost alone when the caller keeps no rows (``keep`` False).

    In the affine regime (an affine_solvable model under an open-loop
    control, one with a ``table``) v is read first, admitted on live
    cells (_open_loop), and the model is probed once at it, before the
    forward pass: the state steps by the probe's slope/intercept tables
    and _affine_backward reads the same probe.  Every other regime, and
    every other caller of the forward kernel, steps the state by the
    maps.

    A batch whose rows nobody keeps, in the affine regime, with an l that
    reads none of x, y, a, r and an h that does not read x (decided from
    their code, ModelSpec._unread), has a cost that reads the state only
    through Y_0 = c_0 + P_0 x0: there the probe takes only what the P and
    c sweeps read (reads="sweeps"), the two sweeps run, and the running
    cost, h and gamma read broadcast placeholders (NaN for x and a, Y_0
    for y, zero r).  No X, Y table, A or r is built; a non-finite P still
    raises (_affine_sweeps).  Every cost has the bytes of the full pass.

    Every other pass runs the regime's r builder (_backward_batch) at
    most once, and only when it keeps its rows or its l may read r (r not
    in ``model._unread["l"]``, decided from l's code; none of the
    built-in models' l reads r): the running cost then reads the batch's
    padded r table, and any other l a broadcast zero (_row_cost).

    No cost is checked here, non-finite ones included: the caller that
    reports an estimate checks it (_finite_cost), so every pass gives the
    same verdict."""
    method = backward_method(model, control, method)
    v = co = None
    if method == "affine":
        v = _open_loop(control, batch, model.control_set)
        if not keep and model._unread["l"] >= _STATE and "x" in model._unread["h"]:
            P, c = _affine_sweeps(batch, _probe_affine(model, batch, v, "sweeps"),
                                  np.full(batch.N, model.M_T),
                                  np.full(batch.N, float(model.phi(0.0))))
            X = np.broadcast_to(np.nan, P.shape)
            Y = np.broadcast_to((c[:, 0] + P[:, 0] * model.x0)[:, None], P.shape)
            del P, c
            return _row_cost(model, batch, X, Y, X[:, 1:], None, v)
        co = _probe_affine(model, batch, v)
    X, v = _forward_batch(model, control, batch, v, co)
    Y, A, r = _backward_batch(model, control, batch, X, v, method, co=co)
    # r's builder keeps only the probe's bx and b0; free the rest
    del co
    r = r() if keep or "r" not in model._unread["l"] else None
    cost = _row_cost(model, batch, X, Y, A, r, v)
    return (cost, X, Y, v, A, r) if keep else cost


def _row_cost(model: ModelSpec, batch: _Batch, X, Y, A, r, v) -> np.ndarray:
    """Each row's running cost plus h(X_T) and gamma(Y_0), off its solved
    rows; the running cost reads r's padded table, or a read-only
    broadcast zero, which allocates nothing, when l cannot read r (``r``
    may then be None).  An l that reads none of x, y, a, r
    (``model._unread``) is called once per block of at most _HELD_CELLS
    cells (_step_sum with ``held``; 59 calls in the seed-0 certificate,
    where the runs take 1,245): its cells past a horizon read the held t
    and v, as f, sigma, b and g do in the probe.  Any other l is called once per run of steps
    with the same live rows."""
    N = batch.N
    r = np.broadcast_to(0.0, (N, batch.Kmax, batch.w.size)) if "r" in model._unread["l"] else r
    run = _step_sum(batch,
                    lambda i, rows: model.l(*_step_args(batch, i, X, Y, A, r, v, rows)),
                    held=model._unread["l"] >= _STATE)
    XT = X[np.arange(N), batch.K]
    hterm = np.broadcast_to(np.asarray(model.h(XT), dtype=float), (N,))
    gterm = np.broadcast_to(np.asarray(model.gamma(Y[:, 0]), dtype=float), (N,))
    return run + hterm + gterm


def _ensemble_cost(model: ModelSpec, control, bundles, method=None, chunk: int = 512,
                   keep: int = 0):
    """evaluate_cost's estimate and the solved rows of the ensemble's first
    ``keep`` paths, from one pass over its K-sorted batches.

    The kept rows are cut into K-sorted batches of their own and solved
    whole; every other row is costed in batches with ``keep=False``,
    which for a cost free of the state solves no state and draws no noise
    (_batch_cost), with the same bytes.  The EnsembleSolution (None when
    ``keep`` is 0) holds positions 0..keep-1 in ensemble order at their
    own width, the largest K among them, each row held past its batch's
    width as past its horizon; only those rows' r table is built, unless
    l may read r (_batch_cost).  Every kernel is row-local, so the rows
    are those a solve of those paths alone gives, and every cost is the
    same, for every ``chunk``.
    """
    control = as_control(control)
    ens = as_ensemble(bundles)
    per_path = np.empty(len(ens))
    kept = np.arange(len(ens)) < keep
    if keep:
        Kk = ens.K[:keep]
        width = int(Kk.max())
        t, X, Y = (np.empty((Kk.size, width + 1)) for _ in range(3))
        A, v = np.zeros((Kk.size, width)), np.zeros((Kk.size, width))
        r = np.zeros((Kk.size, width, ens.spec.n_quad))
    for idx, batch in _sorted_batches(ens, chunk, np.flatnonzero(kept)):
        per_path[idx], Xb, Yb, vb, Ab, rb = _batch_cost(model, control, batch, method=method)
        k = batch.Kmax
        for full, part in ((t, batch.t), (X, Xb), (Y, Yb)):
            full[idx, : k + 1] = part
            full[idx, k + 1:] = part[:, k, None]
        A[idx, :k], v[idx, :k], r[idx, :k] = Ab, vb, rb
        # free this batch's solution before the next batch is solved
        del Xb, Yb, vb, Ab, rb
    for idx, batch in _sorted_batches(ens, chunk, np.flatnonzero(~kept)):
        per_path[idx] = _batch_cost(model, control, batch, method, keep=False)
    mean = float(per_path.mean())
    se = float(per_path.std(ddof=1) / np.sqrt(per_path.size)) if per_path.size > 1 else 0.0
    sols = (EnsembleSolution(K=Kk, du=ens.du, t=t, X=X, Y=Y, A=A, r=r,
                             v=_hold(v, Kk, 0.0, width)) if keep else None)
    return CostEstimate(mean=mean, std_error=se, per_path=per_path), sols


def _clock_rows(model: ModelSpec, control, bundles, n: int) -> EnsembleSolution:
    """The first ``n`` paths' clock t and open-loop rates v, in ensemble
    order, as _ensemble_cost(keep=n) keeps them under an open-loop
    control in the affine regime (_open_loop, admitted to the control
    set); X, Y, A and r are read-only broadcast NaN placeholders, for a
    reader that provably reads none of them.  No noise is drawn and no
    state is solved."""
    ens = as_ensemble(bundles)[:n]
    order = np.argsort(ens.K, kind="stable")
    batch, back = ens.rows(order), np.argsort(order)
    N, Kmax, Q = batch.N, batch.Kmax, batch.w.size
    X = np.broadcast_to(np.nan, (N, Kmax + 1))
    return EnsembleSolution(K=ens.K, du=ens.du, t=batch.t[back], X=X, Y=X, A=X[:, 1:],
                            r=np.broadcast_to(np.nan, (N, Kmax, Q)),
                            v=_open_loop(control, batch, model.control_set)[back])


def evaluate_cost(model: ModelSpec, control, bundles, method=None,
                  chunk: int = 512) -> CostEstimate:
    """Monte Carlo cost over an ensemble: running + terminal + initial parts.

    Paths are solved in batches of at most ``chunk`` paths with similar
    solver-step counts (_ensemble_cost, keeping no solved rows), so
    padding stays small and memory stays flat in the ensemble size.  In
    the affine regime a running cost free of the state and an h free of
    x (the cash model's) need no forward state: only Y_0 = c_0 + P_0 x0
    is solved (_batch_cost).  A non-finite per-path cost, mean or
    standard error raises FloatingPointError (_finite_cost), the same
    for every regime and ``chunk``.  Every path's value depends on its
    own row only and lands at its ensemble position, so ``per_path``
    (returned for paired, common-random-number comparisons), the mean
    and the standard error are bit-identical for every ``chunk``.
    """
    return _finite_cost(_ensemble_cost(model, control, bundles, method, chunk)[0])


def _finite_cost(est: CostEstimate) -> CostEstimate:
    """``est`` when every number it reports is finite, by _finite: its
    per-path costs ("cost blow-up", naming the lowest ensemble position),
    then its mean and standard error ("cost mean blow-up").  The check of
    every reported estimate, evaluate_cost's and the certificate's u*
    pass, so its verdict does not depend on ``keep``, ``chunk`` or the
    regime."""
    _finite(est.per_path, np.arange(est.per_path.size), "cost")
    _finite(np.array([est.mean, est.std_error]), None, "cost mean")
    return est


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
                      affine=True, name=name)
    return model, LevyJumpSpec(c=p["c"], intensity=lam), SubordinatorSpec(alpha=p["alpha"]), p
