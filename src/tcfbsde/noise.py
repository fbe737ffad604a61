"""Driving noises in operational time and the change-of-variable checks.

The forward system is driven by a Brownian motion B and a compensated
Poisson random measure, both running on the operational clock u.  Jumps
are truncated to marks |z| < c and the restricted measure has finite
total mass, so the jump part is an ordinary compound Poisson stream and
can be simulated event by event.  Stochastic integrals are discretized
with left-endpoint (predictable) evaluation throughout; that convention
is what makes the compensated sums martingales on the grid.

Composition with the inverse subordinator maps operational paths to
calendar time.  Because the inverse is a staircase, a composed path is
piecewise constant between stored passage points, and the two
change-of-variable identities reduce to reindexings of the same finite
sum; ``change_of_variable_check`` verifies that at floating-point
accuracy rather than assuming it.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .time_change import InversePath, OperationalGrid


def _gauss_legendre(n: int, lo: float, hi: float):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


@dataclass(frozen=True)
class LevyJumpSpec:
    """Truncated jump measure: intensity * mark_law(dz) on (-c, c).

    ``mark_law`` is the normalized jump-size density, either "uniform"
    or "triangular" (symmetric, peaked at 0).  ``n_quad`` sets the
    Gauss-Legendre rule used for compensator integrals; the triangular
    density has a kink at 0 so its rule is split per half, which needs
    an even ``n_quad``.
    """

    c: float
    intensity: float
    mark_law: str = "uniform"
    n_quad: int = 16

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"truncation must be positive, got {self.c}")
        if not (np.isfinite(self.intensity) and self.intensity > 0.0):
            raise ValueError(f"intensity must be positive and finite, got {self.intensity}")
        if self.mark_law not in ("uniform", "triangular"):
            raise ValueError(f"unknown mark_law {self.mark_law!r}")
        if self.n_quad < 2:
            raise ValueError("need at least 2 quadrature nodes")
        if self.mark_law == "triangular" and self.n_quad % 2:
            raise ValueError("the triangular rule splits its nodes over two "
                             f"halves, so n_quad must be even, got {self.n_quad}")

    def mark_cdf(self, z):
        z = np.clip(np.asarray(z, dtype=float), -self.c, self.c)
        if self.mark_law == "uniform":
            return (z + self.c) / (2.0 * self.c)
        neg = (z + self.c) ** 2 / (2.0 * self.c**2)
        pos = 1.0 - (self.c - z) ** 2 / (2.0 * self.c**2)
        return np.where(z <= 0.0, neg, pos)

    def mass_of(self, lo: float, hi: float) -> float:
        """Measure of the rectangle [lo, hi] under intensity * mark_law."""
        if hi < lo:
            raise ValueError("empty rectangle: hi < lo")
        return float(self.intensity * (self.mark_cdf(hi) - self.mark_cdf(lo)))

    def quadrature(self):
        """Nodes and probability weights so sum(w * h(z)) = int h d(mark_law).

        The rule is built once per spec; both arrays are read-only
        because every caller shares them.
        """
        return self._rule

    @cached_property
    def _rule(self):
        if self.mark_law == "uniform":
            z, w = _gauss_legendre(self.n_quad, -self.c, self.c)
            w = w / (2.0 * self.c)
        else:
            half = self.n_quad // 2
            zl, wl = _gauss_legendre(half, -self.c, 0.0)
            zr, wr = _gauss_legendre(half, 0.0, self.c)
            z = np.concatenate([zl, zr])
            w = np.concatenate([wl, wr]) * (1.0 - np.abs(z) / self.c) / self.c
        z.setflags(write=False)
        w.setflags(write=False)
        return z, w

    def integrate(self, values, lead=()):
        """sum_q w_q values[..., q], the mark-law integral of nodewise values.

        ``values`` is broadcast to ``lead + (n_quad,)`` and materialised
        before the sum, so a constant, a column and a full table of the
        same numbers give the same bits, and each row's sum does not depend
        on the rows around it.  A BLAS product (it blocks rows) and einsum
        on a broadcast view (it varies with the memory offset) ensure
        neither; einsum on a contiguous array does.
        """
        vals = np.broadcast_to(np.asarray(values, dtype=float), tuple(lead) + (self.n_quad,))
        return np.einsum("...q,q->...", np.ascontiguousarray(vals), self._rule[1])

    def sample_marks(self, size, rng: np.random.Generator):
        if self.mark_law == "uniform":
            return rng.uniform(-self.c, self.c, size)
        return self.c * (rng.random(size) + rng.random(size) - 1.0)


@dataclass(frozen=True)
class BrownianPath:
    grid: OperationalGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n_steps + 1,):
            raise ValueError("value count does not match grid")
        if v[0] != 0.0:
            raise ValueError("Brownian path must start at 0")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite Brownian values")


@dataclass(frozen=True)
class JumpStream:
    """Event list (times, marks) of a compound Poisson stream on [0, horizon]."""

    times: np.ndarray = field(repr=False)
    marks: np.ndarray = field(repr=False)
    horizon: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        z = np.asarray(self.marks, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "marks", z)
        if t.shape != z.shape or t.ndim != 1:
            raise ValueError("times and marks must be matching 1-d arrays")
        if t.size and (np.any(np.diff(t) <= 0.0) or t[0] <= 0.0 or t[-1] > self.horizon):
            raise ValueError("event times must be strictly increasing in (0, horizon]")

    @property
    def events(self):
        return list(zip(self.times.tolist(), self.marks.tolist()))

    @property
    def size(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class CalendarPath:
    """A path read on calendar time, the output of composition."""

    calendar_grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.calendar_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "calendar_grid", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape:
            raise ValueError("grid and values must match")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_brownian(grid: OperationalGrid, seed) -> BrownianPath:
    rng = _as_rng(seed)
    inc = rng.normal(0.0, np.sqrt(grid.step), grid.n_steps)
    values = np.empty(grid.n_steps + 1)
    values[0] = 0.0
    np.cumsum(inc, out=values[1:])
    return BrownianPath(grid=grid, values=values)


def sample_jumps(spec: LevyJumpSpec, horizon: float, seed) -> JumpStream:
    """Homogeneous Poisson arrivals at rate ``intensity`` with i.i.d. marks."""
    if horizon < 0.0 or not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    rng = _as_rng(seed)
    if horizon == 0.0:
        return JumpStream(times=np.empty(0), marks=np.empty(0), horizon=0.0)
    n = rng.poisson(spec.intensity * horizon)
    times = np.sort(rng.uniform(0.0, horizon, n))
    marks = spec.sample_marks(n, rng)
    return JumpStream(times=times, marks=marks, horizon=horizon)


def _eval_integrand(integrand, u, z, where):
    """integrand(u, z) over the broadcast shape of u and z.

    One broadcast call first, its return (a scalar too) broadcast to the
    full shape; integrands that only take scalars fall back to a loop.  A
    non-finite value raises, naming the first ``where`` (u, z) it hit.
    """
    u, z = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(z, dtype=float))
    try:
        out = np.broadcast_to(np.asarray(integrand(u, z), dtype=float), u.shape)
    except (TypeError, ValueError):
        out = np.array([float(integrand(a, b)) for a, b in zip(u.flat, z.flat)])
        out = out.reshape(u.shape)
    bad = ~np.isfinite(out)
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"non-finite integrand at {where} (u={u[k]}, z={z[k]})")
    return out


def compensated_integral(integrand, stream: JumpStream, spec: LevyJumpSpec,
                         grid: OperationalGrid) -> np.ndarray:
    """Path of the compensated sum: events minus left-endpoint compensator.

    Returns values at every grid point; events beyond the grid horizon are
    ignored so a longer stream can be reused on a shorter grid.
    """
    pts = grid.points()
    out = np.zeros(pts.size)
    if stream.size:
        vals = _eval_integrand(integrand, stream.times, stream.marks, "event")
        keep = stream.times <= pts[-1] + 1e-12 * grid.step
        idx = np.searchsorted(pts, stream.times[keep], side="left")
        np.add.at(out, idx, vals[keep])
        np.cumsum(out, out=out)
    z, _ = spec.quadrature()
    node_vals = _eval_integrand(integrand, pts[:-1, None], z, "quadrature node")
    rate = spec.integrate(spec.intensity * node_vals, pts[:-1].shape)
    out[1:] -= np.cumsum(rate * grid.step)
    return out


def compose_time_change(op_path, inverse: InversePath) -> CalendarPath:
    """Read an operational path through the inverse: output(t) = path(E(t))."""
    grid: OperationalGrid = op_path.grid
    values = np.asarray(op_path.values, dtype=float)
    if np.max(inverse.values) > grid.horizon + 1e-9 * grid.step:
        raise ValueError("operational horizon exceeded")
    idx = np.rint(inverse.values / grid.step).astype(int)
    return CalendarPath(calendar_grid=inverse.calendar_grid, values=values[idx])


def change_of_variable_check(integrand_path, driver, inverse: InversePath,
                             spec: LevyJumpSpec | None = None) -> float:
    """Max discrepancy between the two sides of the substitution identity.

    Left side: the operational integral int_0^{E(t)} U dZ.  Right side:
    the calendar integral int_0^t U_E dZ_E.  On a staircase time change
    both are the same finite sum reindexed, so the return value should
    sit at floating-point accumulation level whenever the calendar grid
    contains the stored passage points of the subordinator.

    ``driver`` is a BrownianPath, a JumpStream (then ``spec`` must be
    given and Z is the compensated integral of h(u, z) = z), or any
    object with grid/values.
    """
    if hasattr(integrand_path, "grid"):
        grid, U = integrand_path.grid, np.asarray(integrand_path.values, dtype=float)
    else:
        grid, U = driver.grid, np.asarray(integrand_path, dtype=float)

    if isinstance(driver, JumpStream):
        if spec is None:
            raise ValueError("a JumpStream driver needs its LevyJumpSpec")
        Z = compensated_integral(lambda u, z: z, driver, spec, grid)
    else:
        if driver.grid.step != grid.step:
            raise ValueError("grid mismatch between integrand and driver")
        Z = np.asarray(driver.values, dtype=float)
    if U.shape != Z.shape:
        raise ValueError("grid mismatch between integrand and driver")

    n = np.rint(inverse.values / grid.step).astype(int)
    cum = np.concatenate([[0.0], np.cumsum(U[:-1] * np.diff(Z))])
    lhs = cum[n]
    rhs = np.concatenate([[0.0], np.cumsum(U[n[:-1]] * np.diff(Z[n]))])
    return float(np.max(np.abs(lhs - rhs)))


_FD_COEFF = 1e-5


def central_difference(fn, args, pos):
    """Central difference of ``fn`` in argument slot ``pos``.

    The step is 1e-5 * (1 + |argument|); for the polynomial maps used
    throughout the difference is exact up to rounding.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    w = args[pos]
    h = _FD_COEFF * (1.0 + np.abs(w))
    up, dn = list(args), list(args)
    up[pos], dn[pos] = w + h, w - h
    return (np.asarray(fn(*up), dtype=float) - np.asarray(fn(*dn), dtype=float)) / (2.0 * h)


def ito_decomposition_check(F, solution, derivatives=None) -> np.ndarray:
    """Residual path of the discrete decomposition of F(t, E_t, X_t).

    ``solution`` must expose the realized forward ingredients:

    * ``grid``          solver grid on [0, E_T]
    * ``X``             forward values, shape (K+1,)
    * ``calendar_times``  t_i = D(u_i), shape (K+1,)
    * ``dB``            Brownian increments used by the solver, shape (K,)
    * ``drift``, ``vol``  realized f and sigma at left endpoints, shape (K,)
    * ``jump_nodes``    b at quadrature nodes, shape (K, Q)
    * ``jump_spec``     the LevyJumpSpec of those nodes
    * ``event_steps``, ``event_b``  per-event step index and jump size

    The residual compares F along the path against drift, time-change,
    martingale and jump-correction terms accumulated left to right; it
    vanishes at first order in the step for smooth F.  ``derivatives``
    may supply exact partials under keys "t1", "t2", "x", "xx";
    missing ones fall back to central differences.
    """
    derivatives = derivatives or {}

    def deriv(which, t1, t2, x):
        fn = derivatives.get(which)
        if fn is not None:
            out = np.asarray(fn(t1, t2, x), dtype=float)
        elif which == "xx":
            d = _FD_COEFF * (1.0 + np.abs(x))
            out = (F(t1, t2, x + d) - 2.0 * F(t1, t2, x) + F(t1, t2, x - d)) / d**2
        else:
            out = central_difference(F, (t1, t2, x), ("t1", "t2", "x").index(which))
        if not np.all(np.isfinite(out)):
            raise ValueError(f"non-finite {which} derivative of F")
        return out

    grid: OperationalGrid = solution.grid
    K, du = grid.n_steps, grid.step
    u = grid.points()
    X = np.asarray(solution.X, dtype=float)
    t = np.asarray(solution.calendar_times, dtype=float)

    lhs = F(t, u, X) - F(t[0], 0.0, X[0])

    t1, t2, x = t[:-1], u[:-1], X[:-1]
    Ft1 = deriv("t1", t1, t2, x)
    Ft2 = deriv("t2", t1, t2, x)
    Fx = deriv("x", t1, t2, x)
    Fxx = deriv("xx", t1, t2, x)

    b = np.asarray(solution.jump_nodes, dtype=float)          # (K, Q)
    Fjump = F(t1[:, None], t2[:, None], x[:, None] + b) - F(t1, t2, x)[:, None]
    spec = solution.jump_spec
    lam = spec.intensity
    levy_corr = spec.integrate(lam * du * (Fjump - Fx[:, None] * b), (K,))
    compensator = spec.integrate(lam * du * Fjump, (K,))

    inc = (Ft1 * np.diff(t)
           + (Ft2 + Fx * solution.drift + 0.5 * Fxx * solution.vol**2) * du
           + levy_corr
           + Fx * solution.vol * np.asarray(solution.dB)
           - compensator)
    steps = np.asarray(solution.event_steps, dtype=int)
    if steps.size:
        eb = np.asarray(solution.event_b, dtype=float)
        ev = F(t1[steps], t2[steps], x[steps] + eb) - F(t1[steps], t2[steps], x[steps])
        np.add.at(inc, steps, ev)

    rhs = np.concatenate([[0.0], np.cumsum(inc)])
    return lhs - rhs
