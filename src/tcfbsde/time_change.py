"""Alpha-stable subordinators and their first-passage inverses.

The subordinator D is a nondecreasing Levy process with Laplace exponent
psi(xi) = scale * xi**alpha, 0 < alpha < 1, simulated on a uniform grid in
operational time u by summing exact stable increments. Its inverse

    E_t = inf{u > 0 : D_u > t}

is the random clock used everywhere else. D is treated as a right-continuous
staircase, so the inverse is exact for the simulated path: E(t) = u_i with i
the last grid index at which D(u_i) <= t. With that convention E(D(u_i)) = u_i
at every stored point and composed/dual simulations agree to floating point
(the discrete sandwich reads D(E(t)) <= t < D(E(t) + du)).
"""

from dataclasses import dataclass, field

import numpy as np

from .seeding import _integer

__all__ = [
    "SubordinatorSpec",
    "OperationalGrid",
    "SubordinatorPath",
    "InversePath",
    "laplace_exponent",
    "stable_increments",
    "sample_subordinator",
    "sample_subordinators",
    "invert_subordinator",
    "matched_calendar_grid",
]


@dataclass(frozen=True)
class SubordinatorSpec:
    """Stability index alpha in (0,1), strictly, and a positive scale."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0,1), got {self.alpha}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class OperationalGrid:
    """Uniform grid in operational time: points i*step for i = 0..n_steps."""

    step: float
    horizon: float

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not np.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        n = self.n_steps
        if n < 1 or abs(self.horizon - n * self.step) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(
                f"horizon {self.horizon} is not a positive multiple of step {self.step}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def points(self) -> np.ndarray:
        return self.step * np.arange(self.n_steps + 1)


@dataclass
class SubordinatorPath:
    """One realized staircase of D on its operational grid.

    values[i] = D(i*step), values[0] = 0, nondecreasing and never NaN (else
    ValueError); the stored path ends at the first grid point past the
    calendar horizon, so its grid's horizon is the discrete first-passage
    time.
    """

    grid: OperationalGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.grid.n_steps + 1:
            raise ValueError("values length does not match the grid")
        if v[0] != 0.0:
            raise ValueError("subordinator paths start at 0")
        # one comparison that NaN fails too
        if not (v[1:] >= v[:-1]).all():
            raise ValueError("subordinator paths are nondecreasing")
        self.values = v


@dataclass
class InversePath:
    """E evaluated on a calendar grid; finite, nondecreasing, E(0) = 0."""

    calendar_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.calendar_grid, dtype=float)
        e = np.asarray(self.values, dtype=float)
        if t.shape != e.shape or t.ndim != 1:
            raise ValueError("calendar grid and values must be matching 1-d arrays")
        for name, a in (("calendar_grid", t), ("values", e)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        if t.size and np.any(np.diff(t) <= 0.0):
            raise ValueError("calendar grid must be strictly increasing")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("inverse paths are nondecreasing")
        if t.size and t[0] == 0.0 and e[0] != 0.0:
            raise ValueError("E(0) must be 0")
        self.calendar_grid = t
        self.values = e

    def grid_indices(self, grid: OperationalGrid | None) -> np.ndarray:
        """The point rint(E(t) / step) of ``grid`` read at each calendar time,
        failing loudly past its horizon; no grid (no solver steps) is u = 0."""
        top = 0.0 if grid is None else grid.horizon + 1e-9 * grid.step
        if np.max(self.values, initial=0.0) > top:
            raise ValueError("horizon mismatch: the inverse exceeds the operational horizon")
        if grid is None:
            return np.zeros(self.values.size, dtype=int)
        return np.rint(self.values / grid.step).astype(int)


def laplace_exponent(spec: SubordinatorSpec, xi):
    """psi(xi) = scale * xi**alpha for xi > 0 (scalar or array)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0) or not np.all(np.isfinite(xi)):
        raise ValueError("xi must be positive and finite")
    out = spec.scale * xi ** spec.alpha
    return float(out) if out.ndim == 0 else out


def stable_increments(alpha: float, size, rng: np.random.Generator) -> np.ndarray:
    """Standard positive alpha-stable draws S with E[exp(-xi S)] = exp(-xi**alpha).

    Kanter's form of the Chambers-Mallows-Stuck transform:
        S = (A(theta) / W) ** ((1 - alpha) / alpha)
        A(theta) = [sin(alpha theta)**alpha sin((1-alpha) theta)**(1-alpha)
                    / sin(theta)] ** (1 / (1-alpha))
    with theta uniform on (0, pi) and W standard exponential.  The power
    1 / (1 - alpha) overflows in double precision for alpha near 1 (and
    the outer power for alpha near 0); a non-finite draw raises
    FloatingPointError instead of silently truncating a clock.
    """
    theta = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    return _kanter(alpha, theta, w)


def _kanter(alpha: float, theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter's transform of uniforms theta and exponentials w, elementwise
    (so a draw's bits do not depend on the array it sits in)."""
    a = (
        np.sin(alpha * theta) ** alpha
        * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
        / np.sin(theta)
    ) ** (1.0 / (1.0 - alpha))
    s = (a / w) ** ((1.0 - alpha) / alpha)
    if not np.isfinite(s).all():
        raise FloatingPointError(
            f"stable draw overflow at alpha={alpha}: "
            f"{int(np.count_nonzero(~np.isfinite(s)))} non-finite draws")
    return s


# The grid doubles until D passes the level, but never past this many steps
# (2 MB of values).  A path that long comes from a spec whose clock cannot
# reach the horizon (a scale near 0, a step far too fine): the solvers pad
# a batch to its longest path, so they could not take it anyway, and
# doubling on would exhaust memory before the level is passed.
MAX_STEPS = 1 << 18


def sample_subordinators(spec: SubordinatorSpec, calendar_horizon: float,
                         grid: OperationalGrid, rngs):
    """Simulate one path of D per generator in ``rngs`` until it first
    exceeds calendar_horizon.

    ``rngs`` is a sequence of generators, one per path: a list of
    Generators, or a seeding.Substreams, which loads the start of each
    path's stream into one reused generator.  Increments over each step du
    are exact in law (stable scaling: (scale*du)**(1/alpha) times a
    standard draw).  Every path starts on ``grid`` and, while it is below
    the level, doubles its grid, up to MAX_STEPS steps (beyond that it
    raises, naming the spec, the level and the step).  Each round takes
    the generator of every path still below the level, in path order,
    restores the state that path's draws reached in the round before,
    draws its new increments and keeps the state reached; it then runs
    the Kanter transform and the running sums once over all of them, so a
    path's values depend on its generator alone.

    Returns (values, k): the paths concatenated in order, path p truncated
    at its first grid point k[p] with D > calendar_horizon, so that it is
    values[s:s + k[p] + 1] with s = sum over q < p of (k[q] + 1).
    """
    if not (np.isfinite(calendar_horizon) and calendar_horizon > 0.0):
        raise ValueError(f"calendar_horizon must be positive, got {calendar_horizon}")
    du = grid.step
    step_scale = (spec.scale * du) ** (1.0 / spec.alpha)
    n = len(rngs)
    k = np.zeros(n, dtype=int)
    base = np.zeros(n)
    live = np.arange(n)
    rounds = []                     # (rows, steps before the round, D values)
    held = {}                       # the generator state each live row reached
    size, total = grid.n_steps, 0
    while live.size:
        if total and 2 * total > MAX_STEPS:
            raise RuntimeError(
                f"horizon unreachable: the subordinator (alpha={spec.alpha}, "
                f"scale={spec.scale}) did not pass the level {calendar_horizon} "
                f"within {total} steps of {du}; the grid may not grow "
                f"past {MAX_STEPS} steps")
        theta, w = np.empty((live.size, size)), np.empty((live.size, size))
        for row, p in enumerate(live.tolist()):
            rng = rngs[p]
            if p in held:
                rng.bit_generator.state = held[p]
            theta[row] = rng.uniform(0.0, np.pi, size=size)
            w[row] = rng.standard_exponential(size=size)
            held[p] = rng.bit_generator.state
        d = base[live, None] + np.cumsum(step_scale * _kanter(spec.alpha, theta, w), axis=1)
        if not np.isfinite(d[:, -1]).all():
            raise RuntimeError("horizon unreachable: subordinator failed to pass the level")
        rounds.append((live, total, d))
        done = d[:, -1] > calendar_horizon
        # the values are nondecreasing, so those <= level are a prefix
        k[live[done]] = 1 + total + np.count_nonzero(d[done] <= calendar_horizon, axis=1)
        base[live] = d[:, -1]
        live = live[~done]
        held = {p: held[p] for p in live.tolist()}
        total += size
        size = total
    start = np.cumsum(k + 1) - (k + 1)
    values = np.empty(int(k.sum()) + n)
    values[start] = 0.0
    for rows, before, d in rounds:
        cols = np.arange(d.shape[1])
        kept = cols < (k[rows] - before)[:, None]
        values[((start[rows] + 1 + before)[:, None] + cols)[kept]] = d[kept]
    return values, k


def sample_subordinator(
    spec: SubordinatorSpec,
    calendar_horizon: float,
    grid: OperationalGrid,
    seed,
) -> SubordinatorPath:
    """Simulate D until it first exceeds calendar_horizon: the one-path call
    of sample_subordinators, truncated at the first grid point where
    D > calendar_horizon.  Deterministic in (spec, grid, seed); seed may be
    a non-negative integer (an integral float or a numpy integer means its
    integer; any other value raises ValueError) or an already-derived numpy
    Generator.
    """
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(_integer(seed, "seed")))
    values, (k,) = sample_subordinators(spec, calendar_horizon, grid, [rng])
    return SubordinatorPath(grid=OperationalGrid(step=grid.step, horizon=grid.step * int(k)),
                            values=values)


def invert_subordinator(path: SubordinatorPath, calendar_grid) -> InversePath:
    """Evaluate the first-passage inverse on the given calendar times.

    E(t) = u_i with i the last stored index at which D(u_i) <= t (staircase
    convention, see module docstring). Requires the path to have passed
    max(calendar_grid); a non-finite calendar time raises ValueError
    (InversePath).
    """
    t = np.asarray(calendar_grid, dtype=float)
    if t.size == 0:
        raise ValueError("empty calendar grid")
    if np.any(t < 0.0):
        raise ValueError("calendar times must be nonnegative")
    if path.values[-1] <= t.max():
        raise ValueError(
            f"passage not reached: D ends at {path.values[-1]:.6g} "
            f"but the grid extends to {t.max():.6g}"
        )
    idx = np.searchsorted(path.values, t, side="right") - 1
    return InversePath(calendar_grid=t, values=idx * path.grid.step)


def matched_calendar_grid(path: SubordinatorPath, horizon: float) -> np.ndarray:
    """Calendar grid containing every stored value of D below horizon, plus horizon.

    On this grid each calendar step spans exactly one operational step (or
    none, across the final trapping interval), which makes time-change
    identities exact rather than O(du).  ``horizon`` must be finite.
    """
    if not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    below = path.values[path.values < horizon]
    return np.append(below, horizon)
