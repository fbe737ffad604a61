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

__all__ = [
    "SubordinatorSpec",
    "OperationalGrid",
    "SubordinatorPath",
    "InversePath",
    "laplace_exponent",
    "stable_increments",
    "sample_subordinator",
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

    values[i] = D(i*step), values[0] = 0, nondecreasing; the stored path ends
    at the first grid point past the calendar horizon, and passage_time is
    that grid point (the discrete first-passage time).
    """

    grid: OperationalGrid
    values: np.ndarray
    passage_time: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != self.grid.n_steps + 1:
            raise ValueError("values length does not match the grid")
        if v[0] != 0.0:
            raise ValueError("subordinator paths start at 0")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("subordinator paths are nondecreasing")
        self.values = v

    @property
    def passage_index(self) -> int:
        return self.values.size - 1


@dataclass
class InversePath:
    """E evaluated on a calendar grid; nondecreasing, E(0) = 0."""

    calendar_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.calendar_grid, dtype=float)
        e = np.asarray(self.values, dtype=float)
        if t.shape != e.shape or t.ndim != 1:
            raise ValueError("calendar grid and values must be matching 1-d arrays")
        if t.size and np.any(np.diff(t) <= 0.0):
            raise ValueError("calendar grid must be strictly increasing")
        if np.any(np.diff(e) < 0.0):
            raise ValueError("inverse paths are nondecreasing")
        if t.size and t[0] == 0.0 and e[0] != 0.0:
            raise ValueError("E(0) must be 0")
        self.calendar_grid = t
        self.values = e


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
    with theta uniform on (0, pi) and W standard exponential.
    """
    theta = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    a = (
        np.sin(alpha * theta) ** alpha
        * np.sin((1.0 - alpha) * theta) ** (1.0 - alpha)
        / np.sin(theta)
    ) ** (1.0 / (1.0 - alpha))
    return (a / w) ** ((1.0 - alpha) / alpha)


def sample_subordinator(
    spec: SubordinatorSpec,
    calendar_horizon: float,
    grid: OperationalGrid,
    seed,
) -> SubordinatorPath:
    """Simulate D until it first exceeds calendar_horizon.

    Increments over each step du are exact in law (stable scaling:
    (scale*du)**(1/alpha) times a standard draw). The grid is grown by
    doubling until first passage; the returned path is truncated at the first
    grid point where D > calendar_horizon. Deterministic in (spec, grid, seed);
    seed may be an integer or an already-derived numpy Generator.
    """
    if not (np.isfinite(calendar_horizon) and calendar_horizon > 0.0):
        raise ValueError(f"calendar_horizon must be positive, got {calendar_horizon}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))
    du = grid.step
    step_scale = (spec.scale * du) ** (1.0 / spec.alpha)

    incs = step_scale * stable_increments(spec.alpha, grid.n_steps, rng)
    values = np.concatenate([[0.0], np.cumsum(incs)])
    grown = 0
    while values[-1] <= calendar_horizon:
        more = step_scale * stable_increments(spec.alpha, values.size - 1, rng)
        values = np.concatenate([values, values[-1] + np.cumsum(more)])
        grown += 1
        if grown > 60 or not np.isfinite(values[-1]):
            raise RuntimeError("horizon unreachable: subordinator failed to pass the level")

    k = int(np.searchsorted(values, calendar_horizon, side="right"))
    values = values[: k + 1]
    return SubordinatorPath(
        grid=OperationalGrid(step=du, horizon=du * k),
        values=values,
        passage_time=du * k,
    )


def invert_subordinator(path: SubordinatorPath, calendar_grid) -> InversePath:
    """Evaluate the first-passage inverse on the given calendar times.

    E(t) = u_i with i the last stored index at which D(u_i) <= t (staircase
    convention, see module docstring). Requires the path to have passed
    max(calendar_grid).
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
    identities exact rather than O(du).
    """
    below = path.values[path.values < horizon]
    return np.append(below, horizon)
