"""Shared fixtures for the solver tests: hand-built bundles,
grid-coupled ensembles for self-convergence experiments, and the
samplers' one-path-at-a-time references."""

import math
import zlib

import numpy as np

from tcfbsde.fbsde import Box, ModelSpec, PathBundle, _ensemble_cost
from tcfbsde.noise import BrownianPath, JumpStream, LevyJumpSpec, sample_brownian, sample_jumps
from tcfbsde.time_change import (
    OperationalGrid,
    SubordinatorPath,
    SubordinatorSpec,
    sample_subordinator,
    stable_increments,
)


def mk_model(**overrides):
    """A zero model with selected maps overridden; handy for trivial cases."""
    base = dict(
        f=lambda t1, t2, x, v: 0.0 * x + 0.0 * v,
        sigma=lambda t1, t2, x, v: 0.0 * x + 0.0 * v,
        b=lambda t1, t2, x, v, z: 0.0 * x + 0.0 * v + 0.0 * z,
        g=lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        phi=lambda x: 0.0 * x,
        l=lambda t1, t2, x, y, a, r, v: 0.0 * (x + v),
        h=lambda x: 0.0 * x,
        gamma=lambda y: 0.0 * y,
        control_set=Box(-5.0, 5.0),
        x0=1.0,
    )
    base.update(overrides)
    return ModelSpec(**base)


def solved_ensemble(model, control, bundles, chunk=512, method=None):
    """Every path's forward and backward rows, in ensemble order, as the
    cost pass keeps them."""
    return _ensemble_cost(model, control, bundles, method, chunk, keep=len(bundles))[1]


def manual_bundle(values, du, horizon, jump_spec=None, seed=0, flat_noise=False):
    """Bundle around a hand-written subordinator staircase."""
    values = np.asarray(values, dtype=float)
    grid = OperationalGrid(du, du * (values.size - 1))
    sub = SubordinatorPath(grid=grid, values=values)
    if jump_spec is None:
        jump_spec = LevyJumpSpec(c=1.0, intensity=2.0)
    if flat_noise:
        brw = BrownianPath(grid=grid, values=np.zeros(values.size))
        jumps = JumpStream(times=np.empty(0), marks=np.empty(0), horizon=grid.horizon)
    else:
        brw = sample_brownian(grid, seed + 1)
        jumps = sample_jumps(jump_spec, grid.horizon, seed + 2)
    return PathBundle(subordinator=sub, brownian=brw, jumps=jumps,
                      jump_spec=jump_spec, calendar_horizon=horizon,
                      seeds={"master": seed, "path": 0})


# solver-step counts not monotone in the index, with three zero-step
# paths: chunk 3 then solves those three alone in a Kmax = 0 batch
RAGGED_STEPS = (7, 0, 12, 3, 0, 9, 0, 5, 12, 1)


def ragged_bundles(steps, du=0.01, horizon=1.0, jump_spec=None, seed=0):
    """Bundles with prescribed solver-step counts, in the given order.

    Path i's staircase rises evenly to 0.9 * horizon over steps[i] steps
    and then jumps past the horizon; a count of 0 gives a path whose first
    increment already overshoots.  Each path carries its own noise and its
    ensemble position as its seed index.
    """
    out = []
    for i, k in enumerate(steps):
        values = np.append(np.linspace(0.0, 0.9 * horizon, k + 1), 1.5 * horizon)
        bnd = manual_bundle(values, du, horizon, jump_spec=jump_spec, seed=seed + 3 * i)
        bnd.seeds["path"] = i
        out.append(bnd)
    return out


def coupled_bundles(sub_spec, jump_spec, horizon, fine_step, seed, factors=(1, 2)):
    """Bundles on nested grids driven by the same underlying noise.

    The subordinator increments are drawn once at the finest step and
    aggregated pairwise for coarser levels, so a coarse path is exactly
    the fine path read on the coarse grid; Brownian increments likewise,
    and the jump stream is shared.  That coupling turns self-convergence
    ratios into low-variance statistics.
    """
    rng = np.random.default_rng(seed)
    fmax = max(factors)
    n_fine = 64 * fmax
    inc = np.empty(0)
    while True:
        extra = (sub_spec.scale * fine_step) ** (1.0 / sub_spec.alpha) \
            * stable_increments(sub_spec.alpha, n_fine, rng)
        inc = np.concatenate([inc, extra])
        coarse_vals = np.concatenate([[0.0], np.cumsum(
            inc[: inc.size - inc.size % fmax].reshape(-1, fmax).sum(axis=1))])
        if coarse_vals[-1] > horizon:
            break
        n_fine *= 2
    rng_b = np.random.default_rng(seed + 1)
    db_fine = rng_b.normal(0.0, np.sqrt(fine_step), inc.size)
    op_horizon = fine_step * inc.size
    jumps_all = sample_jumps(jump_spec, op_horizon, seed + 2)

    out = []
    for fac in factors:
        du = fine_step * fac
        m = inc.size // fac
        vals = np.concatenate([[0.0], np.cumsum(inc[: m * fac].reshape(-1, fac).sum(axis=1))])
        k = int(np.searchsorted(vals, horizon, side="right"))
        if k >= vals.size:
            raise RuntimeError("coupled draw too short; widen the pre-sample")
        vals = vals[: k + 1]
        grid = OperationalGrid(du, du * k)
        sub = SubordinatorPath(grid=grid, values=vals)
        db = db_fine[: m * fac].reshape(-1, fac).sum(axis=1)[:k]
        brw = BrownianPath(grid=grid, values=np.concatenate([[0.0], np.cumsum(db)]))
        keep = jumps_all.times <= grid.horizon
        jumps = JumpStream(times=jumps_all.times[keep], marks=jumps_all.marks[keep],
                           horizon=grid.horizon)
        out.append(PathBundle(subordinator=sub, brownian=brw,
                              jumps=jumps, jump_spec=jump_spec,
                              calendar_horizon=horizon,
                              seeds={"master": seed, "path": 0}))
    return out


def reference_subordinator_values(spec, level, grid, rng):
    """One path of D drawn by the one-path doubling loop: a round of
    stable_increments at a time, each appended to the running sum, until
    the path passes ``level``; truncated at the first value past it."""
    step_scale = (spec.scale * grid.step) ** (1.0 / spec.alpha)
    values = np.concatenate([[0.0], np.cumsum(
        step_scale * stable_increments(spec.alpha, grid.n_steps, rng))])
    while values[-1] <= level:
        more = step_scale * stable_increments(spec.alpha, values.size - 1, rng)
        values = np.concatenate([values, values[-1] + np.cumsum(more)])
    return values[: np.searchsorted(values, level, side="right") + 1]


def numpy_stream(master_seed, purpose, index=None):
    """The generator the package names (master_seed, purpose[, index]),
    built by numpy's own SeedSequence: the oracle of tcfbsde.seeding."""
    key = (zlib.crc32(purpose.encode("utf-8")),) + (() if index is None else (index,))
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def reference_bundle(sub_spec, jump_spec, horizon, step, master_seed, i, j):
    """Path i of make_ensemble (noise index j) built one sampler call at a
    time: make_ensemble's starting grid, then sample_subordinator,
    sample_brownian and sample_jumps on the path's named substreams, each
    built by numpy's SeedSequence (numpy_stream)."""
    guess = max(step, 1.2 * horizon**sub_spec.alpha)
    grid = OperationalGrid(step, step * max(4, math.ceil(guess / step)))
    sub = sample_subordinator(sub_spec, horizon, grid,
                              numpy_stream(master_seed, "subordinator", i))
    return PathBundle(
        subordinator=sub,
        brownian=sample_brownian(sub.grid, numpy_stream(master_seed, "brownian", j)),
        jumps=sample_jumps(jump_spec, sub.grid.horizon, numpy_stream(master_seed, "jumps", j)),
        jump_spec=jump_spec, calendar_horizon=horizon,
        seeds={"master": master_seed, "path": i, "noise_index": j})


def lq_model(box=(-10.0, 10.0), lam=2.0, kappa=1.0):
    """Linear-quadratic system with the control in every coefficient.

    Drift, volatility, jumps and driver are all affine in (x, v) and the
    running cost is quadratic in v, so first-order expansions are exact
    and the optimal control has a closed form through the adjoints.
    """
    model = ModelSpec(
        f=lambda t1, t2, x, v: -1.0 * x + 1.0 * v,
        sigma=lambda t1, t2, x, v: 0.2 * v + 0.0 * x,
        b=lambda t1, t2, x, v, z: 0.1 * z * v + 0.0 * x,
        g=lambda t1, t2, x, y, a, r, v: (-1.0 * y + 0.5 * x + 0.5 * v) / lam,
        l=lambda t1, t2, x, y, a, r, v: 0.5 * (v - kappa) ** 2 / lam,
        phi=lambda x: 1.0 * x,
        h=lambda x: 0.0 * x,
        gamma=lambda y: -y,
        control_set=Box(*box),
        x0=1.0,
        M_T=1.0,
        affine=True,
    )
    return model, LevyJumpSpec(c=1.0, intensity=lam), SubordinatorSpec(alpha=0.7)
