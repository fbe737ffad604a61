"""Solver-level tests: forward scheme, the three backward regimes, duality
composition, and the cost functional."""

import contextlib
import dataclasses
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare, ks_2samp, kstest

from oracles import affine_y_recursion, k_law, linear_fbsde_ode_oracle, mittag_leffler
from support import (
    RAGGED_STEPS,
    coupled_bundles,
    manual_bundle,
    mk_model,
    ragged_bundles,
    reference_bundle,
    solved_ensemble,
)
from tcfbsde import fbsde, smp, time_change
from tcfbsde.cash import (
    CashSpec,
    build_cash_model,
    cash_adjoints,
    cash_optimal_control,
    certify_optimality,
)
from tcfbsde.fbsde import (
    Box,
    ConstantControl,
    FeedbackControl,
    ModelSpec,
    PerturbedControl,
    StepwiseControl,
    TableControl,
    build_model,
    compose_duality,
    evaluate_cost,
    make_ensemble,
    solve_backward_dual,
    solve_calendar_direct,
    solve_forward_dual,
)
from tcfbsde.noise import LevyJumpSpec, ito_decomposition_check
from tcfbsde.smp import expansion_check
from tcfbsde.time_change import SubordinatorSpec


IDENTITY_DU = 0.005
# ragged solver-step counts for the live-row properties: zeros and
# duplicates included, in any order
RAGGED = st.lists(st.integers(0, 9), min_size=1, max_size=8)


def identity_bundle(seed=0, du=IDENTITY_DU, horizon=0.5, flat_noise=False, **kw):
    """Bundle whose subordinator is the identity staircase D(u) = u."""
    n_below = int(round(horizon / du))
    values = du * np.arange(n_below + 2)
    return manual_bundle(values, du, horizon, seed=seed, flat_noise=flat_noise, **kw)


# ---------------------------------------------------------------- controls

def test_box_admit_projects_and_rejects():
    box = Box(-1.0, 1.0)
    assert box.admit(1.0 + 1e-12) == 1.0
    assert box.admit(np.array([-0.5, 0.5]))[0] == -0.5
    with pytest.raises(ValueError, match="control infeasible"):
        box.admit(1.1)


def test_box_admit_refuses_non_finite_controls():
    """An infinite or NaN control is refused as non-finite before any
    projection, by a bounded box and by the whole line, and so is such a
    control of the cash model (whose box is the whole line) under
    evaluate_cost, as a constant or as a feedback: the whole line used to
    admit +-inf and blame the state's blow-up, and a NaN was reported as
    outside [-inf, inf].  Finite values keep their bits."""
    for box in (Box(-1.0, 1.0), Box()):
        for bad in (np.inf, -np.inf, np.nan, np.array([0.5, np.inf]), np.array([np.nan, 0.5])):
            with pytest.raises(ValueError, match="non-finite"):
                box.admit(bad)
    finite = np.array([-0.5, 0.25, 1.0 + 1e-12, -1.0 - 1e-12])
    assert Box(-1.0, 1.0).admit(finite).tobytes() == np.clip(finite, -1.0, 1.0).tobytes()
    assert Box().admit(finite).tobytes() == finite.tobytes()
    spec = CashSpec()
    ens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 8, master_seed=0)
    for ctl in (ConstantControl(np.inf), ConstantControl(np.nan),
                FeedbackControl(lambda t1, t2, x: np.inf + 0.0 * x)):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_cost(build_cash_model(spec), ctl, ens)


def test_box_empty_raises():
    with pytest.raises(ValueError, match="empty control box"):
        Box(2.0, 2.0)


def test_box_interior_point_lies_inside_a_one_sided_box():
    """One inside the finite side of a one-sided box; the midpoint of a
    bounded box and 0 on the whole line, as before.  A model whose maps
    are defined on its one-sided box only is accepted: its validation
    probe reads the maps at that point."""
    assert Box(10.0).interior_point() == 11.0
    assert Box(hi=-10.0).interior_point() == -11.0
    assert Box(-2.0, 3.0).interior_point() == 0.5
    assert Box().interior_point() == 0.0
    model = mk_model(f=lambda t1, t2, x, v: -x + np.sqrt(v - 10.0), control_set=Box(10.0))
    assert model.control_set.contains(model.control_set.interior_point())


@given(st.floats(-0.999, 0.999))
def test_box_admit_is_identity_inside(v):
    assert Box(-1.0, 1.0).admit(v) == v


def test_table_control_is_left_constant():
    ctl = TableControl([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
    t = np.array([-0.5, 0.0, 0.999, 1.0, 1.5, 10.0])
    assert np.array_equal(ctl.values_at(0, t, 0.0, t, None),
                          [5.0, 5.0, 5.0, 6.0, 6.0, 7.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        TableControl([0.0, 0.0], [1.0, 2.0])
    # np.diff against NaN compares False: this table was accepted, and read
    # 1.0 at t = 0.6 where it says 3.0
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            TableControl([0.0, bad, 0.5], [1.0, 2.0, 3.0])


def test_stepwise_control_reads_its_row():
    ctl = StepwiseControl(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = ctl.values_at(1, None, None, None, np.array([1, 0]))
    assert np.array_equal(out, [4.0, 2.0])
    # column clamps at the last stored step
    out = ctl.values_at(9, None, None, None, np.array([0]))
    assert out[0] == 2.0


def test_perturbed_control_combines():
    """A perturbation is open-loop (has a ``table``) exactly when both of
    its parts are; one with a feedback part is not, and so is costed by
    regression."""
    ctl = PerturbedControl(ConstantControl(1.0), ConstantControl(2.0), rho=0.25)
    assert hasattr(ctl, "table")
    assert float(ctl.values_at(0, 0.0, 0.0, 0.0, None)) == 1.5
    lin = build_model("linear_test")[0]
    fb = FeedbackControl(lambda t1, t2, x: 0.1 * x)
    for pert in (PerturbedControl(ConstantControl(1.0), fb, 0.25),
                 PerturbedControl(fb, ConstantControl(1.0), 0.25)):
        assert not hasattr(pert, "table")
        assert fbsde.backward_method(lin, pert) == "lsmc"
    assert fbsde.backward_method(lin, ctl) == "affine"


# ------------------------------------------------------------------ models

def test_model_probe_rejects_non_finite_map():
    with pytest.raises(ValueError, match="probe"):
        mk_model(f=lambda t1, t2, x, v: np.nan + 0.0 * x)


def test_model_refuses_a_registered_slope_that_misses_the_difference():
    """The affine probe reads a registered slope in place of the map's
    0/1 difference, so on an affine model each one must match it at the
    validation point: a wrong b_x (or g_y) is refused, the right one
    accepted, and a model not declared affine is not checked."""
    maps = dict(b=lambda t1, t2, x, v, z: 0.05 * z * x + 0.1 * v + 0.0 * z,
                g=lambda t1, t2, x, y, a, r, v: -0.5 * y + 0.5 * x + 0.0 * (a + r + v))
    right = {"b_x": lambda t1, t2, x, v, z: 0.05 * z + 0.0 * (x + v),
             "g_y": lambda t1, t2, x, y, a, r, v: -0.5 + 0.0 * y}
    mk_model(**maps, affine=True, derivatives=right)
    for name, wrong in (("b_x", lambda t1, t2, x, v, z: 0.05 * z + 1e-6),
                        ("g_y", lambda t1, t2, x, y, a, r, v: 0.5 + 0.0 * y)):
        with pytest.raises(ValueError, match=f"registered {name} does not match"):
            mk_model(**maps, affine=True, derivatives=dict(right, **{name: wrong}))
        mk_model(**maps, derivatives=dict(right, **{name: wrong}))


def test_model_refuses_a_wrong_slope_written_after_construction():
    """A model is checked once, when it is built, and is never written
    after: an attribute write raises FrozenInstanceError and a write to
    ``derivatives``, a read-only copy of the mapping given, TypeError.
    dataclasses.replace builds a changed model and runs every check again:
    a wrong f_x or g_y probe slope and a NaN x0 are refused, and the model
    keeps its slopes and its costs.  A replacement that keeps the slopes,
    a key the probe does not read and a wrong slope on a model not
    declared affine are allowed."""
    spec = CashSpec()
    model = build_cash_model(spec)
    ens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 64, 0)
    before = evaluate_cost(model, ConstantControl(0.5), ens).per_path
    f, derivs = model.f, dict(model.derivatives)
    wrong = lambda *args: 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.f = lambda t1, t2, x, v: f(t1, t2, x, v) - 2.0 * x
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.affine = False
    with pytest.raises(TypeError):
        model.derivatives["f_x"] = wrong
    with pytest.raises(TypeError):
        del model.derivatives["g_a"]
    for key in ("f_x", "g_y"):
        with pytest.raises(ValueError, match=f"registered {key} does not match"):
            dataclasses.replace(model, derivatives=dict(derivs, **{key: wrong}))
    with pytest.raises(ValueError, match="x0 must be finite"):
        dataclasses.replace(model, x0=np.nan)
    assert model.f is f and dict(model.derivatives) == derivs
    for same in (model, dataclasses.replace(model)):
        after = evaluate_cost(same, ConstantControl(0.5), ens).per_path
        assert after.tobytes() == before.tobytes()
    dataclasses.replace(model, f=lambda t1, t2, x, v: f(t1, t2, x, v) + 0.0,
                        derivatives=dict(derivs, f_v=lambda t1, t2, x, v: 123.0 + 0.0 * v))
    given = {"g_y": wrong}
    unchecked = mk_model(derivatives=given)
    given["f_x"] = wrong
    assert dict(unchecked.derivatives) == {"g_y": wrong}


def test_model_refuses_a_map_replaced_under_a_stale_slope():
    """dataclasses.replace checks the slopes registered for a replaced f,
    sigma, b or g against the new map: f - 2x under the registered f_x and
    g + y under the registered g_y are refused, and the model keeps its
    maps and its costs.  Any map is allowed once its slope is dropped.
    Declaring a model affine checks every slope registered while it was
    not."""
    spec = CashSpec()
    model = build_cash_model(spec)
    ens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 64, 0)
    before = evaluate_cost(model, ConstantControl(0.5), ens).per_path
    f, g, derivs = model.f, model.g, dict(model.derivatives)
    for key, change in (
            ("f_x", dict(f=lambda t1, t2, x, v: f(t1, t2, x, v) - 2.0 * x)),
            ("g_y", dict(g=lambda t1, t2, x, y, a, r, v: g(t1, t2, x, y, a, r, v) + y))):
        with pytest.raises(ValueError, match=f"registered {key} does not match"):
            dataclasses.replace(model, **change)
    assert model.f is f and model.g is g and dict(model.derivatives) == derivs
    after = evaluate_cost(model, ConstantControl(0.5), ens).per_path
    assert after.tobytes() == before.tobytes()
    bare = {key: d for key, d in derivs.items() if key != "f_x"}
    moved = dataclasses.replace(model, f=lambda t1, t2, x, v: f(t1, t2, x, v) - 2.0 * x,
                                derivatives=bare)
    assert not np.allclose(evaluate_cost(moved, ConstantControl(0.5), ens).per_path, before)
    # a slope registered on a model not declared affine is checked when it
    # is declared affine
    lin = build_model("linear_test")[0]
    loose = dataclasses.replace(lin, affine=False,
                                derivatives={"f_x": lambda t1, t2, x, v: 5.0})
    with pytest.raises(ValueError, match="registered f_x does not match"):
        dataclasses.replace(loose, affine=True)
    assert dataclasses.replace(loose, affine=True, derivatives={}).affine


def test_probe_takes_an_unread_argument_as_an_exact_zero_slope():
    """An unregistered slope in an argument the map provably never reads is
    a scalar 0.0: quadratic_drift's b never reads x, so the probe calls it
    once where a *args wrapper of the same b, which may read x, is called
    twice and gives a nodewise table of zeros.  Both give the same costs,
    bit for bit, with the unread x-slope of sigma and the unread a and r
    slopes of g scalar zeros too."""
    model, jump, sub, p = build_model("quadratic_drift")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    batch = ens.rows(np.argsort(ens.K, kind="stable"))
    v = fbsde._open_loop(ConstantControl(0.5), batch)
    assert model._unread["b"] == model._unread["sigma"] == {"x"}
    assert model._unread["g"] == {"a", "r"} and not model._unread["f"]
    base, g, seen = model.b, model.g, []

    def counted(t1, t2, x, v, z):
        # b's own value, without naming x: base does not read it either
        seen.append(1)
        return base(t1, t2, 0.0, v, z)

    wrapped = dataclasses.replace(model, b=lambda *args: counted(*args),
                                  g=lambda *args: g(*args))
    assert not wrapped._unread["b"] and not wrapped._unread["g"]
    model = dataclasses.replace(model, b=counted)
    # each construction probes b once, at the origin
    assert len(seen) == 2
    seen.clear()
    co = fbsde._probe_affine(model, batch, v)
    assert len(seen) == 1
    for key in ("bx", "ibx", "sx", "Ga", "gr"):
        assert np.ndim(co[key]) == 0 and co[key] == 0.0
    seen.clear()
    twin = fbsde._probe_affine(wrapped, batch, v)
    assert len(seen) == 2
    assert twin["bx"].shape == (batch.N, batch.Kmax, batch.w.size) and not twin["bx"].any()
    ctl = ConstantControl(0.5)
    assert (evaluate_cost(model, ctl, ens).per_path.tobytes()
            == evaluate_cost(wrapped, ctl, ens).per_path.tobytes())


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_model_rejects_a_non_finite_initial_state(x0):
    """A non-finite x0 would reach every per-path cost (NaN even on
    zero-step paths) or read as a state blow-up at step 0."""
    with pytest.raises(ValueError, match="x0 must be finite"):
        mk_model(x0=x0)


def test_linear_terminal_flag_is_checked():
    with pytest.raises(ValueError, match="linear_terminal"):
        mk_model(phi=lambda x: x**2, M_T=1.0)


def test_only_scalar_systems():
    with pytest.raises(NotImplementedError):
        mk_model(n=2)


def test_unknown_model_name():
    with pytest.raises(KeyError):
        build_model("soup")


# --------------------------------------------------------------- ensembles

def test_make_ensemble_is_deterministic_and_consistent():
    model, jump, sub, p = build_model("linear_test")
    one = make_ensemble(sub, jump, 0.7, 0.01, 3, master_seed=42)
    two = make_ensemble(sub, jump, 0.7, 0.01, 3, master_seed=42)
    for a, b in zip(one, two):
        assert np.array_equal(a.subordinator.values, b.subordinator.values)
        assert np.array_equal(a.brownian.values, b.brownian.values)
        assert np.array_equal(a.jumps.times, b.jumps.times)
    dB = one.rows().dB
    for n, b in enumerate(one):
        vals = b.subordinator.values
        assert vals[-1] > 0.7 >= vals[-2]
        assert b.solver_steps == vals.size - 2
        assert abs(b.inverse.values[-1] - b.solver_steps * 0.01) < 1e-12
        K = b.solver_steps
        assert np.array_equal(dB[n, :K], np.diff(b.brownian.values[: K + 1]))
        assert np.all(dB[n, K:] == 0.0)


def test_pairing_reassigns_noise_streams():
    model, jump, sub, p = build_model("linear_test")
    base = make_ensemble(sub, jump, 0.5, 0.01, 4, master_seed=7)
    perm = np.array([2, 3, 0, 1])
    paired = make_ensemble(sub, jump, 0.5, 0.01, 4, master_seed=7, pairing=perm)
    for i in range(4):
        assert np.array_equal(paired[i].subordinator.values,
                              base[i].subordinator.values)
        j = perm[i]
        k = min(paired[i].brownian.values.size, base[j].brownian.values.size)
        assert np.array_equal(paired[i].brownian.values[:k],
                              base[j].brownian.values[:k])


@pytest.mark.parametrize("pairing", [
    [0, 0, 1, 2],     # paths 0 and 1 would share their noise
    [1, 0, 3, 2, 4],  # longer: would be cut short
    [1, 0, 2],        # shorter: would fail in the middle of sampling
    [0, 1, 2, 4],     # names a noise index outside the ensemble
    [0.9, 1.7, 2.2, 3.0],  # would be truncated to a permutation
])
def test_pairing_must_be_a_permutation(pairing):
    """make_ensemble refuses, before drawing, a pairing that is not a
    permutation of range(n_paths)."""
    model, jump, sub, p = build_model("linear_test")
    with pytest.raises(ValueError, match=r"pairing must be a permutation of range\(4\)"):
        make_ensemble(sub, jump, 0.5, 0.01, 4, master_seed=7, pairing=pairing)


@pytest.mark.parametrize("name, value", [
    ("step", 0.0),                   # ZeroDivisionError
    ("step", np.nan),                # "cannot convert float NaN to integer"
    ("calendar_horizon", np.inf),    # OverflowError
    ("calendar_horizon", -1.0),      # a complex power's TypeError
    ("n_paths", 2.5),                # a numpy TypeError
    ("n_paths", 0),
])
def test_make_ensemble_refuses_bad_sizes_by_name(name, value):
    """make_ensemble checks its step, horizon and path count before using
    them, and a bad one raises ValueError naming it; certify_optimality
    passes its step through."""
    model, jump, sub, p = build_model("linear_test")
    args = dict(calendar_horizon=0.5, step=0.01, n_paths=4)
    args[name] = value
    with pytest.raises(ValueError, match=name):
        make_ensemble(sub, jump, master_seed=7, **args)
    if name == "step":
        with pytest.raises(ValueError, match="step"):
            certify_optimality(CashSpec(), step=value, ensemble_size=4)


# a slow clock on a horizon of one step: 4 of its 96 paths have no solver
# step and 55 doubled their starting grid at least twice
PACK_CASE = (SubordinatorSpec(0.5, scale=0.3), LevyJumpSpec(c=1.0, intensity=30.0),
             0.05, 0.05, 96, 3)


def pack_cases():
    """The PACK_CASE ensemble drawn plainly and with re-paired noise."""
    sub, jump, T, du, n, seed = PACK_CASE
    perm = np.random.default_rng(8).permutation(n)
    return [(make_ensemble(sub, jump, T, du, n, seed), np.arange(n)),
            (make_ensemble(sub, jump, T, du, n, seed, pairing=perm), perm)]


def test_rebuilt_bundles_pack_to_the_same_ensemble():
    """Packing the bundles an ensemble rebuilds gives back its flat arrays
    and its padded layout (rows in K order) byte for byte: with re-paired
    noise, zero-step paths and paths whose grid doubled twice or more."""
    sub, jump, T, du, n, seed = PACK_CASE
    start = max(4, math.ceil(max(du, 1.2 * T**sub.alpha) / du))  # make_ensemble's grid
    for ens, _ in pack_cases():
        assert (ens.K == 0).any() and (ens.K + 1 > 2 * start).any()
        again = fbsde.Ensemble([ens[i] for i in range(len(ens))])
        for name in ("K", "start", "times", "brownian", "ev_time", "ev_mark", "ev_len",
                     "ev_lo", "ev_n", "seeds", "noise"):
            a, b = getattr(again, name), getattr(ens, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        order = np.argsort(ens.K, kind="stable")
        got, want = again.rows(order), ens.rows(order)
        for name in ("K", "labels", "seeds", "t", "dB", "ev_p", "ev_s", "ev_z", "ev_start"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def test_ensemble_bundles_match_the_one_call_samplers():
    """Path i of make_ensemble, rebuilt as a bundle of views, equals the
    bundle drawn by sample_subordinator, sample_brownian and sample_jumps
    on the same substreams, array for array and inverse included; and the
    padded layout of all rows in K order holds that bundle's times,
    increments and in-horizon events in the row of path i."""
    sub, jump, T, du, n, seed = PACK_CASE
    for ens, pairing in pack_cases():
        order = np.argsort(ens.K, kind="stable")
        batch, at = ens.rows(order), np.argsort(order)
        for i in range(n):
            got = ens[i]
            want = reference_bundle(sub, jump, T, du, seed, i, int(pairing[i]))
            K, row = want.solver_steps, at[i]
            assert batch.t[row, : K + 1].tobytes() == want.calendar_times().tobytes()
            assert (batch.dB[row, :K].tobytes()
                    == np.diff(want.brownian.values[: K + 1]).tobytes())
            inside, mine = want.jumps.times <= K * du, batch.ev_p == row
            assert np.array_equal(batch.ev_z[mine], want.jumps.marks[inside])
            assert np.array_equal(batch.ev_s[mine],
                                  np.ceil(want.jumps.times[inside] / du).astype(int) - 1)
            assert got.seeds == want.seeds
            assert got.jump_spec == want.jump_spec
            assert got.calendar_horizon == want.calendar_horizon
            assert got.subordinator.grid == want.subordinator.grid
            assert got.brownian.grid == want.brownian.grid
            assert got.jumps.horizon == want.jumps.horizon
            for a, b in ((got.subordinator.values, want.subordinator.values),
                         (got.brownian.values, want.brownian.values),
                         (got.jumps.times, want.jumps.times),
                         (got.jumps.marks, want.jumps.marks),
                         (got.inverse.calendar_grid, want.inverse.calendar_grid),
                         (got.inverse.values, want.inverse.values)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


FLAT_NAMES = ("K", "start", "times", "brownian", "ev_time", "ev_mark", "ev_len", "ev_lo",
              "ev_n", "seeds", "noise")


def _counted_draws(monkeypatch):
    """A list that collects the substream of every path whose Brownian
    values make_ensemble's store draws from then on."""
    drawn, draw = [], fbsde.noise_mod.draw_brownian

    def counting(out, step, rng):
        drawn.append(rng.bit_generator.state["state"]["state"])
        return draw(out, step, rng)

    monkeypatch.setattr(fbsde.noise_mod, "draw_brownian", counting)
    return drawn


def test_noise_drawn_late_in_any_order_has_the_bytes_of_an_eager_draw(monkeypatch):
    """make_ensemble draws a path's noise when it is first read.  Read in
    a scrambled order (one bundle, then the rows of a slice, then the
    events of scattered rows, then the flat arrays), with and without
    re-paired noise, the ensemble draws only the paths read so far, each
    once, and ends with the flat arrays, byte for byte, of an ensemble
    packed from the one-call samplers' bundles, and with the padded
    layout of that ensemble."""
    sub, jump, T, du, n, seed = PACK_CASE
    drawn = _counted_draws(monkeypatch)
    for ens, pairing in pack_cases():
        eager = fbsde.Ensemble([reference_bundle(sub, jump, T, du, seed, i, int(pairing[i]))
                                for i in range(n)])
        del drawn[:]
        ens[17]
        assert len(drawn) == 1
        part = ens[40:60]
        part.rows(np.argsort(part.K, kind="stable")).dB
        assert len(drawn) == 21
        scattered = np.arange(3, n, 5)
        ens.rows(scattered[np.argsort(ens.K[scattered], kind="stable")]).ev_z
        read = {17, *range(40, 60), *scattered.tolist()}
        assert len(drawn) == len(read) == len(set(drawn))
        # a sub-ensemble shares the draws: reading its rows again draws nothing
        part[3]
        assert len(drawn) == len(read)
        for name in FLAT_NAMES:
            a, b = getattr(ens, name), getattr(eager, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert len(drawn) == n
        order = np.argsort(ens.K, kind="stable")
        got, want = ens.rows(order), eager.rows(order)
        for name in ("t", "dB", "ev_p", "ev_s", "ev_z", "ev_start"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_ensemble_views_of_late_noise_are_read_only():
    """The bundle views and flat arrays of noise drawn on first read are
    read-only, as the ensemble's other arrays are, so no caller can
    change the noise a later batch reads."""
    ens = make_ensemble(*PACK_CASE[:5], master_seed=1)
    bnd = ens[2]
    arrays = (bnd.brownian.values, bnd.jumps.times, bnd.jumps.marks, ens.brownian,
              ens.ev_time, ens.ev_mark, ens.times)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0.0


def test_ensemble_solvers_compute_no_inverse(monkeypatch):
    """No ensemble entry point reads a path's inverse clock: make_ensemble,
    evaluate_cost and certify_optimality run with invert_subordinator
    raising, and only reading a bundle's inverse calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError("invert_subordinator called")

    monkeypatch.setattr(fbsde, "invert_subordinator", refuse)
    monkeypatch.setattr(time_change, "invert_subordinator", refuse)
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    evaluate_cost(model, 0.5, ens)
    certify_optimality(CashSpec(), candidates=[0.5], ensemble_size=64, seed=0,
                       margin_paths=32, expansion_rhos=[0.1], expansion_paths=16)
    bnd = ens[0]
    with pytest.raises(AssertionError, match="invert_subordinator called"):
        bnd.inverse


def test_ensemble_integer_index_bounds():
    """Integer indices run from -len to len - 1; past them IndexError,
    which is what ends iteration over the bundles."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 5, master_seed=1)
    assert ens[-1].seeds["path"] == 4 and ens[-5].seeds["path"] == 0
    for bad in (5, -6, np.int64(5)):
        with pytest.raises(IndexError):
            ens[bad]
    assert [b.seeds["path"] for b in ens] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("alpha, seed", [(0.3, 101), (0.5, 102), (0.7, 103), (0.9, 104)])
def test_sampled_steps_follow_the_exact_law(alpha, seed):
    """The solver-step counts K of 4,000 sampled paths fit the exact law
    of K (oracles.k_law): chi-square over 10 bins cut at the law's
    deciles, each expecting its exact mass."""
    horizon, du, n = 1.0, 0.01, 4000
    ens = make_ensemble(SubordinatorSpec(alpha), LevyJumpSpec(c=1.0, intensity=1.0),
                        horizon, du, n, master_seed=seed)
    cdf = np.cumsum(k_law(alpha, horizon, du))
    edges = np.searchsorted(cdf, np.arange(1, 10) / 10.0)
    mass = np.diff(np.concatenate([[0.0], cdf[edges], [1.0]]))
    observed = np.bincount(np.searchsorted(edges, ens.K, side="left"), minlength=10)
    assert chisquare(observed, n * mass / mass.sum()).pvalue > 1e-3


@pytest.mark.parametrize("alpha, du, seed", [
    (0.5, 0.02, 401), (0.5, 0.01, 402), (0.5, 0.005, 403),
    (0.7, 0.02, 404), (0.7, 0.01, 405), (0.7, 0.005, 406)])
def test_sampled_clock_has_the_mittag_leffler_transform(alpha, du, seed):
    """E[exp(-s E_T)] of the sampled clock against E_alpha(-s T^alpha)
    (Bingham 1971) at s = T = 1, over 4,000 paths.  The solver clock K du
    floors E_T by less than du, so exp(-s K du) exceeds exp(-s E_T) by
    less than s du: the tolerance is 3 SE + s du.  Seeds fixed before the
    first run."""
    s, horizon, n = 1.0, 1.0, 4000
    ens = make_ensemble(SubordinatorSpec(alpha), LevyJumpSpec(c=1.0, intensity=1.0),
                        horizon, du, n, master_seed=seed)
    vals = np.exp(-s * ens.K * du)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - mittag_leffler(alpha, -s * horizon**alpha)) < 3.0 * se + s * du


# ----------------------------------------------------------------- forward

def test_forward_constant_when_coefficients_vanish():
    model = mk_model()
    sol = solve_forward_dual(model, 0.0, identity_bundle(seed=3))
    assert np.all(sol.X == model.x0)


def test_forward_matches_exponential_decay():
    model = mk_model(f=lambda t1, t2, x, v: -x + 0.0 * v)
    bundle = identity_bundle(seed=0, flat_noise=True)
    sol = solve_forward_dual(model, 0.0, bundle)
    u = IDENTITY_DU * np.arange(sol.X.size)
    assert np.max(np.abs(sol.X - np.exp(-u))) < 2e-3


def test_forward_blow_up_is_reported():
    model = mk_model(f=lambda t1, t2, x, v: 1e200 * (1.0 + x**2))
    bundle = manual_bundle([0.0, 0.1, 0.2, 0.3, 0.4, 1.1], 0.1, 1.0, flat_noise=True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="blow-up at step"):
            solve_forward_dual(model, 0.0, bundle)


def test_calendar_direct_names_a_blow_up_as_the_dual_solver_does():
    """solve_calendar_direct, the independent reference of the duality
    check, raises on a non-finite X at the step the dual solver names, by
    the bundle's seeds["path"], before the next step reads the control and
    the maps there (a feedback control would read x = inf as an infeasible
    NaN rate); and on a non-finite Y once, after its backward loop, at the
    first step that loop reaches (lam g = 2e308 overflows there)."""
    _, jspec, sspec, _ = build_model("linear_test")
    (bnd,) = make_ensemble(sspec, jspec, 0.5, 0.01, 1, master_seed=54)
    bnd.seeds["path"] = 3
    huge = mk_model(f=lambda t1, t2, x, v: 1e200 * (1.0 + x**2))
    flood = mk_model(g=lambda t1, t2, x, y, a, r, v: 1e308 + 0.0 * (x + y + a + r + v),
                     phi=lambda x: 1.0 * x, M_T=1.0, affine=True)
    last = bnd.inverse.calendar_grid.size - 2
    with np.errstate(over="ignore", invalid="ignore"):
        for solve, ctl in itertools.product((solve_forward_dual, solve_calendar_direct),
                                            (0.0, FeedbackControl(lambda t1, t2, x: 0.0 * x))):
            with pytest.raises(FloatingPointError, match=r"^state blow-up at step 1 \(path 3\)$"):
                solve(huge, ctl, bnd)
        with pytest.raises(FloatingPointError,
                           match=rf"^backward blow-up at step {last} \(path 3\)$"):
            solve_calendar_direct(flood, 0.0, bnd)


def test_ito_check_reads_a_zero_step_path():
    """A zero-step path's solution has no grid; its Ito residual is the one
    point [0.0], and a K = 3 path beside it keeps its residual.  It used to
    raise AttributeError on the missing grid."""
    model, _, _, _ = build_model("linear_test")
    zero, three = ragged_bundles([0, 3])

    def square(t1, t2, x):
        return x**2

    res = ito_decomposition_check(square, solve_forward_dual(model, 0.5, zero))
    assert res.tobytes() == np.array([0.0]).tobytes()
    sol = solve_forward_dual(model, 0.5, three)
    assert sol.grid.n_steps == 3
    res = ito_decomposition_check(square, sol)
    assert res.shape == (4,) and res[0] == 0.0 and np.all(np.isfinite(res))


def test_forward_rejects_infeasible_control():
    model = mk_model(control_set=Box(-5.0, 5.0))
    with pytest.raises(ValueError, match="control infeasible"):
        solve_forward_dual(model, ConstantControl(10.0), identity_bundle())


def test_forward_keeps_ito_ingredients():
    """The stored ingredients satisfy the pathwise decomposition identity."""
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=11)[0]
    sol = solve_forward_dual(model, 0.3, bundle)
    assert sol.jump_nodes.shape == (bundle.solver_steps, 16)
    assert sol.event_steps.size == sol.event_b.size
    derivs = {
        "x": lambda t1, t2, x: 2.0 * x,
        "xx": lambda t1, t2, x: 2.0 + 0.0 * x,
    }
    res = ito_decomposition_check(lambda t1, t2, x: x**2, sol, derivatives=derivs)
    assert res[0] == 0.0
    assert np.all(np.isfinite(res))
    # the residual for x**2 collapses to the quadratic bracket error
    brk = (np.sum(np.diff(sol.X) ** 2)
           - np.sum(sol.vol**2) * sol.grid.step
           - np.sum(sol.event_b**2))
    assert abs(res[-1] - brk) < 1e-12
    # they are the values the Euler kernel stepped with: one scheme step
    # from them rebuilds X bit for bit
    K, du = bundle.solver_steps, sol.grid.step
    assert sol.event_steps.size > 0
    jumps = np.zeros(K)
    np.add.at(jumps, sol.event_steps, sol.event_b)
    step = (sol.X[:-1] + sol.drift * du + sol.vol * sol.dB + jumps
            - jump.intensity * du * jump.integrate(sol.jump_nodes, (K,)))
    assert np.array_equal(sol.X[1:], step)


# ---------------------------------------------------------------- backward

@pytest.mark.parametrize("method", ["ode", "affine", "lsmc"])
def test_backward_zero_data_gives_zero_solution(method):
    model = mk_model(M_T=0.0, affine=True,
                     sigma=lambda t1, t2, x, v: 0.3 + 0.0 * x)
    bundle = identity_bundle(seed=5, horizon=0.2)
    sol = solve_forward_dual(model, 0.0, bundle)
    sol = solve_backward_dual(model, 0.0, bundle, sol, method=method, n_inner=64)
    assert np.all(sol.Y == 0.0)
    assert np.all(sol.A == 0.0)
    assert np.all(sol.r == 0.0)


def test_lsmc_refuses_an_inner_count_below_one():
    """n_inner = 0 used to raise ZeroDivisionError and -1 a numpy shape
    error; both are refused naming n_inner.  One inner path per outer
    path is accepted."""
    model, jump, sub, p = build_model("quadratic_drift")
    bundle = make_ensemble(sub, jump, p["horizon"], p["step"], 1, master_seed=0)[0]
    fwd = solve_forward_dual(model, 0.5, bundle)
    for n_inner in (0, -1):
        with pytest.raises(ValueError, match="n_inner"):
            solve_backward_dual(model, 0.5, bundle, fwd, method="lsmc", n_inner=n_inner)
    sol = solve_backward_dual(model, 0.5, bundle, fwd, method="lsmc", n_inner=1)
    assert np.all(np.isfinite(sol.Y))


def test_backward_terminal_check_fires(monkeypatch):
    """solve_backward_dual's terminal consistency check fires when one
    cell, Y at the horizon, is off phi(X_T)."""
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, p["horizon"], p["step"], 1, master_seed=3)[0]
    K = bundle.solver_steps
    assert K > 0
    fwd = solve_forward_dual(model, 0.5, bundle)
    solve_backward_dual(model, 0.5, bundle, fwd)
    solve = fbsde._backward_batch

    def corrupt(*args, **kwargs):
        Y, A, r = solve(*args, **kwargs)
        Y[0, K] += 1e-6
        return Y, A, r

    monkeypatch.setattr(fbsde, "_backward_batch", corrupt)
    with pytest.raises(AssertionError, match=r"^terminal consistency violated: \|Y_T"):
        solve_backward_dual(model, 0.5, bundle, fwd)


def test_backward_constant_driver_grows_linearly():
    """Driver kappa0 with zero terminal data: Y(u) = kappa0 (E_T - u)."""
    kappa0 = 0.8
    spec = LevyJumpSpec(c=1.0, intensity=1.0)
    model = mk_model(
        sigma=lambda t1, t2, x, v: 0.3 + 0.0 * x,
        g=lambda t1, t2, x, y, a, r, v: kappa0 + 0.0 * y,
    )
    bundle = identity_bundle(seed=9, jump_spec=spec)
    fwd = solve_forward_dual(model, 0.0, bundle)
    ode = solve_backward_dual(model, 0.0, bundle, fwd, method="ode")
    K = bundle.solver_steps
    expect = kappa0 * IDENTITY_DU * (K - np.arange(K + 1))
    assert np.max(np.abs(ode.Y - expect)) < 1e-12

    lsmc = solve_backward_dual(model, 0.0, bundle, fwd, method="lsmc", n_inner=128)
    assert np.max(np.abs(lsmc.Y - expect)) < 1e-6


def test_backward_matches_linear_ode_oracle():
    """Conditionally deterministic linear pair against the matrix exponential."""
    lam = 2.0
    model = mk_model(
        f=lambda t1, t2, x, v: -x + 0.0 * v,
        g=lambda t1, t2, x, y, a, r, v: (-y + 0.5 * x) / lam,
        phi=lambda x: 1.0 * x,
        M_T=1.0,
        affine=True,
        conditionally_deterministic=True,
    )
    jump = LevyJumpSpec(c=1.0, intensity=lam)
    sub = SubordinatorSpec(alpha=0.5)
    du = 0.004
    bundle = make_ensemble(sub, jump, 0.8, du, 1, master_seed=21)[0]
    U = bundle.solver_steps * du

    fwd = solve_forward_dual(model, 0.0, bundle)
    ode = solve_backward_dual(model, 0.0, bundle, fwd, method="ode")
    x_u, y0 = linear_fbsde_ode_oracle(a=-1.0, c=0.0, gy=-1.0, gx=0.5, g0=0.0,
                                      m_terminal=1.0, f_terminal=0.0,
                                      x0=1.0, horizon=U)
    assert abs(fwd.X[-1] - x_u) < 0.01
    assert abs(ode.Y[0] - y0) < 0.01

    aff = solve_backward_dual(model, 0.0, bundle, fwd, method="affine")
    assert abs(aff.Y[0] - ode.Y[0]) < 1e-9


def test_affine_and_lsmc_agree_on_linear_model():
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=33)[0]
    fwd = solve_forward_dual(model, 0.3, bundle)
    aff = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
    reg = solve_backward_dual(model, 0.3, bundle, fwd, method="lsmc", n_inner=512)
    assert abs(aff.Y[0] - reg.Y[0]) < 0.05


def test_backward_solve_leaves_the_forward_solution_alone():
    """The backward solve returns a new solution; the forward one it was
    given stays unsolved, so one forward solve feeds several regimes."""
    model, jump, sub, p = build_model("linear_test")
    bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=33)[0]
    fwd = solve_forward_dual(model, 0.3, bundle)
    X = fwd.X.copy()
    sol = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
    assert sol is not fwd and sol.Y is not None
    assert fwd.Y is None and fwd.A is None and fwd.r is None
    assert np.array_equal(fwd.X, X) and np.array_equal(sol.X, X)


def test_lsmc_volatility_integrand_scale():
    """For dX = dB and Y = X the regression must recover A close to 1."""
    model = mk_model(sigma=lambda t1, t2, x, v: 1.0 + 0.0 * x,
                     phi=lambda x: 1.0 * x)
    bundle = identity_bundle(seed=13, du=0.01, horizon=0.7)
    fwd = solve_forward_dual(model, 0.0, bundle)
    sol = solve_backward_dual(model, 0.0, bundle, fwd, method="lsmc", n_inner=512)
    assert abs(float(np.mean(sol.A)) - 1.0) < 0.25


def test_affine_needs_flags_and_open_loop():
    model = mk_model()
    bundle = identity_bundle(horizon=0.1)
    fwd = solve_forward_dual(model, 0.0, bundle)
    with pytest.raises(ValueError, match="linearity flags"):
        solve_backward_dual(model, 0.0, bundle, fwd, method="affine")
    lin, jump, sub, p = build_model("linear_test")
    b2 = make_ensemble(sub, jump, 0.3, 0.01, 1, master_seed=3)[0]
    fb = FeedbackControl(lambda t1, t2, x: 0.1 * x)
    f2 = solve_forward_dual(lin, fb, b2)
    with pytest.raises(ValueError, match="open-loop"):
        solve_backward_dual(lin, fb, b2, f2, method="affine")
    # an explicit request is honoured, not switched to regression
    with pytest.raises(ValueError, match="open-loop"):
        evaluate_cost(lin, fb, [b2], method="affine")
    # the automatic choice falls back to regression, as evaluate_cost's does
    auto = solve_backward_dual(lin, fb, b2, f2)
    lsmc = solve_backward_dual(lin, fb, b2, f2, method="lsmc")
    for name in ("Y", "A", "r"):
        assert np.array_equal(getattr(auto, name), getattr(lsmc, name))


def test_unknown_backward_method():
    model = mk_model()
    bundle = identity_bundle(horizon=0.1)
    fwd = solve_forward_dual(model, 0.0, bundle)
    with pytest.raises(ValueError, match="backward method"):
        solve_backward_dual(model, 0.0, bundle, fwd, method="magic")
    with pytest.raises(ValueError, match="backward method"):
        evaluate_cost(model, 0.0, [bundle], method="magic")


# ------------------------------------------------------------- composition

def test_compose_duality_reads_the_staircase():
    model, jump, sub, p = build_model("linear_test")
    bundle = manual_bundle([0.0, 0.1, 0.2, 0.8, 0.9, 1.3], 0.1, 1.0, seed=2)
    fwd = solve_forward_dual(model, 0.3, bundle)
    sol = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
    cal = compose_duality(sol, bundle.inverse)
    assert cal.clock == "calendar"
    # matched grid: [0, .1, .2, .8, .9, 1.0] reads indices [0,1,2,3,4,4]
    assert np.array_equal(cal.X, sol.X[[0, 1, 2, 3, 4, 4]])
    assert np.array_equal(cal.Y, sol.Y[[0, 1, 2, 3, 4, 4]])

    from tcfbsde.time_change import invert_subordinator

    dense = invert_subordinator(bundle.subordinator,
                                np.array([0.0, 0.25, 0.5, 0.79, 0.95, 1.0]))
    flat = compose_duality(sol, dense)
    # E is flat across the [0.2, 0.8) calendar gap, so X must be too
    assert flat.X[1] == flat.X[2]
    assert flat.X[1] == sol.X[2]
    assert flat.X[-1] == flat.X[-2]


def test_composed_integrands_read_zero_at_the_horizon():
    """A and r read 0 wherever E(t) is the horizon K du, as the padded
    layout holds them past a horizon, and the step at E(t)/du before it."""
    model, jump, sub, p = build_model("linear_test")
    bundle = manual_bundle([0.0, 0.1, 0.2, 0.8, 0.9, 1.3], 0.1, 1.0, seed=2)
    sol = solve_backward_dual(model, 0.3, bundle, solve_forward_dual(model, 0.3, bundle))
    assert bundle.solver_steps == 4 and np.all(sol.A != 0.0)
    cal = compose_duality(sol, bundle.inverse)
    # matched grid: [0, .1, .2, .8, .9, 1.0] reads steps [0, 1, 2, 3, K, K]
    assert cal.A[-1] == 0.0 and cal.A[-2] == 0.0
    assert np.array_equal(cal.A[:4], sol.A)
    assert np.array_equal(cal.r[:4], sol.r) and np.all(cal.r[4:] == 0.0)


def test_compose_duality_rejects_horizon_mismatch():
    from tcfbsde.time_change import InversePath

    model = mk_model()
    bundle = identity_bundle(horizon=0.2)
    sol = solve_forward_dual(model, 0.0, bundle)
    inv = InversePath(calendar_grid=np.array([0.0, 1.0]),
                      values=np.array([0.0, 10.0]))
    with pytest.raises(ValueError, match="horizon mismatch"):
        compose_duality(sol, inv)
    with pytest.raises(ValueError, match="operational-clock"):
        compose_duality(compose_duality(sol, bundle.inverse), bundle.inverse)


def test_duality_round_trip_on_sampled_paths():
    """Composed dual solution equals the direct calendar simulation."""
    model, jump, sub, p = build_model("linear_test")
    for seed in range(6):
        bundle = make_ensemble(sub, jump, 0.7, 0.01, 1, master_seed=100 + seed)[0]
        fwd = solve_forward_dual(model, 0.3, bundle)
        sol = solve_backward_dual(model, 0.3, bundle, fwd, method="affine")
        cal = compose_duality(sol, bundle.inverse)
        X_dir, Y_dir, tgrid = solve_calendar_direct(model, 0.3, bundle)
        assert np.array_equal(tgrid, bundle.inverse.calendar_grid)
        assert np.max(np.abs(cal.X - X_dir)) < 1e-8
        assert np.max(np.abs(cal.Y - Y_dir)) < 1e-8


def test_compose_duality_on_zero_step_paths():
    """The seed-0 linear_test ensemble's zero-step paths compose after the
    backward solve: every calendar time reads u = 0, A and r read 0, and
    the composition agrees with the calendar-form solve."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 4096, master_seed=0)
    zero = np.flatnonzero(ens.K == 0)
    assert zero.size == 10
    for n in zero:
        bundle = ens[int(n)]
        sol = solve_backward_dual(model, 0.5, bundle, solve_forward_dual(model, 0.5, bundle))
        assert sol.A.shape == (0,) and sol.r.shape == (0, jump.n_quad)
        cal = compose_duality(sol, bundle.inverse)
        size = bundle.inverse.values.size
        assert np.array_equal(cal.X, np.full(size, model.x0))
        assert np.array_equal(cal.Y, np.full(size, sol.Y[0]))
        assert np.array_equal(cal.A, np.zeros(size))
        assert np.array_equal(cal.r, np.zeros((size, jump.n_quad)))
        X_dir, Y_dir, _ = solve_calendar_direct(model, 0.5, bundle)
        assert np.array_equal(cal.X, X_dir) and np.max(np.abs(cal.Y - Y_dir)) < 1e-12


# -------------------------------------------------------------------- cost

def test_cost_zero_model_is_exactly_zero():
    model = mk_model()
    bundles = [identity_bundle(seed=s, horizon=0.2) for s in range(3)]
    est = evaluate_cost(model, 0.0, bundles, method="ode")
    assert est.mean == 0.0
    assert np.all(est.per_path == 0.0)


def test_cost_pure_terminal_returns_x0():
    model = mk_model(h=lambda x: 1.0 * x)
    bundles = [identity_bundle(seed=s, horizon=0.2) for s in range(3)]
    est = evaluate_cost(model, 0.0, bundles, method="ode")
    assert np.all(est.per_path == model.x0)
    assert est.std_error == 0.0


def test_cost_chunking_and_row_labels():
    """Chunked evaluation must hand every path its own control row."""
    model, jump, sub, p = build_model("linear_test")
    bundles = make_ensemble(sub, jump, 0.5, 0.01, 8, master_seed=55)
    rows = (0.1 + 0.05 * np.arange(8))[:, None]
    ctl = StepwiseControl(rows)
    whole = evaluate_cost(model, ctl, bundles, chunk=512)
    split = evaluate_cost(model, ctl, bundles, chunk=3)
    assert np.array_equal(whole.per_path, split.per_path)
    # and the rows genuinely differ, so a label mix-up would show
    alt = evaluate_cost(model, ConstantControl(0.1), bundles, chunk=512)
    assert not np.array_equal(whole.per_path, alt.per_path)
    # a slice of an ensemble is labelled by position in the slice in every
    # entry point, so the Gateaux quotient reads the same rows as the cost
    cash, cjump, csub, cp = build_model("cash")
    ens = make_ensemble(csub, cjump, cp["horizon"], cp["step"], 12, master_seed=0)
    part = ens[4:8]
    kmax = max(b.solver_steps for b in ens)
    ctl = StepwiseControl(0.2 + 0.15 * np.arange(12)[:, None] + 0.0 * np.arange(kmax))
    direction, rho = ConstantControl(1.0), 0.1
    quotient = (evaluate_cost(cash, PerturbedControl(ctl, direction, rho), part).per_path
                - evaluate_cost(cash, ctl, part).per_path) / rho
    (row,), _ = expansion_check(cash, part, solved_ensemble(cash, ctl, part), direction,
                                [rho])
    assert row["lhs"] == float(quotient.mean())


@pytest.mark.parametrize("chunk", [0, -1, 2.5])
def test_cost_rejects_a_chunk_below_one(chunk):
    """A chunk below one row, or not an integer, raises naming it, in the
    cost and in the solved ensemble: -1 used to return uninitialised
    per-path values, and 0 and 2.5 an opaque range() error."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 8, master_seed=0)
    with pytest.raises(ValueError, match="chunk"):
        evaluate_cost(model, 0.5, ens, chunk=chunk)
    with pytest.raises(ValueError, match="chunk"):
        solved_ensemble(model, 0.5, ens, chunk=chunk)
    with pytest.raises(ValueError, match="chunk"):
        fbsde._ensemble_cost(model, 0.5, ens, chunk=chunk, keep=3)


def test_cost_builds_no_full_r_table(monkeypatch):
    """evaluate_cost builds no r table for a running cost that cannot read
    r: it runs with the table builder raising, on linear_test and on the
    cash model (at u* and at a constant rate).  A linear_test twin whose
    running cost reads r gets a different cost.  The solved ensemble
    keeps the table, so it does call the builder."""
    def refuse(*args):
        raise AssertionError("full r table built")

    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    twin = dataclasses.replace(
        model, l=lambda t1, t2, x, y, a, r, v: model.l(t1, t2, x, y, a, r, v) + r**2)
    twin_cost = evaluate_cost(twin, 0.5, ens).per_path
    monkeypatch.setattr(fbsde, "_jump_table", refuse)
    assert not np.array_equal(twin_cost, evaluate_cost(model, 0.5, ens).per_path)
    spec = CashSpec()
    cens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 64, master_seed=0)
    ustar = cash_optimal_control(spec, cash_adjoints(spec, cens))
    for ctl in (ustar, 0.5):
        evaluate_cost(build_cash_model(spec), ctl, cens)
    with pytest.raises(AssertionError, match="full r table built"):
        solved_ensemble(model, 0.5, ens)


def test_cost_builds_no_r_cells_for_running_costs_that_cannot_read_r(monkeypatch):
    """None of the built-in running costs reads r, so evaluate_cost runs on
    linear_test, quadratic_drift and the cash model (at u*) with r's table
    builder raising."""
    def refuse(*args):
        raise AssertionError("r cells built")

    monkeypatch.setattr(fbsde, "_jump_table", refuse)
    for name in ("linear_test", "quadratic_drift"):
        model, jump, sub, p = build_model(name)
        assert "r" in model._unread["l"]
        evaluate_cost(model, 0.5, make_ensemble(sub, jump, p["horizon"], p["step"], 64, 0))
    spec = CashSpec()
    cens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 64, master_seed=0)
    evaluate_cost(build_cash_model(spec), cash_optimal_control(spec, cash_adjoints(spec, cens)),
                  cens)


def _cost_from_r_table(model, control, ens, method=None):
    """Per-path costs whose running part reads every step's r off the
    padded table of the rows the cost pass keeps under ``method``."""
    sols = solved_ensemble(model, control, ens, method=method)
    order = np.argsort(ens.K, kind="stable")
    batch = ens.rows(order)
    X, Y, A, r, v = (getattr(sols, name)[order] for name in "XYArv")
    run = fbsde._step_sum(
        batch, lambda i, rows: model.l(*fbsde._step_args(batch, i, X, Y, A, r, v, rows)))
    out = np.empty(len(ens))
    out[order] = run + model.h(X[np.arange(len(ens)), batch.K]) + model.gamma(Y[:, 0])
    return out


@pytest.mark.parametrize("form", ["comparison", "star_args", "callable_object"])
def test_cost_builds_r_cells_for_running_costs_that_may_read_r(monkeypatch, form):
    """A running cost that may read r gets its cells, and its cost is the
    one the padded r table gives: an l that reads r only through a
    comparison (np.where would swallow a NaN sentinel), a *args wrapper
    and a callable object."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    plain = evaluate_cost(model, 0.5, ens).per_path
    base_l = model.l

    def compares(t1, t2, x, y, a, r, v):
        return base_l(t1, t2, x, y, a, r, v) + np.where(r > 0, 0.1, 0.0)

    class Cost:
        def __call__(self, *args):
            return compares(*args)

    model = dataclasses.replace(
        model, l={"comparison": compares, "star_args": lambda *args: compares(*args),
                  "callable_object": Cost()}[form])
    assert "r" not in model._unread["l"]
    jump_table, calls = fbsde._jump_table, []

    def counting(*args, **kwargs):
        calls.append(1)
        return jump_table(*args, **kwargs)

    monkeypatch.setattr(fbsde, "_jump_table", counting)
    cost = evaluate_cost(model, 0.5, ens).per_path
    assert calls
    assert np.array_equal(cost, _cost_from_r_table(model, ConstantControl(0.5), ens))
    assert not np.array_equal(cost, plain)


@pytest.mark.parametrize("method", ["ode", "affine", "lsmc"])
def test_cost_reading_r_has_the_bytes_of_its_kept_r_table(method):
    """In every backward regime, a running cost that reads r gets from
    evaluate_cost the bytes that its own kept r table gives.  The ode
    regime's r is zero, so there the cost is linear_test's own; in the
    others r**2 moves it."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 16, master_seed=0)
    twin = dataclasses.replace(
        model, l=lambda t1, t2, x, y, a, r, v: model.l(t1, t2, x, y, a, r, v) + r**2)
    cost = evaluate_cost(twin, 0.5, ens, method=method).per_path
    assert cost.tobytes() == _cost_from_r_table(twin, ConstantControl(0.5), ens,
                                                method).tobytes()
    plain = evaluate_cost(model, 0.5, ens, method=method).per_path
    assert np.array_equal(cost, plain) == (method == "ode")


def _nodewise_read_offs(monkeypatch, refuse=False):
    """Count (or, with ``refuse``, forbid) the LSMC sweep's nodewise read-off
    of the jump fit on inner states, its only _poly_eval call on a
    (paths, inner, nodes) array."""
    poly_eval, calls = fbsde._poly_eval, []

    def watched(beta, mu, sd, x):
        if x.ndim == 3:
            if refuse:
                raise AssertionError("inner jump read-off built")
            calls.append(1)
        return poly_eval(beta, mu, sd, x)

    monkeypatch.setattr(fbsde, "_poly_eval", watched)
    return calls


def test_lsmc_read_off_skip_keeps_every_bit(monkeypatch):
    """quadratic_drift's g cannot read r, so the LSMC sweep hands it zero
    cells in place of the inner jump read-off.  A *args wrapper of the same
    g may read r and gets the read-off.  Both give the same bytes: per-path
    costs and the kept Y, A and r rows (the outer r table is built for
    every driver)."""
    model, jump, sub, p = build_model("quadratic_drift")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 8, master_seed=0)
    wrapped = dataclasses.replace(model, g=lambda *args: model.g(*args))
    assert "r" in model._unread["g"] and "r" not in wrapped._unread["g"]
    calls = _nodewise_read_offs(monkeypatch)
    ctl = ConstantControl(0.5)
    skip = evaluate_cost(model, ctl, ens, method="lsmc").per_path
    skip_rows = solved_ensemble(model, ctl, ens, method="lsmc")
    assert not calls
    read = evaluate_cost(wrapped, ctl, ens, method="lsmc").per_path
    read_rows = solved_ensemble(wrapped, ctl, ens, method="lsmc")
    assert calls
    assert np.array_equal(skip, read)
    for name in "YAr":
        assert np.array_equal(getattr(skip_rows, name), getattr(read_rows, name))
    assert np.any(skip_rows.r != 0.0)


def test_lsmc_runs_without_the_inner_read_off_for_built_in_drivers(monkeypatch):
    """With the nodewise inner read-off raising, the LSMC cost of
    quadratic_drift still runs: its g never asks for the cells."""
    model, jump, sub, p = build_model("quadratic_drift")
    _nodewise_read_offs(monkeypatch, refuse=True)
    evaluate_cost(model, 0.5, make_ensemble(sub, jump, p["horizon"], p["step"], 8, 0),
                  method="lsmc")


def test_lsmc_reads_the_jump_fit_off_inner_states_for_a_driver_that_reads_r(monkeypatch):
    """A g that reads r gets the nodewise inner read-off, and r moves its
    cost."""
    model, jump, sub, p = build_model("quadratic_drift")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 8, master_seed=0)
    plain = evaluate_cost(model, 0.5, ens, method="lsmc").per_path
    twin = dataclasses.replace(
        model, g=lambda t1, t2, x, y, a, r, v: model.g(t1, t2, x, y, a, r, v) + 0.05 * r)
    assert "r" not in twin._unread["g"]
    calls = _nodewise_read_offs(monkeypatch)
    cost = evaluate_cost(twin, 0.5, ens, method="lsmc").per_path
    assert calls
    assert not np.array_equal(cost, plain)


def test_r_read_test_clears_only_functions_that_provably_ignore_r():
    """_may_read is conservative: frame access, a closure over r,
    **kwargs, a builtin or a rebinding of r all count as reading it.  The
    model decides for g as for l when it is built: no built-in g reads r,
    mk_model's zero g does, and a model built with another g decides
    again."""
    def rebinds(t1, t2, x, y, a, r, v):
        r = 0.0
        return x + r

    clear = [lambda t1, t2, x, y, a, r, v: 0.5 * x**2, build_model("quadratic_drift")[0].l]
    unclear = [lambda t1, t2, x, y, a, r, v: locals()["r"],
               lambda t1, t2, x, y, a, r, v: vars()["r"],
               lambda t1, t2, x, y, a, r, v: eval("r"),
               lambda t1, t2, x, y, a, r, v: (lambda: r)(),
               lambda t1, t2, x, y, a, r, v, **kw: 0.0,
               np.add, rebinds]
    assert not any(fbsde._may_read(fn, 5) for fn in clear)
    assert all(fbsde._may_read(fn, 5) for fn in unclear)
    built_in = [build_model(name)[0] for name in ("linear_test", "quadratic_drift")]
    assert all("r" in m._unread["g"] for m in built_in + [build_cash_model(CashSpec())])
    model = mk_model()
    assert "r" not in model._unread["g"]
    model = dataclasses.replace(model, g=lambda t1, t2, x, y, a, r, v: 0.0 * (x + y))
    assert "r" in model._unread["g"] and "r" in model._unread["l"]
    model = dataclasses.replace(model, g=lambda *args: 0.0)
    assert "r" not in model._unread["g"]


def test_ensemble_rows_match_a_fresh_pack():
    """A gather of any rows of a packed ensemble, in K order, rebuilds byte
    for byte the layout of those bundles packed on their own: scattered
    rows, a Kmax = 0 selection, an event-free selection, all rows and
    slices, with sparse and with dense jumps."""
    steps = np.array(RAGGED_STEPS)

    def k_order(rows):
        return rows[np.argsort(steps[rows], kind="stable")]

    for intensity in (2.0, 300.0):
        ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS,
                                            jump_spec=LevyJumpSpec(c=1.0, intensity=intensity)))
        scattered = k_order(np.array([8, 0, 5, 3, 2]))
        zero = np.flatnonzero(steps == 0)
        no_events = k_order(np.flatnonzero((ens.ev_n == 0) & (steps > 0)))
        cases = [scattered, zero, np.argsort(steps, kind="stable"), k_order(np.arange(2, 7))]
        if intensity == 2.0:
            assert no_events.size
            cases.append(no_events)
            assert ens.rows(no_events).ev_p.size == 0
        else:
            assert ens.rows(scattered).ev_p.size > 20
        for idx in cases:
            got = ens.rows(idx)
            want = fbsde.Ensemble([ens[int(i)] for i in idx]).rows(None, labels=idx)
            for name in ("K", "labels", "t", "dB", "ev_p", "ev_s", "ev_z", "ev_start"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
        assert ens.rows(zero).Kmax == 0
        # a slice shares the flat arrays and gathers the same rows
        part = ens[2:7]
        assert part.times is ens.times
        sub = np.argsort(part.K, kind="stable")
        assert part.rows(sub).t.tobytes() == ens.rows(2 + sub).t.tobytes()


def test_ensemble_rows_out_of_k_order_raise():
    """Every kernel pairs a batch with its loose padded arrays (X, Y, A, r,
    v) by row number, and a batch holds its rows in K order: a gather out
    of that order raises, whether the rows are given or default to the
    ensemble's own order, so a caller that gathered its arrays otherwise
    cannot pair the wrong rows.  Rows of equal K may come in any order."""
    ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS))
    for idx in ([2, 0], [0, 1], [1, 3, 0, 2, 4], None):
        with pytest.raises(ValueError, match="sorted by solver steps K"):
            ens.rows(idx)
    for idx in ([6, 1, 4], [8, 2], [4, 9, 3, 2]):
        assert np.array_equal(ens.rows(idx).K, np.asarray(RAGGED_STEPS)[idx])


@pytest.mark.parametrize("name, method, make_control, node_cost", [
    ("linear_test", None, StepwiseControl, False),
    ("linear_test", "ode", StepwiseControl, False),
    ("quadratic_drift", "lsmc", StepwiseControl, False),
    ("quadratic_drift", "lsmc", lambda rows: ConstantControl(0.5), False),
    ("quadratic_drift", "lsmc",
     lambda rows: FeedbackControl(lambda t1, t2, x: 0.5 + 0.1 * np.tanh(x)), False),
    ("linear_test", None, StepwiseControl, True),
], ids=["affine-table", "ode-table", "lsmc-table", "lsmc-constant", "lsmc-feedback",
        "affine-node-cost"])
def test_cost_is_bitwise_chunk_invariant_on_ragged_ensemble(name, method, make_control,
                                                            node_cost, monkeypatch):
    """K-sorted batches must scatter every path's cost back to its own
    ensemble position, whatever the chunk size.  The ODE regime solves
    the rows of a batch together and freezes each at its horizon.  Under
    LSMC the outer paths of a batch share one regression sweep, whose
    inner rows must read their own outer path's control.  With
    ``node_cost`` the running cost varies over the quadrature nodes, so
    its jump-measure sum must be row-local too.  The ten ragged paths sum
    alike even under a BLAS product, so that case runs on the 64-path
    seed-0 ensemble, where such a product made 4 paths depend on the chunk."""
    model, jump, sub, p = build_model(name)
    if node_cost:
        base_l = model.l
        model = dataclasses.replace(
            model, l=lambda t1, t2, x, y, a, r, v: base_l(t1, t2, x, y, a, r, v) + r**2)
        bundles = make_ensemble(sub, jump, p["horizon"], p["step"], 64, master_seed=0)
    else:
        bundles = ragged_bundles(RAGGED_STEPS, jump_spec=jump)
    steps = np.array([b.solver_steps for b in bundles])
    n, kmax = len(bundles), steps.max()
    # wrapped to stay inside the control box on long ensembles
    rows = (0.1 + 0.05 * np.arange(n)[:, None] + 0.01 * np.arange(kmax)) % 1.5
    ctl = make_control(rows)
    one, three, whole = (evaluate_cost(model, ctl, bundles, method=method, chunk=c).per_path
                         for c in (1, 3, 512))
    assert np.array_equal(one, three)
    assert np.array_equal(one, whole)
    # each path alone reads row 0 of its own one-row table
    alone = [evaluate_cost(model, make_control(rows[i: i + 1]), [b],
                           method=method).per_path[0]
             for i, b in enumerate(bundles)]
    assert np.array_equal(whole, alone)
    if method == "lsmc":
        # a row cap of two inner ensembles sweeps the batch in groups
        monkeypatch.setattr(fbsde, "_LSMC_ROWS", 2 * 256)
        grouped = evaluate_cost(model, ctl, bundles, method=method).per_path
        assert np.array_equal(whole, grouped)
    # a zero-step path costs gamma(Y_0) = -(phi(0) + M_T x0) and nothing else
    zero = steps == 0
    assert np.all(whole[zero] == -model.x0)
    assert np.unique(whole[~zero]).size == n - zero.sum()


def test_picard_step_is_row_local():
    """A row's implicit backward step must not depend on the rows beside
    it, or batched backward solves lose chunk invariance."""
    model = mk_model(g=lambda t1, t2, x, y, a, r, v: x * r**2 + y + 0.0 * (a + v))
    spec = LevyJumpSpec(c=1.0, intensity=2.0)
    z, _ = spec.quadrature()
    rng = np.random.default_rng(0)
    n = 300
    t, x, ey, a, v = rng.normal(size=(5, n)) * 10.0 ** rng.uniform(-3, 3, size=(5, n))
    r = rng.normal(size=(n, z.size))
    whole = fbsde._picard(model, spec, t, 0.1, x, ey, a, r, v, 0.01, 3)
    for lo, hi in [(i, i + 1) for i in range(n)] + [(3, 10), (7, 290)]:
        part = fbsde._picard(model, spec, t[lo:hi], 0.1, x[lo:hi], ey[lo:hi], a[lo:hi],
                             r[lo:hi], v[lo:hi], 0.01, 3)
        assert np.array_equal(part, whole[lo:hi])


def test_cost_blow_up_names_the_ensemble_path():
    # path 2 has the most steps, so it sits at row 8 of the sorted batch
    model = mk_model(f=lambda t1, t2, x, v: v * v + 0.0 * x, control_set=Box())
    bundles = ragged_bundles(RAGGED_STEPS)
    rows = np.zeros((len(bundles), max(RAGGED_STEPS)))
    rows[2] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"blow-up at step 0 \(path 2\)"):
            evaluate_cost(model, StepwiseControl(rows), bundles)


def _time_varying_cash():
    """A cash system whose sigma, eta and kappa vary with calendar time; eta
    is not odd in the mark, so its mark integral is not zero, and x0 is
    not 1."""
    return CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t,
                    eta_t=lambda t, z: (0.1 + 0.05 * t) * (z + 0.5),
                    kappa=lambda t: 1.0 + 0.5 * t, x0=1.5)


def test_cost_pass_keeping_no_rows_has_the_bytes_of_the_full_pass():
    """A cost pass that keeps no rows of the cash model solves no state: its
    cost reads Y_0 = c_0 + P_0 x0 and l on (t1, v) alone.  Its per-path
    costs carry the bytes of the pass that keeps every row, on ragged
    paths with zero-step ones among them and on a sampled ensemble, for a
    constant, u* and a stepwise table, with flat and time-varying maps,
    for every chunk.  A twin whose driver reads r (g_r = 0.05 / lam, as
    a 0/1 difference) sends b's intercept into c through gr ib0."""
    rng = np.random.default_rng(7)
    for spec in (CashSpec(), _time_varying_cash()):
        cash = build_cash_model(spec)
        reads_r = dataclasses.replace(
            cash, g=lambda t1, t2, x, y, a, r, v: cash.g(t1, t2, x, y, a, r, v) + 0.05 * r,
            derivatives={k: d for k, d in cash.derivatives.items() if k != "g_r"})
        sampled = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 48, 5)
        for model, bundles in itertools.product((cash, reads_r),
                                                (ragged_bundles(RAGGED_STEPS), sampled)):
            ustar = cash_optimal_control(spec, cash_adjoints(spec, bundles))
            width = max(b.solver_steps for b in bundles)
            rows = StepwiseControl(rng.uniform(-1.0, 2.0, (len(bundles), width)))
            for ctl in (ConstantControl(0.5), ustar, rows):
                full = fbsde._ensemble_cost(model, ctl, bundles, keep=len(bundles))[0]
                for chunk in (3, 512):
                    got = evaluate_cost(model, ctl, bundles, chunk=chunk).per_path
                    assert got.tobytes() == full.per_path.tobytes()


def _counted_solve(monkeypatch, model, control, bundles, keep=0):
    """(forward passes, b calls) of one cost pass keeping ``keep`` rows; b's
    calls are counted from after the model's construction checks."""
    calls = {"forward": 0, "b": 0}
    forward = fbsde._forward_batch

    def counting_forward(*args, **kwargs):
        calls["forward"] += 1
        return forward(*args, **kwargs)

    def counting_b(t1, t2, x, v, z):
        calls["b"] += 1
        return model.b(t1, t2, x, v, z)

    counted = dataclasses.replace(model, b=counting_b)
    calls["b"] = 0
    monkeypatch.setattr(fbsde, "_forward_batch", counting_forward)
    fbsde._ensemble_cost(counted, control, bundles, keep=keep)
    monkeypatch.setattr(fbsde, "_forward_batch", forward)
    return calls["forward"], calls["b"]


def test_cost_pass_keeping_no_rows_solves_no_state(monkeypatch):
    """On the cash model (b_x registered, g_r a scalar zero) a pass that
    keeps no rows calls neither the forward kernel nor b; one that keeps
    rows, linear_test (whose l reads x) and a cash twin whose l reads x
    take the full solve."""
    spec = CashSpec()
    cash = build_cash_model(spec)
    bundles = ragged_bundles(RAGGED_STEPS)
    ctl = ConstantControl(0.5)
    assert _counted_solve(monkeypatch, cash, ctl, bundles) == (0, 0)
    forward, b = _counted_solve(monkeypatch, cash, ctl, bundles, keep=len(bundles))
    assert forward > 0 and b > 0
    lin = build_model("linear_test")[0]
    reads_x = dataclasses.replace(
        cash, l=lambda t1, t2, x, y, a, r, v: cash.l(t1, t2, x, y, a, r, v) + 0.0 * x)
    for model in (lin, reads_x):
        forward, b = _counted_solve(monkeypatch, model, ctl, bundles)
        assert forward > 0 and b > 0


def test_cost_pass_keeping_no_rows_names_a_non_finite_cost():
    """That pass computes no state, so no state blow-up check names a path:
    a non-finite cost does instead, and is never returned.  Path 2, whose
    control is 1e200 in a cash-like model with f = -x + v^2, sits at row 8
    of the sorted batch."""
    cash = build_cash_model(CashSpec())
    model = dataclasses.replace(cash, f=lambda t1, t2, x, v: -x + v * v)
    bundles = ragged_bundles(RAGGED_STEPS)
    rows = np.zeros((len(bundles), max(RAGGED_STEPS)))
    rows[2] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^cost blow-up \(path 2\)$"):
            evaluate_cost(model, StepwiseControl(rows), bundles)


def test_singular_backward_step_raises_naming_step_and_path():
    """linear_test with g = (100 y + 0.5 x) / lam has 1 - du lam g_y = 0 at
    du = 0.01: P is non-finite from each row's last step down, and the
    cost pass raises naming the row that went non-finite first in sweep
    order and that step (path 2, the first of the two paths with 12
    steps, at step 11), whether or not rows are kept and whether or not l
    reads the state.  Made singular at step 5 alone, the first row of the
    sorted batch with more than 5 steps (path 0) is named there."""
    lin = build_model("linear_test")[0]
    lam = 2.0
    sing = dataclasses.replace(lin, g=lambda t1, t2, x, y, a, r, v: (100.0 * y + 0.5 * x) / lam)
    free = dataclasses.replace(sing, l=lambda t1, t2, x, y, a, r, v: 0.5 * v**2 / lam)
    once = dataclasses.replace(lin, g=lambda t1, t2, x, y, a, r, v: (
        np.where((t2 > 0.045) & (t2 < 0.055), 100.0, -0.5) * y + 0.5 * x) / lam)
    bundles = ragged_bundles(RAGGED_STEPS)
    ctl = ConstantControl(0.5)
    for model, where in ((sing, "step 11 (path 2)"), (free, "step 11 (path 2)"),
                         (once, "step 5 (path 0)")):
        for run in (lambda: evaluate_cost(model, ctl, bundles),
                    lambda: fbsde._ensemble_cost(model, ctl, bundles, keep=len(bundles))):
            with np.errstate(all="ignore"):
                with pytest.raises(FloatingPointError,
                                   match=rf"^backward blow-up at {re.escape(where)}$"):
                    run()


@pytest.mark.parametrize("method", ["affine", "lsmc"])
def test_non_finite_cost_gets_one_verdict_for_every_keep_and_chunk(method):
    """linear_test with path 2's control at 1e200 in Box(-1e300, 1e300):
    v^2 is inf on path 2 alone, whether or not l reads x (under the affine
    regime a state-free l takes the pass that solves no state when no rows
    are kept).  The pass returns that cost with the same bytes for keep 0
    and keep 10, and evaluate_cost refuses it, naming the path, for every
    chunk."""
    lin = build_model("linear_test")[0]
    bundles = ragged_bundles(RAGGED_STEPS)
    rows = np.zeros((len(bundles), max(RAGGED_STEPS)))
    rows[2] = 1e200
    huge = StepwiseControl(rows)
    for l in (lambda t1, t2, x, y, a, r, v: x**2 / 4.0 + v**2,
              lambda t1, t2, x, y, a, r, v: v**2):
        model = dataclasses.replace(lin, l=l, control_set=Box(-1e300, 1e300))
        with np.errstate(over="ignore", invalid="ignore"):
            costs = [fbsde._ensemble_cost(model, huge, bundles, method, keep=keep)[0].per_path
                     for keep in (0, len(bundles))]
            assert costs[0].tobytes() == costs[1].tobytes()
            assert np.flatnonzero(~np.isfinite(costs[0])).tolist() == [2]
            for chunk in (1, 7, 512):
                with pytest.raises(FloatingPointError, match=r"^cost blow-up \(path 2\)$"):
                    evaluate_cost(model, huge, bundles, method, chunk)


def test_ode_backward_blow_up_raises_where_it_is_reported():
    """The ode kernel checks no Y, so y' = 1000 y^2 from Y_T = 1 raises where
    Y is reported: solve_backward_dual after its terminal check, naming the
    first step its sweep reaches with a non-finite Y, and evaluate_cost
    through the NaN costs it gives (gamma(inf) = 0 inf), naming the lowest
    ensemble position among them (path 0, of 7 steps)."""
    model = mk_model(g=lambda t1, t2, x, y, a, r, v: 1e3 * y**2 + 0.0 * (x + a + r + v),
                     phi=lambda x: 1.0 + 0.0 * x, conditionally_deterministic=True)
    bundles = ragged_bundles(RAGGED_STEPS)
    assert fbsde.backward_method(model, ConstantControl(0.0)) == "ode"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"^backward blow-up at step 10 \(path 2\)$"):
            solve_backward_dual(model, 0.0, bundles[2],
                                solve_forward_dual(model, 0.0, bundles[2]))
        with pytest.raises(FloatingPointError, match=r"^cost blow-up \(path 0\)$"):
            evaluate_cost(model, 0.0, bundles)


def test_lsmc_inner_blow_up_names_the_outer_path():
    """On finite outer rows, the inner ensembles' state blows up in the
    forward kernel they share with every system.  Each inner row carries
    its outer path's label, and every outer path (2, 3, 7 and 12 steps)
    blows up at step 1, so the lowest label, path 0, is named there,
    though path 3, the shortest, leads the K-sorted batch."""
    model = mk_model(f=lambda t1, t2, x, v: 1e200 * (1.0 + x**2))
    ens = fbsde.Ensemble(ragged_bundles((7, 12, 3, 2)))
    batch = ens.rows(np.argsort(ens.K, kind="stable"))
    assert batch.labels[0] == 3
    X = np.ones((batch.N, batch.Kmax + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^state blow-up at step 1 \(path 0\)$"):
            fbsde._lsmc_backward(model, ConstantControl(0.0), batch, X,
                                 np.zeros((batch.N, batch.Kmax)), n_inner=4)


def test_state_free_cost_pass_draws_no_noise(monkeypatch):
    """A cost pass that solves no state (the cash model, keeping no rows)
    reads only the clock, so over a fresh ensemble it draws no path's
    noise; a pass that keeps n rows draws exactly those n paths, once
    each.  linear_test, whose running cost reads x, draws every path."""
    spec = CashSpec()
    cash = build_cash_model(spec)
    drawn = _counted_draws(monkeypatch)

    def fresh():
        return make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 64, 3)

    for ctl in (ConstantControl(0.5), cash_optimal_control(spec, cash_adjoints(spec, fresh()))):
        evaluate_cost(cash, ctl, fresh(), chunk=7)
        assert drawn == []
        for keep in (1, 5, 64):
            ens = fresh()
            fbsde._ensemble_cost(cash, ctl, ens, chunk=7, keep=keep)
            want = [fbsde.Substreams(3, "brownian", [p])._state[0] for p in range(keep)]
            assert sorted(drawn) == sorted(want)
            del drawn[:]
    model, jump, sub, p = build_model("linear_test")
    evaluate_cost(model, 0.5, make_ensemble(sub, jump, p["horizon"], p["step"], 16, 3))
    assert len(drawn) == 16


def test_cost_pass_is_byte_equal_for_every_keep_and_chunk():
    """_ensemble_cost solves its kept rows in batches of their own and
    costs the rest without state where it can: every per-path cost has
    the same bytes for keep in {0, 5, all} and chunk in {1, 7, 512}, and
    the kept rows are the same for every chunk; on the cash model (whose
    other rows take the state-free path) and on linear_test (whose do
    not), on a sampled ensemble and on ragged paths with zero-step ones."""
    spec = CashSpec()
    lin, jump, sub, p = build_model("linear_test")
    cases = [(build_cash_model(spec),
              make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 40, 2)),
             (build_cash_model(spec), fbsde.Ensemble(ragged_bundles(RAGGED_STEPS))),
             (lin, make_ensemble(sub, jump, p["horizon"], p["step"], 40, 2))]
    for model, ens in cases:
        want, rows = None, {}
        for keep, chunk in itertools.product((0, 5, len(ens)), (1, 7, 512)):
            est, sols = fbsde._ensemble_cost(model, ConstantControl(0.5), ens, chunk=chunk,
                                             keep=keep)
            want = est.per_path.tobytes() if want is None else want
            assert est.per_path.tobytes() == want
            if keep:
                got = [getattr(sols, f).tobytes() for f in ("t", "X", "Y", "A", "r", "v")]
                assert rows.setdefault(keep, got) == got


def test_open_loop_reads_a_whole_table_with_the_bytes_of_a_step_loop():
    """_open_loop reads an open-loop control's whole table at once: the
    same bytes as a step-by-step values_at read of its live cells (a
    ConstantControl, StepwiseControls as wide as the batch and narrower,
    a TableControl on calendar time and their perturbations), the same
    hold past each horizon (0 on a zero-step row, a table narrower than
    the batch holding its last column), the same box admission of live
    cells only (NaN padding past a horizon is never admitted), and a live
    cell outside the box still raises."""
    def step_loop(ctl, batch, box):
        """The control read one step at a time on the live rows."""
        v = np.zeros((batch.N, batch.Kmax))
        nan = np.full(batch.N, np.nan)
        for i in range(batch.Kmax):
            rows = batch.live(i)
            v[rows, i] = ctl.values_at(i, batch.t[rows, i], i * batch.du, nan[rows],
                                       batch.labels[rows])
        if box is not None:
            live = np.arange(batch.Kmax) < batch.K[:, None]
            v[live] = box.admit(v[live])
        return fbsde._hold(v, batch.K, 0.0, batch.Kmax)

    ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS))
    order = np.argsort(ens.K, kind="stable")
    batch = ens.rows(order)
    live = np.arange(batch.Kmax) < ens.K[:, None]
    rng = np.random.default_rng(3)
    wide = StepwiseControl(np.where(live, rng.uniform(-1.0, 1.0, live.shape), np.nan))
    narrow = StepwiseControl(rng.uniform(-1.0, 1.0, (len(ens), 3)))
    table = TableControl(np.sort(rng.uniform(0.0, 1.0, 6)), rng.uniform(-1.0, 1.0, 6))
    tables = [wide, narrow, ConstantControl(0.25), table,
              PerturbedControl(narrow, ConstantControl(1.0), 0.1),
              PerturbedControl(ConstantControl(0.25), table, -0.5)]
    for ctl in tables:
        for box in (None, Box(-1.0, 1.0)):
            got = fbsde._open_loop(ctl, batch, box)
            want = step_loop(ctl, batch, box)
            assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="outside the control set"):
        fbsde._open_loop(ConstantControl(0.25), batch, Box(0.5, 1.0))


def test_affine_cost_reads_the_control_on_live_cells_only():
    """The affine regime tabulates v before the state and admits its live
    cells only: a box that excludes 0 takes the zero-step rows, whose v
    parks at 0, and those rows cost gamma(Y_0) = -x0 alone."""
    model = dataclasses.replace(build_model("linear_test")[0], control_set=Box(1.0, 2.0))
    bundles = ragged_bundles(RAGGED_STEPS)
    est, sols = fbsde._ensemble_cost(model, ConstantControl(1.5), bundles,
                                     keep=len(bundles))
    zero = np.array(RAGGED_STEPS) == 0
    assert np.all(est.per_path[zero] == -model.x0)
    assert not sols.v[zero].any()
    assert np.all(sols.v[~zero][np.arange(sols.v.shape[1]) < sols.K[~zero, None]] == 1.5)


def test_affine_cost_state_matches_the_map_step():
    """The cost's affine regime steps X by the probe's slope/intercept
    tables; solve_forward_dual steps it by the maps.  On linear_test, a
    twin whose b = z (0.05 x + 0.1) has both an x-slope and a constant,
    and the cash model under u*, the kept rows agree with the one-path
    solve to 1e-12, and carry the same bytes for every chunk."""
    lin, jump, sub, p = build_model("linear_test")
    both = dataclasses.replace(lin, b=lambda t1, t2, x, v, z: z * (0.05 * x + 0.1))
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 24, master_seed=61)
    spec = CashSpec()
    cens = make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 24, 61)
    ustar = cash_optimal_control(spec, cash_adjoints(spec, cens))
    for model, ctl, bundles in ((lin, ConstantControl(0.5), ens),
                                (both, ConstantControl(0.5), ens),
                                (build_cash_model(spec), ustar, cens)):
        assert fbsde.backward_method(model, ctl) == "affine"
        one, three, whole = (solved_ensemble(model, ctl, bundles, chunk=c) for c in (1, 3, 512))
        assert one.X.tobytes() == three.X.tobytes() == whole.X.tobytes()
        for n, bnd in enumerate(bundles):
            X = solve_forward_dual(model, ctl, bnd).X
            assert np.max(np.abs(whole.X[n, : X.size] - X)) <= 1e-12


@pytest.mark.parametrize("method", ["ode", "affine", "lsmc"])
def test_lsmc_cost_matches_single_path_solvers_bitwise(method):
    """The cost reads each path off the batch forward and backward solves;
    it must agree bit for bit with the single-path solvers."""
    model, jump, sub, p = build_model("quadratic_drift")
    if method == "ode":
        # the same drift and driver without noise loadings (plus a y^2 term)
        model = mk_model(f=lambda t1, t2, x, v: -x + v + 0.5 * v**2,
                         g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.3 * v**2
                                                          + 0.1 * y**2 + 0.0 * (a + r)),
                         phi=lambda x: 1.0 * x, gamma=lambda y: -y,
                         control_set=Box(-2.0, 2.0), conditionally_deterministic=True)
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 48, master_seed=3)
    picks = [ens[i] for i in (5, 1, 40)]
    ctl = ConstantControl(0.5)
    est = evaluate_cost(model, ctl, picks, method=method)
    for bnd, got in zip(picks, est.per_path):
        sol = solve_backward_dual(model, ctl, bnd, solve_forward_dual(model, ctl, bnd),
                                  method=method)
        # neither model has a running or terminal cost: J = gamma(Y_0) = -Y_0
        assert got == -sol.Y[0]


def test_lsmc_rank_deficiency_names_step_and_path():
    """Without diffusion and with sparse jumps the inner states take only
    a few distinct values.  The joint sweep stops at the first Gram matrix
    past the conditioning bound and names its step and path; that path
    solved alone fails at the same step."""
    model = mk_model(b=lambda t1, t2, x, v, z: z + 0.0 * x,
                     phi=lambda x: 1.0 * x, M_T=1.0)
    bundles = ragged_bundles((7, 0, 12, 3, 9),
                             jump_spec=LevyJumpSpec(c=1.0, intensity=0.2))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"at step (\d+) \(path (\d+)\)") as err:
        evaluate_cost(model, 0.0, bundles, method="lsmc")
    step, path = re.search(r"at step (\d+) \(path (\d+)\)", str(err.value)).groups()
    bnd = bundles[int(path)]
    with pytest.raises(np.linalg.LinAlgError, match=rf"at step {step} \(path {path}\)"):
        solve_backward_dual(model, 0.0, bnd, solve_forward_dual(model, 0.0, bnd),
                            method="lsmc")


def test_cost_law_invariant_under_noise_pairing():
    model, jump, sub, p = build_model("linear_test")
    n = 256
    a = make_ensemble(sub, jump, 0.7, 0.01, n, master_seed=77)
    perm = np.roll(np.arange(n), 31)
    b = make_ensemble(sub, jump, 0.7, 0.01, n, master_seed=77, pairing=perm)
    ca = evaluate_cost(model, 0.3, a)
    cb = evaluate_cost(model, 0.3, b)
    gap = abs(ca.mean - cb.mean)
    assert gap < 4.0 * np.hypot(ca.std_error, cb.std_error)
    assert ks_2samp(ca.per_path, cb.per_path).pvalue > 0.01


def test_forward_self_convergence_is_first_order():
    """Coupled grid refinement: halving the step halves the strong error."""
    sub = SubordinatorSpec(alpha=0.7)
    jump = LevyJumpSpec(c=1.0, intensity=2.0)
    model = mk_model(
        f=lambda t1, t2, x, v: -x + 0.5 + 0.0 * v,
        sigma=lambda t1, t2, x, v: 0.2 + 0.0 * x,
        b=lambda t1, t2, x, v, z: 0.1 * z + 0.0 * x,
    )
    d_fine, d_coarse = [], []
    for k in range(160):
        lv1, lv2, lv4 = coupled_bundles(sub, jump, 0.6, 0.0025,
                                        seed=2000 + 5 * k, factors=(1, 2, 4))
        xs = [solve_forward_dual(model, 0.0, b).X[-1] for b in (lv1, lv2, lv4)]
        d_fine.append(abs(xs[0] - xs[1]))
        d_coarse.append(abs(xs[1] - xs[2]))
    ratio = np.mean(d_coarse) / np.mean(d_fine)
    assert 1.4 < ratio < 2.6


@pytest.mark.parametrize("method", [None, "lsmc"], ids=["affine", "lsmc"])
def test_stepwise_padding_is_never_read(method):
    """A StepwiseControl row ignores its entries past the path's horizon:
    NaN filler there costs exactly what the full 0.5 table costs, and the
    expansion check takes a NaN-padded direction, as does the calendar-form
    solve on its trapped steps (E_j = K du)."""
    model, jump, sub, p = build_model("linear_test")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 6, master_seed=0)
    live = np.arange(ens.K.max()) < ens.K[:, None]
    full = StepwiseControl(np.full(live.shape, 0.5))
    padded = StepwiseControl(np.where(live, 0.5, np.nan))
    want = evaluate_cost(model, full, ens, method=method).per_path
    got = evaluate_cost(model, padded, ens, method=method).per_path
    assert got.tobytes() == want.tobytes()
    if method is None:
        ones, nan_ones = (StepwiseControl(np.where(live, 1.0, fill)) for fill in (1.0, np.nan))
        sols = solved_ensemble(model, full, ens)
        assert (expansion_check(model, ens, sols, nan_ones, [0.1])
                == expansion_check(model, ens, sols, ones, [0.1]))
        for bnd in ens:
            (Xw, Yw, _), (Xg, Yg, _) = (solve_calendar_direct(model, ctl, bnd)
                                        for ctl in (full, padded))
            assert Xg.tobytes() == Xw.tobytes() and Yg.tobytes() == Yw.tobytes()
        # a zero-step path has only padding: the calendar-form solve parks
        # its value, and its cost is gamma(Y_0) = -1.0 alone in both forms
        short = ragged_bundles((0, 3), jump_spec=jump)
        live = np.arange(3) < np.array([0, 3])[:, None]
        full, padded = (StepwiseControl(np.where(live, 0.5, fill)) for fill in (0.5, np.nan))
        assert evaluate_cost(model, padded, short, method=method).per_path[0] == -1.0
        for bnd in short:
            (Xw, Yw, _), (Xg, Yg, _) = (solve_calendar_direct(model, ctl, bnd)
                                        for ctl in (full, padded))
            assert Xg.tobytes() == Xw.tobytes() and Yg.tobytes() == Yw.tobytes()
        assert solve_calendar_direct(model, padded, short[0])[1][0] == 1.0


@pytest.mark.parametrize("mark_law", ["uniform", "triangular"])
def test_lsmc_inner_draws_follow_the_noise_law(mark_law):
    """Inner noise drawn as arrays has the law of fresh paths on the outer
    path's solver grid: N(0, du) Brownian cells (exactly 0 past K),
    Poisson(lam K du) events per row at steps uniform on 0..K-1, and marks
    from the mark law."""
    spec = LevyJumpSpec(c=1.0, intensity=40.0, mark_law=mark_law)
    ens = fbsde.Ensemble(ragged_bundles((40, 5, 20), jump_spec=spec))
    order = np.argsort(ens.K, kind="stable")
    n, du = 2000, ens.du
    inner = fbsde._inner_batch(ens.rows(order), np.arange(3), n)
    assert inner.N == 3 * n and inner.Kmax == 40
    assert np.array_equal(inner.labels, np.repeat(order, n))
    counts = np.bincount(inner.ev_p, minlength=inner.N)
    for j, k in enumerate(ens.K[order]):
        blk = slice(j * n, (j + 1) * n)
        assert np.all(inner.K[blk] == k)
        assert np.all(inner.t[blk] == ens.rows(order).t[j, : inner.Kmax + 1])
        cells = inner.dB[blk, :k].ravel() / np.sqrt(du)
        assert abs(cells.mean()) < 4.0 / np.sqrt(cells.size)
        assert abs(cells.var() - 1.0) < 4.0 * np.sqrt(2.0 / cells.size)
        assert np.all(inner.dB[blk, k:] == 0.0)
        mean = spec.intensity * k * du
        assert abs(counts[blk].mean() - mean) < 4.0 * np.sqrt(mean / n)
        steps = inner.ev_s[(inner.ev_p >= j * n) & (inner.ev_p < (j + 1) * n)]
        assert chisquare(np.bincount(steps, minlength=k)).pvalue > 1e-3
        assert steps.max() < k
    assert kstest(inner.ev_z, spec.mark_cdf).pvalue > 1e-3


def test_lsmc_inner_draws_depend_on_the_outer_path_alone(monkeypatch):
    """An outer path's inner rows carry the same bytes whether the path is
    drawn alone, in a sweep group of 16 or through solve_backward_dual."""
    model, jump, sub, p = build_model("quadratic_drift")
    ens = make_ensemble(sub, jump, p["horizon"], p["step"], 20, master_seed=4)
    seen = {}
    draw = fbsde._inner_batch

    def spy(batch, rows, n_inner):
        inner = draw(batch, rows, n_inner)
        for j, (k, seeds) in enumerate(zip(batch.K[rows], batch.seeds[rows])):
            blk = slice(j * n_inner, (j + 1) * n_inner)
            ev = (inner.ev_p >= blk.start) & (inner.ev_p < blk.stop)
            seen.setdefault(tuple(seeds), []).append(b"".join(a.tobytes() for a in (
                inner.t[blk, : k + 1], inner.dB[blk, :k], inner.dB[blk, k:].any(keepdims=True),
                inner.labels[blk], inner.ev_p[ev] - blk.start, inner.ev_s[ev], inner.ev_z[ev])))
        return inner

    monkeypatch.setattr(fbsde, "_inner_batch", spy)
    ctl = ConstantControl(0.5)
    evaluate_cost(model, ctl, ens, method="lsmc")
    order = [int(n) for n in np.argsort(ens.K, kind="stable") if ens.K[n] > 0]
    assert len(seen) == len(order) > 16
    # the shortest sit in the first sweep group of 16, the longest after it
    for n in (order[0], order[-1]):
        bnd = ens[n]
        solve_backward_dual(model, ctl, bnd, solve_forward_dual(model, ctl, bnd),
                            method="lsmc")
    for n in order:
        spy(fbsde._single(ens[n]), np.array([0]), 256)
        assert len(set(seen[(4, n)])) == 1
    assert [len(seen[(4, n)]) for n in order] == [3] + [2] * (len(order) - 2) + [3]


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED)
def test_live_row_kernel_is_row_local(steps):
    """The forward kernel steps only live rows, a suffix slice of the
    K-sorted batch: every row's X and v carry the bytes of the path
    solved alone, and costs do not depend on the chunk size.  Ragged
    steps with zeros, duplicates, in any order."""
    model, jump, sub, p = build_model("quadratic_drift")
    ens = fbsde.Ensemble(ragged_bundles(steps, jump_spec=jump))
    n, width = len(steps), max(max(steps), 1)
    rows = 0.3 + 0.1 * np.arange(n)[:, None] + 0.02 * np.arange(width)
    ctl = StepwiseControl(np.where(np.arange(width) < ens.K[:, None], rows, np.nan))
    order = np.argsort(ens.K, kind="stable")
    X_s, v_s = fbsde._forward_batch(model, ctl, ens.rows(order))
    at_s = np.argsort(order)
    for j in range(n):
        X, v = fbsde._forward_batch(model, ctl, ens.rows([j]))
        assert X[0].tobytes() == X_s[at_s[j], : X.shape[1]].tobytes()
        assert v[0].tobytes() == v_s[at_s[j], : v.shape[1]].tobytes()
    one, three, whole = (evaluate_cost(model, ctl, ens, chunk=c).per_path for c in (1, 3, 512))
    assert one.tobytes() == three.tobytes() == whole.tobytes()


def _backward_rows(model, ctl, direction, batch):
    """Every backward kernel's output on one batch: the state's Y/A/r in
    the affine and the ode regime, the second adjoint's q/k/R and the
    variational Y1/A1/r1."""
    X, v = fbsde._forward_batch(model, ctl, batch)
    out = {}
    for method in ("affine", "ode"):
        Y, A, r = fbsde._backward_batch(model, ctl, batch, X, v, method)
        out.update(zip((f"{name}.{method}" for name in "YAr"), (Y, A, r())))
    base = (X, out["Y.affine"], out["A.affine"], out["r.affine"], v)
    co = fbsde._probe_affine(model, batch, v)
    p = smp._p_forward_batch(model, batch, *base, co)
    terms = smp._closure_check(model, batch, *base)
    out.update(zip("qkR", smp._q_affine_batch(model, batch, X, p, co, *terms)))
    out.update(zip(("Y1", "A1", "r1"),
                   smp._variational_batch(model, ctl, direction, batch, *base)[1:4]))
    return out


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED)
def test_backward_kernels_are_row_local(steps):
    """The backward kernels step only live rows, a suffix slice of the
    K-sorted batch: every row of that batch carries the bytes of the path
    solved alone, for the state, the second adjoint and the variational
    pair.  The control and the direction are NaN past each horizon.
    Ragged steps with zeros, duplicates, in any order."""
    spec = CashSpec()
    model = build_cash_model(spec)
    ens = fbsde.Ensemble(ragged_bundles(steps, jump_spec=spec.jump))
    n, width = len(steps), max(max(steps), 1)
    live = np.arange(width) < ens.K[:, None]
    rows = 0.3 + 0.1 * np.arange(n)[:, None] + 0.02 * np.arange(width)
    ctl = StepwiseControl(np.where(live, rows, np.nan))
    direction = StepwiseControl(np.where(live, 1.0, np.nan))
    order = np.argsort(ens.K, kind="stable")
    ksorted = _backward_rows(model, ctl, direction, ens.rows(order))
    at_s = np.argsort(order)
    assert len(ksorted) == 12
    for j in range(n):
        for name, val in _backward_rows(model, ctl, direction, ens.rows([j])).items():
            assert val[0].tobytes() == ksorted[name][at_s[j], : val.shape[1]].tobytes(), name


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED)
def test_affine_backward_ignores_padded_coefficients(steps):
    """NaN in every coefficient cell past a row's horizon leaves Y, A and r
    of the K-sorted batch unchanged.  P and c show through Y: at X = 0 it
    reads c, else c + P X."""
    for name in ("linear_test", "cash"):
        model, jump, _, _ = build_model(name)
        ens = fbsde.Ensemble(ragged_bundles(steps, jump_spec=jump))
        batch = ens.rows(np.argsort(ens.K, kind="stable"))
        N, Kmax, Q = batch.N, batch.Kmax, batch.w.size
        X, v = fbsde._forward_batch(model, ConstantControl(0.5), batch)
        co = fbsde._probe_affine(model, batch, v)
        dead = np.arange(Kmax) >= batch.K[:, None]
        nan_co = {}
        for key, val in co.items():
            full = np.array(np.broadcast_to(
                val, (N, Kmax, Q) if key in ("bx", "b0") else (N, Kmax)))
            full[dead] = np.nan
            nan_co[key] = full
        terms = np.full(N, model.M_T), np.full(N, float(model.phi(0.0)))
        for x in (X, np.zeros_like(X)):
            want, got = ((Y, A, r()) for Y, A, r in (
                fbsde._affine_backward(batch, x, c, *terms) for c in (co, nan_co)))
            assert all(np.all(np.isfinite(a)) for a in got)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def test_probe_reads_the_nodewise_b_once_when_b_x_is_registered():
    """With b_x registered the probe evaluates b nodewise once, at x = 0,
    and keeps the partial's shape, so the cash model's bx and ibx are
    scalars; without it b is evaluated at x = 0 and at x = 1 and bx is a
    nodewise table."""
    ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS))
    batch = ens.rows(np.argsort(ens.K, kind="stable"))
    v = fbsde._open_loop(ConstantControl(0.5), batch)
    for registered, calls in ((True, 1), (False, 2)):
        model = build_cash_model(CashSpec())
        derivs = {key: d for key, d in model.derivatives.items() if registered or key != "b_x"}
        b, seen = model.b, []
        model = dataclasses.replace(
            model, b=lambda *args: seen.append(np.shape(args[4])) or b(*args),
            derivatives=derivs)
        co = fbsde._probe_affine(model, batch, v)
        # construction evaluates b at the scalar mark 0.1, once for its
        # probe at the origin and twice more to check a registered b_x
        assert seen == [()] * (3 if registered else 1) + [batch.znodes.shape] * calls
        if registered:
            assert np.ndim(co["bx"]) == 0 and np.ndim(co["ibx"]) == 0
        else:
            assert co["bx"].shape == (batch.N, batch.Kmax, batch.w.size)


def test_affine_backward_matches_the_scalar_y_oracle():
    """_affine_backward's Y on a K-sorted ragged batch equals the scalar
    loop tests/oracles.py::affine_y_recursion row by row, then holds its
    horizon value: on an affine twin whose driver reads a and r and whose
    jump has a slope and an intercept with nonzero mark integrals (the
    symmetric mark law integrates z to 0), so every term of the scheme is
    nonzero, and on a time-dependent cash model, whose registered slopes
    are scalars, under a control that varies by path and step."""
    lam = 2.0
    twin = ModelSpec(
        f=lambda t1, t2, x, v: -x + 0.3 * v,
        sigma=lambda t1, t2, x, v: 0.1 * x + 0.2 * v,
        b=lambda t1, t2, x, v, z: (0.5 + z) * (0.05 * x + 0.1 * v),
        g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.5 * v + 0.2 * a + 0.3 * r) / lam,
        l=lambda t1, t2, x, y, a, r, v: 0.0 * x, phi=lambda x: 1.0 * x + 0.3,
        h=lambda x: 0.0 * x, gamma=lambda y: -y, control_set=Box(-2.0, 2.0), x0=1.0,
        M_T=1.0, affine=True)
    cash = build_cash_model(CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t,
                                     eta_t=lambda t, z: (0.1 + 0.05 * t) * z))
    ens = fbsde.Ensemble(ragged_bundles(RAGGED_STEPS, jump_spec=LevyJumpSpec(c=1.0,
                                                                             intensity=lam)))
    batch = ens.rows(np.argsort(ens.K, kind="stable"))
    width = max(RAGGED_STEPS)
    ctl = StepwiseControl(0.3 + 0.1 * np.arange(len(ens))[:, None] + 0.02 * np.arange(width))
    keys = ("fx", "f0", "sx", "s0", "ibx", "ib0", "Gx", "Gy", "Ga", "G0", "gr")
    for model in (twin, cash):
        v = fbsde._open_loop(ctl, batch, model.control_set)
        co = fbsde._probe_affine(model, batch, v)
        X = fbsde._forward_batch(model, ctl, batch, v, co)[0]
        P_T, c_T = model.M_T, float(model.phi(0.0))
        Y = fbsde._affine_backward(batch, X, co, np.full(batch.N, P_T),
                                   np.full(batch.N, c_T))[0]
        full = {key: np.broadcast_to(co[key], (batch.N, batch.Kmax)) for key in keys}
        for n, k in enumerate(batch.K):
            want = affine_y_recursion(X[n, : k + 1].tolist(), batch.du,
                                      {key: full[key][n, :k].tolist() for key in keys},
                                      P_T, c_T)
            assert np.max(np.abs(Y[n, : k + 1] - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))
            assert np.all(Y[n, k:] == Y[n, k])


# keys of the coefficient record _affine_sweeps reads
SWEEP_KEYS = ("fx", "sx", "ibx", "Gx", "Gy", "Ga", "gr", "f0", "s0", "ib0", "G0")


@contextlib.contextmanager
def _step_loops(force=False):
    """Count the step loops (_sweep) run inside the block; with ``force``,
    every recursion is made to take one."""
    sweep, calls = fbsde._sweep, []
    with mock.patch.object(fbsde, "_sweep", lambda *a: calls.append(1) or sweep(*a)), \
            mock.patch.object(fbsde, "_uniform", (lambda *a: None) if force else fbsde._uniform):
        yield calls


def _sweeps(batch, co, P_term, c_term, loop=False):
    """_affine_sweeps' (P, c) and the number of step loops it ran; with
    ``loop``, every recursion takes the step loop."""
    with _step_loops(loop) as calls:
        return fbsde._affine_sweeps(batch, co, P_term, c_term), len(calls)


def _sorted_batch(steps, jump_spec=None):
    """The K-sorted batch of ragged_bundles(steps)."""
    ens = fbsde.Ensemble(ragged_bundles(steps, jump_spec=jump_spec))
    return ens.rows(np.argsort(ens.K, kind="stable"))


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED, seed=st.integers(0, 2**16))
def test_sweeps_by_steps_to_go_have_the_bytes_of_the_step_loop(steps, seed):
    """Scalar coefficients and a terminal pair that is one value: P and c
    are solved once by steps to go, running no step loop, and have the
    bytes the step loop gives, over ragged rows with a zero-step row."""
    batch = _sorted_batch(steps + [0])
    vals = np.random.default_rng(seed).uniform(-0.5, 0.5, len(SWEEP_KEYS))
    co = dict(zip(SWEEP_KEYS, vals.tolist()))
    terms = np.full(batch.N, 1.3), np.full(batch.N, -0.2)
    (fast, n_fast), (slow, n_slow) = (_sweeps(batch, co, *terms, loop) for loop in (False, True))
    # a batch of zero-step rows has no step to solve: it runs the empty loop
    assert (n_fast, n_slow) == (0 if batch.Kmax else 2, 2)
    for a, b in zip(fast, slow):
        assert a.shape == (batch.N, batch.Kmax + 1) and a.tobytes() == b.tobytes()


def test_sweeps_take_the_step_loop_unless_every_live_cell_is_one_value():
    """A coefficient table takes the steps-to-go solve only when its cells
    on the rows live at step 0 hold one value by their bytes: a single
    -0.0 among 0.0 cells, or one other live cell, sends P's recursion (and
    so c's) to the step loop, and the same in c's coefficients (G0 one
    ulp off) sends c's alone; so does a terminal value that differs on
    one row.  A different value in a zero-step row's cells is never read
    and keeps the steps-to-go solve.  Every case has the step loop's
    bytes."""
    batch = _sorted_batch(RAGGED_STEPS)
    N, Kmax = batch.N, batch.Kmax
    co = dict(zip(SWEEP_KEYS, (0.3, 0.1, 0.2, 0.0, -0.4, 0.5, 0.05, 0.0, 0.2, 0.1, 0.7)))
    live, dead = N - 1, 0  # the last sorted row has K = Kmax, the first K = 0
    assert batch.K[live] == Kmax and batch.K[dead] == 0

    def with_cell(key, row, value, base=None):
        table = np.full((N, Kmax), co[key] if base is None else base)
        table[row, 3] = value
        return dict(co, **{key: table})

    terms = np.full(N, 1.3), np.full(N, -0.2)
    cases = [(with_cell("Gx", live, -0.0), terms, 2),
             (with_cell("fx", live, 0.31), terms, 2),
             (with_cell("G0", live, np.nextafter(0.7, 1.0)), terms, 1),
             (with_cell("G0", live, -0.0, base=0.0), terms, 1),
             (co, (np.where(np.arange(N) == 4, 1.4, 1.3), terms[1]), 2),
             (co, (terms[0], np.where(np.arange(N) == 4, -0.1, -0.2)), 1),
             (with_cell("Gx", dead, 9.0), terms, 0),
             (with_cell("G0", dead, -0.0), terms, 0)]
    for rec, pair, loops in cases:
        (fast, n_fast), (slow, _) = (_sweeps(batch, rec, *pair, loop) for loop in (False, True))
        assert n_fast == loops
        for a, b in zip(fast, slow):
            assert a.tobytes() == b.tobytes()


def test_sweeps_by_steps_to_go_run_for_constant_controls_only_where_slopes_are_one_value():
    """Under a constant rate the cash model's P and c coefficients are
    scalars and linear_test's come out as tables of one value, so a cost
    pass runs no step loop.  A linear_test twin whose registered x-slopes
    vary with calendar time t1 takes the step loop for P and c in every
    batch, and the cash model under a rate that varies by step takes it
    for c; the costs are those of a pass that runs the step loop
    throughout."""
    lin, jump, _, _ = build_model("linear_test")
    lam = jump.intensity
    tx = dataclasses.replace(
        lin, f=lambda t1, t2, x, v: -(1.0 + 0.5 * t1) * x,
        g=lambda t1, t2, x, y, a, r, v: (-(0.5 + 0.2 * t1) * y + 0.5 * x + 0.5 * v) / lam,
        derivatives={"f_x": lambda t1, t2, x, v: -(1.0 + 0.5 * t1),
                     "g_y": lambda t1, t2, x, y, a, r, v: -(0.5 + 0.2 * t1) / lam})
    cash = build_cash_model(CashSpec())
    bundles = ragged_bundles(RAGGED_STEPS, jump_spec=jump)
    width = max(RAGGED_STEPS)
    stepwise = StepwiseControl(0.3 + 0.02 * np.arange(width) + np.zeros((len(bundles), 1)))
    for model, ctl, loops in ((lin, ConstantControl(0.5), 0), (cash, ConstantControl(0.5), 0),
                              (tx, ConstantControl(0.5), 2), (cash, stepwise, 1)):
        costs = []
        for force in (False, True):
            with _step_loops(force) as calls:
                costs.append(fbsde._ensemble_cost(model, ctl, bundles, keep=len(bundles))[0])
            assert len(calls) == (2 if force else loops)
        assert costs[0].per_path.tobytes() == costs[1].per_path.tobytes()


def test_singular_scalar_step_raises_the_step_loop_message():
    """A singular step (du Gy = 1) in scalar coefficients, solved by steps
    to go, raises the step loop's "backward blow-up at step s (path p)":
    s is the last step of the longest rows, p the lowest label among
    them."""
    batch = _sorted_batch(RAGGED_STEPS)
    co = dict(zip(SWEEP_KEYS, (0.3, 0.1, 0.2, 0.0, 1.0 / batch.du, 0.5, 0.05, 0.0, 0.2, 0.1, 0.7)))
    assert 1.0 - batch.du * co["Gy"] == 0.0
    top = batch.labels[batch.K == batch.Kmax].min()
    want = rf"^backward blow-up at step {batch.Kmax - 1} \(path {top}\)$"
    for loop in (False, True):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match=want):
            _sweeps(batch, co, np.full(batch.N, 1.0), np.zeros(batch.N), loop)


def _running_cost(model, batch, X, Y, A, r, v, held):
    """A batch's running cost by _step_sum, held or by step ranges, and the
    number of calls of l."""
    calls = []

    def cell(i, rows):
        calls.append(i)
        return model.l(*fbsde._step_args(batch, i, X, Y, A, r, v, rows))
    return fbsde._step_sum(batch, cell, held), len(calls)


def _row_cost_calls(model, batch, X, Y, A, r, v):
    """_row_cost's per-row costs and the number of calls of l it made."""
    step_sum, calls = fbsde._step_sum, []

    def counting(b, cell, held=False):
        return step_sum(b, lambda i, rows: calls.append(i) or cell(i, rows), held)
    with mock.patch.object(fbsde, "_step_sum", counting):
        return fbsde._row_cost(model, batch, X, Y, A, r, v), len(calls)


@settings(max_examples=15, deadline=None)
@given(steps=RAGGED)
def test_state_free_running_cost_is_one_call_with_the_bits_of_the_step_ranges(steps):
    """A running cost that reads no state (the cash model's, quadratic_drift's
    scalar 0.0, and a cash-like l whose first term is -0.0) is evaluated
    in blocks of at most _HELD_CELLS cells, once on a small batch, and
    each row's sum has the bytes of the step ranges', a zero-step row's
    positive 0.0 included, for every block size; _row_cost takes that
    path.  linear_test's l reads x: _row_cost still calls it once per
    step range."""
    steps = steps + [0]
    cash = build_cash_model(CashSpec())
    neg = dataclasses.replace(cash, l=lambda t1, t2, x, y, a, r, v: np.where(
        t2 == 0.0, -0.0, 0.5 * (v - 1.0) ** 2))
    quad = build_model("quadratic_drift")[0]
    lin = build_model("linear_test")[0]
    ctl = StepwiseControl(0.3 + 0.1 * np.arange(len(steps))[:, None]
                          + 0.02 * np.arange(max(max(steps), 1)))
    batch = _sorted_batch(steps)
    ranges = np.unique(batch.K[batch.K > 0]).size
    zero = batch.K == 0
    for model in (cash, neg, quad, lin):
        assert (model._unread["l"] >= fbsde._STATE) == (model is not lin)
        _, X, Y, v, A, r = fbsde._batch_cost(model, ctl, batch)
        held, n_held = _running_cost(model, batch, X, Y, A, r, v, True)
        plain, n_plain = _running_cost(model, batch, X, Y, A, r, v, False)
        assert n_held == min(batch.Kmax, 1) and n_plain == ranges
        assert held.tobytes() == plain.tobytes()
        assert not held[zero].any() and not np.signbit(held[zero]).any()
        # blocks of a few cells merge some ranges and end rows inside them;
        # blocks of one cell are the ranges
        for cells, calls in ((12, None), (1, ranges)):
            with mock.patch.object(fbsde, "_HELD_CELLS", cells):
                small, n_small = _running_cost(model, batch, X, Y, A, r, v, True)
            assert small.tobytes() == plain.tobytes()
            assert n_small <= ranges and calls in (None, n_small)
        cost, calls = _row_cost_calls(model, batch, X, Y, A, r, v)
        assert calls == (ranges if model is lin else min(batch.Kmax, 1))
        want = plain + model.h(X[np.arange(batch.N), batch.K]) + model.gamma(Y[:, 0])
        assert cost.tobytes() == np.broadcast_to(want, cost.shape).tobytes()
    # the -0.0 first term: a one-step row's cost is +0.0, not -0.0
    one = _sorted_batch([1, 0])
    _, X, Y, v, A, r = fbsde._batch_cost(neg, ctl, one)
    run = _running_cost(neg, one, X, Y, A, r, v, True)[0]
    assert run.tobytes() == np.zeros(2).tobytes()


def _live_cell(batch, calls):
    """A nodewise integrand of the steps of a slice that fails unless it is
    handed exactly the rows live at every one of those steps, in row
    order, and appends (first step, stop, rows) of each call to ``calls``.
    Its cells vary over the nodes, except on every third step."""
    def cell(steps, rows):
        live = np.arange(batch.N)[rows]
        for i in range(steps.start, steps.stop):
            assert np.array_equal(live, np.flatnonzero(batch.K > i))
        calls.append((steps.start, steps.stop, live.size))
        i = np.arange(steps.start, steps.stop)[:, None]
        return batch.t[rows, steps, None] * np.where(i % 3, batch.znodes, 0.5) + i
    return cell


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED)
def test_step_sum_reads_live_rows_only(steps):
    """_step_sum calls ``cell`` once per range of steps: each call gets
    exactly the rows live at every step of its range, in row order; the
    ranges tile 0..Kmax in order and end only where the live rows change.
    Each row's sum equals, bit for bit, a step-by-step loop over the same
    cells and the sum the row has alone."""
    ens = fbsde.Ensemble(ragged_bundles(steps))
    idx = np.argsort(ens.K, kind="stable")
    batch = ens.rows(idx)
    calls = []
    run = fbsde._step_sum(batch, _live_cell(batch, calls))
    ends = [0] + [c[1] for c in calls]
    assert [c[0] for c in calls] == ends[:-1] and ends[-1] == batch.Kmax
    assert all(a < b for a, b, _ in calls)
    assert all(n0 != n1 for (_, _, n0), (_, _, n1) in zip(calls, calls[1:]))
    loop, cell = np.zeros(batch.N), _live_cell(batch, [])
    lam_du = batch.spec.intensity * batch.du
    for i in range(batch.Kmax):
        rows = batch.live(i)
        part = loop[rows]
        loop[rows] = part + lam_du * batch.spec.integrate(cell(slice(i, i + 1), rows)[:, 0],
                                                          part.shape)
    assert run.tobytes() == loop.tobytes()
    for n, label in enumerate(idx):
        alone = ens.rows([label])
        assert run[n] == fbsde._step_sum(alone, _live_cell(alone, []))[0]


@settings(max_examples=25, deadline=None)
@given(steps=RAGGED)
def test_step_cells_match_the_full_r_table(steps):
    """Every regime's r builder gives the padded (N, Kmax, nodes) table of
    the K-sorted batch, zero past each horizon, for linear_test
    (r = bx X P) and the cash model (r = b0 P).  Controls are NaN past
    each horizon; ragged steps with duplicates, in any order, and at least
    one zero-step row."""
    steps = steps + [0]
    n, width = len(steps), max(max(steps), 1)
    for name in ("linear_test", "cash"):
        model, jump, _, _ = build_model(name)
        ens = fbsde.Ensemble(ragged_bundles(steps, jump_spec=jump))
        rows = 0.3 + 0.1 * np.arange(n)[:, None] + 0.02 * np.arange(width)
        ctl = StepwiseControl(np.where(np.arange(width) < ens.K[:, None], rows, np.nan))
        batch = ens.rows(np.argsort(ens.K, kind="stable"))
        X, v = fbsde._forward_batch(model, ctl, batch)
        for method in ("ode", "affine", "lsmc"):
            table = fbsde._backward_batch(model, ctl, batch, X, v, method)[2]()
            assert table.shape == (batch.N, batch.Kmax, batch.w.size)
            assert not table[np.arange(batch.Kmax) >= batch.K[:, None]].any()
