"""Compare the fixed numerical outputs of two source trees byte for byte.

    python3 tools/compare_outputs.py PARENT_DIR CHANGE_DIR

Each tree's ``src/`` is imported in a subprocess of its own, which dumps a
fixed set of outputs (certificates, costs under each backward regime,
solved ensembles, adjoints, margins, variational pairs, expansion tables
and forward ingredients, all at fixed seeds) to an ``.npz`` file, and the
sampled ensembles themselves (their padded layout, rows in K order, and
the bundles of a few paths).  Two more ensembles dump their flat arrays: one
at a master seed of two 32-bit words, and one whose paths double their
starting grid twice or more, so a change to the substream derivation's
multi-word entropy or to how a doubling row resumes its stream reaches a
compared output; a third, with re-paired noise, is read in a scrambled
order (a bundle, a slice's rows, a batch's events) before its flat arrays
are dumped, so the order in which an ensemble draws its noise (on first
read) reaches a compared output.  The mark-law integral of a fixed table
that mixes node-constant, zero and varying rows is dumped under both mark
laws, so its constant-row rule reaches a compared output on its own.  The costs include linear_test twins whose
running cost reads r, so the backward solve's r table reaches a compared
output; one of them has a jump coefficient with both an x-slope and a
constant, which pins the operation order of that table; the kept rows'
X and v of that twin, of linear_test and of the cash model under u* pin
the state recursion of the cost's affine regime.  Another linear_test
twin registers closed-form x-slopes (f_x, sigma_x, b_x, g_x, g_y) that
vary with t1, so the probe's registered partials reach a cost and solved
rows (X, Y, A, r) as tables, not only as the cash model's constants.  Likewise a
quadratic_drift twin whose driver reads r sends the LSMC sweep's jump
read-off on inner states into a compared cost, and the solved rows,
adjoints and variational pair of a linear-quadratic system whose jump
coefficient reads both the control and the state pin the variational
state's jump at each event.  The costs of a cash system whose sigma, eta
and kappa vary with calendar time, under a constant rate and under its
u*, send a cost pass that keeps no rows (which solves no state for the
cash model) through maps that vary with t1.  Two more costs read an
open-loop control's whole table: linear_test under a TableControl on
calendar time, and the cash model, keeping no rows, under u* perturbed by
a constant rate (a PerturbedControl of a StepwiseControl and a
ConstantControl).  The cash model under a constant rate on a coarse-step
ensemble with zero-step paths, kept and not, dumps its per-path costs and
kept Y and A, so how a recursion solved by steps to go is read back on a
zero-step row reaches a compared output.  The script then
prints one line per output: ``identical`` when dtype, shape and bytes
agree, else ``moved`` with the largest absolute and relative difference.
It exits 1 when any output differs or is missing from one tree.

The margin search dumps each model's 64 margins, their standard errors
and the index of its witness (the least margin), so a move in any of them,
not only in a margin, reaches a compared output.

The outputs reach a few private entry points (``fbsde._ensemble_cost``,
the cost pass that keeps the solved rows of an ensemble's first paths,
``cash._leading``, the slice of those paths' solved rows or adjoints, and
``smp._variational_batch``), and the cash margins repeat how
``certify_optimality`` sets up its margin search (u*'s cost pass keeps
the 128 expansion rows, and the margins read ``fbsde._clock_rows``, the
lead's clock and rates with placeholders for the state; trees before
that set-up read the cost pass's first 1,024 kept rows through
``cash._leading``, which gives the same margins); a tree that renames
those entry points or changes that set-up needs this script updated in the
same change.

A change that alters a signature the dump calls leaves this script unable
to dump the other tree.  Dump each tree with a script that fits it
instead: the change's own script, and for the parent a copy of it (kept
outside both trees) with only those calls put back to the parent's
signatures.  Then compare the two files with ``compare_files``:

    python3 tools/compare_outputs.py --dump CHANGE_DIR/src change.npz
    python3 COPY_OF_SCRIPT --dump PARENT_DIR/src parent.npz
    python3 -c 'import sys; sys.path.insert(0, "tools"); import compare_outputs as c; sys.exit(c.compare_files("parent.npz", "change.npz"))'

Run that way, the dump does not pin the BLAS thread count; export
OMP_NUM_THREADS=1 (as ``run_tree`` does) for byte-stable outputs.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np


def _json_numbers(node):
    """The numbers of a parsed JSON document in document order."""
    if isinstance(node, dict):
        return [x for key in sorted(node) for x in _json_numbers(node[key])]
    if isinstance(node, list):
        return [x for item in node for x in _json_numbers(item)]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return [float(node)]
    return []


def dump(out_path):
    """Write every output of the tree on sys.path to ``out_path``."""
    from tcfbsde import cash, fbsde, noise, smp, time_change

    out = {}
    spec = cash.CashSpec()
    for seed in (0, 1):
        rep = cash.certify_optimality(spec, candidates=[0.5, 1.5], ensemble_size=2048,
                                      seed=seed, expansion_rhos=[0.1, 0.05],
                                      expansion_paths=128)
        out[f"certify.seed{seed}.to_json"] = np.array(rep.to_json())
    # a margin lead (200 paths) whose Kmax is below the ensemble's, and an
    # expansion set larger than it: pins the width of the kept rows and of
    # the adjoint slice the margin search reads
    rep = cash.certify_optimality(spec, candidates=[0.5, 1.5], ensemble_size=512, seed=0,
                                  margin_paths=200, expansion_rhos=[0.1, 0.05],
                                  expansion_paths=300)
    out["certify.n512.to_json"] = np.array(rep.to_json())

    lin, jump, sub, p = fbsde.build_model("linear_test")
    ens = fbsde.make_ensemble(sub, jump, p["horizon"], p["step"], 8192, 0)
    out["cost.linear_test.per_path"] = fbsde.evaluate_cost(
        lin, fbsde.ConstantControl(0.5), ens).per_path
    # neither built-in running cost reads r: a linear_test twin whose l adds
    # r**2 sends the backward solve's r table into the cost
    twin = dataclasses.replace(
        lin, l=lambda t1, t2, x, y, a, r, v: lin.l(t1, t2, x, y, a, r, v) + r**2)
    out["cost.linear_test_r2.per_path"] = fbsde.evaluate_cost(
        twin, fbsde.ConstantControl(0.5), ens).per_path
    # every built-in model has bx = 0 or b0 = 0 in b = bx x + b0, so only a
    # twin with both nonzero pins the operation order of r's table
    both = dataclasses.replace(twin, b=lambda t1, t2, x, v, z: z * (0.05 * x + 0.1))
    est, sols = fbsde._ensemble_cost(both, fbsde.ConstantControl(0.5), ens, keep=256)
    out["cost.linear_test_bx_b0.per_path"] = est.per_path
    for field in ("X", "v", "r"):
        out[f"solved.linear_test_bx_b0.{field}"] = getattr(sols, field)
    # the affine probe reads a registered slope in place of the 0/1
    # difference, in the shape the partial returns: a linear_test twin
    # whose x-slopes vary with t1, registered in closed form, sends such
    # (N, Kmax) and (N, Kmax, nodes) tables into a cost and solved rows
    lam = jump.intensity
    tx = fbsde.ModelSpec(
        f=lambda t1, t2, x, v: -(1.0 + 0.5 * t1) * x + 0.2 * v,
        sigma=lambda t1, t2, x, v: (0.1 + 0.1 * t1) * x + 0.2,
        b=lambda t1, t2, x, v, z: 0.05 * z * (1.0 + t1) * x,
        g=lambda t1, t2, x, y, a, r, v: (-(0.5 + 0.2 * t1) * y + (0.5 - 0.3 * t1) * x
                                         + 0.5 * v) / lam,
        l=lin.l, phi=lin.phi, h=lin.h, gamma=lin.gamma, control_set=lin.control_set,
        x0=lin.x0, M_T=lin.M_T, affine=True,
        derivatives={"f_x": lambda t1, t2, x, v: -(1.0 + 0.5 * t1),
                     "sigma_x": lambda t1, t2, x, v: 0.1 + 0.1 * t1,
                     "b_x": lambda t1, t2, x, v, z: 0.05 * z * (1.0 + t1),
                     "g_x": lambda t1, t2, x, y, a, r, v: (0.5 - 0.3 * t1) / lam,
                     "g_y": lambda t1, t2, x, y, a, r, v: -(0.5 + 0.2 * t1) / lam})
    est, sols = fbsde._ensemble_cost(tx, fbsde.ConstantControl(0.5), ens, keep=256)
    out["cost.linear_test_tx.per_path"] = est.per_path
    for field in ("X", "Y", "A", "r"):
        out[f"solved.linear_test_tx.{field}"] = getattr(sols, field)

    # two 16-path lsmc operations, outer paths spread over the K-sorted order
    quad, qjump, qsub, qp = fbsde.build_model("quadratic_drift")
    qens = fbsde.make_ensemble(qsub, qjump, qp["horizon"], qp["step"], 4096, 0)
    K = np.array([b.solver_steps for b in qens])
    picks = np.argsort(K, kind="stable")[(2 * np.arange(192) + 1) * K.size // 384]
    rows = picks.reshape(16, 12)
    rows[1::2] = rows[1::2, ::-1]
    for j in (0, 1):
        out[f"lsmc.op{j}.per_path"] = fbsde.evaluate_cost(
            quad, fbsde.ConstantControl(0.5), [qens[int(k)] for k in rows[:, j]],
            method="lsmc").per_path
    # quadratic_drift's g cannot read r, so its sweep skips the jump fit's
    # read-off on inner states: a twin whose g adds 0.05 r sends that
    # read-off into a cost, and the kept rows pin the outer r table
    op0 = [qens[int(k)] for k in rows[:, 0]]
    gr = dataclasses.replace(
        quad, g=lambda t1, t2, x, y, a, r, v: quad.g(t1, t2, x, y, a, r, v) + 0.05 * r)
    out["lsmc.quadratic_drift_gr.op0.per_path"] = fbsde.evaluate_cost(
        gr, fbsde.ConstantControl(0.5), op0, method="lsmc").per_path
    sols = fbsde._ensemble_cost(quad, fbsde.ConstantControl(0.5), op0, method="lsmc",
                                keep=16)[1]
    for field in ("Y", "A", "r"):
        out[f"solved.lsmc.{field}"] = getattr(sols, field)

    # the ode regime: quadratic_drift's drift and driver (plus a y^2 term)
    # without noise loadings, on the first 1,024 paths of that ensemble
    ode = fbsde.ModelSpec(
        f=lambda t1, t2, x, v: -x + v + 0.5 * v**2,
        sigma=lambda t1, t2, x, v: 0.0 * x + 0.0 * v,
        b=lambda t1, t2, x, v, z: 0.0 * x + 0.0 * v + 0.0 * z,
        g=lambda t1, t2, x, y, a, r, v: (-0.5 * y + 0.5 * x + 0.3 * v**2 + 0.1 * y**2
                                         + 0.0 * (a + r)),
        phi=lambda x: 1.0 * x, l=lambda t1, t2, x, y, a, r, v: 0.0 * (x + v),
        h=lambda x: 0.0 * x, gamma=lambda y: -y, control_set=fbsde.Box(-2.0, 2.0),
        x0=1.0, conditionally_deterministic=True)
    out["cost.ode.per_path"] = fbsde.evaluate_cost(
        ode, fbsde.ConstantControl(0.5), qens[:1024], method="ode").per_path

    cmodel = cash.build_cash_model(spec)
    cens = fbsde.make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 200, 0)
    ustar = cash.cash_optimal_control(spec, cash.cash_adjoints(spec, cens))
    out["cash.ustar"] = ustar.values
    lens = ens[:100]
    # linear_test's f, sigma and b do not read v, so its X1 is 0, and the
    # cash model has b_x = 0: only a system whose jumps read both v and x
    # sends X1's event slope b_x X1 into a compared output.  This one has
    # the control in every coefficient and b = 0.1 z v + 0.05 z x
    lq_bx = fbsde.ModelSpec(
        f=lambda t1, t2, x, v: -1.0 * x + 1.0 * v,
        sigma=lambda t1, t2, x, v: 0.2 * v + 0.0 * x,
        b=lambda t1, t2, x, v, z: 0.1 * z * v + 0.05 * z * x,
        g=lambda t1, t2, x, y, a, r, v: (-1.0 * y + 0.5 * x + 0.5 * v) / lam,
        l=lambda t1, t2, x, y, a, r, v: 0.5 * (v - 1.0) ** 2 / lam,
        phi=lambda x: 1.0 * x, h=lambda x: 0.0 * x, gamma=lambda y: -y,
        control_set=fbsde.Box(-10.0, 10.0), x0=1.0, M_T=1.0, affine=True)
    # the adjoint keys keep the labels of earlier trees, which had an
    # adjoint method argument, so that dumps of those trees still compare
    cases = [("cash", cmodel, ustar, cens, "affine"),
             ("linear_test", lin, fbsde.ConstantControl(0.5), lens, "auto"),
             ("lq_bx", lq_bx, fbsde.ConstantControl(0.3), lens, "auto")]
    solved = {}
    for name, model, ctl, bundles, label in cases:
        sols = solved[name] = fbsde._ensemble_cost(model, ctl, bundles, keep=len(bundles))[1]
        for field in ("X", "v", "Y", "A", "r"):
            out[f"solved.{name}.{field}"] = getattr(sols, field)
        adj = smp.solve_adjoint_ensemble(model, bundles, sols)
        for field in ("p", "q", "k", "R"):
            out[f"adjoint.{name}.{label}.{field}"] = getattr(adj, field)
        # a batch holds its rows in K order: gather the solved rows in that
        # order and put the variational rows back in ensemble order
        order = np.argsort(sols.K, kind="stable")
        var = smp._variational_batch(model, ctl, fbsde.ConstantControl(1.0),
                                     fbsde.as_ensemble(bundles).rows(order),
                                     *(getattr(sols, f)[order] for f in "XYArv"))
        for field, val in zip(("X1", "Y1", "A1", "r1", "vd"), var):
            out[f"variational.{name}.{field}"] = val[np.argsort(order)]

    # both expansion tables on 64 ragged linear_test paths, whose cost
    # and v-partials are central differences, from the rows the cost pass
    # keeps: pins the reorder of the per-path quotients and remainders
    # before every ensemble mean
    exp_ens = ens[:64]
    exp_sols = fbsde._ensemble_cost(lin, fbsde.ConstantControl(0.5), exp_ens, keep=64)[1]
    tables = smp.expansion_check(lin, exp_ens, exp_sols, fbsde.ConstantControl(1.0),
                                 [0.1, 0.05])
    out["expansion.linear_test"] = np.array(json.dumps(tables, sort_keys=True))

    # the calendar clock: the first 20 linear_test rows composed through
    # their bundles' inverses, which pins what A and r read at the horizon
    cal = [fbsde.compose_duality(solved["linear_test"][n], lens[n].inverse) for n in range(20)]
    for field in ("X", "Y", "A", "r"):
        out[f"compose.linear_test.{field}"] = np.concatenate([getattr(c, field) for c in cal])

    # the margin search's 64 margins, their standard errors and the
    # witness's index: the cash certificate's (u* on the seed-0 1,024-path
    # lead, set up as certify_optimality sets it up: u*'s cost pass keeps
    # the 128 expansion rows, and the margins read the lead's clock and
    # rates with placeholders for the state) and linear_test's under its
    # general adjoints
    cert = fbsde.make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.01, 2048, 0)
    cert_adjs = cash.cash_adjoints(spec, cert)
    ustar_cert = cash.cash_optimal_control(spec, cert_adjs)
    est = fbsde._ensemble_cost(cmodel, ustar_cert, cert, keep=128)[0]
    lead_sols = fbsde._clock_rows(cmodel, ustar_cert, cert, 1024)
    out["cost.cash.ustar.per_path"] = est.per_path
    for name, ctl in (("0.5", fbsde.ConstantControl(0.5)), ("1.5", fbsde.ConstantControl(1.5))):
        out[f"cost.cash.{name}.per_path"] = fbsde.evaluate_cost(cmodel, ctl, cert).per_path
    # the cash model under a constant rate on a coarse-step ensemble with
    # zero-step paths (positions 21, 70 and 75 among the 128 kept rows,
    # 191 among the others): its P and c are solved by steps to go, so the
    # read-off of a zero-step row reaches the kept Y and A and both passes'
    # per-path costs
    zens = fbsde.make_ensemble(spec.subordinator, spec.jump, spec.horizon, 0.05, 256, 0)
    est, sols = fbsde._ensemble_cost(cmodel, fbsde.ConstantControl(0.5), zens, keep=128)
    out["cost.cash.zero_step.per_path"] = est.per_path
    for field in ("Y", "A"):
        out[f"solved.cash.zero_step.{field}"] = getattr(sols, field)
    # a cash system whose sigma, eta and kappa vary with calendar time, so
    # a cost pass that keeps no rows reads t1-varying maps: 512 paths under
    # a constant rate and under its u*
    tspec = cash.CashSpec(sigma_t=lambda t: 0.2 + 0.1 * t,
                          eta_t=lambda t, z: (0.1 + 0.05 * t) * z,
                          kappa=lambda t: 1.0 + 0.5 * t)
    tmodel = cash.build_cash_model(tspec)
    tens = fbsde.make_ensemble(tspec.subordinator, tspec.jump, tspec.horizon, 0.01, 512, 0)
    tstar = cash.cash_optimal_control(tspec, cash.cash_adjoints(tspec, tens))
    for name, ctl in (("0.5", fbsde.ConstantControl(0.5)), ("ustar", tstar)):
        out[f"cost.cash_t.{name}.per_path"] = fbsde.evaluate_cost(tmodel, ctl, tens).per_path
    # open-loop controls read as whole tables: a TableControl on calendar
    # time (linear_test) and u* perturbed by a constant rate (cash, a pass
    # that keeps no rows)
    tab = fbsde.TableControl(np.linspace(0.0, 0.9, 10), 0.5 + 0.3 * np.sin(np.arange(10.0)))
    out["cost.linear_test.table.per_path"] = fbsde.evaluate_cost(lin, tab, ens[:1024]).per_path
    pert = fbsde.PerturbedControl(ustar_cert, fbsde.ConstantControl(1.0), 0.1)
    out["cost.cash.perturbed.per_path"] = fbsde.evaluate_cost(cmodel, pert, cert).per_path
    lin_ens, lin_ctl = ens[:256], fbsde.ConstantControl(0.5)
    lin_sols = fbsde._ensemble_cost(lin, lin_ctl, lin_ens, keep=256)[1]
    for name, model, ctl, bundles, sols, adj in (
            ("cash", cmodel, ustar_cert, cert[:1024], lead_sols, cash._leading(cert_adjs, 1024)),
            ("linear_test", lin, lin_ctl, lin_ens, lin_sols,
             smp.solve_adjoint_ensemble(lin, lin_ens, lin_sols))):
        rep = smp.check_necessary_condition(model, bundles, sols, adj, count=64, seed=0)
        out[f"margins.{name}"] = np.array([row["margin"] for row in rep.margins])
        out[f"margins.{name}.se"] = np.array([row["se"] for row in rep.margins])
        out[f"margins.{name}.witness"] = np.array(rep.witness["index"])

    for name, model, bundles in (("cash", cmodel, cens), ("linear_test", lin, lens)):
        bnd = max((bundles[i] for i in range(50)), key=lambda b: b.jumps.times.size)
        sol = fbsde.solve_forward_dual(model, 0.5, bnd)
        for field in ("X", "control_values", "drift", "vol", "dB", "jump_nodes",
                      "event_steps", "event_b"):
            out[f"forward.{name}.{field}"] = getattr(sol, field)

    # the sampling itself: the padded layout of three ensembles (one with
    # re-paired noise), and the bundles of the first 50 and 5 longest paths
    paired = fbsde.make_ensemble(sub, jump, p["horizon"], p["step"], 512, 0,
                                 pairing=np.random.default_rng(5).permutation(512))
    for name, sample in (("linear_test", ens), ("cash", cert), ("paired", paired)):
        batch = sample.rows(np.argsort(sample.K, kind="stable"))
        for field in ("t", "dB", "ev_p", "ev_s", "ev_z", "ev_start"):
            out[f"sample.{name}.rows.{field}"] = getattr(batch, field)
        K = np.array([b.solver_steps for b in sample])
        picks = list(range(50)) + np.argsort(K, kind="stable")[-5:].tolist()
        bnds = [sample[i] for i in picks]
        for field in ("subordinator.values", "brownian.values", "jumps.times",
                      "jumps.marks", "inverse.values"):
            part, attr = field.split(".")
            out[f"sample.{name}.bundles.{field}"] = np.concatenate(
                [getattr(getattr(b, part), attr) for b in bnds])
    # the substream derivation's multi-word and resume paths: an ensemble
    # at a master seed of two 32-bit words, and one on a slow clock over a
    # one-step horizon, where most paths double their starting grid twice
    # or more and so resume their subordinator streams
    wide = fbsde.make_ensemble(sub, jump, p["horizon"], p["step"], 256, 2**32 + 7)
    slow = fbsde.make_ensemble(time_change.SubordinatorSpec(0.5, scale=0.3),
                               noise.LevyJumpSpec(c=1.0, intensity=30.0), 0.05, 0.05, 96, 3)
    for name, sample in (("seed_2p32", wide), ("doubling", slow)):
        for field in ("K", "times", "brownian", "ev_time", "ev_mark", "ev_len"):
            out[f"sample.{name}.{field}"] = getattr(sample, field)
    # an ensemble with re-paired noise read in a scrambled order (one
    # bundle, then a slice's rows, then a batch's noise fields, then the
    # flat arrays): an ensemble that draws its noise when first read must
    # give the flat arrays of one drawn in path order
    late = fbsde.make_ensemble(sub, jump, p["horizon"], p["step"], 512, 0,
                               pairing=np.random.default_rng(6).permutation(512))
    late[300]
    part = late[40:90]
    part.rows(np.argsort(part.K, kind="stable")).dB
    late.rows(np.argsort(late.K, kind="stable")[::7]).ev_z
    for field in ("K", "times", "brownian", "ev_time", "ev_mark", "ev_len", "ev_lo", "ev_n"):
        out[f"sample.scrambled.{field}"] = getattr(late, field)

    # the mark-law integral of a fixed table mixing node-constant, zero and
    # varying rows (some equal at every node but the last), under both
    # mark laws: constant rows integrate to value * mass, the others by
    # einsum, so a change to either rule reaches a compared output
    mixed = np.random.default_rng(0).normal(size=(64, 16))
    mixed[0::4] = mixed[0::4, :1]
    mixed[1::4] = 0.0
    mixed[2::4, :-1] = mixed[2::4, :1]
    for law in ("uniform", "triangular"):
        rule = noise.LevyJumpSpec(c=0.7, intensity=2.0, mark_law=law)
        out[f"integrate.mixed.{law}"] = rule.integrate(mixed, (64,))
    np.savez(out_path, **out)


def run_tree(tree, out_path):
    src = Path(tree).resolve() / "src"
    if not (src / "tcfbsde" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {src / 'tcfbsde'}")
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--dump", str(src), out_path],
                   env=env, check=True)


def compare(a, b):
    """(status, max abs difference, max rel difference) of two outputs."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return "identical", 0.0, 0.0
    if a.dtype.kind == "U":
        x, y = (np.array(_json_numbers(json.loads(str(s)))) for s in (a, b))
    else:
        x, y = a.astype(float), b.astype(float)
    if x.shape != y.shape:
        return "moved (shape)", float("nan"), float("nan")
    diff = np.abs(x - y)
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return "moved", float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def compare_files(old_path, new_path):
    """Print one line per output of two dumps; 1 when any differs, else 0."""
    with np.load(old_path) as f0, np.load(new_path) as f1:
        old, new = dict(f0), dict(f1)
    bad = 0
    print(f"{'output':<36} {'status':<10} {'max abs':>10} {'max rel':>10}")
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            status, dabs, drel = "missing", float("nan"), float("nan")
        else:
            status, dabs, drel = compare(old[key], new[key])
        bad += status != "identical"
        print(f"{key:<36} {status:<10} {dabs:>10.3g} {drel:>10.3g}")
    print(f"{len(old.keys() | new.keys()) - bad} identical, {bad} differ")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--dump":
        src = Path(argv[1]).resolve()
        sys.path.insert(0, str(src))
        import tcfbsde
        if Path(tcfbsde.__file__).resolve().parent != src / "tcfbsde":
            sys.exit(f"error: imported tcfbsde from {tcfbsde.__file__}, not from {src}")
        dump(argv[2])
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        files = [os.path.join(tmp, f"tree{i}.npz") for i in (0, 1)]
        for tree, path in zip(argv, files):
            run_tree(tree, path)
        return compare_files(*files)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
