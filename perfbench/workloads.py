"""The three workloads: inputs from the seed, one operation, its checks.

A workload is built on a package, the checkout's ``tcfbsde`` or the
benchmark's ``yardstick`` copy, given as a namespace with its ``cash`` and
``fbsde`` modules.  It builds its inputs in ``setup(r)``, which run.py calls
once untimed and then ``SETUPS`` times timed, runs one operation per
``run(i)`` call and judges the result in ``check(i, out)``, which returns a
list of problems (empty when the answer is right).  The two packages'
operations with the same index have the same inputs.  The checks are
statistical, not digests, so a legitimate last-bit change to the numerics
does not read as a failure.  Why each workload exists, and which layers it
exercises and bypasses, is written down in README.md beside this file.
"""

import json
import math
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _total_steps(bundles):
    return int(sum(b.solver_steps for b in bundles))


class Certify:
    """certify_optimality on the default cash model: sampling, adjoints,
    optimal rate, paired costs, margin search and expansion checks."""

    name = "certify"
    ENSEMBLE = 2048
    STEP = 0.01
    GAP_SES = 3.0
    SETUPS = 3

    def __init__(self, seed, pkg):
        self.seed = seed
        self.pkg = pkg
        self.spec = pkg.cash.CashSpec()
        self.first_json = None
        self.se = {}
        self.steps_total = 0

    def setup(self, r):
        # draws the ensemble every operation will draw, for its solver-step
        # count, without timing that inside the operation
        spec = self.spec
        bundles = self.pkg.fbsde.make_ensemble(spec.subordinator, spec.jump, spec.horizon,
                                               self.STEP, self.ENSEMBLE, self.seed)
        self.steps_total = _total_steps(bundles)

    def run(self, i):
        # every operation repeats the same certificate, so from the second
        # one on the check is also a byte-for-byte determinism check
        return self.pkg.cash.certify_optimality(
            self.spec, candidates=[0.5, 1.5], ensemble_size=self.ENSEMBLE, seed=self.seed,
            step=self.STEP, expansion_rhos=[0.1, 0.05], expansion_paths=128)

    def steps(self, i):
        return self.steps_total

    def check(self, i, report):
        problems = []
        text = report.to_json()
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            problems.append("to_json() differs from the first call")
        if report.meta.get("certified") is not True:
            problems.append("meta.certified is not true")
        for row in report.gap_table:
            if not row["gap"] >= -self.GAP_SES * row["se"]:
                problems.append(f"gap {row['gap']:.6g} below -{self.GAP_SES:g} se "
                                f"for {row['label']}")
        if report.meta.get("ensemble") != self.ENSEMBLE:
            problems.append("report covers a different ensemble size")
        self.se[i] = float(report.meta["cost_se"])
        return problems

    def se_squared(self, ops):
        """Mean squared standard error of the cost over operations ``ops``."""
        return float(np.mean([self.se[i] ** 2 for i in ops if i in self.se]))


class Cost:
    """evaluate_cost of linear_test under a constant control over a ragged
    ensemble sampled in set-up: the batched affine solver alone."""

    name = "cost"
    MODEL = "linear_test"
    CONTROL = 0.5
    ENSEMBLE = 8192
    # |mean - reference| may be at most this many combined standard errors
    MEAN_SES = 4.0
    SETUPS = 2

    def __init__(self, seed, pkg):
        self.seed = seed
        self.fbsde = pkg.fbsde
        self.model, self.jump, self.sub, self.params = pkg.fbsde.build_model(self.MODEL)
        self.ref = json.loads((HERE / "reference.json").read_text())["cost"]
        self.bundles = None
        self.se = {}

    def setup(self, r):
        self.bundles = None  # drop the previous ensemble before drawing again
        p = self.params
        self.bundles = self.fbsde.make_ensemble(self.sub, self.jump, p["horizon"],
                                                p["step"], self.ENSEMBLE, self.seed)
        self.steps_total = _total_steps(self.bundles)

    def run(self, i):
        return self.fbsde.evaluate_cost(self.model, self.fbsde.ConstantControl(self.CONTROL),
                                        self.bundles)

    def steps(self, i):
        return self.steps_total

    def check(self, i, est):
        problems = []
        if est.per_path.shape != (self.ENSEMBLE,) or not np.all(np.isfinite(est.per_path)):
            problems.append("per-path costs are missing or not finite")
        tol = self.MEAN_SES * math.hypot(est.std_error, self.ref["std_error"])
        if not abs(est.mean - self.ref["mean"]) <= tol:
            problems.append(f"mean {est.mean:.6g} is more than {self.MEAN_SES:g} se "
                            f"from the reference {self.ref['mean']:.6g}")
        self.se[i] = est.std_error
        return problems

    def se_squared(self, ops):
        """Mean squared standard error of the cost over operations ``ops``."""
        return float(np.mean([self.se[i] ** 2 for i in ops if i in self.se]))


class Lsmc:
    """evaluate_cost of quadratic_drift with method="lsmc" over 16 outer
    paths per operation; each outer path regresses on 256 inner paths that
    share its subordinator, sampled inside the operation."""

    name = "lsmc"
    MODEL = "quadratic_drift"
    CONTROL = 0.5
    PATHS = 16
    SLICES = 12
    # the operations' outer paths are a subsample of this ensemble, whose
    # affine solve is the reference for the checks and the variance
    REFERENCE = 4096
    # over the 12 operations of seed 0 the largest gaps were 0.0033 in a
    # 16-path mean and 0.028 on one path
    MEAN_TOL = 0.01
    PATH_TOL = 0.05
    SETUPS = 2

    def __init__(self, seed, pkg):
        self.seed = seed
        self.fbsde = pkg.fbsde
        self.model, self.jump, self.sub, self.params = pkg.fbsde.build_model(self.MODEL)
        self.bundles = None
        self.lsmc = {}

    def setup(self, r):
        self.bundles = None
        p = self.params
        self.bundles = self.fbsde.make_ensemble(self.sub, self.jump, p["horizon"],
                                                p["step"], self.REFERENCE, self.seed)
        self.affine = self.fbsde.evaluate_cost(
            self.model, self.fbsde.ConstantControl(self.CONTROL), self.bundles,
            method="affine").per_path
        # An lsmc solve costs about its path's step count K, and K varies
        # widely, so 16 random paths would make the time of an operation
        # depend on which paths the seed drew.  The outer paths are instead
        # spread evenly over the K-sorted reference ensemble and dealt out
        # back and forth, so every operation carries the same mix of short
        # and long paths; the work per operation then hardly moves with the
        # seed or from one operation to the next.
        K = np.array([b.solver_steps for b in self.bundles])
        n = self.SLICES * self.PATHS
        picks = np.argsort(K, kind="stable")[(2 * np.arange(n) + 1) * K.size // (2 * n)]
        rows = picks.reshape(self.PATHS, self.SLICES)
        rows[1::2] = rows[1::2, ::-1]
        self.slices = list(rows.T)
        self.slice_steps = [int(K[idx].sum()) for idx in self.slices]

    def run(self, i):
        idx = self.slices[i % self.SLICES]
        return self.fbsde.evaluate_cost(self.model, self.fbsde.ConstantControl(self.CONTROL),
                                        [self.bundles[k] for k in idx], method="lsmc")

    def steps(self, i):
        return self.slice_steps[i % self.SLICES]

    def check(self, i, est):
        j = i % self.SLICES
        ref = self.affine[self.slices[j]]
        problems = []
        if est.per_path.shape != ref.shape or not np.all(np.isfinite(est.per_path)):
            return ["per-path costs are missing or not finite"]
        gap = abs(est.mean - ref.mean())
        worst = float(np.max(np.abs(est.per_path - ref)))
        if not gap <= self.MEAN_TOL:
            problems.append(f"lsmc mean is {gap:.3g} from the affine solve")
        if not worst <= self.PATH_TOL:
            problems.append(f"a path's lsmc cost is {worst:.3g} from the affine solve")
        self.lsmc[j] = est.per_path
        return problems

    def se_squared(self, ops):
        """Squared standard error of a 16-path lsmc cost, from the paths of
        operations ``ops``.

        The sample variance of a few hundred lsmc paths moves by ~20% from
        seed to seed, so the variance is taken from the affine solve of the
        whole reference ensemble and scaled by the lsmc-to-affine variance
        ratio on the paths the operations solved, which pairs path for path.
        """
        done = sorted({i % self.SLICES for i in ops} & self.lsmc.keys())
        lsmc = np.concatenate([self.lsmc[j] for j in done])
        paired = np.concatenate([self.affine[self.slices[j]] for j in done])
        ratio = lsmc.var(ddof=1) / paired.var(ddof=1)
        return float(ratio * self.affine.var(ddof=1) / self.PATHS)


WORKLOADS = {w.name: w for w in (Certify, Cost, Lsmc)}
