"""Cash-balance control on a random operational clock, worked end to end.

The balance X is steered by an injection rate v through

    dX = (-mu1 X + beta1 v) dE + sigma(t) v dB_E + eta(t, z) v N(dz, dE),

the utility recursion runs backward from Y_T = X_T with driver
-mu1 y + mu2 x + beta2 v, and the objective charges quadratic deviation
from a benchmark rate while rewarding initial utility:

    J(v) = E[ 1/2 int (v - kappa(t))^2 dE_t  -  Y_0 ].

Everything downstream of the model is explicit.  The first adjoint is
p(t) = exp(-mu1 E_t), deterministic given the clock; the second solves a
scalar backward equation along each subordinator path with vanishing
Brownian and jump integrands; the minimizing rate is

    u = kappa - beta1 q - sigma(t) k + beta2 p - (jump loading term),

which the zero integrands reduce to kappa - beta1 q + beta2 p.  The
functions here build the model (with closed-form derivatives and dH/dv
registered, so optimality checks run at rounding precision), produce the
adjoints and the rate per path, and certify optimality by paired Monte
Carlo comparison against caller-supplied challenger controls.
"""

from dataclasses import dataclass, field

import numpy as np

from .fbsde import (
    Box,
    ConstantControl,
    FBSDESolution,
    ModelSpec,
    PathBundle,
    PerturbedControl,
    StepwiseControl,
    TableControl,
    _batch_cost,
    _sorted_batches,
    as_control,
    evaluate_cost,
    make_ensemble,
)
from .noise import LevyJumpSpec
from .smp import (
    AdjointSolution,
    OptimalityReport,
    check_necessary_condition,
    gateaux_consistency_check,
    remainder_convergence_check,
)
from .time_change import SubordinatorSpec


def _time_map(value):
    """A constant or a callable of calendar time, as a callable."""
    if callable(value):
        return value
    const = float(value)

    def const_map(t):
        return const + 0.0 * np.asarray(t, dtype=float)

    return const_map


def _eta_map(value):
    """Jump loading: a callable (t, z), or a number meaning value * z."""
    if callable(value):
        return value
    slope = float(value)

    def linear_map(t, z):
        return slope * np.asarray(z, dtype=float) + 0.0 * np.asarray(t, dtype=float)

    return linear_map


@dataclass(frozen=True)
class CashSpec:
    """Parameters of the cash system; numbers stand in for flat maps.

    ``sigma_t`` and ``kappa`` accept either a positive constant or a
    callable of calendar time; ``eta_t`` accepts a callable (t, z) or a
    number e meaning the loading e * z.  Positivity of the rates and
    boundedness of the benchmark are checked on a probe grid over the
    horizon, which is where a bad callable fails loudly instead of
    poisoning a simulation later.
    """

    mu1: float = 1.0
    mu2: float = 0.5
    beta1: float = 1.0
    beta2: float = 0.5
    sigma_t: object = 0.2
    eta_t: object = 0.1
    kappa: object = 1.0
    x0: float = 1.0
    horizon: float = 1.0
    jump: LevyJumpSpec = field(
        default_factory=lambda: LevyJumpSpec(c=1.0, intensity=2.0))
    subordinator: SubordinatorSpec = field(
        default_factory=lambda: SubordinatorSpec(alpha=0.7))

    def __post_init__(self):
        for name in ("mu1", "mu2", "beta1", "beta2"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive, got {val}")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        probe = np.linspace(0.0, self.horizon, 33)
        sig = np.asarray(_time_map(self.sigma_t)(probe), dtype=float)
        if not (np.all(np.isfinite(sig)) and np.all(sig > 0.0)):
            raise ValueError("sigma_t must be positive over the horizon")
        kap = np.asarray(_time_map(self.kappa)(probe), dtype=float)
        if not np.all(np.isfinite(kap)):
            raise ValueError("kappa must stay bounded over the horizon")
        eta = _eta_map(self.eta_t)
        for z in (-self.jump.c, 0.0, self.jump.c):
            vals = np.asarray(eta(probe, z), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError("eta_t must stay bounded over the horizon")

    def maps(self):
        """Resolved (sigma, eta, kappa) callables."""
        return _time_map(self.sigma_t), _eta_map(self.eta_t), _time_map(self.kappa)


def build_cash_model(spec: CashSpec) -> ModelSpec:
    """The cash system as a ModelSpec the general solvers accept.

    The driver and the running cost are stored per jump mark (divided by
    the intensity) because the solver integrates both against the jump
    measure; their measure-weighted totals are the displays in the module
    docstring.  Every coefficient derivative and the explicit dH/dv are
    registered, which removes the finite-difference noise floor from the
    downstream optimality certificates.
    """
    mu1, mu2 = spec.mu1, spec.mu2
    b1, b2 = spec.beta1, spec.beta2
    lam = spec.jump.intensity
    sig, eta, kap = spec.maps()

    def hamiltonian_v(t1, t2, x, y, a, r, v, p, q, k, R, jspec):
        t1 = np.asarray(t1, dtype=float)
        R = np.asarray(R, dtype=float)
        z, wq = jspec.quadrature()
        jump_part = jspec.intensity * ((R * eta(t1[..., None], z)) @ wq)
        return (b1 * np.asarray(q, dtype=float)
                + sig(t1) * np.asarray(k, dtype=float)
                - b2 * np.asarray(p, dtype=float)
                + jump_part
                + (np.asarray(v, dtype=float) - kap(t1)))

    derivs = {
        "f_x": lambda t1, t2, x, v: -mu1 + 0.0 * (x + v),
        "f_v": lambda t1, t2, x, v: b1 + 0.0 * (x + v),
        "sigma_x": lambda t1, t2, x, v: 0.0 * (x + v),
        "sigma_v": lambda t1, t2, x, v: sig(t1) + 0.0 * (x + v),
        "b_x": lambda t1, t2, x, v, z: 0.0 * (x + v + z),
        "b_v": lambda t1, t2, x, v, z: eta(t1, z) + 0.0 * (x + v),
        "g_x": lambda t1, t2, x, y, a, r, v: mu2 / lam + 0.0 * (x + y + a + r + v),
        "g_y": lambda t1, t2, x, y, a, r, v: -mu1 / lam + 0.0 * (x + y + a + r + v),
        "g_a": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "g_r": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "g_v": lambda t1, t2, x, y, a, r, v: b2 / lam + 0.0 * (x + y + a + r + v),
        "l_x": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "l_y": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "l_a": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "l_r": lambda t1, t2, x, y, a, r, v: 0.0 * (x + y + a + r + v),
        "l_v": lambda t1, t2, x, y, a, r, v: (v - kap(t1)) / lam
        + 0.0 * (x + y + a + r),
        "phi_x": lambda x: 1.0 + 0.0 * x,
        "h_x": lambda x: 0.0 * x,
        "gamma_y": lambda y: -1.0 + 0.0 * y,
    }
    return ModelSpec(
        f=lambda t1, t2, x, v: -mu1 * x + b1 * v,
        sigma=lambda t1, t2, x, v: sig(t1) * v + 0.0 * x,
        b=lambda t1, t2, x, v, z: eta(t1, z) * v + 0.0 * x,
        g=lambda t1, t2, x, y, a, r, v: (-mu1 * y + mu2 * x + b2 * v
                                         + 0.0 * (a + r)) / lam,
        phi=lambda x: 1.0 * x,
        l=lambda t1, t2, x, y, a, r, v: 0.5 * (v - kap(t1)) ** 2 / lam
        + 0.0 * (x + y + a + r),
        h=lambda x: 0.0 * x,
        gamma=lambda y: -y,
        control_set=Box(),
        x0=spec.x0,
        M_T=1.0,
        linear={"f", "sigma", "b", "g"},
        adjoint_deterministic=True,
        derivatives=derivs,
        hamiltonian_v=hamiltonian_v,
        name="cash",
    )


def cash_adjoints(spec: CashSpec, bundle: PathBundle) -> AdjointSolution:
    """Both adjoints along one subordinator path, from the explicit forms.

    p steps exactly, multiplying by exp(-mu1 du) per solver step; q comes
    from implicit Euler on dq = (mu1 q + mu2 p) dE ending at q(T) = -p(T).
    The adjoint pair is deterministic given the clock, so the Brownian
    and jump integrands are identically zero.
    """
    if bundle.subordinator.passage_time is None:
        raise ValueError("bundle lacks a passage time; the adjoint horizon "
                         "is undefined")
    K = bundle.solver_steps
    du = bundle.subordinator.grid.step
    p = np.exp(-spec.mu1 * du * np.arange(K + 1))
    q = np.empty(K + 1)
    q[K] = -p[K]
    shrink = 1.0 / (1.0 + du * spec.mu1)
    for i in range(K - 1, -1, -1):
        q[i] = (q[i + 1] - du * spec.mu2 * p[i]) * shrink
    n_quad = spec.jump.quadrature()[0].size
    return AdjointSolution(
        grid=bundle.solver_grid,
        calendar_times=bundle.calendar_times().copy(),
        p=p,
        q=q,
        k=np.zeros(K),
        R=np.zeros((K, n_quad)),
    )


def cash_optimal_control(spec: CashSpec, adjoints) -> StepwiseControl:
    """The rate that zeroes dH/dv along each supplied adjoint path.

    Accepts one AdjointSolution or a sequence; the result's rows follow
    the input order, which must be the ensemble order the bundles were
    sampled in, because stepwise controls look their rows up by ensemble
    position.  Adjoint values enter at the left endpoint of each solver
    step, the same point the margin integrals read, so the first-order
    condition holds to rounding rather than to O(du).
    """
    if isinstance(adjoints, AdjointSolution):
        adjoints = [adjoints]
    adjoints = list(adjoints)
    if not adjoints:
        raise ValueError("no adjoint paths supplied")
    # degenerate zero-step paths carry no grid; the step check only
    # applies between paths that actually have one
    steps = [adj.grid.step for adj in adjoints if adj.grid is not None]
    du = steps[0] if steps else None
    z, wq = spec.jump.quadrature()
    sig, eta, kap = spec.maps()
    n_steps = max(max(adj.p.size - 1 for adj in adjoints), 1)
    rows = np.empty((len(adjoints), n_steps))
    for n, adj in enumerate(adjoints):
        if adj.grid is not None and abs(adj.grid.step - du) > 1e-12 * du:
            raise ValueError("grid mismatch: adjoint paths use different steps")
        K = adj.p.size - 1
        if (adj.q.size != K + 1 or adj.k.size != K
                or adj.R.shape != (K, z.size) or adj.calendar_times.size != K + 1):
            raise ValueError("grid mismatch: adjoint components disagree "
                             "on the step count")
        t = adj.calendar_times[:K]
        slope = (spec.beta1 * adj.q[:K] + sig(t) * adj.k
                 - spec.beta2 * adj.p[:K]
                 + spec.jump.intensity * ((adj.R * eta(t[:, None], z)) @ wq))
        if K > 0:
            rows[n, :K] = kap(t) - slope
            rows[n, K:] = rows[n, K - 1]
        else:
            # degenerate path with no solver steps: park the benchmark rate
            rows[n, :] = float(np.asarray(kap(adj.calendar_times[:1]))[0])
    return StepwiseControl(rows)


def _describe(control) -> str:
    if isinstance(control, ConstantControl):
        return f"constant {control.value:g}"
    if isinstance(control, PerturbedControl):
        return (f"{_describe(control.base)} + {control.rho:g} * "
                f"{_describe(control.direction)}")
    if isinstance(control, StepwiseControl):
        return "stepwise table"
    if isinstance(control, TableControl):
        return "calendar table"
    return type(control).__name__


def _solved_ensemble(model: ModelSpec, control, bundles, chunk: int = 512):
    """Forward and backward components for every bundle, in ensemble order.

    The solves run in K-sorted batches of at most ``chunk`` paths; each
    path's solution is copied out of its batch row to its ensemble
    position, so the result does not depend on ``chunk``.
    """
    control = as_control(control)
    sols = [None] * len(bundles)
    for idx, batch in _sorted_batches(bundles, chunk):
        _, X, Y, v, A, r = _batch_cost(model, control, batch)
        for pth, bnd in enumerate(batch.bundles):
            kk = int(batch.K[pth])
            sols[idx[pth]] = FBSDESolution(
                clock="operational", grid=bnd.solver_grid, calendar_grid=None,
                X=X[pth, : kk + 1].copy(), Y=Y[pth, : kk + 1].copy(),
                A=A[pth, :kk].copy(), r=r[pth, :kk, :].copy(),
                calendar_times=batch.t[pth, : kk + 1].copy(),
                control_values=v[pth, :kk].copy())
    return sols


def certify_optimality(spec: CashSpec, candidates=(), ensemble_size: int = 256,
                       seed: int = 0, *, step: float = 0.01,
                       margin_count: int = 64, margin_paths: int = 1024,
                       expansion_rhos=None,
                       expansion_paths: int = 128) -> OptimalityReport:
    """Monte Carlo certificate that the explicit rate beats the field.

    One common ensemble is drawn; the explicit control and every
    challenger in ``candidates`` are costed on it, so the reported gaps
    J(candidate) - J(u*) carry paired standard errors.  The margin search
    then reruns the directional-derivative check at the computed optimum
    on a leading slice of at most ``margin_paths`` paths.  Passing
    ``expansion_rhos`` also fills the difference-quotient and remainder
    tables (direction: unit rate increase) on ``expansion_paths`` paths.

    The certificate holds when every gap clears -3 standard errors and so
    does the worst margin; that verdict lands in meta["certified"] rather
    than an exception, because a failed certification is a result.
    """
    model = build_cash_model(spec)
    bundles = make_ensemble(spec.subordinator, spec.jump, spec.horizon,
                            step, ensemble_size, seed)
    adjs = [cash_adjoints(spec, b) for b in bundles]
    ustar = cash_optimal_control(spec, adjs)
    base = evaluate_cost(model, ustar, bundles)
    gap_rows = []
    for idx, cand in enumerate(candidates):
        cand = as_control(cand)
        est = evaluate_cost(model, cand, bundles)
        diff = est.per_path - base.per_path
        se = (float(diff.std(ddof=1) / np.sqrt(diff.size))
              if diff.size > 1 else 0.0)
        gap_rows.append(dict(index=idx, label=_describe(cand),
                             gap=float(diff.mean()), se=se,
                             cost=est.mean, cost_se=est.std_error))
    head = min(len(bundles), max(int(margin_paths), 2))
    sols = _solved_ensemble(model, ustar, bundles[:head])
    margins = check_necessary_condition(model, ustar, bundles[:head],
                                        sols, adjs[:head],
                                        count=margin_count, seed=seed)
    conv_rows, rem_rows = [], []
    if expansion_rhos:
        sub = bundles[: min(len(bundles), max(int(expansion_paths), 2))]
        direction = ConstantControl(1.0)
        conv_rows = gateaux_consistency_check(model, ustar, direction,
                                              list(expansion_rhos), sub)
        rem_rows = remainder_convergence_check(model, ustar, direction,
                                               list(expansion_rhos), sub)
    certified = (margins.min_margin >= -3.0 * margins.std_error - 1e-12
                 and all(row["gap"] >= -3.0 * row["se"] for row in gap_rows))
    meta = dict(model="cash", ensemble=int(len(bundles)), seed=int(seed),
                step=float(step), cost=base.mean, cost_se=base.std_error,
                margin_paths=int(head), candidates=len(gap_rows),
                certified=bool(certified))
    return OptimalityReport(
        min_margin=margins.min_margin, margin_se=margins.std_error,
        witness=margins.witness, gap_table=gap_rows,
        convergence_table=conv_rows, remainder_table=rem_rows, meta=meta)
