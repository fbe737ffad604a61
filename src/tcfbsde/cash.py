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
    ModelSpec,
    PathBundle,
    PerturbedControl,
    StepwiseControl,
    TableControl,
    _hold,
    _solved_ensemble,
    as_control,
    as_ensemble,
    evaluate_cost,
    make_ensemble,
)
from .noise import LevyJumpSpec
from .smp import (
    AdjointSolution,
    EnsembleAdjoint,
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
    return lambda t: const


def _eta_map(value):
    """Jump loading: a callable (t, z), or a number meaning value * z."""
    if callable(value):
        return value
    slope = float(value)
    return lambda t, z: slope * np.asarray(z, dtype=float)


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
        z, _ = jspec.quadrature()
        jump_part = jspec.intensity * jspec.integrate(
            R * eta(t1[..., None], z), np.broadcast_shapes(t1.shape, R.shape[:-1]))
        return (b1 * np.asarray(q, dtype=float)
                + sig(t1) * np.asarray(k, dtype=float)
                - b2 * np.asarray(p, dtype=float)
                + jump_part
                + (np.asarray(v, dtype=float) - kap(t1)))

    derivs = {
        "f_x": lambda t1, t2, x, v: -mu1,
        "f_v": lambda t1, t2, x, v: b1,
        "sigma_x": lambda t1, t2, x, v: 0.0,
        "sigma_v": lambda t1, t2, x, v: sig(t1),
        "b_x": lambda t1, t2, x, v, z: 0.0,
        "b_v": lambda t1, t2, x, v, z: eta(t1, z),
        "g_x": lambda t1, t2, x, y, a, r, v: mu2 / lam,
        "g_y": lambda t1, t2, x, y, a, r, v: -mu1 / lam,
        "g_a": lambda t1, t2, x, y, a, r, v: 0.0,
        "g_r": lambda t1, t2, x, y, a, r, v: 0.0,
        "g_v": lambda t1, t2, x, y, a, r, v: b2 / lam,
        "l_x": lambda t1, t2, x, y, a, r, v: 0.0,
        "l_y": lambda t1, t2, x, y, a, r, v: 0.0,
        "l_a": lambda t1, t2, x, y, a, r, v: 0.0,
        "l_r": lambda t1, t2, x, y, a, r, v: 0.0,
        "l_v": lambda t1, t2, x, y, a, r, v: (v - kap(t1)) / lam,
        "phi_x": lambda x: 1.0,
        "h_x": lambda x: 0.0,
        "gamma_y": lambda y: -1.0,
    }
    return ModelSpec(
        f=lambda t1, t2, x, v: -mu1 * x + b1 * v,
        sigma=lambda t1, t2, x, v: sig(t1) * v,
        b=lambda t1, t2, x, v, z: eta(t1, z) * v,
        g=lambda t1, t2, x, y, a, r, v: (-mu1 * y + mu2 * x + b2 * v) / lam,
        phi=lambda x: 1.0 * x,
        l=lambda t1, t2, x, y, a, r, v: 0.5 * (v - kap(t1)) ** 2 / lam,
        h=lambda x: 0.0,
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


def cash_adjoints(spec: CashSpec, bundles):
    """Both adjoints along each subordinator path, from the explicit forms.

    p steps exactly, multiplying by exp(-mu1 du) per solver step; q comes
    from implicit Euler on dq = (mu1 q + mu2 p) dE ending at q(T) = -p(T).
    The adjoint pair is deterministic given the clock, so the Brownian
    and jump integrands are identically zero.  One bundle gives its
    AdjointSolution; an ensemble gives an EnsembleAdjoint in ensemble
    order.
    """
    single = isinstance(bundles, PathBundle)
    ens = as_ensemble([bundles] if single else bundles)
    K, du = ens.K, ens.du
    N, Kmax = K.size, int(K.max())
    p = np.exp(-spec.mu1 * du * np.minimum(np.arange(Kmax + 1), K[:, None]))
    q = np.empty((N, Kmax + 1))
    q[:, Kmax] = -p[:, Kmax]
    shrink = 1.0 / (1.0 + du * spec.mu1)
    for i in range(Kmax - 1, -1, -1):
        q[:, i] = np.where(i < K, (q[:, i + 1] - du * spec.mu2 * p[:, i]) * shrink,
                           q[:, i + 1])
    adj = EnsembleAdjoint(K=K, du=du, t=ens.padded(ens.times, np.arange(N)), p=p, q=q,
                          k=np.zeros((N, Kmax)), R=np.zeros((N, Kmax, spec.jump.n_quad)))
    return adj[0] if single else adj


def cash_optimal_control(spec: CashSpec, adjoints) -> StepwiseControl:
    """The rate that zeroes dH/dv along each supplied adjoint path.

    Accepts one AdjointSolution or an EnsembleAdjoint; the result's rows
    follow the ensemble order, which stepwise controls look their rows up
    by.  Adjoint values enter at the left endpoint of each solver step,
    the same point the margin integrals read, so the first-order
    condition holds to rounding rather than to O(du).  Past a path's
    horizon its row holds its last rate; a path with no solver steps
    parks at the benchmark rate.
    """
    if isinstance(adjoints, AdjointSolution):
        adj = adjoints
        K = adj.p.size - 1
        if (adj.q.size != K + 1 or adj.k.size != K
                or adj.R.shape != (K, spec.jump.n_quad) or adj.calendar_times.size != K + 1):
            raise ValueError("grid mismatch: adjoint components disagree "
                             "on the step count")
        adjoints = EnsembleAdjoint(K=np.array([K]), du=None, t=adj.calendar_times[None],
                                   p=adj.p[None], q=adj.q[None], k=adj.k[None], R=adj.R[None])
    z, _ = spec.jump.quadrature()
    sig, eta, kap = spec.maps()
    t = adjoints.t[:, :-1]
    slope = (spec.beta1 * adjoints.q[:, :-1] + sig(t) * adjoints.k
             - spec.beta2 * adjoints.p[:, :-1]
             + spec.jump.intensity * spec.jump.integrate(
                 adjoints.R * eta(t[..., None], z), t.shape))
    return StepwiseControl(_hold(kap(t) - slope, adjoints.K, kap(adjoints.t[:, 0]),
                                 max(t.shape[1], 1)))


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
    adjs = cash_adjoints(spec, bundles)
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
    lead = bundles[:head]
    margins = check_necessary_condition(model, ustar, lead,
                                        _solved_ensemble(model, ustar, lead),
                                        cash_adjoints(spec, lead), count=margin_count,
                                        seed=seed)
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
