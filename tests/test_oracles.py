"""The oracles get checked before anything trusts them."""

import math
import types

import numpy as np
from scipy.integrate import quad

from oracles import (
    cash_cost_given_steps,
    cash_q_candidate,
    central_difference,
    levy_half_stable_cdf,
    linear_fbsde_ode_oracle,
    mean_inverse_by_laplace_inversion,
    mittag_leffler_moment,
)


def test_moment_series_agrees_with_laplace_inversion():
    # the moment formula is external knowledge; verify it once by an
    # independent numerical route before using it as an oracle anywhere
    for alpha in (0.5, 0.7):
        series = mittag_leffler_moment(alpha, 1.0)
        inverted = mean_inverse_by_laplace_inversion(alpha, 1.0)
        assert abs(series - inverted) < 1e-8


def test_moment_formula_known_values():
    assert abs(mittag_leffler_moment(0.5, 1.0) - 1.1283791670955126) < 1e-14
    assert abs(mittag_leffler_moment(0.7, 1.0) - 1.1005474055236655) < 1e-14
    # t-scaling: E[E_t] = t^alpha E[E_1]
    assert np.isclose(mittag_leffler_moment(0.3, 2.0),
                      2.0 ** 0.3 * mittag_leffler_moment(0.3, 1.0))


def test_levy_half_cdf_matches_normal_representation():
    # S = 1/(2 Z^2) should have the stated CDF
    rng = np.random.default_rng(11)
    z = rng.standard_normal(200_000)
    s = 1.0 / (2.0 * z * z)
    for x in (0.2, 0.5, 1.0, 3.0, 10.0):
        emp = np.mean(s <= x)
        assert abs(emp - levy_half_stable_cdf(np.array([x]))[0]) < 4e-3


def test_linear_ode_oracle_degenerate_cases():
    # no dynamics: Y0 = m x0 + f
    x_u, y0 = linear_fbsde_ode_oracle(0, 0, 0, 0, 0, 2.0, 0.5, 1.5, 1.0)
    assert np.isclose(x_u, 1.5) and np.isclose(y0, 3.5)
    # pure forward decay
    x_u, _ = linear_fbsde_ode_oracle(-1.0, 0, 0, 0, 0, 1.0, 0.0, 1.0, 2.0)
    assert np.isclose(x_u, math.exp(-2.0))
    # constant driver, no coupling: Y(0) = Y(U) + g0 * U
    _, y0 = linear_fbsde_ode_oracle(0, 0, 0, 0, 0.7, 0.0, 0.25, 0.0, 3.0)
    assert np.isclose(y0, 0.25 + 0.7 * 3.0)


def test_cash_q_candidate_satisfies_its_equation():
    # substitution check: q' = mu1 q + mu2 p with p = exp(-mu1 tau), q(U) = -p(U)
    mu1, mu2, horizon = 1.0, 0.5, 1.3
    p = lambda tau: np.exp(-mu1 * tau)
    q = lambda tau: cash_q_candidate(tau, mu1, mu2, horizon)
    for tau in np.linspace(0.05, horizon - 0.05, 9):
        lhs = central_difference(q, tau, 1e-6)
        rhs = mu1 * q(tau) + mu2 * p(tau)
        assert abs(lhs - rhs) < 1e-8
    assert abs(q(horizon) + p(horizon)) < 1e-14
    # collapse case mu2 = 2 mu1: q = -exp(-mu1 tau)
    q2 = cash_q_candidate(np.array([0.0, 0.4, 1.3]), 1.0, 2.0, horizon)
    assert np.allclose(q2, -np.exp(-np.array([0.0, 0.4, 1.3])))


def _continuous_cash_cost(s, horizon):
    """The cash cost on a clock with E_T = horizon, in continuous time.

    p = exp(-mu1 u) and q is the candidate checked above; the pair of
    Y = c + P X solves P' = 2 mu1 P - mu2, P(U) = 1, in closed form and
    c' = mu1 c - (beta1 P + beta2) v, c(U) = 0, by quadrature.
    """
    half = s.mu2 / (2.0 * s.mu1)

    def v(u):
        q = cash_q_candidate(u, s.mu1, s.mu2, horizon)
        return s.kappa - s.beta1 * q + s.beta2 * math.exp(-s.mu1 * u)

    def P(u):
        return half + (1.0 - half) * math.exp(2.0 * s.mu1 * (u - horizon))

    tol = dict(epsabs=1e-13, epsrel=1e-13)
    c0 = quad(lambda u: math.exp(-s.mu1 * u) * (s.beta1 * P(u) + s.beta2) * v(u),
              0.0, horizon, **tol)[0]
    run = quad(lambda u: 0.5 * (v(u) - s.kappa) ** 2, 0.0, horizon, **tol)[0]
    return run - (c0 + P(0.0) * s.x0)


def test_cash_cost_given_steps_converges_to_continuous_cost():
    # the discrete cost of k steps of du = U / k approaches the
    # continuous-time cost at first order in du, for two parameter sets
    horizon = 1.3
    for s in (types.SimpleNamespace(mu1=1.0, mu2=0.5, beta1=1.0, beta2=0.5, kappa=1.0, x0=1.0),
              types.SimpleNamespace(mu1=2.0, mu2=0.3, beta1=0.7, beta2=1.5, kappa=0.4,
                                    x0=-0.5)):
        exact = _continuous_cash_cost(s, horizon)
        errs = [abs(cash_cost_given_steps(s, k, horizon / k) - exact) for k in (130, 260, 520)]
        assert errs[0] < 5e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.9 < coarse / fine < 2.1
        # no solver steps: no running cost and Y_0 = X_0
        assert cash_cost_given_steps(s, 0, 0.01) == -s.x0
