"""The oracles get checked before anything trusts them."""

import ast
import inspect
import math
import types
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import oracles
from oracles import (
    adjoint_p_recursion,
    adjoint_q_recursion,
    affine_y_recursion,
    cash_cost_given_steps,
    cash_q_candidate,
    central_difference,
    k_law,
    levy_half_stable_cdf,
    linear_fbsde_ode_oracle,
    mean_inverse_by_laplace_inversion,
    mittag_leffler,
    mittag_leffler_moment,
    stable_cdf,
    stable_cdf_by_laplace_inversion,
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


def test_mittag_leffler_series_known_values():
    # E_1(z) = exp(z) and E_{1/2}(-x) = exp(x^2) erfc(x)
    from scipy.special import erfc

    for z in (-2.0, -1.0, 0.0, 0.5):
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) < 1e-15
    for x in (0.3, 1.0, 2.0):
        assert abs(mittag_leffler(0.5, -x) - math.exp(x * x) * erfc(x)) < 1e-14


def test_levy_half_cdf_matches_normal_representation():
    # S = 1/(2 Z^2) should have the stated CDF
    rng = np.random.default_rng(11)
    z = rng.standard_normal(200_000)
    s = 1.0 / (2.0 * z * z)
    for x in (0.2, 0.5, 1.0, 3.0, 10.0):
        emp = np.mean(s <= x)
        assert abs(emp - levy_half_stable_cdf(np.array([x]))[0]) < 4e-3


def test_k_law_matches_the_inverted_stable_cdf():
    """P(K >= k) read off the law of K equals F_S(T (k du)^(-1/alpha)) with
    F_S from Laplace inversion at alpha = 0.7 and from the Levy closed form
    at alpha = 1/2."""
    horizon, du = 1.0, 0.01
    for alpha, cdf in ((0.7, lambda x: stable_cdf_by_laplace_inversion(0.7, x)),
                       (0.5, lambda x: levy_half_stable_cdf(np.array([x]))[0])):
        surv = 1.0 - np.concatenate([[0.0], np.cumsum(k_law(alpha, horizon, du))])
        for k in (1, 20, 80, 150, 300):
            want = cdf(horizon * (k * du) ** (-1.0 / alpha))
            assert abs(surv[k] - want) < 1e-12, (alpha, k)
    x = np.array([0.05, 0.3, 1.0, 4.0, 50.0])
    assert np.max(np.abs(stable_cdf(x, 0.5) - levy_half_stable_cdf(x))) < 1e-12


def test_k_law_is_a_law_with_the_inverse_mean():
    """The law of K sums to 1, and K du <= E_T < (K + 1) du puts its mean
    within one step below E[E_T] / du (the Mittag-Leffler moment)."""
    horizon, du = 1.0, 0.01
    for alpha in (0.3, 0.5, 0.7, 0.9):
        pmf = k_law(alpha, horizon, du)
        assert np.all(pmf >= 0.0) and abs(pmf.sum() - 1.0) < 1e-12
        mean = float(np.arange(pmf.size) @ pmf)
        m = mittag_leffler_moment(alpha, horizon) / du
        assert m - 1.0 <= mean < m, alpha
    # scale enters through scale * du only
    assert np.array_equal(k_law(0.7, horizon, du, scale=0.5), k_law(0.7, horizon, 0.5 * du))


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


def test_adjoint_p_recursion_two_steps_by_hand():
    # du = 1/2, gy = -1, ly = 1, p_0 = 1: p_1 = 1 + (-1 - 1) / 2 = 0,
    # p_2 = 0 + (0 - 1) / 2 = -1/2
    p = adjoint_p_recursion(1.0, 0.5, -1.0, 1.0, 2)
    assert np.array_equal(p, [1.0, 0.0, -0.5])
    # no solver steps: p is its initial value alone
    assert np.array_equal(adjoint_p_recursion(0.7, 0.01, -1.0, 1.0, 0), [0.7])


def test_adjoint_p_recursion_converges_to_the_closed_form():
    # dp = (gy p - ly) du from p0 has p = ly / gy + (p0 - ly / gy) exp(gy u);
    # the scheme approaches it at first order in du
    horizon, p0 = 1.3, 1.0
    for gy, ly in ((-1.0, 0.0), (-2.0, 0.3)):
        errs = []
        for k in (130, 260, 520):
            du = horizon / k
            tau = du * np.arange(k + 1)
            exact = ly / gy + (p0 - ly / gy) * np.exp(gy * tau)
            errs.append(np.max(np.abs(adjoint_p_recursion(p0, du, gy, ly, k) - exact)))
        # the leading error term, du gy^2 (p0 - ly / gy) max(u exp(gy u)) / 2,
        # is 4.2e-3 at gy = -2 and k = 130
        assert errs[0] < 5e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.9 < coarse / fine < 2.1


def test_adjoint_q_recursion_two_steps_by_hand():
    # du = 1/2, fx = -1, gx = 2, lx = 1, p = (1, 1/2, 1/4), q_2 = -1/4:
    # s = (1 - 2, 1 - 1) = (-1, 0), q_1 = (-1/4 + 0) / (3/2) = -1/6,
    # q_0 = (-1/6 - 1/2) / (3/2) = -4/9
    q = adjoint_q_recursion([1.0, 0.5, 0.25], 0.5, -1.0, 2.0, 1.0, -0.25)
    assert np.max(np.abs(q - [-4.0 / 9.0, -1.0 / 6.0, -0.25])) < 1e-15
    # no solver steps: q is its terminal value alone
    assert np.array_equal(adjoint_q_recursion([0.7], 0.01, -1.0, 2.0, 1.0, -0.7), [-0.7])


def test_affine_y_recursion_two_steps_by_hand():
    # du = 1/2, x = (1, -1, 2), P_T = 1, c_T = 0, every slope and intercept
    # nonzero: fx = 2, f0 = 1, sx = 2, s0 = 1, ibx = 2, ib0 = 1, Gx = 1,
    # Gy = -2 (den = 2), Ga = 1, G0 = 2, gr = 1.
    # P_1 = (1 * 2 + (1 + 2 + 2) / 2) / 2 = 9/4,  c_1 = (0 + (1 + 2 + 1 + 1) / 2) / 2 = 5/4,
    # P_0 = (9/4 * 2 + (1 + 9/2 + 9/2) / 2) / 2 = 19/4,
    # c_0 = (5/4 + (9/4 + 2 + 9/4 + 9/4) / 2) / 2 = 45/16,
    # Y = (45/16 + 19/4, 5/4 - 9/4, 2) = (121/16, -1, 2)
    co = dict(fx=2.0, f0=1.0, sx=2.0, s0=1.0, ibx=2.0, ib0=1.0, Gx=1.0, Gy=-2.0, Ga=1.0,
              G0=2.0, gr=1.0)
    assert affine_y_recursion([1.0, -1.0, 2.0], 0.5, co, 1.0, 0.0) == [121.0 / 16.0, -1.0, 2.0]
    # per-step coefficients: G0 = (2, 4) gives c_1 = 7/4, c_0 = 49/16,
    # Y = (49/16 + 19/4, 7/4 - 9/4, 2) = (125/16, -1/2, 2)
    co["G0"] = [2.0, 4.0]
    assert affine_y_recursion([1.0, -1.0, 2.0], 0.5, co, 1.0, 0.0) == [125.0 / 16.0, -0.5, 2.0]
    # no solver steps: Y is its terminal value alone
    assert affine_y_recursion([3.0], 0.01, co, 2.0, 0.5) == [6.5]


def test_adjoint_q_recursion_converges_to_cash_q_candidate():
    # on the cash system (fx = -mu1, gx = mu2, lx = 0, p = exp(-mu1 u),
    # q_K = -p_K) the scheme approaches the closed form at first order in du
    horizon = 1.3
    for mu1, mu2 in ((1.0, 0.5), (2.0, 0.3)):
        errs = []
        for k in (130, 260, 520):
            du = horizon / k
            tau = du * np.arange(k + 1)
            p = np.exp(-mu1 * tau)
            q = adjoint_q_recursion(p, du, -mu1, mu2, 0.0, -p[-1])
            errs.append(np.max(np.abs(q - cash_q_candidate(tau, mu1, mu2, horizon))))
        assert errs[0] < 2e-3
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.9 < coarse / fine < 2.1


def _package_imports(source):
    """The modules of the package under test that ``source`` imports,
    at any depth of its syntax tree."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
    return [name for name in found if name.split(".")[0] == "tcfbsde"]


def test_oracles_import_nothing_from_the_package_under_test():
    # the walker sees top-level and nested imports in both forms
    probe = "import numpy, tcfbsde.fbsde\ndef f():\n    from tcfbsde import smp\n"
    assert _package_imports(probe) == ["tcfbsde.fbsde", "tcfbsde"]
    assert _package_imports(Path(oracles.__file__).read_text()) == []
    # the scalar recursions the solvers are checked against are functions
    # of that file whose bodies import nothing at all
    for fn in (adjoint_p_recursion, adjoint_q_recursion, affine_y_recursion):
        assert fn.__module__ == oracles.__name__, fn.__name__
        tree = ast.parse(inspect.getsource(fn))
        assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                       or (isinstance(node, ast.Name) and node.id in ("__import__", "importlib"))
                       for node in ast.walk(tree)), fn.__name__


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
