"""Independent oracles used by the test suite.

Everything in this file is derived without calling the code under test:
closed forms, classical special-function identities, matrix exponentials,
and (once) numerical Laplace inversion. test_oracles.py validates the
oracles themselves before any module test relies on them.
"""

import math

import numpy as np


def mittag_leffler_moment(alpha: float, t: float, n: int = 1) -> float:
    """n-th moment of the inverse subordinator at calendar time t.

    E[E_t^n] = n! t**(n alpha) / Gamma(1 + n alpha). The n = 1 case is the
    value cross-checked against numerical Laplace inversion below.
    """
    return math.factorial(n) * t ** (n * alpha) / math.gamma(1.0 + n * alpha)


def mean_inverse_by_laplace_inversion(alpha: float, t: float) -> float:
    """E[E_t] via numerical inversion of its Laplace transform.

    Integrating E[e^{-s D_u}] = e^{-u s^alpha} against the first-passage
    identity gives the transform of t -> E[E_t] as s -> s**-(1+alpha).
    Inverted with mpmath (Talbot contour); independent of the moment series.
    """
    import mpmath

    f = mpmath.invertlaplace(lambda s: s ** -(1 + alpha), t, method="talbot")
    return float(f)


def levy_half_stable_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of the standard positive 1/2-stable law, E[e^{-xi S}] = e^{-sqrt(xi)}.

    That law is Levy(scale 1/2), i.e. S = 1/(2 Z^2) for Z standard normal:
    P(S <= x) = erfc(1 / sqrt(4 x)).
    """
    from scipy.special import erfc

    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = erfc(1.0 / np.sqrt(4.0 * x[pos]))
    return out


def linear_fbsde_ode_oracle(a, c, gy, gx, g0, m_terminal, f_terminal, x0, horizon):
    """Exact (X(U), Y(0)) for the scalar linear pair, conditional on the clock.

        X' = a X + c,          X(0) = x0
        -Y' = gy Y + gx X + g0, Y(U) = m_terminal X(U) + f_terminal

    in operational time on [0, U]. Solved with one matrix exponential of the
    augmented system d/du [X, Y, 1] = M [X, Y, 1], then the terminal condition
    pins Y(0).
    """
    from scipy.linalg import expm

    m = np.array([[a, 0.0, c], [-gx, -gy, -g0], [0.0, 0.0, 0.0]])
    phi = expm(m * horizon)
    # [X_U, Y_U, 1] = phi @ [x0, Y0, 1]; impose Y_U = m_terminal X_U + f_terminal
    x_u = phi[0, 0] * x0 + phi[0, 2]
    # Y_U = phi[1,0] x0 + phi[1,1] Y0 + phi[1,2]
    y0 = (m_terminal * x_u + f_terminal - phi[1, 0] * x0 - phi[1, 2]) / phi[1, 1]
    return float(x_u), float(y0)


def cash_q_candidate(tau, mu1: float, mu2: float, horizon: float):
    """Closed-form candidate for the second cash adjoint in operational time.

    Derived by variation of constants for q' = mu1 q + mu2 exp(-mu1 tau),
    q(U) = -exp(-mu1 U):

        q(tau) = (mu2/(2 mu1) - 1) exp(mu1 (tau - 2 U)) - (mu2/(2 mu1)) exp(-mu1 tau)

    test_oracles.py re-verifies this by substitution before it is trusted.
    """
    tau = np.asarray(tau, dtype=float)
    half = mu2 / (2.0 * mu1)
    out = (half - 1.0) * np.exp(mu1 * (tau - 2.0 * horizon)) - half * np.exp(-mu1 * tau)
    return float(out) if out.ndim == 0 else out


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def cash_cost_given_steps(spec, k: int, du: float) -> float:
    """Cost of the explicit cash rate on a path with k solver steps.

    With sigma, kappa and eta constant in time the adjoints, the rate and
    the affine pair (P, c) of Y = c + P X depend on the clock only through
    k, and so does the cost.  Built from the paper's explicit solution:
    p = exp(-mu1 u), q by implicit Euler from q_k = -p_k, the rate
    v = kappa - beta1 q + beta2 p, then backward from P_k = 1, c_k = 0

        P_i = (P_{i+1} (1 - du mu1) + du mu2) / (1 + du mu1)
        c_i = (c_{i+1} + du (beta1 P_{i+1} + beta2) v_i) / (1 + du mu1)

    and J = sum du (v - kappa)^2 / 2 - (c_0 + P_0 x0).  ``spec`` is read
    for its numbers only (mu1, mu2, beta1, beta2, kappa, x0).
    """
    mu1, mu2, b1, b2 = spec.mu1, spec.mu2, spec.beta1, spec.beta2
    kappa = float(spec.kappa)
    p = [math.exp(-mu1 * du * i) for i in range(k + 1)]
    q = [0.0] * (k + 1)
    q[k] = -p[k]
    for i in range(k - 1, -1, -1):
        q[i] = (q[i + 1] - du * mu2 * p[i]) / (1.0 + du * mu1)
    v = [kappa - b1 * q[i] + b2 * p[i] for i in range(k)]
    P, c = 1.0, 0.0
    for i in range(k - 1, -1, -1):
        P, c = ((P * (1.0 - du * mu1) + du * mu2) / (1.0 + du * mu1),
                (c + du * (b1 * P + b2) * v[i]) / (1.0 + du * mu1))
    return sum(du * 0.5 * (vi - kappa) ** 2 for vi in v) - (c + P * spec.x0)
