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


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) = sum_k z^k / Gamma(alpha k + 1), summed term by term in
    mpmath at 50 digits until a term falls below 1e-40 in size.

    E[exp(-s E_t)] = E_alpha(-s t^alpha) for the inverse of a standard
    alpha-stable subordinator (Bingham 1971, Z. Wahrsch. 17).
    """
    import mpmath

    with mpmath.workdps(50):
        z, a = mpmath.mpf(z), mpmath.mpf(alpha)
        total, k = mpmath.mpf(0), 0
        while True:
            term = z**k / mpmath.gamma(a * k + 1)
            total += term
            if k > 0 and abs(term) < mpmath.mpf(10) ** -40:
                return float(total)
            k += 1


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


def stable_cdf(x, alpha: float) -> np.ndarray:
    """P(S <= x) for the standard positive alpha-stable law, E[e^{-xi S}] = e^{-xi^alpha}.

    scipy's levy_stable with beta = 1 in its default S1 parametrisation,
    whose scale for this law is cos(pi alpha / 2)^(1/alpha).  Checked
    against Laplace inversion and, at alpha = 1/2, the Levy closed form.
    """
    from scipy.stats import levy_stable

    scale = math.cos(math.pi * alpha / 2.0) ** (1.0 / alpha)
    return levy_stable.cdf(np.asarray(x, dtype=float), alpha, 1.0, scale=scale)


def stable_cdf_by_laplace_inversion(alpha: float, x: float) -> float:
    """P(S <= x) by inverting its Laplace transform e^{-s^alpha} / s with
    mpmath (Talbot contour); independent of scipy's stable code."""
    import mpmath

    return float(mpmath.invertlaplace(lambda s: mpmath.exp(-s**alpha) / s, x, method="talbot"))


def k_law(alpha: float, horizon: float, du: float, scale: float = 1.0,
          tail: float = 1e-13) -> np.ndarray:
    """P(K = k), k = 0, 1, ..., of the solver-step count K = max{k : D(k du) <= T}.

    D(u) is (scale u)^(1/alpha) S in law, so for k >= 1
        P(K >= k) = P(D(k du) <= T) = F_S(T (scale k du)^(-1/alpha)).
    The support is cut where P(K >= k) falls below ``tail``; the mass
    dropped there is less than ``tail``.
    """
    n = 256
    while True:
        k = np.arange(1, n + 1)
        surv = stable_cdf(horizon * (scale * k * du) ** (-1.0 / alpha), alpha)
        if surv[-1] < tail:
            break
        n *= 2
    surv = np.concatenate([[1.0], surv[: int(np.argmax(surv < tail)) + 1]])
    return surv[:-1] - surv[1:]


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


def adjoint_p_recursion(p0: float, du: float, gy: float, ly: float, k: int):
    """First adjoint p_0..p_k on one path with k solver steps, when it
    carries no Brownian or jump integrand.

    With the lam-integrated cost gradients gy = lam int g_y and
    ly = lam int l_y constant, p solves dp = (gy p - ly) du forward from
    p(0) = p0; its explicit Euler scheme, one scalar step at a time, is

        p_{i+1} = p_i + du (gy p_i - ly).

    test_oracles.py checks a hand-computed case and O(du) convergence to
    the closed form before any module test relies on this.
    """
    p = [float(p0)]
    for _ in range(k):
        p.append(p[-1] + du * (gy * p[-1] - ly))
    return np.array(p)


def adjoint_q_recursion(p, du: float, fx: float, gx: float, lx: float, terminal: float):
    """Second adjoint q_0..q_K on one path, given its first adjoint p_0..p_K,
    when the second adjoint carries no Brownian or jump integrand.

    With the drift slope f_x and the lam-integrated cost gradients
    gx = lam int g_x and lx = lam int l_x constant, q solves
    -dq = (fx q + lx - gx p) du backward from q(U) = terminal; its implicit
    Euler scheme, one scalar step at a time, is

        q_K = terminal,    q_i = (q_{i+1} + du s_i) / (1 - du fx),
        s_i = lx - gx p_i.

    test_oracles.py checks a hand-computed case and O(du) convergence to
    cash_q_candidate before any module test relies on this.
    """
    q = [float(terminal)]
    for p_i in reversed([float(x) for x in p[:-1]]):
        q.append((q[-1] + du * (lx - gx * p_i)) / (1.0 - du * fx))
    return np.array(q[::-1])


def affine_y_recursion(x, du: float, co: dict, P_T: float, c_T: float) -> list:
    """Y_0..Y_K on one path of the implicit backward scheme whose driver is
    affine in (x, y, a, int r), given the path's states x_0..x_K.

    ``co[key][i]`` is the coefficient of step i < K (a number stands for
    every step): the drift and volatility slopes and intercepts fx, f0,
    sx, s0, the mark integrals ibx and ib0 of the jump's slope and
    intercept, and the lam-integrated driver's slopes Gx, Gy, Ga in x, y
    and a, its intercept G0 and its slope gr in int r.  The scheme
    Y_i = E_i[Y_{i+1}] + du (Gx x_i + Gy Y_i + Ga A_i + gr int r_i + G0)
    has the solution Y_i = c_i + P_i x_i: with E_i[x_{i+1}] =
    x_i + du (fx x_i + f0), A_i = P_{i+1} (sx x_i + s0) and
    int r_i = P_{i+1} (ibx x_i + ib0), one scalar step at a time,

        P_K = P_T,  c_K = c_T,  den = 1 - du Gy,
        P_i = (P_{i+1} (1 + du fx) + du (Gx + Ga P_{i+1} sx + gr P_{i+1} ibx)) / den,
        c_i = (c_{i+1} + du (P_{i+1} f0 + G0 + Ga P_{i+1} s0 + gr P_{i+1} ib0)) / den.

    Plain floats throughout; test_oracles.py checks a hand-computed case.
    """
    def at(key, i):
        val = co[key]
        return float(val[i] if hasattr(val, "__getitem__") else val)

    k = len(x) - 1
    P, c = float(P_T), float(c_T)
    Y = [c + P * float(x[k])]
    for i in range(k - 1, -1, -1):
        fx, f0, sx, s0, ibx, ib0, Gx, Gy, Ga, G0, gr = (
            at(key, i) for key in ("fx", "f0", "sx", "s0", "ibx", "ib0",
                                   "Gx", "Gy", "Ga", "G0", "gr"))
        den = 1.0 - du * Gy
        P, c = ((P * (1.0 + du * fx) + du * (Gx + Ga * P * sx + gr * P * ibx)) / den,
                (c + du * (P * f0 + G0 + Ga * P * s0 + gr * P * ib0)) / den)
        Y.append(c + P * float(x[i]))
    return Y[::-1]


def central_difference(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def cash_cost_given_steps(spec, k: int, du: float, rate=None) -> float:
    """Cost on a path with k solver steps of the explicit cash rate, or of
    the constant ``rate`` when one is given.

    With sigma, kappa and eta constant in time the adjoints, the rate and
    the affine pair (P, c) of Y = c + P X depend on the clock only through
    k, and so does the cost.  Built from the paper's explicit solution:
    p = exp(-mu1 u), q by implicit Euler from q_k = -p_k, the rate
    v = kappa - beta1 q + beta2 p (or v = rate), then backward from
    P_k = 1, c_k = 0

        P_i = (P_{i+1} (1 - du mu1) + du mu2) / (1 + du mu1)
        c_i = (c_{i+1} + du (beta1 P_{i+1} + beta2) v_i) / (1 + du mu1)

    and J = sum du (v - kappa)^2 / 2 - (c_0 + P_0 x0).  ``spec`` is read
    for its numbers only (mu1, mu2, beta1, beta2, kappa, x0).
    """
    mu1, mu2, b1, b2 = spec.mu1, spec.mu2, spec.beta1, spec.beta2
    kappa = float(spec.kappa)
    if rate is None:
        p = [math.exp(-mu1 * du * i) for i in range(k + 1)]
        q = [0.0] * (k + 1)
        q[k] = -p[k]
        for i in range(k - 1, -1, -1):
            q[i] = (q[i + 1] - du * mu2 * p[i]) / (1.0 + du * mu1)
        v = [kappa - b1 * q[i] + b2 * p[i] for i in range(k)]
    else:
        v = [float(rate)] * k
    P, c = 1.0, 0.0
    for i in range(k - 1, -1, -1):
        P, c = ((P * (1.0 - du * mu1) + du * mu2) / (1.0 + du * mu1),
                (c + du * (b1 * P + b2) * v[i]) / (1.0 + du * mu1))
    return sum(du * 0.5 * (vi - kappa) ** 2 for vi in v) - (c + P * spec.x0)
