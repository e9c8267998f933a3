"""Variational phase posterior q(theta) and circular moments.

The E-step for the phase reduces to a Gaussian chain with tridiagonal prior
precision, observed through per-sensor pseudo-measurements arg(eta_n) with
precision 2|eta_n|/sigma^2. The posterior mean and marginal variances come
out of a standard Kalman filter plus RTS smoother over the AR(1) state.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class PseudoObservations:
    values: np.ndarray      # arg(eta_n) in (-pi, pi]
    precisions: np.ndarray  # 2|eta_n|/sigma^2, zero marks a missing sensor


@dataclass
class PhasePosterior:
    means: np.ndarray
    marginal_variances: np.ndarray
    circular_moments: np.ndarray  # <exp(j*theta_n)>


def compute_eta(y, fitted):
    """eta_n = y_n * conj(u_n) for the fitted signal u = D <z>; its argument
    and 2|eta|/sigma^2 act as the pseudo-observation and precision for the
    phase chain."""
    return y * np.conj(fitted)


def pseudo_observations(eta, noise_var):
    # arg(0) = 0 by numpy convention; harmless since the precision is 0 there
    return PseudoObservations(values=np.angle(eta),
                              precisions=2 * np.abs(eta) / noise_var)


def smooth(pseudo, model):
    """Posterior means and marginal variances of the phase chain.

    Information form: precision = the chain's tridiagonal prior precision
    + diag(pseudo.precisions), information vector = pseudo.precisions *
    pseudo.values. Realized as a forward Kalman filter over theta_n =
    a*theta_{n-1} + w_n followed by an RTS backward pass; a zero
    pseudo-precision contributes no update.

    The recursions run on Python floats (per-element numpy indexing costs
    more than the arithmetic); IEEE double arithmetic in the same order
    gives the same bits as the array form. A ValueError naming the chain's
    parameters reports a posterior variance outside (0, inf).
    """
    v = np.asarray(pseudo.values, dtype=float)
    lam = np.asarray(pseudo.precisions, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("pseudo-observation values must be finite")
    n = v.shape[0]
    if n == 0:
        return _with_moments(v, lam)
    a = float(model.a)
    aa = a * a
    st = float(model.sigma_theta_sq)

    mf = []  # filtered means, smoothed in place by the backward pass
    pf = []  # filtered variances, likewise
    m_pred, p_pred = 0.0, float(model.sigma_1_sq)  # prior of node 0
    for vt, lt in zip(v.tolist(), lam.tolist()):
        # gain written as p*lam/(p*lam + 1) so lam = 0 reduces to no update
        g = p_pred * lt / (p_pred * lt + 1.0)
        m_filt = m_pred + g * (vt - m_pred)
        p_filt = (1.0 - g) * p_pred
        mf.append(m_filt)
        pf.append(p_filt)
        m_pred = a * m_filt
        p_pred = aa * p_filt + st

    # backward pass; the prediction of node t+1 is recomputed from the
    # filtered node t with the forward pass's operations, so same bits
    m_s, p_s = m_filt, p_filt  # smoothed node t+1
    for t in range(n - 2, -1, -1):
        m_filt, p_filt = mf[t], pf[t]
        p_pred = aa * p_filt + st
        c = p_filt * a / p_pred
        m_s = m_filt + c * (m_s - a * m_filt)
        p_s = p_filt + c * c * (p_s - p_pred)
        mf[t], pf[t] = m_s, p_s
    try:
        return _with_moments(np.array(mf), np.array(pf))
    except ValueError as exc:
        # a*a or a variance past the float range (inf, then nan), or a gain
        # that rounds to 1 (a zero variance)
        raise ValueError(
            "phase chain out of floating-point range: a=%g, "
            "sigma_theta_sq=%g, sigma_1_sq=%g (%s)"
            % (a, st, model.sigma_1_sq, exc)) from exc


def noninformative_posterior(pseudo):
    """Phase posterior when the chain prior is dropped (flat phase prior):
    each sensor stands alone, m_n = arg(eta_n), Sigma_n = 1/precision_n.
    The circular moment needs only the precision, so eta_n = 0 cleanly
    yields a zero moment."""
    lam = np.asarray(pseudo.precisions, dtype=float)
    with np.errstate(divide="ignore"):
        variances = 1.0 / lam  # inf where the pseudo-precision vanishes
    # kept in precision form: circular_moment(values, variances) would take
    # 1/(1/lam), which differs from lam in the last bit for over 10% of doubles
    moments = bessel_ratio(lam) * np.exp(1j * pseudo.values)
    return PhasePosterior(means=np.asarray(pseudo.values, dtype=float),
                          marginal_variances=variances,
                          circular_moments=moments)


def _with_moments(means, variances):
    return PhasePosterior(means=means, marginal_variances=variances,
                          circular_moments=circular_moment(means, variances))


def _ratio_over_u(u):
    """g(u) = A(x)/u, A = I_1/I_0, at x = 8u/(1 - u) for u in [0, 1], to a
    few units in the last place, with numpy alone.

    Below x = 40 it runs the continued fraction A = x/(2 + x^2/(4 + x^2/(6
    + ...))) (Amos, Math. Comp. 1974) backward from depth 50, whose
    truncation error at x = 40 is 6e-26; each step adds positive terms, so
    rounding errors do not grow. From x = 40 up it divides the asymptotic
    series of I_1 and I_0 in w = 1/x (Abramowitz & Stegun 9.7.1); their
    20th terms are below 1e-21 there.
    """
    g = np.empty_like(u)
    low = u < 40.0 / 48.0
    ul = u[low]
    x = 8.0 * ul / (1.0 - ul)
    xx = x * x
    depth = 50
    d = np.full_like(x, 2.0 * depth)
    for j in range(depth - 1, 0, -1):
        d = 2.0 * j + xx / d
    g[low] = 8.0 / ((1.0 - ul) * d)  # x/(u d), also at u = 0
    uh = u[~low]
    w = (1.0 - uh) / (8.0 * uh)
    s0, s1, t0, t1 = (np.ones_like(w) for _ in range(4))
    for k in range(1, 21):
        t0 = t0 * ((2 * k - 1) ** 2 * w / (8 * k))
        t1 = t1 * (((2 * k - 1) ** 2 - 4) * w / (8 * k))
        s0 += t0
        s1 += t1
    g[~low] = s1 / (s0 * uh)
    return g


def _ratio_table(cells=256, degree=6):
    """Coefficient table of bessel_ratio: column i holds the monomial
    coefficients, in t = cells*u - i in [0, 1), of the polynomial that
    interpolates g = _ratio_over_u on cell i at its Chebyshev points (the
    extrema, so neighbouring cells agree at their shared edge). An extra
    column holds g(1) = 1 for the x whose u rounds to 1."""
    t = (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree)) / 2.0
    u = (np.arange(cells)[:, None] + t) / cells
    # Newton divided differences, then expanded into monomials; elementwise
    # only, so the table does not depend on the BLAS build or thread count
    dd = _ratio_over_u(u.ravel()).reshape(cells, degree + 1).T.copy()
    for level in range(1, degree + 1):
        dd[level:] = ((dd[level:] - dd[level - 1:-1])
                      / (t[level:] - t[:-level])[:, None])
    coef = np.zeros_like(dd)
    coef[0] = dd[degree]
    for k in range(degree - 1, -1, -1):
        coef[1:] = coef[:-1] - t[k] * coef[1:]
        coef[0] = dd[k] - t[k] * coef[0]
    return np.hstack([coef, np.eye(degree + 1, 1)])


_RATIO_TABLE = _ratio_table()


def bessel_ratio(x):
    """I_1(x)/I_0(x) for x >= 0, to about 1e-15 relative for every finite x.

    u = x/(x + 8) in [0, 1) picks one of the 256 cells of _RATIO_TABLE,
    whose degree-6 polynomial in the local variable gives A(x)/u.
    Multiplying by u keeps the relative accuracy near 0 and gives A(0) = 0
    exactly; u rounds to 1 only where A(x) rounds to 1.
    """
    x = np.asarray(x, dtype=float)
    # one test for NaN, inf and x < 0: min and max return a NaN they meet,
    # which fails either comparison
    if x.size and not (x.min() >= 0 and x.max() < np.inf):
        raise ValueError("bessel_ratio requires finite x >= 0")
    cells = _RATIO_TABLE.shape[1] - 1
    u = x / (x + 8.0)
    t = u * cells
    i = t.astype(np.intp)
    t -= i
    coef = _RATIO_TABLE.take(i, axis=1)
    out = coef[-1] * t
    for c in coef[-2:0:-1]:
        out += c
        out *= t
    out += coef[0]
    out *= u
    return out if out.ndim else float(out)


def circular_moment(mean, variance):
    """<exp(j*theta)> under the Von Mises matched to N(mean, variance):
    (I_1/I_0)(1/variance) * exp(j*mean)."""
    variance = np.asarray(variance, dtype=float)
    if not np.all(variance > 0):  # also rejects NaN
        raise ValueError("variance must be positive")
    out = bessel_ratio(1.0 / variance) * np.exp(1j * np.asarray(mean, dtype=float))
    return out if out.ndim else complex(out)
