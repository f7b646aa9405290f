"""Independent reference implementations used to pin library behaviour.

Everything here is coded straight from closed forms with local quadrature;
nothing imports the model-assembly machinery, so agreement with the package
is evidence, not tautology.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import betaln, gammaln, ndtr, ndtri
from scipy.stats import multivariate_normal

# ---------------------------------------------------------------------------
# direct bivariate tail copula densities
# ---------------------------------------------------------------------------

def biv_logistic(x, y, theta: float):
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return np.exp(np.log(theta - 1.0) + (theta - 1.0) * (lx + ly)
                  + (1.0 / theta - 2.0) * np.logaddexp(theta * lx, theta * ly))


def biv_neglogistic(x, y, theta: float):
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return np.exp(np.log(theta + 1.0) - (theta + 1.0) * (lx + ly)
                  + (-1.0 / theta - 2.0) * np.logaddexp(-theta * lx, -theta * ly))


def biv_hr(x, y, gamma: float):
    x, y = np.asarray(x, float), np.asarray(y, float)
    t = np.log(x / y) + gamma / 2.0
    return np.exp(-t * t / (2.0 * gamma)) / (np.sqrt(2.0 * np.pi * gamma) * y)


def biv_dirichlet(x, y, theta: float):
    x, y = np.asarray(x, float), np.asarray(y, float)
    return np.exp(theta * np.log(x) + theta * np.log(y)
                  - (2.0 * theta + 1.0) * np.log(x + y) - betaln(theta + 1.0, theta))


BIV = {"logistic": biv_logistic, "neglogistic": biv_neglogistic,
       "hr": biv_hr, "dirichlet": biv_dirichlet}


# ---------------------------------------------------------------------------
# direct trivariate tail copula densities
# ---------------------------------------------------------------------------

def tri_logistic(x, theta: float) -> float:
    x = np.asarray(x, float)
    return float((theta - 1.0) * (2.0 * theta - 1.0) * np.prod(x ** (theta - 1.0))
                 * np.sum(x**theta) ** (1.0 / theta - 3.0))


def tri_neglogistic(x, theta: float) -> float:
    x = np.asarray(x, float)
    return float((theta + 1.0) * (2.0 * theta + 1.0) * np.prod(x ** (-theta - 1.0))
                 * np.sum(x**-theta) ** (-1.0 / theta - 3.0))


def tri_hr(x, gamma: np.ndarray) -> float:
    """Trivariate Huesler-Reiss tail copula density from a 3x3 variogram."""
    x = np.asarray(x, float)
    g = np.asarray(gamma, float)
    y = 1.0 / x
    cov = np.array([[g[0, 1], (g[0, 1] + g[0, 2] - g[1, 2]) / 2.0],
                    [(g[0, 1] + g[0, 2] - g[1, 2]) / 2.0, g[0, 2]]])
    t = np.array([np.log(y[1] / y[0]) + g[0, 1] / 2.0,
                  np.log(y[2] / y[0]) + g[0, 2] / 2.0])
    lam = y[0] ** -2 * y[1] ** -1 * y[2] ** -1 * multivariate_normal.pdf(t, cov=cov)
    return float(lam * np.prod(x ** -2.0))


def hr_log_density(x, gamma: np.ndarray) -> np.ndarray:
    """log of the d-variate Huesler-Reiss tail copula density, row by row.

    lambda(y) = phi_{d-1}(t; S) / (y_1^2 prod_{j>1} y_j) with t_j = log(y_j / y_1)
    + Gamma_1j / 2 and S_ij = (Gamma_1i + Gamma_1j - Gamma_ij) / 2, taken at
    y = 1/x and multiplied by prod x_j^-2.
    """
    x = np.atleast_2d(np.asarray(x, float))
    g = np.asarray(gamma, float)
    ly = -np.log(x)
    cov = (g[1:, [0]] + g[[0], 1:] - g[1:, 1:]) / 2.0
    t = ly[:, 1:] - ly[:, [0]] + g[0, 1:] / 2.0
    log_lam = multivariate_normal(cov=cov).logpdf(t) - 2.0 * ly[:, 0] - ly[:, 1:].sum(axis=1)
    return log_lam + 2.0 * ly.sum(axis=1)


# ---------------------------------------------------------------------------
# direct bivariate copula densities (u, v on the unit square)
# ---------------------------------------------------------------------------

def gaussian_copula_density(u, v, rho: float):
    a, b = ndtri(np.asarray(u, float)), ndtri(np.asarray(v, float))
    s = 1.0 - rho * rho
    return np.exp(-(rho * rho * (a * a + b * b) - 2.0 * rho * a * b) / (2.0 * s)) / np.sqrt(s)


def clayton_copula_density(u, v, theta: float):
    u, v = np.asarray(u, float), np.asarray(v, float)
    return ((theta + 1.0) * (u * v) ** (-theta - 1.0)
            * (u**-theta + v**-theta - 1.0) ** (-1.0 / theta - 2.0))


def survival_clayton_copula_density(u, v, theta: float):
    return clayton_copula_density(1.0 - np.asarray(u, float), 1.0 - np.asarray(v, float), theta)


def gumbel_copula_h(u: float, v: float, theta: float) -> float:
    """dC(u, v)/dv of C = exp(-((-log u)**theta + (-log v)**theta)**(1/theta))."""
    x, y = -np.log(u), -np.log(v)
    a = (x**theta + y**theta) ** (1.0 / theta)
    return float(np.exp(-a) * a ** (1.0 - theta) * y ** (theta - 1.0) / v)


def invert_gumbel_h(w: float, v: float, theta: float) -> float:
    """Scalar root u of gumbel_copula_h(u, v, theta) = w by Brent's method."""
    return brentq(lambda u: gumbel_copula_h(u, v, theta) - w, 1e-300, 1.0 - 1e-16,
                  xtol=1e-300, rtol=1e-15, maxiter=500)


# ---------------------------------------------------------------------------
# one-pass log densities in the package's floating-point operation order
# ---------------------------------------------------------------------------

def tail_log_density_one_pass(kind: str, theta: float, x, y):
    """log r(x, y) computed in one pass, each operation in the package's order."""
    th = theta
    x, y = np.asarray(x, float), np.asarray(y, float)
    lx, ly = np.log(x), np.log(y)
    if kind == "hr":
        z = lx - ly - th / 2.0
        return -lx - 0.5 * math.log(2.0 * math.pi * th) - z * z / (2.0 * th)
    if kind == "logistic":
        return (math.log(th - 1.0) + (th - 1.0) * (lx + ly)
                + (1.0 / th - 2.0) * np.logaddexp(th * lx, th * ly))
    if kind == "neglogistic":
        return (math.log1p(th) - (th + 1.0) * (lx + ly)
                + (-1.0 / th - 2.0) * np.logaddexp(-th * lx, -th * ly))
    c = math.log(2.0) + gammaln(2.0 * th) - 2.0 * gammaln(th)
    return c + th * (lx + ly) - (2.0 * th + 1.0) * np.log(x + y)


def pair_log_density_one_pass(kind: str, theta: float, u, v):
    """log c(u, v) computed in one pass, each operation in the package's order.

    Every kind but gaussian starts from the log pairs (log u, log1p(-u)) of the
    clipped points; survival kinds swap the two logs instead of taking 1 - u.
    """
    th = theta
    u = np.clip(np.asarray(u, float), 1e-12, 1.0 - 1e-12)
    v = np.clip(np.asarray(v, float), 1e-12, 1.0 - 1e-12)
    if kind == "gaussian":
        x, y = ndtri(u), ndtri(v)
        r2 = th * th
        return (-0.5 * math.log1p(-r2)
                - (r2 * (x * x + y * y) - 2.0 * th * x * y) / (2.0 * (1.0 - r2)))
    lu, lub, lv, lvb = np.log(u), np.log1p(-u), np.log(v), np.log1p(-v)
    if kind.startswith("surv"):
        kind, lu, lub, lv, lvb = kind[4:], lub, lu, lvb, lv
    if kind == "clayton":
        la, lb = -th * lu, -th * lv
        m = np.maximum(la, lb)
        ls = m + np.log(np.exp(la - m) + np.exp(lb - m) - np.exp(-m))
        return math.log1p(th) - (th + 1.0) * (lu + lv) - (2.0 + 1.0 / th) * ls
    if kind == "gumbel":
        lxt, lyt = np.log(-lu), np.log(-lv)
        la = np.logaddexp(th * lxt, th * lyt)
        a_pow = np.exp(la / th)
        return (-a_pow + (th - 1.0) * (lxt + lyt) + (1.0 / th - 2.0) * la
                - lu - lv + np.log(a_pow + th - 1.0))
    if kind == "frank":
        # expm1(-th) + gu gv = e**(-th v) gu - e**(-th) expm1(th (1-u))
        u, ub, v = np.exp(lu), np.exp(lub), np.exp(lv)
        lden = np.logaddexp(-th * v + np.log(np.abs(np.expm1(-th * u))),
                            -th + np.log(np.abs(np.expm1(th * ub))))
        return math.log(-th * math.expm1(-th)) - th * (u + v) - 2.0 * lden
    # joe: log(th - 1 + t) for the last factor, t = a + b - a b
    la, lb = th * lub, th * lvb
    with np.errstate(divide="ignore"):
        l1a = np.where(la > -math.log(2.0), np.log(-np.expm1(la)), np.log1p(-np.exp(la)))
    lt = np.logaddexp(la, lb + l1a)
    last = np.logaddexp(math.log(th - 1.0), lt) if th > 1.0 else lt
    return (th - 1.0) * (lub + lvb) + (1.0 / th - 2.0) * lt + last


# ---------------------------------------------------------------------------
# local quadrature (panelled Gauss-Legendre in log space)
# ---------------------------------------------------------------------------

_MARKS = (1e-30, 1e-20, 1e-12, 1e-7, 1e-3, 0.05, 0.3, 1.0, 3.0, 20.0,
          1e3, 1e7, 1e12, 1e18, 1e24)


def log_panels(scale: float = 1.0, upper: float | None = None,
               n_per: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_0^upper f(x) dx after x = exp(u)."""
    gx, gw = leggauss(n_per)
    breaks = np.log(scale) + np.log(_MARKS)
    if upper is not None:
        breaks = np.append(breaks[breaks < np.log(upper)], np.log(upper))
        if breaks.size == 1:
            breaks = np.array([breaks[0] - 80.0, breaks[0]])
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        x = np.exp(0.5 * (b - a) * gx + 0.5 * (a + b))
        xs.append(x)
        ws.append(0.5 * (b - a) * gw * x)
    return np.concatenate(xs), np.concatenate(ws)


def chi_biv(r_fn, *args) -> float:
    """Pairwise tail dependence: mass of the density over the unit square."""
    gx, gw = log_panels(upper=1.0)
    X, Y = np.meshgrid(gx, gx, indexing="ij")
    vals = r_fn(X.ravel(), Y.ravel(), *args)
    return float(np.dot(vals, np.outer(gw, gw).ravel()))


def cond_cdf_biv(r_fn, x: float, y: float, *args) -> float:
    """P(X <= x | Y = y) for a bivariate tail density with unit margins."""
    gx, gw = log_panels(scale=max(1.0, y), upper=x)
    return float(np.dot(r_fn(gx, np.full_like(gx, y), *args), gw))


def invert_cond_biv(r_fn, u: float, y: float, *args) -> float:
    """x with cond_cdf_biv(x | y) = u, by bracketed root search."""
    lo, hi = 1e-12 * y, 1e12 * y
    f = lambda x: cond_cdf_biv(r_fn, x, y, *args) - u
    while f(lo) > 0.0:
        lo *= 1e-3
    while f(hi) < 0.0:
        hi *= 1e3
    return float(brentq(f, lo, hi, xtol=1e-13, rtol=1e-12))


def extract_cond_copula(tri_fn, r12_fn, r23_fn, u: float, v: float,
                        x2: float, tri_args=(), a12=(), a23=()) -> float:
    """Copula density of (1, 3) given variable 2, from direct trivariate forms."""
    xu = invert_cond_biv(r12_fn, u, x2, *a12)
    xv = invert_cond_biv(r23_fn, v, x2, *a23)
    num = tri_fn((xu, x2, xv), *tri_args)
    return num / (float(r12_fn(xu, x2, *a12)) * float(r23_fn(x2, xv, *a23)))


def margin_mass(density_fn, d: int, fixed: dict[int, float], n_per: int = 24) -> float:
    """Integrate a d-variate density over the axes not pinned by `fixed`.

    `fixed` maps 1-based coordinates to values; the density is called once on
    a tensor mesh of the remaining axes.
    """
    free = [i for i in range(1, d + 1) if i not in fixed]
    scale = max(1.0, *fixed.values())
    gx, gw = log_panels(scale=scale, n_per=n_per)
    mesh = np.meshgrid(*[gx] * len(free), indexing="ij")
    pts = np.empty((mesh[0].size, d))
    for i, val in fixed.items():
        pts[:, i - 1] = val
    for i, m in zip(free, mesh):
        pts[:, i - 1] = m.ravel()
    w = np.ones(mesh[0].size)
    for wm in np.meshgrid(*[gw] * len(free), indexing="ij"):
        w = w * wm.ravel()
    return float(np.dot(np.asarray(density_fn(pts)), w))


# ---------------------------------------------------------------------------
# closed-form dependence summaries
# ---------------------------------------------------------------------------

def chi_hr(gamma: float) -> float:
    return float(2.0 - 2.0 * ndtr(np.sqrt(gamma) / 2.0))


def chi_logistic(theta: float) -> float:
    return float(2.0 - 2.0 ** (1.0 / theta))


def chi_neglogistic(theta: float) -> float:
    return float(2.0 ** (-1.0 / theta))


def tau_clayton(theta: float) -> float:
    return theta / (theta + 2.0)


def tau_gumbel(theta: float) -> float:
    return 1.0 - 1.0 / theta


def tau_gaussian(rho: float) -> float:
    return float(2.0 / np.pi * np.arcsin(rho))


# ---------------------------------------------------------------------------
# reference structure matrices for the five-variable benchmark vine,
# one per choice of the leading diagonal node
# ---------------------------------------------------------------------------

REFERENCE_MATRICES = {
    1: ((1, 1, 2, 2, 4), (0, 2, 1, 3, 2), (0, 0, 3, 1, 3), (0, 0, 0, 4, 1), (0, 0, 0, 0, 5)),
    2: ((2, 2, 2, 2, 4), (0, 1, 1, 3, 2), (0, 0, 3, 1, 3), (0, 0, 0, 4, 1), (0, 0, 0, 0, 5)),
    3: ((3, 3, 2, 2, 4), (0, 2, 3, 3, 2), (0, 0, 1, 1, 3), (0, 0, 0, 4, 1), (0, 0, 0, 0, 5)),
    4: ((4, 4, 4, 2, 2), (0, 5, 5, 4, 3), (0, 0, 2, 5, 4), (0, 0, 0, 3, 5), (0, 0, 0, 0, 1)),
    5: ((5, 5, 4, 2, 2), (0, 4, 5, 4, 3), (0, 0, 2, 5, 4), (0, 0, 0, 3, 5), (0, 0, 0, 0, 1)),
}

#: Sampling orders of the same vine, by starting node.
REFERENCE_ORDERS = {
    1: (1, 2, 3, 4, 5),
    2: (2, 1, 3, 4, 5),
    3: (3, 2, 1, 4, 5),
    4: (4, 5, 2, 3, 1),
    5: (5, 4, 2, 3, 1),
}

#: Edge chains walked by the sampling orders, as (a, b, cond) keys.
REFERENCE_CHAINS = {
    1: ((1, 2, ()), (1, 3, (2,)), (1, 4, (2, 3)), (1, 5, (2, 3, 4))),
    2: ((1, 2, ()), (1, 3, (2,)), (1, 4, (2, 3)), (1, 5, (2, 3, 4))),
    3: ((2, 3, ()), (1, 3, (2,)), (1, 4, (2, 3)), (1, 5, (2, 3, 4))),
    4: ((4, 5, ()), (2, 5, (4,)), (3, 5, (2, 4)), (1, 5, (2, 3, 4))),
    5: ((4, 5, ()), (2, 5, (4,)), (3, 5, (2, 4)), (1, 5, (2, 3, 4))),
}

#: The benchmark vine truncated after two trees, encoded with leading node 1.
TRUNCATED_MATRIX = ((1, 1, 2, 2, 4), (0, 2, 1, 3, 2), (0, 0, 3, 0, 0),
                    (0, 0, 0, 4, 0), (0, 0, 0, 0, 5))
