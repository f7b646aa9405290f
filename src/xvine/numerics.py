"""Numerical kernels: special functions, scalar optimization, monotone inversion,
quadrature, and reproducible random streams.

Everything here is a thin, contract-checked layer over numpy/scipy. The rest of
the package never imports scipy directly, so tolerances and truncation
conventions live in one place. The scalar search is Brent's bounded method
written out on Python floats, and scipy.integrate is imported on first use, so
`import xvine` and a fit load only scipy.special.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import BracketFailure, DomainError, NoConvergence

#: Upper limit substituted for an infinite quadrature endpoint. Integrands in
#: this package decay at least like x**-2, so the discarded tail mass is below
#: 1/IMPROPER_LIMIT and well under the tolerances in use.
IMPROPER_LIMIT = 1.0e6

_LN2 = math.log(2.0)

#: Parameter transforms available to ScalarProblem: optimization runs on the
#: transformed (unconstrained or better-scaled) axis.
_TRANSFORMS: dict[str, tuple[Callable, Callable]] = {
    "identity": (lambda x: x, lambda t: t),
    "log": (np.log, np.exp),
    "logm1": (lambda x: np.log(x - 1.0), lambda t: np.exp(t) + 1.0),
    "atanh": (np.arctanh, np.tanh),
}


def std_normal_cdf(x):
    """Standard normal CDF, vectorized."""
    return special.ndtr(np.asarray(x, dtype=float))


def std_normal_quantile(u):
    """Standard normal quantile; DomainError outside [0, 1]."""
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):  # NaN fails it too
        raise DomainError("normal quantile needs u in [0, 1]")
    return special.ndtri(u)


def log1mexp(x):
    """log(1 - exp(x)) for x <= 0, accurate at both ends (Maechler 2012)."""
    x = np.asarray(x, dtype=float)
    near, far = np.empty_like(x), np.empty_like(x)
    with np.errstate(divide="ignore"):
        np.log(np.negative(np.expm1(x, out=near), out=near), out=near)
        np.log1p(np.negative(np.exp(x, out=far), out=far), out=far)
    return np.where(x > -_LN2, near, far)


def softplus(x):
    """log(1 + exp(x)) without overflow: np.logaddexp(0, x) at about half the cost."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def reg_beta_cdf(x, a: float, b: float):
    """Regularized incomplete beta I_x(a, b), vectorized in x."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
    return special.betainc(a, b, np.asarray(x, dtype=float))


def reg_beta_log_cdf_sf(x, y, a: float, b: float):
    """log I_w(a, b) and log(1 - I_w(a, b)) at w = x / (x + y), for positive x, y.

    Each row calls betainc once, at the smaller of w and 1 - w, through
    1 - I_w(a, b) = I_{1-w}(b, a). With a >= b, I_w(a, b) <= 1/2 wherever
    w <= 1/2, so betainc returns I_w itself there and its complement wherever
    I_w is near 1: small values come straight from betainc on both sides.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    low = x <= y
    c = special.betainc(np.where(low, a, b), np.where(low, b, a), np.where(low, x, y) / (x + y))
    with np.errstate(divide="ignore"):
        lc, lrest = np.log(c), np.log1p(-c)
    return np.where(low, lc, lrest), np.where(low, lrest, lc)


#: Past this |t|, I_p(a, b) at m = min(p, 1 - p) is its leading power term
#: m**a' (1-m)**b' / (a' B(a, b)), with (a', b') the shapes of the smaller side:
#: the next term is O(m) = e**-50 relative, and m itself underflows past 745.
_LOGIT_FAR = 50.0

#: The logit solve's bracket. e**1500 overflows whatever positive double it
#: multiplies, so a root beyond it needs no more digits.
_LOGIT_MAX = 1500.0


def _beta_logit_start(lw, lwb, sgn, a: float, b: float, lbeta: float):
    """A start for reg_beta_logit_quantile; sgn is +1 where lw <= lwb, else -1."""
    if a > 1.5 and b > 1.5:
        # AS 109 / Numerical Recipes, whose w is -s here: from the normal
        # deviate x of w, skew-corrected, the quantile a / (a + b e**(-2 s)),
        # of logit log(a / b) + 2 s. At shapes up to 1.5 the tail starts
        # below take fewer iterations.
        r = np.sqrt(-2.0 * np.minimum(lw, lwb))
        x = sgn * ((2.30753 + 0.27061 * r) / (1.0 + (0.99229 + 0.04481 * r) * r) - r)
        al = (x * x - 3.0) / 6.0
        ia, ib = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (ia + ib)
        s = x * np.sqrt(al + h) / h + (ib - ia) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        return math.log(a / b) + 2.0 * s
    # the power-law tails I ~ p**a / (a B) and 1 - I ~ q**b / (b B), each
    # capped at p = a / (a + b), where the two meet
    lt = a * math.log(a / (a + b)) - math.log(a)
    lu = b * math.log(b / (a + b)) - math.log(b)
    lp = np.minimum((lw + math.log(a) + lbeta) / a, math.log(a / (a + b)))
    lq = np.minimum((lwb + math.log(b) + lbeta) / b, math.log(b / (a + b)))
    return np.where(lw < lt - np.logaddexp(lt, lu),
                    lp - log1mexp(lp), log1mexp(lq) - lq)


def reg_beta_logit_quantile(lw, lwb, a: float, b: float):
    """The logit t = log(p / (1 - p)) with I_p(a, b) = w, from lw = log w and
    lwb = log(1 - w), for w strictly inside (0, 1).

    Each row solves on the smaller side of w: log I_p(a, b) = lw where
    lw <= lwb, else log(1 - I_p(a, b)) = lwb, so neither end is read through
    1 - w. The solve is Halley's on t. With f the side's log value,
    df/dt = +-p**a q**b / (B(a, b) e**f) and d2f/dt2 = df/dt (a - (a+b) p - df/dt).
    Each row keeps a bracket in t, starting from [-1500, 1500], and
    bisects when a step would leave it. A row stops on its own, once its step
    is below 1e-5 of the spread of t, sqrt(1/a + 1/b) (capped at 1): Halley
    converges cubically, so that step leaves an error of order 1e-15. Or it
    stops once its bracket has shrunk to rounding level. So a row's result
    does not depend on the other rows of the batch. A root beyond the bracket
    comes back as its end. Each value comes from one betainc at the smaller of
    p and 1 - p, as in reg_beta_log_cdf_sf, so the solve is as accurate as that
    function.
    """
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta shapes must be positive, got a={a}, b={b}")
    lw, lwb = np.broadcast_arrays(np.asarray(lw, dtype=float), np.asarray(lwb, dtype=float))
    shape = lw.shape
    if lw.size == 0:
        return np.empty(shape)
    if not (np.maximum(lw, lwb).max() < 0.0 and np.minimum(lw, lwb).min() > -np.inf):
        raise DomainError("beta logit quantile needs log w and log(1 - w) of a w in (0, 1)")
    lw, lwb = lw.ravel(), lwb.ravel()
    lbeta = float(special.betaln(a, b))
    side = lw <= lwb
    sgn = 2.0 * side - 1.0
    target = np.minimum(lw, lwb)
    tol = 1e-5 * min(1.0, math.sqrt(1.0 / a + 1.0 / b))
    out = np.empty(lw.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.minimum(np.maximum(_beta_logit_start(lw, lwb, sgn, a, b, lbeta), -_LOGIT_MAX),
                       _LOGIT_MAX)
        lo = np.full(t.shape, -_LOGIT_MAX)
        hi = np.full(t.shape, _LOGIT_MAX)
        act = np.arange(t.size)
        for _ in range(100):
            at = np.abs(t)
            e = np.exp(-at)
            l1 = np.log1p(e)
            neg = t <= 0.0
            m = e / (1.0 + e)                        # min(p, q)
            sa = np.where(neg, a, b)                 # betainc's shapes at m:
            sb = np.where(neg, b, a)                 # (a, b) at t <= 0, else (b, a)
            dens = -sa * at - (a + b) * l1 - lbeta   # log p**a q**b / B(a, b)
            c = special.betainc(sa, sb, m)
            far = at > _LOGIT_FAR
            if far.any():
                c = np.where(far, np.exp(dens - np.log(sa)), c)
            # the side's value: c where the smaller of p, q lies on the side's
            # own end, else 1 - c
            f = np.log(np.where(neg == side, c, 1.0 - c))
            g = f - target
            df = sgn * np.exp(dens - f)
            newton = g / df
            p = np.where(neg, m, 1.0 - m)
            step = newton / np.maximum(1.0 - 0.5 * newton * (a - (a + b) * p - df), 0.5)
            up = sgn * g < 0.0
            lo = np.where(up, t, lo)
            hi = np.where(up, hi, t)
            t = t - step
            inside = (t >= lo) & (t <= hi)
            done = (np.abs(step) <= tol) & inside
            if not inside.all():
                # bisect where a step leaves the bracket, and stop where the
                # bracket has shrunk to rounding level
                mid = 0.5 * (lo + hi)
                t = np.where(inside, t, mid)
                done |= (mid <= lo) | (mid >= hi)
            if done.any():
                out[act] = t
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    return out.reshape(shape)
                act, t, lo, hi = act[keep], t[keep], lo[keep], hi[keep]
                side, sgn, target = side[keep], sgn[keep], target[keep]
    raise NoConvergence("beta logit quantile did not converge")


def wright_omega(x):
    """Wright omega function: the real w with w + log(w) = x, vectorized."""
    return special.wrightomega(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ScalarProblem:
    """A one-dimensional minimization problem on a box.

    objective is evaluated on the original scale; the search itself runs on the
    transformed axis named by `transform` (a key of the transform table), so
    half-line or interval domains become well-scaled.
    """

    objective: Callable[[float], float]
    bracket: tuple[float, float]
    transform: str = "identity"

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not lo < hi:
            raise DomainError(f"empty bracket ({lo}, {hi})")
        if self.transform not in _TRANSFORMS:
            raise DomainError(f"unknown transform {self.transform!r}")


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def minimize_scalar(problem: ScalarProblem, tol: float = 1e-6) -> tuple[float, float]:
    """Minimize a ScalarProblem; returns (argmin, min value).

    The argmin is located to within `tol` on the transformed scale, by Brent's
    (1973) bounded search: golden-section steps, parabolic ones where the last
    three points allow. The loop is scipy's `fminbound` step for step, on
    Python floats, so it takes the same points and returns the same bits
    without numpy-scalar work around each evaluation. A non-finite objective
    value counts as 1e300; more than 500 evaluations raise NoConvergence.
    """
    objective = problem.objective
    fwd, inv = _TRANSFORMS[problem.transform]
    a, b = float(fwd(problem.bracket[0])), float(fwd(problem.bracket[1]))

    def goal(t: float) -> float:
        val = objective(float(inv(t)))
        return float(val) if math.isfinite(val) else 1e300

    # xf holds the best point so far, nfc the second best, fulc the previous nfc
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    fx = ffulc = fnfc = goal(xf)
    fu = math.inf
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # a parabola through the three points, kept if it steps inside
            # (a, b) by less than half the step before last
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf + (step if rat >= 0.0 else -step)
        fu = goal(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + tol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            raise NoConvergence("bounded scalar search failed: 500 evaluations reached")
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        raise NoConvergence("bounded scalar search failed: NaN encountered")
    return float(inv(xf)), fx


def invert_monotone(f, target, bracket, tol: float = 1e-10):
    """Solve f(x) = target for monotone (vectorized) f by bisection.

    Parameters
    ----------
    f : callable mapping arrays to arrays (monotone in its argument).
    target : scalar or array of target values.
    bracket : (lo, hi) scalars or arrays bracketing every solution.
    tol : an entry stops at the first midpoint with |f(mid) - target| <= tol,
        or once its bracket has shrunk to rounding level.

    A bracket that does not straddle every target raises BracketFailure, and
    200 halvings without every entry stopped raise NoConvergence.

    Returns an array shaped like the broadcast inputs (floats collapse back to
    float).
    """
    target = np.asarray(target, dtype=float)
    scalar_in = target.ndim == 0
    lo = np.broadcast_to(np.asarray(bracket[0], dtype=float), target.shape).astype(float).copy()
    hi = np.broadcast_to(np.asarray(bracket[1], dtype=float), target.shape).astype(float).copy()
    if np.any(lo >= hi):
        raise BracketFailure("bracket lower end not below upper end")

    flo = np.asarray(f(lo), dtype=float)
    fhi = np.asarray(f(hi), dtype=float)
    sign = 1.0 if np.all(fhi >= flo) else -1.0
    if sign < 0 and not np.all(fhi <= flo):
        raise BracketFailure("f is not monotone over the bracket")

    straddle = (sign * flo <= sign * target + tol) & (sign * fhi >= sign * target - tol)
    if not np.all(straddle):
        raise BracketFailure("target not bracketed")

    # Each entry keeps the midpoint at which it alone met a stopping rule, so
    # its result does not depend on the other entries of the batch.
    out = np.full(target.shape, np.nan)
    done = np.zeros(target.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(f(mid), dtype=float)
        err = fm - target
        stop = np.abs(err) <= tol
        go_up = sign * err < 0
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
        stop |= (hi - lo) <= 1e-15 * np.maximum(1.0, np.abs(mid))
        out = np.where(stop & ~done, mid, out)
        done |= stop
        if np.all(done):
            break
    else:
        raise NoConvergence("bisection did not reach tolerance")
    return float(out) if scalar_in else out


def quad_1d(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Adaptive quadrature of f over (lo, hi); infinite hi truncated at IMPROPER_LIMIT."""
    from scipy import integrate

    if np.isinf(hi):
        hi = IMPROPER_LIMIT
    val, err = integrate.quad(f, lo, hi, epsabs=tol, epsrel=tol, limit=300)
    if err > 50 * max(tol, tol * abs(val)):
        raise NoConvergence(f"quadrature error estimate {err:.3g} above tolerance")
    return float(val)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for (seed, *path); distinct paths give independent streams."""
    if seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
