"""Bivariate families: tail-copula densities for first-tree edges and pair
copulas for deeper edges.

Tail families are normalized so that integrating the density over either
coordinate (the other held fixed) gives 1; their h-functions are genuine
conditional CDFs on (0, inf). Pair families live on the unit square. All
evaluators are vectorized and work in log space where the raw algebra
overflows inside the estimation search boxes.

Each base kind is one record (`_Kind`) holding its formulas, in the two
tables `_TAIL_RECORDS` and `_PAIR_RECORDS`; the public kernels validate their
input and call the record, and the model, sampler and fitter call it directly.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .numerics import (
    _log_pair_of_smaller,
    invert_monotone,
    log1mexp,
    quad_1d,
    reg_beta_cdf,
    reg_beta_log_cdf_sf,
    reg_beta_logit_quantile,
    softplus,
    std_normal_cdf,
    std_normal_quantile,
    wright_omega,
)

#: Pair-copula arguments are clamped to this closed sub-interval of (0, 1).
EPS_UNIT = 1e-12

#: The largest x that tail_h_inv returns, the largest finite double: a root
#: beyond it (a tail h still short of its target at every finite x) comes back
#: as X_MAX, never as inf.
X_MAX = float(np.finfo(float).max)

#: The same clamp on the normal-score scale: ndtri of the two ends. ndtri is
#: monotone, so clamping z = ndtri(u) here is clipping u to the unit interval.
Z_LO = float(std_normal_quantile(EPS_UNIT))
Z_HI = float(std_normal_quantile(1.0 - EPS_UNIT))

#: The pair-copula clamp [EPS_UNIT, 1 - EPS_UNIT] on both logs of a log pair.
LOG_LO = math.log(EPS_UNIT)
LOG_HI = math.log1p(-EPS_UNIT)

# ---------------------------------------------------------------------------
# the two forms of a conditional value
# ---------------------------------------------------------------------------
#
# A u within 1e-10 of 1 keeps only a few digits of 1 - u in double precision,
# and the next pair density or h-function reads 1 - u through log(1 - u) or
# log(-log u). So a kind's h-function and pair log-density take and give
# conditional values in one of two forms, the kind's `score` flag:
# - a normal score z = Phi^-1(u), for the kinds whose h-functions are affine
#   maps of scores (hr and gaussian: the Huesler-Reiss / Gaussian
#   correspondence, Engelke & Hitz 2020);
# - a log pair (log u, log(1 - u)) for every other kind, with each end
#   computed without cancellation.
# The vine recursion carries every value in its edge's form and converts
# between forms with score_to_log_pair and log_pair_to_score, which lose
# neither tail. Every value it makes is clamped once, where it is made; a
# raw hr tree-1 score is the one exception, clamped by the pair edges that
# read it. The inverses work in the same forms: a pair kind's h_inv maps a
# target and a conditioning value in its form to the root in that form, and
# a tail kind's maps a target in its form to x. The public u-space kernels
# are doors to the same formulas: they convert u once on the way in
# (_from_unit) and take Phi of the score or exp of an end of the log pair on
# the way out.


def _clip_unit(x):
    return np.clip(np.asarray(x, dtype=float), EPS_UNIT, 1.0 - EPS_UNIT)


def _log_pair(u):
    """(log u, log(1 - u)) of a clipped u."""
    return np.log(u), np.log1p(-u)


def _from_unit(u, score: bool):
    """u, clipped as pair_h clips it, in a form: its normal score or its log pair."""
    u = _clip_unit(u)
    return std_normal_quantile(u) if score else _log_pair(u)


def clamp_score(z):
    """Clamp normal scores to [Z_LO, Z_HI], the score form of clipping u."""
    return np.minimum(np.maximum(z, Z_LO), Z_HI)


def _clamp_log_pair(p):
    lu, lub = p
    return (np.minimum(np.maximum(lu, LOG_LO), LOG_HI),
            np.minimum(np.maximum(lub, LOG_LO), LOG_HI))


def score_to_log_pair(z):
    """(log Phi(z), log Phi(-z)): the log pair of u = Phi(z)."""
    z = np.asarray(z, dtype=float)   # Phi(-|z|) is the smaller of u and 1 - u
    return _clamp_log_pair(_log_pair_of_smaller(std_normal_cdf(-np.abs(z)), z < 0.0))


def log_pair_to_score(p):
    """Phi^-1(u) of a log pair, taken from whichever of u, 1 - u is smaller."""
    lu, lub = p
    z = std_normal_quantile(np.exp(np.minimum(lu, lub)))   # <= 0
    return np.copysign(z, lu - lub)


def _with_complement(lh):
    return lh, log1mexp(lh)


def _ret(x):
    """Collapse 0-d arrays back to float."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _broadcast(name: str, *arrays) -> None:
    """DomainError unless the arrays broadcast together."""
    try:
        np.broadcast_shapes(*(np.shape(a) for a in arrays))
    except ValueError:
        raise DomainError(f"{name} needs arguments that broadcast together") from None


def _checked(need: str, ok: Callable):
    """A door's input check: name, *arrays -> the arrays as floats, or a
    DomainError if ok fails anywhere (NaN included) or they do not broadcast."""
    def check(name, *arrays):
        out = []
        for arr in arrays:
            arr = np.asarray(arr, dtype=float)
            if not np.all(ok(arr)):
                raise DomainError(f"{name} needs {need}")
            out.append(arr)
        _broadcast(name, *out)
        return out
    return check


_pos = _checked("strictly positive finite arguments", lambda a: (a > 0.0) & (a < np.inf))
_unit = _checked("arguments in [0, 1]", lambda a: (a >= 0.0) & (a <= 1.0))


@dataclass(frozen=True)
class _Kind:
    """The formulas of one family kind.

    Log-densities are split into a theta-free `prepare` step on the points
    and a per-theta `evaluate(prepared, theta)`, so a likelihood search over
    theta prepares its data once. The arguments and values of `prepare`,
    `h` and `h_inv` are in the kind's form (`score`): normal scores, or log
    pairs `(log u, log(1 - u))`, with `h` and `h_inv` unclamped. A tail
    kind's `prepare` and `h` take x and y instead, and its
    `h_inv(w, y, theta)` takes the target w in its form and gives x.
    """

    name: str
    need: str                               # the theta domain, in words
    domain: Callable[[float], bool]
    box: tuple | None                       # (low, high, transform); None: no parameter
    score: bool
    prepare: Callable
    evaluate: Callable
    h: Callable
    h_inv: Callable
    chi: Callable[[float], float] | None = None       # tail kinds
    tau: Callable[[float], float] | None = None       # pair kinds
    tau_inv: Callable[[float], float] | None = None   # closed form; None: bisection on tau
    h_u: Callable | None = None   # an h on u that exp(log u) would round
    survival: bool = False        # has a survival kind, the same formulas on swapped logs


def _kind_record(table: dict, what: str, kind: str) -> _Kind:
    """The record of a kind name read from outside, which must be in the table."""
    rec = table.get(kind)
    if rec is None:
        raise DomainError(f"unknown {what} family {kind!r}")
    return rec


def _check_theta(rec: _Kind, th) -> None:
    """DomainError unless th is a finite real (not a bool) in the kind's domain, or None."""
    if rec.box is not None and (isinstance(th, bool) or not isinstance(th, Real)
                                or not -math.inf < th < math.inf):
        raise DomainError(f"{rec.name} needs a finite real parameter, got {th!r}")
    if not rec.domain(th):
        raise DomainError(f"{rec.name} needs {rec.need}, got {th}")


# ---------------------------------------------------------------------------
# tail kinds
# ---------------------------------------------------------------------------

def _hr_prepare(x, y):
    lx = np.log(x)
    return -lx, lx - np.log(y)


def _hr_evaluate(p, th):
    nlx, dl = p
    z = dl - th / 2.0
    return nlx - 0.5 * math.log(2.0 * math.pi * th) - z * z / (2.0 * th)


def _log_xy_prepare(x, y):
    lx, ly = np.log(x), np.log(y)
    return lx, ly, lx + ly


def _logistic_evaluate(p, th):
    lx, ly, s = p
    return (math.log(th - 1.0) + (th - 1.0) * s
            + (1.0 / th - 2.0) * np.logaddexp(th * lx, th * ly))


def _logistic_h(x, y, th):
    lhb = (1.0 - th) / th * softplus(th * (np.log(x) - np.log(y)))
    return log1mexp(lhb), lhb


def _neglogistic_evaluate(p, th):
    lx, ly, s = p
    return (math.log1p(th) - (th + 1.0) * s
            + (-1.0 / th - 2.0) * np.logaddexp(-th * lx, -th * ly))


def _neglogistic_h(x, y, th):
    return _with_complement(-(1.0 + th) / th * softplus(-th * (np.log(x) - np.log(y))))


# The logistic and negative logistic roots are closed forms in x / y, of the
# form expm1(c)**k; where that power overflows, the root is taken as y e**t
# from its log t = k log(expm1(c)), so a small y still brings it back below
# X_MAX.

def _power_root(c, k: float, y):
    """y expm1(c)**k for c > 0, from the log of the power where the power overflows."""
    r = np.expm1(c) ** k
    out = y * r
    over = np.isinf(r)
    if over.any():
        out = np.where(over, np.exp(np.log(y) + k * (c + log1mexp(-c))), out)
    return out


def _dirichlet_evaluate(p, th):
    s, lxy = p
    c = math.log(2.0) + gammaln(2.0 * th) - 2.0 * gammaln(th)
    return c + th * s - (2.0 * th + 1.0) * lxy


def _dirichlet_h_inv(w, y, th):
    # x = y e**t, with t = log(x / y) the logit of the beta argument
    return np.exp(np.log(y) + reg_beta_logit_quantile(w[0], w[1], th + 1.0, th))


_TAIL_RECORDS = {r.name: r for r in (
    _Kind(
        "hr", "theta > 0", lambda th: th > 0.0, (1e-3, 50.0, "log"), True,
        _hr_prepare, _hr_evaluate,
        lambda x, y, th: (np.log(x) - np.log(y) - th / 2.0) / math.sqrt(th),
        lambda z, y, th: y * np.exp(th / 2.0 + math.sqrt(th) * z),
        chi=lambda th: float(2.0 - 2.0 * std_normal_cdf(math.sqrt(th) / 2.0))),
    _Kind(
        "logistic", "theta > 1", lambda th: th > 1.0, (1.0 + 1e-6, 28.0, "logm1"), False,
        _log_xy_prepare, _logistic_evaluate, _logistic_h,
        lambda w, y, th: _power_root(th / (1.0 - th) * w[1], 1.0 / th, y),
        chi=lambda th: 2.0 - 2.0 ** (1.0 / th)),
    _Kind(
        "neglogistic", "theta > 0", lambda th: th > 0.0, (1e-3, 28.0, "log"), False,
        _log_xy_prepare, _neglogistic_evaluate, _neglogistic_h,
        lambda w, y, th: _power_root(-th / (1.0 + th) * w[0], -1.0 / th, y),
        chi=lambda th: 2.0 ** (-1.0 / th)),
    _Kind(
        "dirichlet", "theta > 0", lambda th: th > 0.0, (1e-3, 28.0, "log"), False,
        lambda x, y: (np.log(x) + np.log(y), np.log(x + y)), _dirichlet_evaluate,
        lambda x, y, th: reg_beta_log_cdf_sf(x, y, th + 1.0, th), _dirichlet_h_inv,
        # V(1, 1) = 2 - 2 I_{1/2}(th + 1, th) (Coles & Tawn 1991)
        chi=lambda th: float(2.0 * reg_beta_cdf(0.5, th + 1.0, th))),
)}


# ---------------------------------------------------------------------------
# pair kinds
# ---------------------------------------------------------------------------

def _indep_h_u(u, v, th):
    return np.broadcast_to(np.asarray(u, dtype=float), np.broadcast(u, v).shape)


def _indep_h(p, q, th):
    return tuple(np.broadcast_arrays(p[0], p[1], q[0])[:2])


def _gaussian_evaluate(p, th):
    x, y, sq = p
    r2 = th * th
    return (-0.5 * math.log1p(-r2)
            - (r2 * sq - 2.0 * th * x * y) / (2.0 * (1.0 - r2)))


def _gaussian_tau_inv(tau):
    if not -1.0 < tau < 1.0:
        raise DomainError(f"gaussian tau must lie in (-1, 1), got {tau}")
    return math.sin(math.pi * tau / 2.0)


def _clayton_log_s(lu, lv, th):
    """log(u**-th + v**-th - 1) from log u and log v, overflow-safe."""
    la, lb = -th * lu, -th * lv
    m = np.maximum(la, lb)
    return m + np.log(np.exp(la - m) + np.exp(lb - m) - np.exp(-m))


def _clayton_evaluate(p, th):
    lu, lv, s = p
    ls = _clayton_log_s(lu, lv, th)
    return math.log1p(th) - (th + 1.0) * s - (2.0 + 1.0 / th) * ls


def _clayton_h(p, q, th):
    # h = (1 + (u**-th - 1) v**th) ** -(1 + 1/th); past a = 700,
    # log(expm1(a)) = a in double precision.
    a = -th * p[0]
    lg = np.log(np.expm1(np.minimum(a, 700.0))) + np.maximum(a - 700.0, 0.0)
    return _with_complement(-(1.0 + 1.0 / th) * softplus(lg + th * q[0]))


def _clayton_h_inv(p, q, th):
    # u**-th = 1 + e**t, with e**t = v**-th expm1(a), a = -th/(th+1) log w
    a = -th / (th + 1.0) * p[0]
    return _with_complement(-softplus(np.log(np.expm1(a)) - th * q[0]) / th)


def _clayton_tau_inv(tau):
    if not 0.0 < tau < 1.0:
        raise DomainError(f"clayton tau must lie in (0, 1), got {tau}")
    return 2.0 * tau / (1.0 - tau)


def _gumbel_prepare(p, q):
    lu, lv = p[0], q[0]
    lxt, lyt = np.log(-lu), np.log(-lv)
    return lu, lv, lxt, lyt, lxt + lyt


def _gumbel_evaluate(p, th):
    lu, lv, lxt, lyt, s = p
    la = np.logaddexp(th * lxt, th * lyt)
    a_pow = np.exp(la / th)
    return (-a_pow + (th - 1.0) * s + (1.0 / th - 2.0) * la
            - lu - lv + np.log(a_pow + th - 1.0))


def _gumbel_h(p, q, th):
    # With x = -log u, y = -log v and s = log(1 + (x/y)**th):
    # log h = y - (x**th + y**th)**(1/th) - (th-1)/th s, free of cancellation.
    y = -q[0]
    s = softplus(th * (np.log(-p[0]) - np.log(y)))
    return _with_complement(-y * np.expm1(s / th) - (th - 1.0) / th * s)


def _gumbel_h_inv(p, q, th):
    # With x = -log u, y = -log v, z = (x**th + y**th)**(1/th) and m = log(z / y),
    # h = w reads y expm1(m) + (th-1) m + log w = 0, convex in m, or z + (th-1) log z
    # = c, solved by Wright omega (Lawrence, Corless & Jeffrey 2012, ACM TOMS 38).
    # One Newton step in m restores the digits log(z / y) cancels where z is near y.
    y, lw = -q[0], p[0]
    ly = np.log(y)
    a = th - 1.0
    c = y + a * ly - lw
    m = np.log(a * wright_omega(c / a - math.log(a)) if a > 0.0 else c) - ly
    m = m - (y * np.expm1(m) + a * m + lw) / (y * np.exp(m) + a)
    s = th * m   # x = y expm1(s)**(1/th)
    return _with_complement(-np.exp(ly + (s + log1mexp(-s)) / th))


def _gumbel_tau_inv(tau):
    if not 0.0 <= tau < 1.0:
        raise DomainError(f"gumbel tau must lie in [0, 1), got {tau}")
    return 1.0 / (1.0 - tau)


def _frank_log_terms(u, ub, v, th):
    """The logs of the two terms of expm1(-th) + gu gv, gu = expm1(-th u).

    That sum equals e**(-th v) gu - e**(-th) expm1(th (1-u)): two terms of the
    sign of -th, so nothing cancels, and 1 - u comes from the log pair. They
    are the numerators of h and 1 - h over the sum.
    """
    return (-th * v + np.log(np.abs(np.expm1(-th * u))),
            -th + np.log(np.abs(np.expm1(th * ub))))


def _frank_evaluate(p, th):
    u, ub, v = p
    return (math.log(-th * math.expm1(-th)) - th * (u + v)
            - 2.0 * np.logaddexp(*_frank_log_terms(u, ub, v, th)))


def _frank_h(p, q, th):
    l1, l2 = _frank_log_terms(np.exp(p[0]), np.exp(p[1]), np.exp(q[0]), th)
    return -softplus(l2 - l1), -softplus(l1 - l2)


def _frank_root(w, wb, v, th):
    # h = w solves to e**(-th u) = 1 + gu = num / den, where
    # num = (1-w) e**(-th v) + w e**(-th) and den = (1-w) e**(-th v) + w:
    # sums free of cancellation. Where 1 + gu is small, log(num / den) keeps
    # the digits that forming 1 + gu would round away.
    ev = np.exp(-th * v)
    den = w + wb * ev
    gu = w * math.expm1(-th) / den
    return np.where(gu < -0.5, np.log(den / (wb * ev + w * math.exp(-th))),
                    -np.log1p(gu)) / th


def _frank_h_inv(p, q, th):
    # Frank is radially symmetric, h(u | v) = 1 - h(1 - u | 1 - v), so 1 - u
    # is the same root at (1 - w, 1 - v); each end comes from the smaller one.
    w, wb, v, vb = np.exp(p[0]), np.exp(p[1]), np.exp(q[0]), np.exp(q[1])
    u, ub = _frank_root(w, wb, v, th), _frank_root(wb, w, vb, th)
    return _log_pair_of_smaller(np.minimum(u, ub), u <= ub)


def _frank_tau(th):
    if th == 0.0:   # the independence limit, where a bisection on tau may land
        return 0.0
    a = abs(th)
    debye = quad_1d(lambda t: t / math.expm1(t) if t > 0 else 1.0, 0.0, a, tol=1e-12) / a
    return math.copysign(1.0 + 4.0 * (debye - 1.0) / a, th)


def _joe_evaluate(p, th):
    # With a = (1-u)**th, b = (1-v)**th and t = a + b - a b:
    # c = ((1-u)(1-v))**(th-1) t**(1/th - 2) (th - 1 + t)
    lxb, lyb, s = p
    la, lb = th * lxb, th * lyb             # log of (1-u)**th, (1-v)**th
    lt = np.logaddexp(la, lb + log1mexp(la))
    last = np.logaddexp(math.log(th - 1.0), lt) if th > 1.0 else lt
    return (th - 1.0) * s + (1.0 / th - 2.0) * lt + last


def _joe_log_h(lub, lvb, th):
    # With a = (1-u)**th, b = (1-v)**th: h = (1 + a (1-b)/b)**(1/th - 1) (1 - a)
    la, lb = th * lub, th * lvb
    return (1.0 / th - 1.0) * softplus(la + log1mexp(lb) - lb) + log1mexp(la)


def _joe_h_inv(p, q, th):
    # Monotone bisection in x = log(u / (1 - u)), whose two ends give both
    # log u and log(1 - u) without cancellation, on the smaller side of w:
    # log h against log w up to 1/2, -log(1 - h) against -log(1 - w) above,
    # so a small target and a small complement both keep their digits.
    # Targets beyond the values at the bracket ends are clipped to them, so
    # those rows get the bracket end.
    lw, lwb, lvb = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (*p, q[1])))
    high = lw > lwb

    def side(x):
        lh = _joe_log_h(-softplus(x), lvb, th)
        with np.errstate(divide="ignore"):
            return np.where(high, -np.log(-np.expm1(lh)), lh)

    ends = (-745.0, 745.0)   # u and 1 - u down to the smallest double
    target = np.clip(np.where(high, -lwb, lw), *map(side, ends))
    x = invert_monotone(side, target, ends, tol=1e-13)
    return -softplus(-x), -softplus(x)


def _joe_tau(th):
    # Archimedean generator integral
    def gen_ratio(s: float) -> float:
        sth = s ** th
        return math.log1p(-sth) * (1.0 - sth) / (th * s ** (th - 1.0))

    return 1.0 + 4.0 * quad_1d(gen_ratio, 0.0, 1.0, tol=1e-11)


def _survival(rec: _Kind) -> _Kind:
    """The survival kind of a log-pair kind: its formulas on swapped logs."""
    return replace(
        rec, name="surv" + rec.name, survival=False,
        prepare=lambda p, q: rec.prepare(p[::-1], q[::-1]),
        h=lambda p, q, th: rec.h(p[::-1], q[::-1], th)[::-1],
        h_inv=lambda p, q, th: rec.h_inv(p[::-1], q[::-1], th)[::-1])


_PAIR_BASE = (
    _Kind(
        "indep", "no parameter", lambda th: th is None, None, False,
        lambda p, q: np.broadcast(p[0], q[0]).shape, lambda shape, th: np.zeros(shape),
        _indep_h, _indep_h, tau=lambda th: 0.0, h_u=_indep_h_u),
    _Kind(
        "gaussian", "-1 < rho < 1", lambda th: -1.0 < th < 1.0, (-0.999, 0.999, "atanh"), True,
        lambda x, y: (x, y, x * x + y * y), _gaussian_evaluate,
        lambda x, y, th: (x - th * y) / math.sqrt(1.0 - th * th),
        lambda z, y, th: z * math.sqrt(1.0 - th * th) + th * y,
        tau=lambda th: 2.0 / math.pi * math.asin(th), tau_inv=_gaussian_tau_inv),
    _Kind(
        "clayton", "theta > 0", lambda th: th > 0.0, (1e-6, 28.0, "log"), False,
        lambda p, q: (p[0], q[0], p[0] + q[0]), _clayton_evaluate, _clayton_h, _clayton_h_inv,
        tau=lambda th: th / (th + 2.0), tau_inv=_clayton_tau_inv, survival=True),
    _Kind(
        "gumbel", "theta >= 1", lambda th: th >= 1.0, (1.0 + 1e-8, 17.0, "logm1"), False,
        _gumbel_prepare, _gumbel_evaluate, _gumbel_h, _gumbel_h_inv,
        tau=lambda th: 1.0 - 1.0 / th, tau_inv=_gumbel_tau_inv, survival=True),
    _Kind(
        "frank", "theta != 0", lambda th: th != 0.0, (-35.0, 35.0, "identity"), False,
        lambda p, q: (np.exp(p[0]), np.exp(p[1]), np.exp(q[0])), _frank_evaluate,
        _frank_h, _frank_h_inv, tau=_frank_tau),
    _Kind(
        "joe", "theta >= 1", lambda th: th >= 1.0, (1.0 + 1e-8, 30.0, "logm1"), False,
        lambda p, q: (p[1], q[1], p[1] + q[1]), _joe_evaluate,
        lambda p, q, th: _with_complement(_joe_log_h(p[1], q[1], th)), _joe_h_inv,
        tau=_joe_tau, survival=True),
)
_PAIR_RECORDS = {r.name: r for r in (*_PAIR_BASE,
                                     *(_survival(r) for r in _PAIR_BASE if r.survival))}

TAIL_KINDS = tuple(_TAIL_RECORDS)
PAIR_KINDS = tuple(_PAIR_RECORDS)

#: Estimation search boxes: kind -> (low, high, ScalarProblem transform).
TAIL_BOXES = {k: r.box for k, r in _TAIL_RECORDS.items()}
PAIR_BOXES = {k: r.box for k, r in _PAIR_RECORDS.items() if r.box is not None}


# ---------------------------------------------------------------------------
# tail families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFamily:
    """A parametric bivariate tail-copula density."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        _check_theta(_kind_record(_TAIL_RECORDS, "tail", self.kind), self.theta)


def prepare_tail_log_density(kind: str, x, y) -> Callable[[float], np.ndarray]:
    """theta -> log r(x, y) for the tail kind, with the theta-free work done once.

    theta is not checked: callers keep it inside the family's domain.
    """
    rec = _kind_record(_TAIL_RECORDS, "tail", kind)
    x, y = _pos("tail density", x, y)
    p = rec.prepare(x, y)
    return lambda th: rec.evaluate(p, th)


def tail_log_density(fam: TailFamily, x, y):
    """log r(x, y); homogeneous of order -1 with unit margins."""
    return _ret(prepare_tail_log_density(fam.kind, x, y)(fam.theta))


def tail_density(fam: TailFamily, x, y):
    return _ret(np.exp(tail_log_density(fam, x, y)))


def tail_h(fam: TailFamily, x, y):
    """Conditional CDF of the first coordinate at x, given the second equals y."""
    x, y = _pos("tail h", x, y)
    rec = _TAIL_RECORDS[fam.kind]
    h = rec.h(x, y, fam.theta)
    return _ret(std_normal_cdf(h) if rec.score else np.exp(h[0]))


def _tail_root(rec: _Kind, w, y, th):
    """rec.h_inv(w, y, th), with a root beyond X_MAX brought back as X_MAX."""
    with np.errstate(over="ignore"):
        return np.minimum(rec.h_inv(w, y, th), X_MAX)


def tail_h_inv(fam: TailFamily, u, y):
    """Inverse of tail_h in x at fixed y; a root beyond X_MAX comes back as X_MAX.

    A log-pair kind reads u short of 0 and 1 only, so a target below 1e-12
    keeps its own root; a score kind clips u as pair_h does."""
    (y,) = _pos("tail h_inv", y)
    (u,) = _unit("tail h_inv", u)
    _broadcast("tail h_inv", u, y)
    rec = _TAIL_RECORDS[fam.kind]
    w = _from_unit(u, True) if rec.score else _log_pair(
        np.clip(u, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))
    return _ret(_tail_root(rec, w, y, fam.theta))


def tail_chi(fam: TailFamily) -> float:
    """Bivariate tail-dependence coefficient of the family."""
    return _TAIL_RECORDS[fam.kind].chi(fam.theta)


# ---------------------------------------------------------------------------
# pair families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFamily:
    """A parametric copula density on the unit square (or independence)."""

    kind: str
    theta: float | None = None

    def __post_init__(self) -> None:
        _check_theta(_kind_record(_PAIR_RECORDS, "pair", self.kind), self.theta)


def prepare_pair_log_density(kind: str, u, v) -> Callable[[float], np.ndarray]:
    """theta -> log c(u, v) for the pair kind, with the theta-free work done once.

    theta is not checked: callers keep it inside the family's domain.
    """
    rec = _kind_record(_PAIR_RECORDS, "pair", kind)
    u, v = _unit("pair density", u, v)
    p = rec.prepare(_from_unit(u, rec.score), _from_unit(v, rec.score))
    return lambda th: rec.evaluate(p, th)


def pair_log_density(fam: PairFamily, u, v):
    return _ret(prepare_pair_log_density(fam.kind, u, v)(fam.theta))


def pair_density(fam: PairFamily, u, v):
    return _ret(np.exp(pair_log_density(fam, u, v)))


def pair_h(fam: PairFamily, u, v):
    """Conditional CDF of the first argument given the second, clamped to (0, 1)."""
    rec, th = _PAIR_RECORDS[fam.kind], fam.theta
    u, v = _unit("pair h", u, v)
    if rec.h_u is not None:
        return _ret(_clip_unit(rec.h_u(_clip_unit(u), _clip_unit(v), th)))
    h = rec.h(_from_unit(u, rec.score), _from_unit(v, rec.score), th)
    return _ret(_clip_unit(std_normal_cdf(h) if rec.score else np.exp(_clamp_log_pair(h)[0])))


def pair_h_inv(fam: PairFamily, w, v):
    """Inverse of pair_h in its first argument, clamped to (0, 1) as pair_h is."""
    rec = _PAIR_RECORDS[fam.kind]
    w, v = _unit("pair h_inv", w, v)
    u = rec.h_inv(_from_unit(w, rec.score), _from_unit(v, rec.score), fam.theta)
    if not rec.score:   # from the smaller end, so a root near 1 rounds as 1 - (1 - u)
        u = np.where(u[0] <= u[1], np.exp(u[0]), -np.expm1(u[1]))
    return _ret(_clip_unit(std_normal_cdf(u) if rec.score else u))


def pair_tau(fam: PairFamily) -> float:
    """Population Kendall's tau of the family."""
    return _PAIR_RECORDS[fam.kind].tau(fam.theta)


def tau_inverse(kind: str, tau: float) -> float:
    """Parameter whose population tau equals `tau`; by bisection where no closed form exists."""
    rec = _kind_record(_PAIR_RECORDS, "pair", kind)
    if rec.box is None:
        raise DomainError(f"{kind} has no parameter to solve for")
    if rec.tau_inv is not None:
        return rec.tau_inv(tau)
    lo, hi, _ = rec.box
    lo_tau, hi_tau = rec.tau(lo), rec.tau(hi)
    if not lo_tau - 1e-12 <= tau <= hi_tau + 1e-12:
        raise DomainError(
            f"{kind} tau must lie in [{lo_tau:.4f}, {hi_tau:.4f}], got {tau}")

    def tau_of(t):
        return np.asarray([rec.tau(float(x)) for x in np.atleast_1d(t)]).reshape(np.shape(t))

    return float(invert_monotone(tau_of, tau, (lo, hi), tol=1e-9))
