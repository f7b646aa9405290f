"""Bivariate families: tail-copula densities for first-tree edges and pair
copulas for deeper edges.

Tail families are normalized so that integrating the density over either
coordinate (the other held fixed) gives 1; their h-functions are genuine
conditional CDFs on (0, inf). Pair families live on the unit square. All
evaluators are vectorized and work in log space where the raw algebra
overflows inside the estimation search boxes.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (
    invert_monotone,
    log1mexp,
    log_gamma,
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

#: Kinds whose h-functions are affine maps of normal scores (the
#: Huesler-Reiss / Gaussian correspondence, Engelke & Hitz 2020): the vine
#: recursion carries their conditional values as scores z, with u = Phi(z).
SCORE_KINDS = frozenset({"hr", "gaussian"})

TAIL_KINDS = ("hr", "logistic", "neglogistic", "dirichlet")
PAIR_KINDS = ("indep", "gaussian", "clayton", "gumbel", "frank", "joe",
              "survclayton", "survgumbel", "survjoe")

#: Estimation search boxes: kind -> (low, high, ScalarProblem transform).
TAIL_BOXES = {
    "hr": (1e-3, 50.0, "log"),
    "logistic": (1.0 + 1e-6, 28.0, "logm1"),
    "neglogistic": (1e-3, 28.0, "log"),
    "dirichlet": (1e-3, 28.0, "log"),
}
PAIR_BOXES = {
    "gaussian": (-0.999, 0.999, "atanh"),
    "clayton": (1e-6, 28.0, "log"),
    "gumbel": (1.0 + 1e-8, 17.0, "logm1"),
    "frank": (-35.0, 35.0, "identity"),
    "joe": (1.0 + 1e-8, 30.0, "logm1"),
}
PAIR_BOXES["survclayton"] = PAIR_BOXES["clayton"]
PAIR_BOXES["survgumbel"] = PAIR_BOXES["gumbel"]
PAIR_BOXES["survjoe"] = PAIR_BOXES["joe"]


def _clip_unit(x):
    return np.clip(np.asarray(x, dtype=float), EPS_UNIT, 1.0 - EPS_UNIT)


def _log_pair(u):
    """(log u, log(1 - u)) of a clipped u."""
    return np.log(u), np.log1p(-u)


def clamp_score(z):
    """Clamp normal scores to [Z_LO, Z_HI], the score form of clipping u."""
    return np.minimum(np.maximum(z, Z_LO), Z_HI)


def _need_kind(fam, kind: str) -> None:
    if fam.kind != kind:
        raise DomainError(f"normal-score kernel needs a {kind} family, got {fam.kind}")


def _ret(x):
    """Collapse 0-d arrays back to float."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _pos(name, *arrays):
    out = []
    for arr in arrays:
        arr = np.asarray(arr, dtype=float)
        if np.any(~(arr > 0.0)):
            raise DomainError(f"{name} needs strictly positive arguments")
        out.append(arr)
    return out


# ---------------------------------------------------------------------------
# tail families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFamily:
    """A parametric bivariate tail-copula density."""

    kind: str
    theta: float

    def __post_init__(self) -> None:
        if self.kind not in TAIL_KINDS:
            raise DomainError(f"unknown tail family {self.kind!r}")
        th = self.theta
        if not np.isfinite(th):
            raise DomainError(f"{self.kind} parameter must be finite, got {th}")
        if self.kind == "logistic":
            if not th > 1.0:
                raise DomainError(f"logistic needs theta > 1, got {th}")
        elif not th > 0.0:
            raise DomainError(f"{self.kind} needs theta > 0, got {th}")


# Log-densities are split into a theta-free prepare step on the points
# (logs, log pairs, normal scores) and a per-theta evaluate step,
# so a likelihood search over theta prepares its data once.

def _hr_prepare(x, y):
    lx = np.log(x)
    return -lx, lx - np.log(y)


def _hr_evaluate(p, th):
    nlx, dl = p
    z = dl - th / 2.0
    return nlx - 0.5 * math.log(2.0 * math.pi * th) - z * z / (2.0 * th)


def _log_pair_prepare(x, y):
    lx, ly = np.log(x), np.log(y)
    return lx, ly, lx + ly


def _logistic_evaluate(p, th):
    lx, ly, s = p
    return (math.log(th - 1.0) + (th - 1.0) * s
            + (1.0 / th - 2.0) * np.logaddexp(th * lx, th * ly))


def _neglogistic_evaluate(p, th):
    lx, ly, s = p
    return (math.log1p(th) - (th + 1.0) * s
            + (-1.0 / th - 2.0) * np.logaddexp(-th * lx, -th * ly))


def _dirichlet_prepare(x, y):
    return np.log(x) + np.log(y), np.log(x + y)


def _dirichlet_evaluate(p, th):
    s, lxy = p
    c = math.log(2.0) + log_gamma(2.0 * th) - 2.0 * log_gamma(th)
    return c + th * s - (2.0 * th + 1.0) * lxy


#: Tail kind -> (prepare(x, y), evaluate(prepared, theta)) for log r(x, y).
_TAIL_LOG_DENSITY = {
    "hr": (_hr_prepare, _hr_evaluate),
    "logistic": (_log_pair_prepare, _logistic_evaluate),
    "neglogistic": (_log_pair_prepare, _neglogistic_evaluate),
    "dirichlet": (_dirichlet_prepare, _dirichlet_evaluate),
}


def prepare_tail_log_density(kind: str, x, y) -> Callable[[float], np.ndarray]:
    """theta -> log r(x, y) for the tail kind, with the theta-free work done once.

    theta is not checked: callers keep it inside the family's domain.
    """
    x, y = _pos("tail density", x, y)
    prepare, evaluate = _TAIL_LOG_DENSITY[kind]
    p = prepare(x, y)
    return lambda th: evaluate(p, th)


def tail_log_density(fam: TailFamily, x, y):
    """log r(x, y); homogeneous of order -1 with unit margins."""
    return _ret(prepare_tail_log_density(fam.kind, x, y)(fam.theta))


def tail_density(fam: TailFamily, x, y):
    return _ret(np.exp(tail_log_density(fam, x, y)))


def _hr_h_score(x, y, th):
    return (np.log(x) - np.log(y) - th / 2.0) / math.sqrt(th)


def _hr_h_inv_score(z, y, th):
    return y * np.exp(th / 2.0 + math.sqrt(th) * z)


def tail_h(fam: TailFamily, x, y):
    """Conditional CDF of the first coordinate at x, given the second equals y."""
    x, y = _pos("tail h", x, y)
    if fam.kind == "hr":
        return _ret(std_normal_cdf(_hr_h_score(x, y, fam.theta)))
    return _ret(np.exp(_tail_h_logs(fam, x, y)[0]))


def tail_h_score(fam: TailFamily, x, y):
    """tail_h as a normal score, Phi^-1(tail_h(x, y)); hr only."""
    _need_kind(fam, "hr")
    x, y = _pos("tail h", x, y)
    return _ret(_hr_h_score(x, y, fam.theta))


def tail_h_inv(fam: TailFamily, u, y):
    """Inverse of tail_h in x at fixed y; a root beyond X_MAX comes back as X_MAX.

    The logistic and negative logistic roots are closed forms in x / y, of
    the form expm1(c)**k; where that power overflows, the root is taken as
    y e**t from its log t = k log(expm1(c)), so a small y still brings it
    back below X_MAX. The Dirichlet root is y e**t, with t = log(x / y) the
    logit of the beta argument, solved by numerics.reg_beta_logit_quantile.
    """
    (y,) = _pos("tail h_inv", y)
    u = _clip_unit(u)
    th = fam.theta
    with np.errstate(over="ignore"):
        if fam.kind == "hr":
            out = _hr_h_inv_score(std_normal_quantile(u), y, th)
        elif fam.kind == "logistic":
            out = _power_root(th / (1.0 - th) * np.log1p(-u), 1.0 / th, y)
        elif fam.kind == "neglogistic":
            out = _power_root(-th / (1.0 + th) * np.log(u), -1.0 / th, y)
        else:  # dirichlet
            t = reg_beta_logit_quantile(np.log(u), np.log1p(-u), th + 1.0, th)
            out = np.exp(np.log(y) + t)
    return _ret(np.minimum(out, X_MAX))


def _power_root(c, k: float, y):
    """y expm1(c)**k for c > 0, from the log of the power where the power overflows."""
    r = np.expm1(c) ** k
    out = y * r
    over = np.isinf(r)
    if over.any():
        out = np.where(over, np.exp(np.log(y) + k * (c + log1mexp(-c))), out)
    return out


def tail_h_inv_score(fam: TailFamily, z, y):
    """Inverse of tail_h_score in x at fixed y, with z clamped; hr only."""
    _need_kind(fam, "hr")
    (y,) = _pos("tail h_inv", y)
    return _ret(_hr_h_inv_score(clamp_score(z), y, fam.theta))


def tail_chi(fam: TailFamily) -> float:
    """Bivariate tail-dependence coefficient of the family."""
    th = fam.theta
    if fam.kind == "hr":
        return float(2.0 - 2.0 * std_normal_cdf(math.sqrt(th) / 2.0))
    if fam.kind == "logistic":
        return 2.0 - 2.0 ** (1.0 / th)
    if fam.kind == "neglogistic":
        return 2.0 ** (-1.0 / th)
    return quad_1d(lambda t: float(reg_beta_cdf(1.0 / (1.0 + t), th + 1.0, th)),
                   0.0, 1.0, tol=1e-11)


# ---------------------------------------------------------------------------
# pair families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairFamily:
    """A parametric copula density on the unit square (or independence)."""

    kind: str
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PAIR_KINDS:
            raise DomainError(f"unknown pair family {self.kind!r}")
        th = self.theta
        if self.kind == "indep":
            if th is not None:
                raise DomainError("independence takes no parameter")
            return
        if th is None or not np.isfinite(th):
            raise DomainError(f"{self.kind} needs a finite parameter, got {th}")
        base = _base_kind(self.kind)
        if base == "gaussian" and not -1.0 < th < 1.0:
            raise DomainError(f"gaussian needs -1 < rho < 1, got {th}")
        if base == "clayton" and not th > 0.0:
            raise DomainError(f"clayton needs theta > 0, got {th}")
        if base in ("gumbel", "joe") and not th >= 1.0:
            raise DomainError(f"{base} needs theta >= 1, got {th}")
        if base == "frank" and th == 0.0:
            raise DomainError("frank needs theta != 0")

    @property
    def n_params(self) -> int:
        return 0 if self.kind == "indep" else 1


def _base_kind(kind: str) -> str:
    return kind[4:] if kind.startswith("surv") else kind


def _reflected(kind: str) -> bool:
    return kind.startswith("surv")


def _clayton_log_s(lu, lv, th):
    """log(u**-th + v**-th - 1) from log u and log v, overflow-safe."""
    la, lb = -th * lu, -th * lv
    m = np.maximum(la, lb)
    return m + np.log(np.exp(la - m) + np.exp(lb - m) - np.exp(-m))


def _indep_evaluate(shape, th):
    return np.zeros(shape)


def _gaussian_scores(x, y):
    return x, y, x * x + y * y


def _gaussian_evaluate(p, th):
    x, y, sq = p
    r2 = th * th
    return (-0.5 * math.log1p(-r2)
            - (r2 * sq - 2.0 * th * x * y) / (2.0 * (1.0 - r2)))


def _clayton_evaluate(p, th):
    lu, lv, s = p
    ls = _clayton_log_s(lu, lv, th)
    return math.log1p(th) - (th + 1.0) * s - (2.0 + 1.0 / th) * ls


def _gumbel_prepare(lu, lub, lv, lvb):
    lxt, lyt = np.log(-lu), np.log(-lv)
    return lu, lv, lxt, lyt, lxt + lyt


def _gumbel_evaluate(p, th):
    lu, lv, lxt, lyt, s = p
    la = np.logaddexp(th * lxt, th * lyt)
    a_pow = np.exp(la / th)
    return (-a_pow + (th - 1.0) * s + (1.0 / th - 2.0) * la
            - lu - lv + np.log(a_pow + th - 1.0))


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


def _joe_evaluate(p, th):
    # With a = (1-u)**th, b = (1-v)**th and t = a + b - a b:
    # c = ((1-u)(1-v))**(th-1) t**(1/th - 2) (th - 1 + t)
    lxb, lyb, s = p
    la, lb = th * lxb, th * lyb             # log of (1-u)**th, (1-v)**th
    lt = np.logaddexp(la, lb + log1mexp(la))
    last = np.logaddexp(math.log(th - 1.0), lt) if th > 1.0 else lt
    return (th - 1.0) * s + (1.0 / th - 2.0) * lt + last


#: Base pair kind -> (prepare(lu, lub, lv, lvb), evaluate(prepared, theta)) for
#: the log copula density on log pairs; survival kinds swap the logs first.
_PAIR_LOG_DENSITY = {
    "indep": (lambda lu, lub, lv, lvb: np.broadcast(lu, lv).shape, _indep_evaluate),
    "clayton": (lambda lu, lub, lv, lvb: (lu, lv, lu + lv), _clayton_evaluate),
    "gumbel": (_gumbel_prepare, _gumbel_evaluate),
    "frank": (lambda lu, lub, lv, lvb: (np.exp(lu), np.exp(lub), np.exp(lv)),
              _frank_evaluate),
    "joe": (lambda lu, lub, lv, lvb: (lub, lvb, lub + lvb), _joe_evaluate),
}


def _gaussian_h_score(x, y, th):
    return (x - th * y) / math.sqrt(1.0 - th * th)


def _gaussian_h_inv_score(z, y, th):
    return z * math.sqrt(1.0 - th * th) + th * y


def _h_inv_base(kind: str, w, v, th) -> np.ndarray:
    if kind == "indep":
        return np.broadcast_to(np.asarray(w, dtype=float), np.broadcast(w, v).shape)
    if kind == "gaussian":
        return std_normal_cdf(_gaussian_h_inv_score(std_normal_quantile(w),
                                                    std_normal_quantile(v), th))
    if kind == "clayton":
        t = -th * np.log(v) + np.log(np.expm1(-th / (th + 1.0) * np.log(w)))
        return np.exp(-np.logaddexp(0.0, t) / th)
    if kind == "frank":
        # h = w solves to e**(-th u) = 1 + gu = num / den, where
        # num = (1-w) e**(-th v) + w e**(-th) and den = (1-w) e**(-th v) + w:
        # sums free of cancellation. Where 1 + gu is small, log(num / den) keeps
        # the digits that forming 1 + gu would round away.
        ev = np.exp(-th * v)
        den = w + (1.0 - w) * ev
        gu = w * math.expm1(-th) / den
        return np.where(gu < -0.5, np.log(den / ((1.0 - w) * ev + w * math.exp(-th))),
                        -np.log1p(gu)) / th
    if kind == "gumbel":
        # With x = -log u, y = -log v, z = (x**th + y**th)**(1/th), h = w reads
        # z + (th-1) log z = c, solved by the Wright omega function
        # (Lawrence, Corless & Jeffrey 2012, ACM TOMS 38). z <= y means x = 0.
        y = -np.log(v)
        ly = np.log(y)
        a = th - 1.0
        c = y + a * ly - np.log(w)
        z = a * wright_omega(c / a - math.log(a)) if a > 0.0 else c
        z = np.maximum(z, y)
        x = z * (-np.expm1(th * (ly - np.log(z)))) ** (1.0 / th)
        return np.exp(-x)
    # joe: monotone bisection in x = log(u / (1 - u)), whose two ends give
    # both log u and log(1 - u) without cancellation, on the smaller side of
    # w: log h against log w up to 1/2, -log(1 - h) against -log(1 - w)
    # above, so a small target and a small complement both keep their digits.
    # Targets beyond the values at the bracket ends are clipped to them, so
    # those rows get the bracket end.
    w_arr, v_arr = np.broadcast_arrays(np.asarray(w, dtype=float),
                                       np.asarray(v, dtype=float))
    lvb = np.log1p(-v_arr)
    high = w_arr > 0.5

    def side(x):
        lh = _joe_log_h(-softplus(x), lvb, th)
        with np.errstate(divide="ignore"):
            return np.where(high, -np.log(-np.expm1(lh)), lh)

    ends = (LOG_LO - LOG_HI, LOG_HI - LOG_LO)   # the logits of the clip
    target = np.clip(np.where(high, -np.log1p(-w_arr), np.log(w_arr)), *map(side, ends))
    x = invert_monotone(side, target, ends, tol=1e-11)
    e = np.exp(-np.abs(x))
    m = e / (1.0 + e)                          # the smaller of u and 1 - u
    return np.where(x > 0.0, 1.0 - m, m)


def prepare_pair_log_density(kind: str, u, v) -> Callable[[float], np.ndarray]:
    """theta -> log c(u, v) for the pair kind, with the theta-free work done once.

    theta is not checked: callers keep it inside the family's domain.
    """
    u, v = _clip_unit(u), _clip_unit(v)
    if kind == "gaussian":
        evaluate = _gaussian_evaluate
        p = _gaussian_scores(std_normal_quantile(u), std_normal_quantile(v))
    else:
        prepare, evaluate = _PAIR_LOG_DENSITY[_base_kind(kind)]
        p = prepare(*_log_pair_args(kind, _log_pair(u), _log_pair(v)))
    return lambda th: evaluate(p, th)


def pair_log_density(fam: PairFamily, u, v):
    return _ret(prepare_pair_log_density(fam.kind, u, v)(fam.theta))


def pair_density(fam: PairFamily, u, v):
    return _ret(np.exp(pair_log_density(fam, u, v)))


def pair_h(fam: PairFamily, u, v):
    """Conditional CDF of the first argument given the second, clamped to (0, 1)."""
    u, v = _clip_unit(u), _clip_unit(v)
    if fam.kind == "indep":
        out = np.broadcast_to(u, np.broadcast(u, v).shape)
    elif fam.kind == "gaussian":
        out = std_normal_cdf(_gaussian_h_score(std_normal_quantile(u),
                                               std_normal_quantile(v), fam.theta))
    else:
        lh, _ = pair_h_log_pair(fam, _log_pair(u), _log_pair(v))
        out = np.exp(lh)
    return _ret(_clip_unit(out))


def pair_h_inv(fam: PairFamily, w, v):
    """Inverse of pair_h in its first argument."""
    w, v = _clip_unit(w), _clip_unit(v)
    if _reflected(fam.kind):
        out = 1.0 - _h_inv_base(_base_kind(fam.kind), 1.0 - w, 1.0 - v, fam.theta)
    else:
        out = _h_inv_base(fam.kind, w, v, fam.theta)
    return _ret(_clip_unit(out))


def pair_log_density_score(fam: PairFamily, zu, zv):
    """pair_log_density at normal scores, clamped as pair_log_density clips u;
    gaussian only."""
    _need_kind(fam, "gaussian")
    return _ret(_gaussian_evaluate(_gaussian_scores(clamp_score(zu), clamp_score(zv)),
                                   fam.theta))


def pair_h_score(fam: PairFamily, zu, zv):
    """pair_h on normal scores, clamped where pair_h clips; gaussian only."""
    _need_kind(fam, "gaussian")
    return _ret(clamp_score(_gaussian_h_score(clamp_score(zu), clamp_score(zv), fam.theta)))


def pair_h_inv_score(fam: PairFamily, zw, zv):
    """pair_h_inv on normal scores, clamped where pair_h_inv clips; gaussian only."""
    _need_kind(fam, "gaussian")
    return _ret(clamp_score(_gaussian_h_inv_score(clamp_score(zw), clamp_score(zv),
                                                  fam.theta)))


# ---------------------------------------------------------------------------
# log pairs: (log u, log(1 - u)), the one form of every u-space h-function
# and pair density
# ---------------------------------------------------------------------------
#
# A u within 1e-10 of 1 keeps only a few digits of 1 - u in double precision,
# and the next pair density or h-function reads 1 - u through log(1 - u) or
# log(-log u). So each h-function and each pair log-density of a u-space kind
# is written once, on log pairs (log u, log(1 - u)), with each end computed
# without cancellation (the densities are the _PAIR_LOG_DENSITY table above);
# the vine recursion carries every u-space conditional in this form, and the
# public tail_h and pair_h are exp of its first end. pair_log_density and the
# fitter's prepare_pair_log_density take u and make its log pair once, so
# recursion, public kernels and fitter share each formula. Survival kinds
# reflect by swapping the two logs. Normal-score kinds (SCORE_KINDS) keep
# their score kernels; score_to_log_pair and log_pair_to_score convert between
# the two forms without losing either tail. Every log pair the recursion carries is
# clamped to the pair-copula range once, where it is made, so the kernels
# take their arguments as they come. The inverses still work on u.

#: The pair-copula clamp [EPS_UNIT, 1 - EPS_UNIT] on both logs of a log pair.
LOG_LO = math.log(EPS_UNIT)
LOG_HI = math.log1p(-EPS_UNIT)


def _clamp_log_pair(p):
    lu, lub = p
    return (np.minimum(np.maximum(lu, LOG_LO), LOG_HI),
            np.minimum(np.maximum(lub, LOG_LO), LOG_HI))


def _need_u_kind(fam) -> None:
    if fam.kind in SCORE_KINDS:
        raise DomainError(f"log-pair kernel needs a u-space family, got {fam.kind}")


def score_to_log_pair(z):
    """(log Phi(z), log Phi(-z)): the log pair of u = Phi(z)."""
    z = np.asarray(z, dtype=float)
    tail = std_normal_cdf(-np.abs(z))   # the smaller of u and 1 - u
    with np.errstate(divide="ignore"):
        lt, lrest = np.log(tail), np.log1p(-tail)
    neg = z < 0.0
    return _clamp_log_pair((np.where(neg, lt, lrest), np.where(neg, lrest, lt)))


def log_pair_to_score(p):
    """Phi^-1(u) of a log pair, taken from whichever of u, 1 - u is smaller."""
    lu, lub = p
    z = std_normal_quantile(np.exp(np.minimum(lu, lub)))   # <= 0
    return np.copysign(z, lu - lub)


def _with_complement(lh):
    return lh, log1mexp(lh)


def _tail_h_logs(fam: TailFamily, x, y):
    """(log h, log(1 - h)) of tail_h for every tail kind but hr, unclamped."""
    th = fam.theta
    if fam.kind == "logistic":
        lhb = (1.0 - th) / th * softplus(th * (np.log(x) - np.log(y)))
        return log1mexp(lhb), lhb
    if fam.kind == "neglogistic":
        return _with_complement(-(1.0 + th) / th * softplus(-th * (np.log(x) - np.log(y))))
    return reg_beta_log_cdf_sf(x, y, th + 1.0, th)   # dirichlet


def tail_h_log_pair(fam: TailFamily, x, y):
    """tail_h as a log pair, clamped as pair_h clips; every tail kind but hr."""
    _need_u_kind(fam)
    x, y = _pos("tail h", x, y)
    return _clamp_log_pair(_tail_h_logs(fam, x, y))


def _clayton_h_log_pair(lu, lub, lv, lvb, th):
    # h = (1 + (u**-th - 1) v**th) ** -(1 + 1/th); past a = 700,
    # log(expm1(a)) = a in double precision.
    a = -th * lu
    lg = np.log(np.expm1(np.minimum(a, 700.0))) + np.maximum(a - 700.0, 0.0)
    return _with_complement(-(1.0 + 1.0 / th) * softplus(lg + th * lv))


def _gumbel_h_log_pair(lu, lub, lv, lvb, th):
    # With x = -log u, y = -log v and s = log(1 + (x/y)**th):
    # log h = y - (x**th + y**th)**(1/th) - (th-1)/th s, free of cancellation.
    y = -lv
    s = softplus(th * (np.log(-lu) - np.log(y)))
    return _with_complement(-y * np.expm1(s / th) - (th - 1.0) / th * s)


def _frank_h_log_pair(lu, lub, lv, lvb, th):
    l1, l2 = _frank_log_terms(np.exp(lu), np.exp(lub), np.exp(lv), th)
    return -softplus(l2 - l1), -softplus(l1 - l2)


def _joe_log_h(lub, lvb, th):
    # With a = (1-u)**th, b = (1-v)**th: h = (1 + a (1-b)/b)**(1/th - 1) (1 - a)
    la, lb = th * lub, th * lvb
    return (1.0 / th - 1.0) * softplus(la + log1mexp(lb) - lb) + log1mexp(la)


def _joe_h_log_pair(lu, lub, lv, lvb, th):
    return _with_complement(_joe_log_h(lub, lvb, th))


#: Base pair kind -> h-function on log pairs, (lu, lub, lv, lvb, th) -> (lh, lhb).
_H_LOG_PAIR = {
    "indep": lambda lu, lub, lv, lvb, th: np.broadcast_arrays(lu, lub, lv)[:2],
    "clayton": _clayton_h_log_pair,
    "gumbel": _gumbel_h_log_pair,
    "frank": _frank_h_log_pair,
    "joe": _joe_h_log_pair,
}


def _log_pair_args(kind: str, p, q):
    (lu, lub), (lv, lvb) = p, q
    if _reflected(kind):
        return lub, lu, lvb, lv
    return lu, lub, lv, lvb


def pair_h_log_pair(fam: PairFamily, p, q):
    """pair_h on log pairs, clamped as pair_h clips; u-space kinds only."""
    _need_u_kind(fam)
    lh, lhb = _clamp_log_pair(_H_LOG_PAIR[_base_kind(fam.kind)](
        *_log_pair_args(fam.kind, p, q), fam.theta))
    return (lhb, lh) if _reflected(fam.kind) else (lh, lhb)


def pair_log_density_log_pair(fam: PairFamily, p, q):
    """pair_log_density on log pairs; u-space kinds only."""
    _need_u_kind(fam)
    prepare, evaluate = _PAIR_LOG_DENSITY[_base_kind(fam.kind)]
    return _ret(evaluate(prepare(*_log_pair_args(fam.kind, p, q)), fam.theta))


def pair_tau(fam: PairFamily) -> float:
    """Population Kendall's tau of the family."""
    kind, th = _base_kind(fam.kind), fam.theta
    if kind == "indep":
        return 0.0
    if kind == "gaussian":
        return 2.0 / math.pi * math.asin(th)
    if kind == "clayton":
        return th / (th + 2.0)
    if kind == "gumbel":
        return 1.0 - 1.0 / th
    if kind == "frank":
        a = abs(th)
        debye = quad_1d(lambda t: t / math.expm1(t) if t > 0 else 1.0, 0.0, a,
                        tol=1e-12) / a
        return math.copysign(1.0 + 4.0 * (debye - 1.0) / a, th)
    # joe: Archimedean generator integral
    def gen_ratio(s: float) -> float:
        sth = s ** th
        return math.log1p(-sth) * (1.0 - sth) / (th * s ** (th - 1.0))

    return 1.0 + 4.0 * quad_1d(gen_ratio, 0.0, 1.0, tol=1e-11)


def tau_inverse(kind: str, tau: float) -> float:
    """Parameter whose population tau equals `tau`; numeric for frank/joe."""
    base = _base_kind(kind)
    if base == "indep":
        raise DomainError("independence has no parameter to solve for")
    if base == "gaussian":
        if not -1.0 < tau < 1.0:
            raise DomainError(f"gaussian tau must lie in (-1, 1), got {tau}")
        return math.sin(math.pi * tau / 2.0)
    if base == "clayton":
        if not 0.0 < tau < 1.0:
            raise DomainError(f"clayton tau must lie in (0, 1), got {tau}")
        return 2.0 * tau / (1.0 - tau)
    if base == "gumbel":
        if not 0.0 <= tau < 1.0:
            raise DomainError(f"gumbel tau must lie in [0, 1), got {tau}")
        return 1.0 / (1.0 - tau)
    lo, hi, _ = PAIR_BOXES[base]
    lo_tau = pair_tau(PairFamily(base, lo))
    hi_tau = pair_tau(PairFamily(base, hi))
    if not lo_tau - 1e-12 <= tau <= hi_tau + 1e-12:
        raise DomainError(
            f"{base} tau must lie in [{lo_tau:.4f}, {hi_tau:.4f}], got {tau}")

    def tau_of(t):
        # frank's tau is continuous through theta = 0 (independence limit),
        # but the parameter itself is excluded; bisection may land there.
        flat = [0.0 if base == "frank" and x == 0.0
                else pair_tau(PairFamily(base, float(x)))
                for x in np.atleast_1d(t)]
        return np.asarray(flat).reshape(np.shape(t))

    return float(invert_monotone(tau_of, tau, (lo, hi), tol=1e-9))
