"""Correctness checks for the benchmark's workloads.

Every check compares the program's output either with a computation made here
from closed forms, or with a property the X-vine method must have. This module
does not import xvine: the bivariate densities, h-functions, tail-dependence
coefficients, the vine recursion, the ranks and the likelihood searches below
are written afresh, so agreement with the program is evidence and not
tautology. Model descriptions (edge lists, family kinds, parameters, search
boxes) are inputs the workload hands in as plain tuples.

Each check raises CheckError with a message naming what disagreed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special, stats

#: Pair-copula arguments and h-function values are clamped to
#: [EPS_UNIT, 1 - EPS_UNIT]; this is part of the method's definition.
EPS_UNIT = 1e-12

#: Standard errors a Monte Carlo estimate may stray before a check fails.
MC_Z = 5.0

#: Every row of a density must match to this absolute error in log ...
ROW_ABS_TOL = 1e-2
#: ... and this share of rows to a relative error near double precision.
TIGHT_SHARE = 0.97

#: Kolmogorov-Smirnov p-value below which a coordinate is not uniform.
KS_ALPHA = 1e-6

#: Largest gap between a fitted first-tree chi and the Student-t limit. The
#: threshold k/n = 1% is not yet the limit, and no tail family in the
#: catalogue is the Student-t one, so fitted chi sits up to ~0.09 above it.
FIT_CHI_TOL = 0.15


class CheckError(Exception):
    """A program output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# closed forms: tail-copula densities r(x, y) with unit margins, their
# conditional CDFs h(x | y) = int_0^x r(s, y) ds, and chi = mass on [0, 1]^2
# ---------------------------------------------------------------------------

def tail_logpdf(kind: str, theta: float, x, y):
    lx, ly = np.log(x), np.log(y)
    if kind == "hr":
        t = lx - ly + theta / 2.0
        return -ly - 0.5 * math.log(2.0 * math.pi * theta) - t * t / (2.0 * theta)
    if kind == "logistic":
        return (math.log(theta - 1.0) + (theta - 1.0) * (lx + ly)
                + (1.0 / theta - 2.0) * np.logaddexp(theta * lx, theta * ly))
    if kind == "neglogistic":
        return (math.log(theta + 1.0) - (theta + 1.0) * (lx + ly)
                - (1.0 / theta + 2.0) * np.logaddexp(-theta * lx, -theta * ly))
    if kind == "dirichlet":
        return (theta * (lx + ly) - (2.0 * theta + 1.0) * np.log(x + y)
                - special.betaln(theta + 1.0, theta))
    raise ValueError(f"no closed form for tail family {kind!r}")


def tail_cdf_given(kind: str, theta: float, x, y):
    """h(x | y): conditional CDF of the first coordinate given the second."""
    t = np.log(x) - np.log(y)
    if kind == "hr":
        return stats.norm.cdf((t - theta / 2.0) / math.sqrt(theta))
    if kind == "logistic":
        return -np.expm1((1.0 / theta - 1.0) * np.logaddexp(0.0, theta * t))
    if kind == "neglogistic":
        return np.exp(-(1.0 + 1.0 / theta) * np.logaddexp(0.0, -theta * t))
    if kind == "dirichlet":
        return stats.beta.cdf(x / (x + y), theta + 1.0, theta)
    raise ValueError(f"no closed form for tail family {kind!r}")


def tail_chi(kind: str, theta: float) -> float:
    if kind == "hr":
        return float(2.0 * stats.norm.sf(math.sqrt(theta) / 2.0))
    if kind == "logistic":
        return 2.0 - 2.0 ** (1.0 / theta)
    if kind == "neglogistic":
        return 2.0 ** (-1.0 / theta)
    if kind == "dirichlet":
        # chi = int_0^1 h(1 | y) dy
        val, _ = integrate.quad(
            lambda y: stats.beta.cdf(1.0 / (1.0 + y), theta + 1.0, theta),
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        return float(val)
    raise ValueError(f"no closed form for tail family {kind!r}")


def student_t_chi(rho: float, nu: float) -> float:
    """Tail dependence coefficient of a bivariate Student-t with correlation rho."""
    return float(2.0 * stats.t.cdf(-math.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho)),
                                   nu + 1.0))


# ---------------------------------------------------------------------------
# closed forms: pair copulas c(u, v) and h(u | v) = dC(u, v)/dv
# ---------------------------------------------------------------------------

def _unit(u):
    return np.clip(np.asarray(u, dtype=float), EPS_UNIT, 1.0 - EPS_UNIT)


def pair_logpdf(kind: str, theta: float, u, v):
    u, v = _unit(u), _unit(v)
    if kind == "gaussian":
        a, b = special.ndtri(u), special.ndtri(v)
        s = 1.0 - theta * theta
        joint = -math.log(2.0 * math.pi) - 0.5 * math.log(s) - (a * a - 2.0 * theta * a * b + b * b) / (2.0 * s)
        return joint - stats.norm.logpdf(a) - stats.norm.logpdf(b)
    if kind == "clayton":
        return (math.log(theta + 1.0) - (theta + 1.0) * np.log(u * v)
                - (2.0 + 1.0 / theta) * np.log(u ** -theta + v ** -theta - 1.0))
    if kind == "gumbel":
        x, y = -np.log(u), -np.log(v)
        big_a = x ** theta + y ** theta
        root = big_a ** (1.0 / theta)
        return (-root - np.log(u * v) + (theta - 1.0) * np.log(x * y)
                + (1.0 / theta - 2.0) * np.log(big_a) + np.log(root + theta - 1.0))
    raise ValueError(f"no closed form for pair family {kind!r}")


def pair_cdf_given(kind: str, theta: float, u, v):
    u, v = _unit(u), _unit(v)
    if kind == "gaussian":
        out = stats.norm.cdf((special.ndtri(u) - theta * special.ndtri(v))
                             / math.sqrt(1.0 - theta * theta))
    elif kind == "clayton":
        out = v ** (-theta - 1.0) * (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta - 1.0)
    elif kind == "gumbel":
        x, y = -np.log(u), -np.log(v)
        big_a = x ** theta + y ** theta
        out = np.exp(-big_a ** (1.0 / theta)) * big_a ** (1.0 / theta - 1.0) * y ** (theta - 1.0) / v
    else:
        raise ValueError(f"no closed form for pair family {kind!r}")
    return _unit(out)


# ---------------------------------------------------------------------------
# the vine recursion, per row, from an edge list
# ---------------------------------------------------------------------------

class VineOracle:
    """Density and conditional CDFs of an X-vine from its edge list.

    `edges` holds (a, b, cond, kind, theta) tuples: tail families on edges
    with an empty conditioning set, pair copulas deeper. The conditional CDF
    of `var` given a set D comes from the one edge whose variables are
    {var} u D: with that edge (var, c; D minus c),
    F(var | D) = h(F(var | D minus c) | F(c | D minus c)).
    """

    def __init__(self, edges, columns: dict[int, np.ndarray]):
        self.edges = [(int(a), int(b), frozenset(cond), kind, float(theta))
                      for a, b, cond, kind, theta in edges]
        self.by_union = {frozenset(cond) | {a, b}: (a, b, frozenset(cond), kind, theta)
                         for a, b, cond, kind, theta in self.edges}
        self.x = columns
        self.memo: dict[tuple[int, frozenset], np.ndarray] = {}

    def cdf(self, var: int, given) -> np.ndarray:
        given = frozenset(given)
        key = (var, given)
        if key not in self.memo:
            a, b, cond, kind, theta = self.by_union[given | {var}]
            other = b if var == a else a
            if not cond:
                val = tail_cdf_given(kind, theta, self.x[var], self.x[other])
            else:
                val = pair_cdf_given(kind, theta, self.cdf(var, cond), self.cdf(other, cond))
            self.memo[key] = val
        return self.memo[key]

    def log_density(self) -> np.ndarray:
        total = 0.0
        for a, b, cond, kind, theta in self.edges:
            if not cond:
                total = total + tail_logpdf(kind, theta, self.x[a], self.x[b])
            else:
                total = total + pair_logpdf(kind, theta, self.cdf(a, cond), self.cdf(b, cond))
        return total


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _close(got, want, rel: float, name: str) -> None:
    """Agreement to `rel` on most rows and to ROW_ABS_TOL on every row.

    A conditional value within ~1e-12 of 1 keeps only ~4 digits of its
    complement in double precision, so on the few rows that reach one the
    density can move by up to ~1e-3 in log under any change of rounding.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(bool(np.isfinite(got).all()), f"{name} is not finite on every row")
    gap = np.abs(got - want)
    tight = gap <= rel * (1.0 + np.abs(want))
    worst = int(np.argmax(gap))
    require(bool(gap[worst] <= ROW_ABS_TOL),
            f"{name} is off by {gap[worst]:.3g} on row {worst}")
    require(float(tight.mean()) >= TIGHT_SHARE,
            f"{name} agrees to {rel:g} on only {tight.mean():.2%} of rows")


def check_homogeneity(log_density, scaled_log_density, scale: float, d: int) -> None:
    """log r(t x) - log r(x) = (1 - d) log t on every row."""
    ld = np.asarray(log_density, dtype=float)
    require(bool(np.isfinite(ld).all()), "log_density is not finite on every row")
    _close(scaled_log_density, ld + (1.0 - d) * math.log(scale), 1e-8,
           "homogeneity of order 1-d")


def check_against_oracle(edges, points, rows, log_density, cond_cdf, target: int,
                         given) -> None:
    """log_density and conditional_cdf agree with VineOracle on the given rows."""
    pts = np.asarray(points, dtype=float)[rows]
    oracle = VineOracle(edges, {j + 1: pts[:, j] for j in range(pts.shape[1])})
    _close(np.asarray(log_density, dtype=float)[rows], oracle.log_density(), 1e-8,
           "log_density against the recursion oracle")
    _close(np.asarray(cond_cdf, dtype=float)[rows], oracle.cdf(target, given), 1e-9,
           "conditional_cdf against the recursion oracle")


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def check_inverted_pareto(z, proposals: int, accepted: int, n: int,
                          first_tree) -> None:
    """Laws an inverted-Pareto sample must follow.

    `first_tree` holds (a, b, kind, theta) for every first-tree edge.
    """
    z = np.asarray(z, dtype=float)
    require(z.ndim == 2 and z.shape[0] == n, f"expected {n} rows, got shape {z.shape}")
    d = z.shape[1]
    require(bool(np.isfinite(z).all() and (z > 0.0).all()),
            "sample rows must be positive and finite")
    require(bool((z.min(axis=1) < 1.0).all()), "a sample row lies off the slab min z < 1")
    require(0 < accepted <= proposals, f"bad rejection counts {accepted}/{proposals}")
    below = z < 1.0
    rate = accepted / proposals
    for j in range(d):
        # unit margins and acceptance R(L)/d give P(Z_j < 1) d rate = 1
        p = float(below[:, j].mean())
        value = p * d * rate
        se = math.sqrt((1.0 - p) / (n * p) + (1.0 - rate) / (proposals * rate))
        require(abs(value - 1.0) <= MC_Z * se,
                f"P(Z_{j + 1} < 1) * d * acceptance = {value:.4f}, want 1 +- {MC_Z * se:.4f}")
        pval = stats.kstest(z[below[:, j], j], "uniform").pvalue
        require(pval > KS_ALPHA,
                f"Z_{j + 1} given Z_{j + 1} < 1 is not uniform (KS p = {pval:.3g})")
    for a, b, kind, theta in first_tree:
        base = below[:, a - 1]
        m = int(base.sum())
        got = float((base & below[:, b - 1]).sum()) / m
        want = tail_chi(kind, theta)
        tol = MC_Z * math.sqrt(want * (1.0 - want) / m)
        require(abs(got - want) <= tol,
                f"empirical chi on edge ({a},{b}) is {got:.4f}, "
                f"{kind} closed form {want:.4f} +- {tol:.4f}")


def check_thread_identity(z1, stats1, z2, stats2) -> None:
    """Rows and rejection counts are bit-identical across thread counts."""
    require(np.array_equal(np.asarray(z1), np.asarray(z2)),
            "samples differ between threads=1 and threads=2")
    require(tuple(stats1) == tuple(stats2),
            f"rejection counts differ between thread counts: {stats1} vs {stats2}")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def exceedances(data, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverted-Pareto scale z = (n - rank + 1/2) / k from max-ranks, and z < 1."""
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    rank = np.empty(x.shape)
    for j in range(x.shape[1]):
        # continuous data: no ties, so ordinal ranks are the max-ranks
        rank[np.argsort(x[:, j], kind="stable"), j] = np.arange(1, n + 1)
    z = (n - rank + 0.5) / k
    return z, z < 1.0


def _max_spanning_weight(w: np.ndarray) -> float:
    """Prim's algorithm on a dense symmetric weight matrix."""
    d = w.shape[0]
    inside = np.zeros(d, dtype=bool)
    inside[0] = True
    best = w[0].copy()
    total = 0.0
    for _ in range(d - 1):
        cand = np.where(inside, -np.inf, best)
        j = int(np.argmax(cand))
        total += float(cand[j])
        inside[j] = True
        best = np.maximum(best, w[j])
    return total


def check_first_tree_mst(tree_edges, exceed, k: int) -> None:
    """The first tree is a maximum spanning tree under empirical chi."""
    d = exceed.shape[1]
    e = exceed.astype(float)
    chi = (e.T @ e) / k
    np.fill_diagonal(chi, -np.inf)
    require(len(tree_edges) == d - 1, f"first tree has {len(tree_edges)} edges, want {d - 1}")
    parent = list(range(d + 1))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in tree_edges:
        ra, rb = find(a), find(b)
        require(ra != rb, f"first tree has a cycle through edge ({a},{b})")
        parent[ra] = rb
    got = sum(float(chi[a - 1, b - 1]) for a, b in tree_edges)
    want = _max_spanning_weight(chi)
    require(got >= want - 1e-12,
            f"first tree weighs {got:.6f} under empirical chi; the maximum is {want:.6f}")


_FWD = {"log": np.log, "logm1": lambda t: np.log(t - 1.0), "atanh": np.arctanh,
        "identity": lambda t: t}
_INV = {"log": np.exp, "logm1": lambda s: np.exp(s) + 1.0, "atanh": np.tanh,
        "identity": lambda s: s}


def censored_fit(kind: str, box, za, zb) -> tuple[float, float, float]:
    """Maximize sum log r over exceedance rows on the transformed axis of `box`.

    Returns (theta, max log-likelihood, transformed theta).
    """
    lo, hi, transform = box
    fwd, inv = _FWD[transform], _INV[transform]

    def neg(s):
        val = float(np.sum(tail_logpdf(kind, float(inv(s)), za, zb)))
        return -val if math.isfinite(val) else 1e300

    res = optimize.minimize_scalar(neg, bounds=(fwd(lo), fwd(hi)), method="bounded",
                                   options={"xatol": 1e-10, "maxiter": 1000})
    s = float(res.x)
    step = 1e-3 * (fwd(hi) - fwd(lo))
    for t in (s - step, s + step):
        if fwd(lo) <= t <= fwd(hi):
            require(neg(t) >= res.fun - 1e-9,
                    f"{kind}: no local maximum of the censored likelihood at {inv(s)}")
    return float(inv(s)), -float(res.fun), s


def check_first_tree_fits(records, z, exceed, boxes) -> None:
    """Each first-tree log-likelihood and theta match a fresh censored fit.

    The method fits once over each coordinate's exceedances, reports the mean
    of the two maximizers as theta and the mean of the two maxima as the
    log-likelihood.
    """
    for rec in records:
        a, b, kind, theta = rec["a"], rec["b"], rec["family"], rec["theta"]
        box = boxes[kind]
        halves = [censored_fit(kind, box, z[m, a - 1], z[m, b - 1])
                  for m in (exceed[:, a - 1], exceed[:, b - 1])]
        want_theta = 0.5 * (halves[0][0] + halves[1][0])
        want_ll = 0.5 * (halves[0][1] + halves[1][1])
        fwd = _FWD[box[2]]
        require(abs(float(fwd(theta)) - float(fwd(want_theta))) <= 1e-5,
                f"edge ({a},{b}) {kind}: theta {theta:.8g} is not the mean "
                f"of the half-sample maxima {want_theta:.8g}")
        require(abs(rec["loglik"] - want_ll) <= 1e-6 * (1.0 + abs(want_ll)),
                f"edge ({a},{b}) {kind}: log-likelihood {rec['loglik']:.10g}, "
                f"recomputed {want_ll:.10g}")


def check_fit_chi(records, corr: np.ndarray, nu: float) -> None:
    """Fitted first-tree chi lies within FIT_CHI_TOL of the Student-t limit."""
    for rec in records:
        a, b = rec["a"], rec["b"]
        got = tail_chi(rec["family"], rec["theta"])
        want = student_t_chi(float(corr[a - 1, b - 1]), nu)
        require(abs(got - want) <= FIT_CHI_TOL,
                f"edge ({a},{b}): fitted chi {got:.4f}, Student-t chi {want:.4f}")


def check_mbic(mbic, q_star) -> None:
    """q_star is the argmin of the reported mBIC curve."""
    require(len(mbic) > 0 and q_star is not None, "mBIC truncation reported no curve")
    require(q_star == 1 + int(np.argmin(mbic)),
            f"q_star={q_star} is not the argmin of the mBIC curve {list(mbic)}")
