"""Rank-based pseudo-samples, per-edge fits, family selection, structure learning, truncation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from numbers import Integral
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateColumn,
    DomainError,
    InfeasibleLevel,
    InsufficientData,
    NotATree,
    XVineError,
)
from .families import (
    _PAIR_RECORDS,
    _TAIL_RECORDS,
    PAIR_KINDS,
    TAIL_KINDS,
    PairFamily,
    TailFamily,
    _from_unit,
    _Kind,
    _kind_record,
    _unit,
)
from .model import XVineSpec, _Evaluator
from .numerics import _TRANSFORMS, ScalarProblem, minimize_scalar
from .simulate import _count, parallel_map
from .vines import Edge, VineSequence, _components, _edge_key, _kruskal_forest


# ---------------------------------------------------------------------------
# pseudo-samples

@dataclass(frozen=True)
class PseudoSample:
    """Observations on the inverted-Pareto scale plus exceedance bookkeeping;
    z is checked here, positive and finite, and the tail fits read it as it is."""

    z: np.ndarray
    k: float
    n: int
    exceed: np.ndarray

    def __post_init__(self) -> None:
        if self.z.ndim != 2 or self.z.shape != self.exceed.shape:
            raise DomainError("pseudo-sample arrays must be matching 2-d arrays")
        if self.n != self.z.shape[0]:
            raise DomainError("row count mismatch in pseudo-sample")
        if not np.all((self.z > 0.0) & (self.z < np.inf)):
            raise DomainError("pseudo-sample z must be positive and finite")
        if not 0 < self.k:
            raise DomainError("effective sample size k must be positive")

    @property
    def d(self) -> int:
        return self.z.shape[1]


def _matrix(data) -> np.ndarray:
    """data as a float array of at least two rows and two columns."""
    try:
        X = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("data must be an array of numbers") from None
    if X.ndim != 2 or min(X.shape) < 2:
        raise DomainError("data must be a 2-d array of at least two rows and two columns")
    return X


def _raw_data(data: np.ndarray, k: int) -> np.ndarray:
    """The raw observations as a float array, checked for a rank transform with k."""
    X = _matrix(data)
    n, d = X.shape
    if not np.isfinite(X).all():
        raise DomainError("data contains non-finite entries")
    if not 0 < k < n:
        raise DomainError(f"k must lie strictly between 0 and n={n}")
    for j in range(d):
        if np.all(X[:, j] == X[0, j]):
            raise DegenerateColumn(f"column {j + 1} is constant")
    return X


def _scaled_ranks(rnk: np.ndarray, n: int, k: float) -> np.ndarray:
    """Maximal ranks out of n on the inverted-Pareto scale of k exceedances."""
    u_hat = 1.0 - (rnk - 0.5) / n
    return u_hat * (n / float(k))


def _max_ranks(cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Maximal ranks of the entries of `rows` within the sorted columns `cols`.

    The maximal rank of an entry is the count of column entries <= it, that is
    its right insertion point in the sorted column.
    """
    rnk = np.empty(rows.shape, dtype=np.intp)
    for j, col in enumerate(cols):
        rnk[:, j] = np.searchsorted(col, rows[:, j], side="right")
    return rnk


def rank_transform(data: np.ndarray, k: int) -> PseudoSample:
    """Turn raw observations into inverted-Pareto pseudo-observations.

    Column ``j`` is mapped through its maximal ranks to
    ``(n / k) * (1 - (rnk - 0.5) / n)``, so values below 1 flag the ``k``
    largest observations of that column.
    """
    X = _raw_data(data, k)
    z = _scaled_ranks(_max_ranks(np.sort(X.T, axis=1), X), X.shape[0], k)
    return PseudoSample(z=z, k=float(k), n=X.shape[0], exceed=z < 1.0)


def _exceedance_rows(data: np.ndarray, k: int) -> tuple[int, PseudoSample]:
    """The row count and rank_transform(data, k) on the rows with an exceedance.

    Only those rows are ranked: a column's exceedances are its entries at or
    above its (n - top + 1)-th smallest, top being the number of maximal ranks
    that scale below 1 (k of them for integer k).
    """
    X = _raw_data(data, k)
    n = X.shape[0]
    cols = np.sort(X.T, axis=1)
    top = int(np.count_nonzero(_scaled_ranks(np.arange(1, n + 1), n, k) < 1.0))
    exceed = X >= (cols[:, n - top] if top else np.inf)
    rows = exceed.any(axis=1)
    kept = X[rows]
    return n, PseudoSample(z=_scaled_ranks(_max_ranks(cols, kept), n, k), k=float(k),
                           n=kept.shape[0], exceed=exceed[rows])


def from_inverted_pareto(data: np.ndarray) -> PseudoSample:
    """Wrap samples already on the inverted-Pareto scale; k is the mean exceedance count."""
    Z = _matrix(data)
    if not np.isfinite(Z).all() or (Z <= 0).any():
        raise DomainError("inverted-Pareto data must be strictly positive and finite")
    exceed = Z < 1.0
    k = float(exceed.sum(axis=0).mean())
    if k < 1.0:
        raise InsufficientData("fewer than one exceedance per column on average")
    return PseudoSample(z=Z.copy(), k=k, n=Z.shape[0], exceed=exceed)


def _check_indices(ps: PseudoSample, idx: Sequence[int], m: int) -> tuple[int, ...]:
    out = tuple(int(i) for i in idx)
    if len(out) != m or len(set(out)) != m:
        raise DomainError(f"expected {m} distinct indices, got {idx!r}")
    if any(not 1 <= i <= ps.d for i in out):
        raise DomainError(f"indices out of range 1..{ps.d}: {idx!r}")
    return out


def empirical_chi(ps: PseudoSample, idx: Sequence[int]) -> float:
    """Empirical tail dependence of two or more coordinates: joint exceedances over k."""
    out = _check_indices(ps, idx, len(idx))
    if len(out) < 2:
        raise DomainError("need at least two indices")
    mask = np.logical_and.reduce([ps.exceed[:, i - 1] for i in out])
    return float(mask.sum()) / ps.k


def _tied_pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _discordant_pairs(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j] in an integer array, in O(n log n).

    Knight's (1966, JASA 61) merge count, bottom up: at each width, every
    sorted left block is merged with its right neighbour in one vectorised
    step, counting for each right entry the larger entries on its left.
    """
    n = y.size
    y = y.astype(np.int64)
    span = int(y.max()) + 1
    pos = np.arange(n)
    dis = 0
    width = 1
    while width < n:
        offset = pos // (2 * width) * span  # keeps block pairs apart in one sort
        keys = offset + y
        left = pos % (2 * width) < width
        lk, rk = keys[left], keys[~left]
        end = np.searchsorted(lk, offset[~left] + span)
        dis += int((end - np.searchsorted(lk, rk, side="right")).sum())
        y = np.sort(keys, kind="stable") - offset
        width *= 2
    return dis


def empirical_tau(u: np.ndarray, v: np.ndarray) -> float:
    """Sample Kendall's tau-b; degenerate inputs give 0.

    Ties and the final ratio follow scipy.stats.kendalltau, so the two agree
    bit for bit.
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.size != v.size:
        raise DomainError("mismatched sample sizes")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("Kendall's tau needs finite values")
    n = u.size
    if n < 2:
        return 0.0
    order = np.lexsort((v, u))  # by u, ties by v
    us = u[order]
    x = np.r_[True, us[1:] != us[:-1]].cumsum()
    y = np.unique(v, return_inverse=True)[1][order]
    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _tied_pairs(np.diff(np.flatnonzero(joint)))
    xtie, ytie = _tied_pairs(np.bincount(x)), _tied_pairs(np.bincount(y))
    tot = n * (n - 1) // 2
    if xtie == tot or ytie == tot:
        return 0.0
    con_minus_dis = tot - xtie - ytie + ntie - 2 * _discordant_pairs(y)
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


# ---------------------------------------------------------------------------
# single-edge fits

@dataclass(frozen=True)
class EdgeFit:
    """Outcome of fitting one parametric family on one edge."""

    family: TailFamily | PairFamily
    loglik: float
    aic: float
    n_eff: int
    at_boundary: bool = False
    forced_indep: bool = False
    selected_over: tuple[tuple[str, float], ...] = ()


def _maximize(rec: _Kind, p) -> tuple[float, float, bool]:
    """Maximize the kind's log-likelihood over its box, on data `p` from its prepare
    step: (theta, maximum, at_boundary). The box lies in the kind's domain, so
    the objective checks no theta."""
    lo, hi, transform = rec.box

    def objective(theta: float) -> float:
        return -float(rec.evaluate(p, theta).sum())

    theta, neg = minimize_scalar(ScalarProblem(objective, (lo, hi), transform), tol=1e-7)
    fwd = _TRANSFORMS[transform][0]
    t, tlo, thi = fwd(theta), fwd(lo), fwd(hi)
    margin = 1e-3 * (thi - tlo)
    boundary = bool((t - tlo) < margin or (thi - t) < margin)
    return theta, -neg, boundary


def fit_tail_edge(
    ps: PseudoSample,
    a: int,
    b: int,
    kind: str,
    *,
    n_min: int = 10,
) -> EdgeFit:
    """Censored-likelihood fit of a tail family on a first-tree edge.

    Maximizes the likelihood twice, once over each coordinate's exceedance
    rows, and averages the two estimates. The reported AIC is the paper's
    half-sum one, ``2 - (l_a + l_b) / 2``.
    """
    a, b = _check_indices(ps, (a, b), 2)
    rec = _kind_record(_TAIL_RECORDS, "tail", kind)
    masks = ps.exceed[:, a - 1], ps.exceed[:, b - 1]
    if min(mask.sum() for mask in masks) < n_min:
        raise InsufficientData(f"edge ({a},{b}): need at least {n_min} exceedances on each side")
    thetas, logls, flags = zip(*(
        _maximize(rec, rec.prepare(ps.z[mask, a - 1], ps.z[mask, b - 1])) for mask in masks))
    half_sum = 0.5 * (logls[0] + logls[1])
    return EdgeFit(TailFamily(kind, 0.5 * (thetas[0] + thetas[1])), half_sum, 2.0 - half_sum,
                   int((masks[0] | masks[1]).sum()), at_boundary=any(flags))


def _fit_pair(kind: str, forms: Callable[[bool], tuple], n: int, n_min: int) -> EdgeFit:
    """fit_pair_edge on n pairs of conditional values given in either form:
    forms(score) is the two arrays as normal scores or as log pairs, clamped."""
    rec = _kind_record(_PAIR_RECORDS, "pair", kind)
    if rec.box is None:  # no parameter to fit
        return EdgeFit(family=PairFamily(kind), loglik=0.0, aic=0.0, n_eff=n)
    if n < n_min:
        raise InsufficientData(f"need at least {n_min} rows, got {n}")
    theta, ll, flag = _maximize(rec, rec.prepare(*forms(rec.score)))
    return EdgeFit(PairFamily(kind, theta), ll, 2.0 - 2.0 * ll, n, at_boundary=flag)


def _unit_forms(u, v) -> Callable[[bool], tuple]:
    """forms() of u-space pairs, clipped and converted as the pair kernels do."""
    u, v = _unit("pair fit", u, v)
    if u.size != v.size:
        raise DomainError("mismatched sample sizes")
    return lambda score: (_from_unit(u, score), _from_unit(v, score))


def fit_pair_edge(u: np.ndarray, v: np.ndarray, kind: str, *, n_min: int = 10) -> EdgeFit:
    """Maximum pseudo-likelihood fit of a pair-copula family."""
    return _fit_pair(kind, _unit_forms(u, v), int(np.size(u)), n_min)


def _forced_indep(n: int) -> EdgeFit:
    return EdgeFit(family=PairFamily("indep"), loglik=0.0, aic=0.0, n_eff=n, forced_indep=True)


def _lowest_aic(catalogue: Sequence[str], fits: Sequence[EdgeFit]) -> EdgeFit:
    """The first fit of lowest AIC, with every kind's AIC as `selected_over`."""
    best = min(fits, key=lambda f: f.aic)
    return replace(best, selected_over=tuple(zip(catalogue, (f.aic for f in fits))))


def select_tail_family(
    ps: PseudoSample,
    a: int,
    b: int,
    catalogue: Sequence[str] = TAIL_KINDS,
    *,
    n_min: int = 10,
) -> EdgeFit:
    """Fit every tail family in the catalogue and keep the lowest AIC."""
    if not catalogue:
        raise DomainError("empty tail catalogue")
    return _lowest_aic(catalogue, [fit_tail_edge(ps, a, b, kind, n_min=n_min)
                                   for kind in catalogue])


def select_pair_family(
    u: np.ndarray,
    v: np.ndarray,
    catalogue: Sequence[str] = PAIR_KINDS,
    *,
    tau_min: float = 0.05,
    n_min: int = 10,
) -> EdgeFit:
    """AIC-based pair-family selection with an independence shortcut.

    Edges whose sample is too small or whose Kendall's tau is below
    ``tau_min`` in absolute value are forced to the independence copula
    without trying the rest of the catalogue.
    """
    forms, n = _unit_forms(u, v), int(np.size(u))
    return _select_pair(catalogue, forms, n, abs(empirical_tau(u, v)), tau_min, n_min)


def _select_pair(catalogue: Sequence[str], forms: Callable[[bool], tuple], n: int,
                 abs_tau: float, tau_min: float, n_min: int) -> EdgeFit:
    """select_pair_family on n pairs given as _fit_pair reads them, whose
    |tau| is abs_tau."""
    if not catalogue:
        raise DomainError("empty pair catalogue")
    if n < n_min or abs_tau < tau_min:
        return _forced_indep(n)
    return _lowest_aic(catalogue, [_fit_pair(kind, forms, n, n_min) for kind in catalogue])


# ---------------------------------------------------------------------------
# maximum spanning trees

def _kruskal(nodes: Sequence, weighted: Sequence[tuple[float, tuple, tuple]]) -> list:
    """Maximum spanning tree by Kruskal with deterministic tie-breaking.

    Each candidate is (weight, key, (x, y)): the key breaks ties between equal
    weights, and (x, y) is the pair of nodes it joins. Returns the chosen
    pairs in the order Kruskal takes them.
    """
    ranked = sorted(weighted, key=lambda t: (-t[0], t[1]))
    chosen = _kruskal_forest(nodes, [pair for _w, _key, pair in ranked])
    if len(chosen) != len(nodes) - 1:
        raise NotATree("candidate graph is not connected")
    return chosen


# ---------------------------------------------------------------------------
# sequential pipeline

@dataclass(frozen=True)
class FitOptions:
    """Knobs for the full fitting pipeline.

    `families` pins edges to kinds: its keys name edges as
    `VineSequence.find_edge` reads them, and a key with an empty conditioning
    set (a first-tree edge) takes a tail kind, any other key a pair kind.
    """

    input_kind: str = "raw"
    structure: VineSequence | None = None
    truncation: int | str = "auto"
    tail_catalogue: tuple[str, ...] = TAIL_KINDS
    pair_catalogue: tuple[str, ...] = PAIR_KINDS
    families: Mapping[tuple, str] = field(default_factory=dict)
    psi0: float = 0.9
    tau_min: float = 0.05
    n_min: int = 10
    threads: int = 1

    def __post_init__(self) -> None:
        if self.input_kind not in ("raw", "inverted-pareto"):
            raise DomainError(f"unknown input kind {self.input_kind!r}")
        if isinstance(self.truncation, str):
            if self.truncation not in ("auto", "mbic"):
                raise DomainError(f"unknown truncation mode {self.truncation!r}")
        elif isinstance(self.truncation, bool) or not isinstance(self.truncation, Integral):
            raise DomainError("truncation must be an int, 'auto' or 'mbic'")
        else:
            object.__setattr__(self, "truncation", int(self.truncation))
        if not 0.0 < self.psi0 < 1.0:
            raise DomainError("psi0 must lie in (0, 1)")
        for what, kinds, known in (("tail_catalogue", self.tail_catalogue, TAIL_KINDS),
                                   ("pair_catalogue", self.pair_catalogue, PAIR_KINDS)):
            if not kinds:
                raise DomainError(f"empty {what}")
            for kind in kinds:
                if kind not in known:
                    raise DomainError(f"unknown family {kind!r} in {what}")
        object.__setattr__(self, "families", {_edge_key(ref): kind
                                              for ref, kind in self.families.items()})
        for key, kind in self.families.items():
            what, known = ("pair", PAIR_KINDS) if key[2] else ("tail", TAIL_KINDS)
            if kind not in known:
                raise DomainError(f"edge {key} needs a {what} kind, got {kind!r}")
            if self.structure is not None:
                self.structure.find_edge(key)   # UnknownEdge if it names no edge
        if (isinstance(self.n_min, bool) or not isinstance(self.n_min, Integral)
                or self.n_min < 1):
            raise DomainError(f"n_min must be a positive integer, got {self.n_min!r}")
        if not 0.0 <= self.tau_min < 1.0:  # NaN fails it too
            raise DomainError(f"tau_min must lie in [0, 1), got {self.tau_min!r}")
        _count(self.threads, "thread count", least=1)


@dataclass(frozen=True)
class FitReport:
    """Fitted model plus per-edge diagnostics and the truncation trace.

    Under mBIC truncation, `mbic` is the curve up to where the fit stopped:
    ``q_star + 1`` entries, or as many as the structure has trees when the
    curve falls all the way, with ``q_star == 1 + argmin(mbic)``. `edges`
    holds the records of the trees kept, and `errors` the failures of every
    tree fitted, in tree and fitting order.
    """

    spec: XVineSpec
    edges: tuple[dict, ...]
    k: float
    n: int
    mbic: tuple[float, ...] = ()
    q_star: int | None = None
    errors: tuple[str, ...] = ()

    def to_json(self) -> dict:
        from .model import model_to_json

        out = model_to_json(self.spec)
        out["edges"] = [dict(rec) for rec in self.edges]
        out["k"] = self.k
        out["n"] = self.n
        if self.mbic:
            out["mbic"] = list(self.mbic)
        if self.q_star is not None:
            out["q_star"] = self.q_star
        if self.errors:
            out["errors"] = list(self.errors)
        return out


def mbic_curve(records: Sequence[Sequence[dict]], psi0: float = 0.9) -> list[float]:
    """Truncation criterion per level; entry ``q-1`` scores truncating after tree q."""
    if not 0.0 < psi0 < 1.0:
        raise DomainError("psi0 must lie in (0, 1)")
    out = [0.0]
    acc = 0.0
    for j in range(2, len(records) + 1):
        psi = psi0 ** (j - 1)
        for rec in records[j - 1]:
            if rec["theta"] is not None:  # every edge but independence
                if not rec["n_eff"] >= 1:
                    raise DomainError(f"n_eff must be at least 1, got {rec['n_eff']!r}")
                acc += math.log(rec["n_eff"]) - 2.0 * math.log(psi / (1.0 - psi))
            acc -= 2.0 * rec["loglik"] + 2.0 * math.log(1.0 - psi)
        out.append(acc)
    return out


def _fit_one_tail(ps: PseudoSample, e: Edge, opts: FitOptions) -> EdgeFit:
    fixed = opts.families.get(e.key)
    if fixed is not None:
        return fit_tail_edge(ps, e.a, e.b, fixed, n_min=opts.n_min)
    return select_tail_family(ps, e.a, e.b, opts.tail_catalogue, n_min=opts.n_min)


def _fit_one_pair(job: tuple, opts: FitOptions) -> tuple[EdgeFit, str | None]:
    """Fit of a deeper edge from its _pair_job; independence and why where it fails."""
    e, n, forms, abs_tau = job
    try:
        fixed = opts.families.get(e.key)
        if fixed is not None:
            return _fit_pair(fixed, forms, n, opts.n_min), None
        return _select_pair(opts.pair_catalogue, forms, n, abs_tau, opts.tau_min,
                            opts.n_min), None
    except XVineError as exc:
        return _forced_indep(n), f"edge {e.label}: {exc}"


def _pair_job(ps: PseudoSample, ev: _Evaluator, e: Edge, opts: FitOptions,
              abs_tau: float | None) -> tuple:
    """A deeper edge's job, read from the memo so that workers only fit: the
    edge, its row count, forms() of its children's values on the joint
    exceedances of its conditioning set in the forms its kinds read, and
    their |tau|, the candidates' abs_tau or computed here for a kind not pinned."""
    mask = _joint_exceedance(ps, e.cond)
    sides = ((e.child_a, e.a), (e.child_b, e.b))
    fixed = opts.families.get(e.key)
    kinds = opts.pair_catalogue if fixed is None else (fixed,)
    # a log pair masks as one (2, n) array, whose rows are its two ends
    forms = {score: tuple(np.asarray(ev.arg(c, node, score))[..., mask] for c, node in sides)
             for score in {_PAIR_RECORDS[k].score for k in kinds}}
    if abs_tau is None and fixed is None:
        abs_tau = abs(empirical_tau(*(ev.native(c, node)[mask] for c, node in sides)))
    return e, int(mask.sum()), forms.__getitem__, abs_tau


def _joint_exceedance(ps: PseudoSample, cond) -> np.ndarray:
    return np.logical_and.reduce([ps.exceed[:, j - 1] for j in sorted(cond)])


def _candidates(ps: PseudoSample, ev: _Evaluator, prev: list[Edge] | None):
    """Nodes and weighted joins from which Kruskal picks the next tree.

    Tree 1 joins variables, weighted by empirical chi. Tree L+1 joins pairs
    of tree-L edges that share one component, weighted by the absolute
    Kendall's tau of their conditional values on the joint exceedances of
    the conditioning set, each in its edge's form (ranked as R itself): the
    values, rows and orientation (a < b) that the chosen edge's family
    selection reads, so it takes that weight as its tau.
    """
    if prev is None:
        nodes = list(range(1, ps.d + 1))
        return nodes, [(empirical_chi(ps, p), p, p) for p in combinations(nodes, 2)]
    weighted = []
    for s, t in combinations(prev, 2):
        if len(_components(s) & _components(t)) != 1:
            continue
        cond = s.union & t.union
        a, b = sorted((s.union | t.union) - cond)
        sa, sb = (s, t) if a in s.union else (t, s)
        mask = _joint_exceedance(ps, cond)
        u, v = ev.native(sa, a), ev.native(sb, b)
        w = abs(empirical_tau(u[mask], v[mask])) if int(mask.sum()) >= 2 else 0.0
        weighted.append((w, (a, b, tuple(sorted(cond))), (s, t)))
    return prev, weighted


def _record(e: Edge, fit: EdgeFit) -> dict:
    fam = fit.family
    return {
        "a": e.a,
        "b": e.b,
        "cond": sorted(e.cond),
        "level": e.level,
        "family": fam.kind,
        "theta": fam.theta,
        "loglik": fit.loglik,
        "aic": fit.aic,
        "n_eff": fit.n_eff,
        "at_boundary": fit.at_boundary,
        "forced_indep": fit.forced_indep,
        "selected_over": [[kind, aic] for kind, aic in fit.selected_over],
    }


def fit_pipeline(data: np.ndarray, k: int | None = None, options: FitOptions | None = None) -> FitReport:
    """Fit an X-vine model tree by tree.

    The first tree carries tail families fitted on marginal exceedances;
    deeper trees carry pair copulas fitted on conditional pseudo-observations
    restricted to joint exceedances of the conditioning variables.  Without a
    given structure, trees are maximum spanning trees under empirical chi
    (first tree) or absolute Kendall's tau (deeper trees), and the vine is
    extended one tree at a time (Dissmann et al. 2013). The pseudo-observations
    are the model's own h-function recursion on the vine fitted so far.

    With ``truncation="mbic"`` the choice is sequential: once tree L + 1 does
    not lower the mBIC curve (`mbic_curve`) below its value after tree L, the
    fit stops with ``q_star = L``, so it grows ``q_star + 1`` trees. The rule
    is not exact, as a deeper tree with a large log-likelihood could take the
    curve below its first local minimum. The whole curve comes from a fit
    with ``truncation`` equal to the structure's depth (``d - 1`` when the
    structure is learned): pass its records, grouped by level, to
    `mbic_curve`. Refitting with ``truncation=1 + argmin(curve)`` gives the
    model at the curve's argmin, as trees are fitted in order.
    """
    opts = options or FitOptions()
    # Every mask below is a subset of the rows with an exceedance, and boolean
    # masks keep row order, so fitting on those rows alone gives the same sums.
    if opts.input_kind == "raw":
        if k is None:
            raise DomainError("k is required for raw input")
        n, ps = _exceedance_rows(data, k)
    else:
        full = from_inverted_pareto(data)
        n, rows = full.n, full.exceed.any(axis=1)
        ps = PseudoSample(z=full.z[rows], k=full.k, n=int(rows.sum()), exceed=full.exceed[rows])
    d = ps.d
    if opts.structure is not None and opts.structure.d != d:
        raise DomainError(
            f"structure has {opts.structure.d} variables but data has {d} columns"
        )

    q_cap = d - 1 if opts.structure is None else opts.structure.q
    if isinstance(opts.truncation, int):
        if not 1 <= opts.truncation <= d - 1:
            raise InfeasibleLevel(f"truncation level {opts.truncation} not in 1..{d - 1}")
        if opts.truncation > q_cap:
            raise InfeasibleLevel(
                f"truncation level {opts.truncation} exceeds structure depth {q_cap}"
            )
        q_fit = opts.truncation
    else:
        q_fit = q_cap

    tail: dict[Edge, TailFamily] = {}
    pairs: dict[Edge, PairFamily] = {}
    levels: list[list[Edge]] = []  # each tree's edges in fitting order
    records: list[list[dict]] = []  # and their diagnostics
    errors: list[str] = []  # in tree and fitting order, whatever the thread count
    # one memo for every tree; the family maps grow as the trees are fitted
    ev = _Evaluator(tail, pairs, {j: ps.z[:, j - 1] for j in range(1, d + 1)})
    vine = None
    for level in range(1, q_fit + 1):
        if opts.structure is not None:
            vine = opts.structure.truncate(level)
            edges = list(vine.trees[-1])
            taus = {}
        else:
            nodes, weighted = _candidates(ps, ev, levels[-1] if levels else None)
            chosen = _kruskal(nodes, weighted)
            # |tau| of each candidate by what it joins: selection reuses it
            taus = {frozenset(pair): w for w, _key, pair in weighted}
            vine = VineSequence([chosen], d=d) if level == 1 else vine.extend(chosen)
            joined = {_components(e): e for e in vine.trees[-1]}
            edges = [joined[frozenset(p)] for p in chosen]
        levels.append(edges)
        if level == 1:
            done = parallel_map(lambda e: (_fit_one_tail(ps, e, opts), None), edges, opts.threads)
        else:
            jobs = [_pair_job(ps, ev, e, opts, taus.get(_components(e))) for e in edges]
            done = parallel_map(lambda job: _fit_one_pair(job, opts), jobs, opts.threads)
        for e, (fit, error) in zip(edges, done):
            (tail if level == 1 else pairs)[e] = fit.family
            if error is not None:
                errors.append(error)
        records.append([_record(e, fit) for e, (fit, _error) in zip(edges, done)])
        if opts.truncation == "mbic" and level > 1:
            *_, before, after = mbic_curve(records, opts.psi0)
            if after >= before:  # tree `level` does not lower the curve
                break

    if opts.structure is None:
        fitted = {e.key for lvl in levels for e in lvl}
        errors += [f"pinned edge {key} is no edge of the fitted vine"
                   for key in opts.families if key not in fitted]

    # --- truncation -------------------------------------------------------
    mbic_list: tuple[float, ...] = ()
    q_star: int | None = None
    if opts.truncation == "mbic":
        curve = mbic_curve(records, opts.psi0)
        mbic_list = tuple(curve)
        q_star = 1 + int(np.argmin(curve))
        q_emit = q_star
    else:
        q_emit = q_fit

    kept_pairs = {e: c for e, c in pairs.items() if e.level <= q_emit}
    return FitReport(
        spec=XVineSpec(vine.truncate(q_emit), tail, kept_pairs),
        edges=tuple(rec for lvl in records[:q_emit] for rec in lvl),
        k=ps.k,
        n=n,
        mbic=mbic_list,
        q_star=q_star,
        errors=tuple(errors),
    )
