"""X-vine models: a tail-copula density per first-tree edge and a pair copula
per deeper edge, coupled along a regular vine.

The joint tail density of the model is the product of the first-tree tail
densities and, for every deeper edge, the pair density evaluated at the two
conditional CDF values of its conditioned variables given its conditioning
set. Those conditionals satisfy a one-step recursion along the vine: the
conditional of a given D u {b} is the pair h-function applied to the
conditionals of a and b given D. Everything here exploits that recursion.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, InvalidIndex, RecursionUnavailable
from .families import (
    _PAIR_RECORDS,
    _TAIL_RECORDS,
    PAIR_KINDS,
    TAIL_KINDS,
    PairFamily,
    TailFamily,
    _clamp_log_pair,
    clamp_score,
    log_pair_to_score,
    pair_h_inv,
    pair_h_inv_score,
    score_to_log_pair,
    tail_h_inv,
    tail_h_inv_score,
    tail_log_density,
)
from .numerics import std_normal_cdf, std_normal_quantile
from .vines import Edge, StructureMatrix, VineSequence, from_structure_matrix


class XVineSpec:
    """A vine plus one family per edge (tail on tree 1, pair copulas deeper).

    `_plans` holds the samplers' plan per conditioning variable, built from
    the vine on first use (`simulate._conditional_plan`).
    """

    __slots__ = ("vine", "tail", "pairs", "_plans")

    def __init__(self, vine: VineSequence, tail: Mapping, pairs: Mapping | None = None):
        pairs = pairs or {}
        tail_map: dict[Edge, TailFamily] = {}
        for ref, f in tail.items():
            e = vine.find_edge(ref)
            if e.level != 1:
                raise DomainError(f"{e.label} is not a first-tree edge")
            if not isinstance(f, TailFamily):
                raise DomainError(f"edge {e.label} needs a TailFamily, got {f!r}")
            if e in tail_map:
                raise DomainError(f"edge {e.label} assigned twice")
            tail_map[e] = f
        pair_map: dict[Edge, PairFamily] = {}
        for ref, c in pairs.items():
            e = vine.find_edge(ref)
            if e.level < 2:
                raise DomainError(f"{e.label} is a first-tree edge, needs a TailFamily")
            if not isinstance(c, PairFamily):
                raise DomainError(f"edge {e.label} needs a PairFamily, got {c!r}")
            if e in pair_map:
                raise DomainError(f"edge {e.label} assigned twice")
            pair_map[e] = c
        for e in vine.trees[0]:
            if e not in tail_map:
                raise DomainError(f"missing tail family for edge {e.label}")
        for t in vine.trees[1:]:
            for e in t:
                if e not in pair_map:
                    raise DomainError(f"missing pair family for edge {e.label}")
        self.vine = vine
        self.tail = tail_map
        self.pairs = pair_map
        self._plans: dict = {}

    @property
    def d(self) -> int:
        return self.vine.d

    @property
    def q(self) -> int:
        return self.vine.q

    def family_of(self, ref):
        e = self.vine.find_edge(ref)
        return self.tail[e] if e.level == 1 else self.pairs[e]

    def __repr__(self) -> str:
        return f"XVineSpec(d={self.d}, q={self.q})"


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _rows(spec: XVineSpec, x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != spec.d:
        raise DomainError(f"expected points with {spec.d} coordinates, got shape {arr.shape}")
    if np.any(np.isnan(arr)):
        raise DomainError("coordinates must not be NaN")
    if np.any(arr == np.inf):
        raise DomainError("coordinates must not be +inf")
    return arr, squeeze


def log_density(spec: XVineSpec, x):
    """log of the tail-copula density; -inf on rows with a nonpositive coordinate.

    A coordinate of -inf counts as nonpositive. NaN or +inf raises DomainError.
    """
    arr, squeeze = _rows(spec, x)
    pos = {n: i for i, n in enumerate(spec.vine.nodes)}
    ok = np.all(arr > 0.0, axis=1)
    out = np.full(arr.shape[0], -np.inf)
    if ok.any():
        xa = arr[ok]
        col = {n: xa[:, pos[n]] for n in spec.vine.nodes}
        total = np.zeros(xa.shape[0])
        for e in spec.vine.trees[0]:
            total += tail_log_density(spec.tail[e], col[e.a], col[e.b])
        ev = _Evaluator(spec.tail, spec.pairs, col)
        for t in spec.vine.trees[1:]:
            for e in t:
                fam, rec = ev.family(e)
                p = rec.prepare(ev.arg(e.child_a, e.a, rec.score),
                                ev.arg(e.child_b, e.b, rec.score))
                total += rec.evaluate(p, fam.theta)
        out[ok] = total
    return float(out[0]) if squeeze else out


def density(spec: XVineSpec, x):
    out = np.exp(log_density(spec, x))
    return float(out) if np.ndim(out) == 0 else out


def exponent_measure_density(spec: XVineSpec, y):
    """Density of the exponent measure at y: r applied at 1/y times prod(y_j^-2).

    Zero on rows with a nonpositive coordinate; NaN or +inf raises DomainError.
    """
    arr, squeeze = _rows(spec, y)
    ok = np.all(arr > 0.0, axis=1)
    out = np.zeros(arr.shape[0])
    if ok.any():
        ya = arr[ok]
        out[ok] = np.exp(log_density(spec, 1.0 / ya) - 2.0 * np.log(ya).sum(axis=1))
    return float(out[0]) if squeeze else out


# ---------------------------------------------------------------------------
# conditional CDF / quantile recursions
# ---------------------------------------------------------------------------

class _Evaluator:
    """The h-function recursion, memoised per call.

    value(e, node, score) is the conditional value R_{node | A_e minus node}:
    tail_h on tree 1, and deeper the pair h-function of e applied to the values
    of its two children, each from the record of e's family kind. An edge of a
    score kind computes it as a normal score z = Phi^-1(R) from scores of its
    children; any other edge computes the log pair (log R, log(1 - R)) from log
    pairs of its children, so a value near 1 keeps its complement exact. A
    reader asks for the form it needs (`score`), and the other form is
    converted once and memoised under (e, node, score). Each value is clamped
    where it is made, a raw tree-1 hr score where a pair edge reads it (`arg`),
    so the records' formulas run with no check. r(e, node) is R itself,
    exp(log R) or Phi(z), memoised as well. quantile inverts down the same
    children with the inverse kernels, which clip the sampler's uniforms.
    Density, conditional CDFs and quantiles, the sampler and the fitter all go
    through it. It reads only the families of the edges it visits, so the
    fitter can hand it family maps that grow one tree at a time.
    """

    __slots__ = ("tail", "pairs", "col", "memo", "trace")

    def __init__(self, tail: Mapping[Edge, TailFamily], pairs: Mapping[Edge, PairFamily],
                 col: dict[int, np.ndarray], trace=None):
        self.tail = tail
        self.pairs = pairs
        self.col = col
        self.memo: dict[tuple[Edge, int, bool | None], np.ndarray | tuple] = {}
        self.trace = trace

    def family(self, e: Edge):
        """The family of e and the record of its kind."""
        fam = self.tail[e] if e.level == 1 else self.pairs[e]
        return fam, (_TAIL_RECORDS if e.level == 1 else _PAIR_RECORDS)[fam.kind]

    def r(self, e: Edge, node: int):
        """The conditional value as a probability."""
        key = (e, node, None)
        if key not in self.memo:
            score = self.family(e)[1].score
            val = self.value(e, node, score)
            self.memo[key] = std_normal_cdf(val) if score else np.exp(val[0])
        return self.memo[key]

    def value(self, e: Edge, node: int, score: bool):
        """The conditional value as a normal score if `score`, else as a log pair."""
        key = (e, node, score)
        got = self.memo.get(key)
        if got is not None:
            return got
        fam, rec = self.family(e)
        native = rec.score
        other = e.b if node == e.a else e.a
        if native != score:
            val = self.value(e, node, native)
            val = clamp_score(log_pair_to_score(val)) if score else score_to_log_pair(val)
        elif e.level == 1:
            val = rec.h(self.col[node], self.col[other], fam.theta)
            if not native:
                val = _clamp_log_pair(val)
            self.event("tail_h", e, node)
        else:
            child_t = e.child_a if node == e.a else e.child_b
            child_o = e.child_b if child_t is e.child_a else e.child_a
            val = rec.h(self.arg(child_t, node, native), self.arg(child_o, other, native),
                        fam.theta)
            val = clamp_score(val) if native else _clamp_log_pair(val)
            self.event("pair_h", e, node)
        self.memo[key] = val
        return val

    def arg(self, e: Edge, node: int, score: bool):
        """value() as a pair edge reads it, with a raw tree-1 score clamped."""
        val = self.value(e, node, score)
        return clamp_score(val) if score and e.level == 1 else val

    def quantile(self, e: Edge, node: int, w, score: bool = False):
        """The x of `node` whose value on e is w (a normal score if `score`)."""
        fam, rec = self.family(e)
        native = rec.score
        if native != score:
            w = (std_normal_quantile if native else std_normal_cdf)(w)
        other = e.b if node == e.a else e.a
        if e.level == 1:
            self.event("tail_h_inv", e, node)
            return (tail_h_inv_score if native else tail_h_inv)(fam, w, self.col[other])
        child_t = e.child_a if node == e.a else e.child_b
        child_o = e.child_b if child_t is e.child_a else e.child_a
        zo = self.value(child_o, other, True) if native else self.r(child_o, other)
        self.event("pair_h_inv", e, node)
        w = (pair_h_inv_score if native else pair_h_inv)(fam, w, zo)
        return self.quantile(child_t, node, w, native)

    def event(self, kind: str, e: Edge, node: int) -> None:
        if self.trace is not None:
            self.trace.append((kind, e.key, node))


def resolve_conditional(spec: XVineSpec, i: int, given: Iterable[int]) -> Edge:
    """Edge whose recursion yields the conditional of i given `given`.

    Beyond the truncation level the model is conditionally independent, so a
    deeper conditioning set reduces to the unique deepest edge carrying i whose
    variables all lie in {i} u given.
    """
    giv = frozenset(int(g) for g in given)
    i = int(i)
    if i in giv:
        raise InvalidIndex(f"target {i} also appears in the conditioning set")
    if not giv:
        raise InvalidIndex("conditioning set is empty")
    bad = ({i} | giv) - set(spec.vine.nodes)
    if bad:
        raise InvalidIndex(f"unknown variables {sorted(bad)}")
    hit = spec.vine.conditional_edge(i, giv)
    if hit is not None:
        return hit[0]
    if len(giv) > spec.q:
        top = [e for e in spec.vine.trees[spec.q - 1]
               if i in (e.a, e.b) and e.union <= (giv | {i})]
        if len(top) == 1:
            return top[0]
        if len(top) > 1:
            raise InvalidIndex(
                f"conditional of {i} given {sorted(giv)} is ambiguous after truncation")
    raise RecursionUnavailable(
        f"no recursion through the vine yields {i} given {sorted(giv)}")


def _columns(spec: XVineSpec, i: int, given, x_given, x_i=None):
    giv = sorted(int(g) for g in given)
    if isinstance(x_given, Mapping):
        vals = {int(k): np.asarray(v, dtype=float) for k, v in x_given.items()}
        if sorted(vals) != giv:
            raise InvalidIndex(f"x_given keys {sorted(vals)} do not match {giv}")
    else:
        seq = list(x_given) if not isinstance(x_given, np.ndarray) else x_given
        if len(seq) != len(giv):
            raise InvalidIndex(f"expected {len(giv)} conditioning values")
        vals = {g: np.asarray(v, dtype=float) for g, v in zip(giv, seq)}
    for g, v in vals.items():
        if np.any(~((v > 0.0) & (v < np.inf))):
            raise DomainError(f"conditioning value for variable {g} must be positive and finite")
    if x_i is not None:
        xi = np.asarray(x_i, dtype=float)
        if np.any(~((xi > 0.0) & (xi < np.inf))):
            raise DomainError("evaluation points must be positive and finite")
        vals[int(i)] = xi
    return vals


def conditional_cdf(spec: XVineSpec, i: int, given: Iterable[int], x_i, x_given,
                    _trace: list | None = None):
    """R_{i | given}(x_i | x_given) via the vine recursion.

    Every value of x_i and x_given must be positive and finite; NaN, zero,
    negative values and +inf raise DomainError.
    """
    e = resolve_conditional(spec, i, given)
    col = _columns(spec, i, given, x_given, x_i=x_i)
    ev = _Evaluator(spec.tail, spec.pairs, col, trace=_trace)
    out = ev.r(e, int(i))
    return out


def conditional_quantile(spec: XVineSpec, i: int, given: Iterable[int], u, x_given,
                         _trace: list | None = None):
    """Inverse of conditional_cdf in x_i at fixed conditioning values.

    u must lie strictly inside (0, 1), and every conditioning value must be
    positive and finite; anything else raises DomainError.
    """
    e = resolve_conditional(spec, i, given)
    col = _columns(spec, i, given, x_given)
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise DomainError("conditional quantile needs u strictly inside (0, 1)")
    ev = _Evaluator(spec.tail, spec.pairs, col, trace=_trace)
    return ev.quantile(e, int(i), u)


def model_chi(spec: XVineSpec, idx: Sequence[int], n_mc: int = 100_000,
              seed: int = 0, threads: int | None = None) -> float:
    """Monte Carlo tail-dependence coefficient for a pair or triple of variables.

    n_mc must be an integer of at least 1; anything else raises DomainError.
    threads=None reads XVINE_THREADS, as the samplers do.
    """
    from .simulate import _count, sample_conditional

    nodes = tuple(int(v) for v in idx)
    if len(nodes) not in (2, 3) or len(set(nodes)) != len(nodes):
        raise DomainError(f"chi needs 2 or 3 distinct variables, got {idx}")
    if not set(nodes) <= set(spec.vine.nodes):
        raise DomainError(f"unknown variables in {idx}")
    n_mc = _count(n_mc, "n_mc", least=1)
    z = sample_conditional(spec, nodes[0], n_mc, seed, threads=threads)
    pos = {n: i for i, n in enumerate(spec.vine.nodes)}
    hit = np.ones(n_mc, dtype=bool)
    for v in nodes[1:]:
        hit &= z[:, pos[v]] < 1.0
    return float(hit.mean())


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def model_to_json(spec: XVineSpec) -> dict:
    """Serializable model object: structure matrix plus an edge/family list."""
    edges = []
    for t in spec.vine.trees:
        for e in t:
            fam = spec.tail[e] if e.level == 1 else spec.pairs[e]
            edges.append({"a": e.a, "b": e.b, "cond": sorted(e.cond),
                          "family": fam.kind, "theta": fam.theta})
    return {"structure": spec.vine.to_structure_matrix().to_json(), "edges": edges}


def model_from_json(obj: Mapping) -> XVineSpec:
    """Inverse of model_to_json; unknown keys are ignored."""
    if not isinstance(obj, Mapping):
        raise DomainError("model JSON must be an object")
    try:
        structure = obj["structure"]
        records = obj["edges"]
    except KeyError as exc:
        raise DomainError(f"model JSON missing key {exc}") from exc
    if not isinstance(records, list):
        raise DomainError(f"model JSON edges must be a list, got {records!r}")
    vine = from_structure_matrix(StructureMatrix.from_json(structure))
    tail: dict = {}
    pairs: dict = {}
    for rec in records:
        try:
            ref = (int(rec["a"]), int(rec["b"]), tuple(int(c) for c in rec.get("cond", ())))
            kind = str(rec["family"])
            theta = rec.get("theta")
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed edge record {rec!r}: {exc}") from exc
        e = vine.find_edge(ref)
        if theta is not None or e.level == 1:
            try:
                theta = float(theta)
            except (TypeError, ValueError):
                raise DomainError(
                    f"edge {e.label}: theta must be a number, got {theta!r}") from None
        if e.level == 1:
            if kind not in TAIL_KINDS:
                raise DomainError(f"edge {e.label} needs a tail family, got {kind!r}")
            tail[e] = TailFamily(kind, theta)
        else:
            if kind not in PAIR_KINDS:
                raise DomainError(f"edge {e.label} needs a pair family, got {kind!r}")
            pairs[e] = PairFamily(kind, theta)
    return XVineSpec(vine, tail, pairs)
