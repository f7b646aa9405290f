"""Shared builders for randomized specs, vines and subset functionals, a
caller of the family records in their own forms, and a u-space reference
recursion."""
from __future__ import annotations

import numpy as np
import pytest

from xvine.families import (
    _PAIR_RECORDS,
    _TAIL_RECORDS,
    PAIR_KINDS,
    TAIL_KINDS,
    PairFamily,
    TailFamily,
    _clamp_log_pair,
    clamp_score,
    pair_h,
    pair_h_inv,
    pair_log_density,
    tail_h,
    tail_h_inv,
    tail_log_density,
)
from xvine.model import XVineSpec
from xvine.vines import VineSequence, random_vine

#: Parameter ranges for randomized specs.  The floors keep the margin
#: quadrature well-posed: near the family boundaries (logistic theta -> 1,
#: neglogistic theta -> 0) the marginal integrand's far tail decays so slowly
#: that no fixed grid reaches it.
TAIL_RANGES = {
    "hr": (0.4, 5.0),
    "logistic": (1.3, 6.0),
    "neglogistic": (0.45, 6.0),
    "dirichlet": (0.45, 8.0),
}

PAIR_RANGES = {
    "gaussian": (-0.85, 0.85),
    "clayton": (0.3, 6.0),
    "survclayton": (0.3, 6.0),
    "gumbel": (1.1, 5.0),
    "survgumbel": (1.1, 5.0),
    "joe": (1.1, 6.0),
    "survjoe": (1.1, 6.0),
    "frank": (-12.0, 12.0),
}


def random_tail_family(rng: np.random.Generator, kind: str | None = None) -> TailFamily:
    kind = kind or str(rng.choice(TAIL_KINDS))
    lo, hi = TAIL_RANGES[kind]
    return TailFamily(kind, float(rng.uniform(lo, hi)))


def random_pair_family(rng: np.random.Generator, kind: str | None = None) -> PairFamily:
    kinds = [k for k in PAIR_KINDS if k != "indep"]
    kind = kind or str(rng.choice(kinds))
    lo, hi = PAIR_RANGES[kind]
    return PairFamily(kind, float(rng.uniform(lo, hi)))


def random_spec(vine: VineSequence, rng: np.random.Generator) -> XVineSpec:
    """Random families on every edge of the given vine."""
    tails = {e: random_tail_family(rng) for e in vine.trees[0]}
    pairs = {e: random_pair_family(rng) for t in vine.trees[1:] for e in t}
    return XVineSpec(vine, tails, pairs)


def random_admissible_gamma(vine: VineSequence,
                            rng: np.random.Generator) -> dict[frozenset, float]:
    """Positive subset functional with unit singletons on every set the
    telescoping product touches."""
    gamma: dict[frozenset, float] = {frozenset({n}): 1.0 for n in vine.nodes}
    for t in vine.trees:
        for e in t:
            for s in (e.union, e.cond, e.union - e.cond):
                if s and s not in gamma:
                    gamma[s] = float(rng.uniform(0.2, 5.0))
            if e.level > 1:
                for s in (e.child_a.union, e.child_b.union):
                    if s not in gamma:
                        gamma[s] = float(rng.uniform(0.2, 5.0))
    return gamma


def spec_grid_points(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """Well-spread positive evaluation points."""
    return np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(n, d)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(611)


def make_random_vine(seed: int, d: int, q: int | None = None) -> VineSequence:
    return random_vine(d, np.random.default_rng(seed), q=q)


def call_record(fam: TailFamily | PairFamily, slot: str, a, b):
    """fam's record slot "h", "h_inv" or "log_density" (prepare, then evaluate)
    on arguments in its kind's own form, clamped as the vine recursion clamps.

    A score kind's pair slots clamp both scores on the way in, since a raw hr
    tail score reaches them, and a score tail h_inv clamps its target. On the
    way out a pair h or h_inv and a tail log pair are clamped in their form;
    a tail score, a tail root x and a log-density are not.
    """
    tail = isinstance(fam, TailFamily)
    rec = (_TAIL_RECORDS if tail else _PAIR_RECORDS)[fam.kind]
    if rec.score and not tail:
        a, b = clamp_score(a), clamp_score(b)
    elif rec.score and slot == "h_inv":
        a = clamp_score(a)
    if slot == "log_density":
        return rec.evaluate(rec.prepare(a, b), fam.theta)
    out = getattr(rec, slot)(a, b, fam.theta)
    if tail and (rec.score or slot == "h_inv"):
        return out
    return clamp_score(out) if rec.score else _clamp_log_pair(out)


# ---------------------------------------------------------------------------
# u-space reference recursion
# ---------------------------------------------------------------------------
# The vine recursion written straight from the public u-space kernels, with
# no memo, no normal scores and no log pairs: every conditional value goes
# back to (0, 1) at every edge. The package's recursion keeps hr / gaussian
# chains in scores and every other chain in log pairs, so on points where no
# value nears 0 or 1 the two agree to rounding.

def _sides(e, node):
    other = e.b if node == e.a else e.a
    child_t = e.child_a if node == e.a else e.child_b
    child_o = e.child_b if child_t is e.child_a else e.child_a
    return other, child_t, child_o


def u_value(spec: XVineSpec, col: dict, e, node: int):
    """R_{node | A_e minus node} at the columns `col`."""
    other, child_t, child_o = _sides(e, node)
    if e.level == 1:
        return tail_h(spec.tail[e], col[node], col[other])
    return pair_h(spec.pairs[e], u_value(spec, col, child_t, node),
                  u_value(spec, col, child_o, other))


def u_quantile(spec: XVineSpec, col: dict, e, node: int, w):
    """The x of `node` whose value on e is w."""
    other, child_t, child_o = _sides(e, node)
    if e.level == 1:
        return tail_h_inv(spec.tail[e], w, col[other])
    w = pair_h_inv(spec.pairs[e], w, u_value(spec, col, child_o, other))
    return u_quantile(spec, col, child_t, node, w)


def u_log_density(spec: XVineSpec, x: np.ndarray) -> np.ndarray:
    col = {n: x[:, i] for i, n in enumerate(spec.vine.nodes)}
    total = sum(tail_log_density(spec.tail[e], col[e.a], col[e.b])
                for e in spec.vine.trees[0])
    for t in spec.vine.trees[1:]:
        for e in t:
            total = total + pair_log_density(spec.pairs[e], u_value(spec, col, e.child_a, e.a),
                                             u_value(spec, col, e.child_b, e.b))
    return total
