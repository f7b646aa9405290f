"""Ready-made model specifications used by the test suite and experiment scripts."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .families import PairFamily, TailFamily
from .model import XVineSpec
from .numerics import rng_stream
from .vines import VineSequence


def five_variable_spec() -> XVineSpec:
    """Five-dimensional benchmark model mixing all four tail families.

    First tree: Huesler-Reiss, negative logistic, logistic and Dirichlet
    tails; deeper trees: Clayton, Gumbel and Gaussian pair copulas with a
    near-independent top edge.
    """
    t1 = [frozenset({1, 2}), frozenset({2, 3}), frozenset({2, 4}), frozenset({4, 5})]
    e12, e23, e24, e45 = t1
    t2 = [frozenset({e12, e23}), frozenset({e23, e24}), frozenset({e24, e45})]
    e13_2, e34_2, e25_4 = t2
    t3 = [frozenset({e13_2, e34_2}), frozenset({e34_2, e25_4})]
    e14_23, e35_24 = t3
    t4 = [frozenset({e14_23, e35_24})]
    vine = VineSequence([t1, t2, t3, t4], d=5)
    tail = {
        (1, 2): TailFamily("hr", 1.5),
        (2, 3): TailFamily("neglogistic", 2.0),
        (2, 4): TailFamily("logistic", 2.5),
        (4, 5): TailFamily("dirichlet", 2.0),
    }
    pairs = {
        (1, 3, (2,)): PairFamily("clayton", 2.0),
        (3, 4, (2,)): PairFamily("gumbel", 2.5),
        (2, 5, (4,)): PairFamily("gaussian", 0.7),
        (1, 4, (2, 3)): PairFamily("clayton", 0.4),
        (3, 5, (2, 4)): PairFamily("gaussian", -0.3),
        (1, 5, (2, 3, 4)): PairFamily("gaussian", 0.1),
    }
    return XVineSpec(
        vine,
        {vine.find_edge(k): v for k, v in tail.items()},
        {vine.find_edge(k): v for k, v in pairs.items()},
    )


def chain_vine(d: int, q: int | None = None) -> VineSequence:
    """D-vine (path) tree sequence on 1 - 2 - ... - d, optionally truncated."""
    if d < 2:
        raise DomainError("need at least two variables")
    depth = d - 1 if q is None else q
    trees: list[list] = [[frozenset({i, i + 1}) for i in range(1, d)]]
    for _ in range(2, depth + 1):
        prev = trees[-1]
        trees.append([frozenset({prev[i], prev[i + 1]}) for i in range(len(prev) - 1)])
    return VineSequence(trees, d=d)


def cvine(d: int, q: int | None = None) -> VineSequence:
    """C-vine rooted at 1, then 2, ... ; optionally truncated at level q."""
    if d < 2:
        raise DomainError("need at least two variables")
    depth = d - 1 if q is None else q
    trees: list[list] = [[frozenset({1, m}) for m in range(2, d + 1)]]
    for lvl in range(2, depth + 1):
        prev = trees[-1]
        trees.append([frozenset({prev[0], prev[i]}) for i in range(1, len(prev))])
    return VineSequence(trees, d=d)


def logistic_vine_spec(vine: VineSequence, theta: float) -> XVineSpec:
    """Exact multivariate logistic model on any vine.

    Logistic tails with a common parameter in the first tree; the implied
    conditional copula on an edge with j conditioning variables is the
    survival Clayton with parameter theta / (j * theta - 1).
    """
    if theta <= 1.0:
        raise DomainError("logistic parameter must exceed 1")
    tail = {e: TailFamily("logistic", theta) for e in vine.level_edges(1)}
    pairs = {}
    for lvl in range(2, vine.q + 1):
        nj = lvl - 1
        fam = PairFamily("survclayton", theta / (nj * theta - 1.0))
        for e in vine.level_edges(lvl):
            pairs[e] = fam
    return XVineSpec(vine, tail, pairs)


def neglogistic_vine_spec(vine: VineSequence, theta: float) -> XVineSpec:
    """Exact multivariate negative logistic model on any vine.

    Negative logistic tails with a common parameter; the implied conditional
    copula on an edge with j conditioning variables is the Clayton with
    parameter theta / (1 + j * theta).
    """
    if theta <= 0.0:
        raise DomainError("negative logistic parameter must be positive")
    tail = {e: TailFamily("neglogistic", theta) for e in vine.level_edges(1)}
    pairs = {}
    for lvl in range(2, vine.q + 1):
        nj = lvl - 1
        fam = PairFamily("clayton", theta / (1.0 + nj * theta))
        for e in vine.level_edges(lvl):
            pairs[e] = fam
    return XVineSpec(vine, tail, pairs)


def _as_variogram(gamma: np.ndarray, d: int) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape != (d, d):
        raise DomainError(f"variogram must be {d}x{d}")
    if not np.allclose(g, g.T) or not np.allclose(np.diag(g), 0.0):
        raise DomainError("variogram must be symmetric with zero diagonal")
    if (g[~np.eye(d, dtype=bool)] <= 0).any():
        raise DomainError("off-diagonal variogram entries must be positive")
    return g


def hr_partial_rho(gamma: np.ndarray, a: int, b: int, cond: Sequence[int]) -> float:
    """Partial correlation of (a, b) given `cond` in the Gaussian family behind
    Huesler-Reiss tails with variogram `gamma` (1-based indices)."""
    d = np.asarray(gamma).shape[0]
    g = _as_variogram(gamma, d)
    cond = sorted(int(c) for c in cond)
    if not cond:
        raise DomainError("need at least one conditioning variable")
    anchor = cond[0]
    rest = [c for c in cond if c != anchor]
    idx = [a, b, *rest]
    k = anchor - 1
    sig = np.empty((len(idx), len(idx)))
    for p, i in enumerate(idx):
        for r, j in enumerate(idx):
            sig[p, r] = 0.5 * (g[i - 1, k] + g[j - 1, k] - g[i - 1, j - 1])
    if rest:
        s_aa = sig[:2, :2]
        s_ab = sig[:2, 2:]
        s_bb = sig[2:, 2:]
        cond_cov = s_aa - s_ab @ np.linalg.solve(s_bb, s_ab.T)
    else:
        cond_cov = sig
    return float(cond_cov[0, 1] / np.sqrt(cond_cov[0, 0] * cond_cov[1, 1]))


def hr_vine_spec(vine: VineSequence, gamma: np.ndarray) -> XVineSpec:
    """Exact Huesler-Reiss model on any vine: HR tails with the variogram
    entries in the first tree and Gaussian pair copulas with the matching
    partial correlations deeper."""
    g = _as_variogram(gamma, vine.d)
    tail = {
        e: TailFamily("hr", g[e.a - 1, e.b - 1]) for e in vine.level_edges(1)
    }
    pairs = {}
    for lvl in range(2, vine.q + 1):
        for e in vine.level_edges(lvl):
            rho = hr_partial_rho(g, e.a, e.b, sorted(e.cond))
            pairs[e] = PairFamily("gaussian", rho)
    return XVineSpec(vine, tail, pairs)


def truncated_cvine_study_spec(d: int = 10, q: int = 4, seed: int = 20,
                               rho_floor: float = 0.1) -> XVineSpec:
    """Sparse benchmark: C-vine truncated at q with mixed first-tree tails.

    The first tree alternates HR and negative logistic families with
    parameters drawn uniformly from [1, 2]; tree j >= 2 uses Gaussian pair
    copulas with correlation 1.1 - 0.1 * j (floored at `rho_floor`).
    """
    if not 1 <= q <= d - 1:
        raise DomainError(f"truncation level {q} not in 1..{d - 1}")
    vine = cvine(d, q=q)
    rng = rng_stream(seed)
    tail = {}
    for i, e in enumerate(vine.level_edges(1)):
        kind = "hr" if i % 2 == 0 else "neglogistic"
        tail[e] = TailFamily(kind, float(rng.uniform(1.0, 2.0)))
    pairs = {}
    for lvl in range(2, vine.q + 1):
        rho = max(1.1 - 0.1 * lvl, rho_floor)
        for e in vine.level_edges(lvl):
            pairs[e] = PairFamily("gaussian", rho)
    return XVineSpec(vine, tail, pairs)


def spec_families(spec: XVineSpec) -> Mapping[tuple, str]:
    """Edge-key to family-kind map, handy for pinning families when refitting."""
    out = {}
    for lvl in range(1, spec.vine.q + 1):
        for e in spec.vine.level_edges(lvl):
            fam = spec.tail[e] if lvl == 1 else spec.pairs[e]
            out[(e.a, e.b, tuple(sorted(e.cond)))] = fam.kind
    return out
