"""Samplers for X-vine models.

Three laws are exposed: the conditional law given that one fixed coordinate is
below 1 (exact inverse-Rosenblatt along a sampling order), the inverted-Pareto
law (rejection over uniformly chosen conditioning coordinates), and its
reciprocal on the Pareto scale.

Work is carved into fixed-size blocks, each driven by its own counter-based
substream, so output depends only on (seed, n) and never on the thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidIndex
from .model import XVineSpec, _Evaluator
from .numerics import rng_stream
from .vines import Edge, sampling_order

#: Rows per deterministic work unit.
BLOCK = 4096


@dataclass(frozen=True)
class RejectionStats:
    """Bookkeeping from the rejection sampler."""

    proposals: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else float("nan")


def resolve_threads(threads: int | None = None) -> int:
    """Explicit argument, else the XVINE_THREADS variable, else 1.

    A count below 1, or an XVINE_THREADS that is not an integer, raises
    DomainError.
    """
    if threads is None:
        env = os.environ.get("XVINE_THREADS", "")
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(f"XVINE_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise DomainError(f"thread count must be at least 1, got {threads}")
    return int(threads)


class _LiveRows(dict):
    """Arrays over the rows of a block that drops rows as it goes.

    A drop only appends the kept row indices to the shared `drops` list. An
    array is taken down to the rows still live when it is next read, so one
    that nothing reads again is never copied.
    """

    def __init__(self, drops: list):
        super().__init__()
        self.drops = drops

    def __setitem__(self, key, arr):
        super().__setitem__(key, (arr, len(self.drops)))

    def __getitem__(self, key):
        arr, seen = super().__getitem__(key)
        if seen < len(self.drops):
            for keep in self.drops[seen:]:
                arr = arr.take(keep)
            self[key] = arr
        return arr

    def get(self, key, default=None):
        return self[key] if key in self else default


def _conditional_plan(spec: XVineSpec, j: int):
    """The sampling order of a structure matrix, as (first, cols): the first
    column's node, and for each later column its node and the deepest edge
    that conditions it on the nodes above it in that column."""
    vine = spec.vine
    if not vine.is_truncated:
        sm = vine.to_structure_matrix(diagonal=sampling_order(vine, j).sigma)
    else:
        sm = vine.to_structure_matrix(first_diag=j)
    m = sm.matrix
    cols: list[tuple[int, Edge]] = []
    for i in range(2, sm.d + 1):
        target = m[i - 1][i - 1]
        giv = frozenset(m[t - 1][i - 1] for t in range(1, min(i - 1, sm.trunc) + 1))
        hit = vine.conditional_edge(target, giv)
        if hit is None:
            raise InvalidIndex(
                f"structure matrix column {i} does not resolve {target} | {sorted(giv)}")
        cols.append((target, hit[0]))
    return m[0][0], cols


def _conditional_block(spec: XVineSpec, plan, rng, n: int, accept_u=None,
                       trace=None) -> tuple[np.ndarray, np.ndarray]:
    """n inverse-Rosenblatt draws along a plan; returns (rows, row indices).

    The whole (n, d) uniform matrix is drawn up front. Given accept_u, the
    rejection sampler's uniforms for these rows, a row is dropped before the
    next column once accept_u * (its coordinates below 1 so far) >= 1: that
    count only grows, so the row would fail the final acceptance test anyway.
    The sampled columns and the recursion's memo are `_LiveRows`, so a drop
    copies nothing and each array is compacted when it is read. The returned
    indices say which of the n rows are live.
    """
    first, cols = plan
    w = rng.random((n, spec.d))
    drops: list[np.ndarray] = []
    values = _LiveRows(drops)
    values[first] = w[:, 0]
    ev = _Evaluator(spec.tail, spec.pairs, values, trace=trace)
    ev.memo = _LiveRows(drops)
    live = np.arange(n)
    below = np.ones(n, dtype=np.int64)  # the conditioned coordinate is below 1
    for k, (target, top) in enumerate(cols):
        if accept_u is not None:
            keep = np.flatnonzero(accept_u * below < 1.0)
            if keep.size < live.size:
                live, accept_u, below = live[keep], accept_u[keep], below[keep]
                drops.append(keep)
        if live.size == 0:
            break
        values[target] = ev.quantile(top, target, w[live, k + 1])
        below += values[target] < 1.0
    order = {node: idx for idx, node in enumerate(spec.vine.nodes)}
    out = np.empty((live.size, spec.d))
    for node in values:
        out[:, order[node]] = values[node]
    return out, live


def parallel_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on up to `threads` worker threads, in input order."""
    items = list(items)
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _blocked(n: int, threads: int, worker) -> list:
    """Run worker(block_index, block_size) over fixed-size blocks, in order."""
    sizes = [(b, min(BLOCK, n - b * BLOCK)) for b in range((n + BLOCK - 1) // BLOCK)]
    return parallel_map(lambda bs: worker(*bs), sizes, threads)


def sample_conditional(spec: XVineSpec, j: int, n: int, seed: int,
                       threads: int | None = None,
                       _trace: list | None = None) -> np.ndarray:
    """Draw from the model law conditioned on coordinate j being below 1.

    Coordinate j is uniform on (0, 1); the rest follow by inverting the
    conditional CDF recursion down a structure-matrix column each.
    """
    if j not in spec.vine.nodes:
        raise DomainError(f"conditioning variable {j} not in model")
    if n < 0:
        raise DomainError(f"sample size must be nonnegative, got {n}")
    threads = resolve_threads(threads)
    plan = _conditional_plan(spec, j)
    if n == 0:
        return np.empty((0, spec.d))
    # a trace records the blocks in order, so they run on one thread
    parts = _blocked(n, threads if _trace is None else 1, lambda b, m: _conditional_block(
        spec, plan, rng_stream(seed, b), m, trace=_trace)[0])
    return np.vstack(parts)


def _rejection_block(spec: XVineSpec, plans, n: int, seed: int, block: int):
    """n accepted rows of one block, with the proposals drawn and rows accepted.

    Each round draws 20 % more proposals than the shortfall needs at the rate
    so far (first guess 2/(d+1)). The margin stays on the first round too:
    without it the 5-d sampler draws a sixth fewer proposals, but at d = 10,
    where the rate is below the guess, most blocks take a second round and
    the sampler runs slower.

    A proposal is kept when accept_u * N < 1, where N counts its coordinates
    below 1. Rejection is early: each conditioning group drops a proposal as
    soon as its count so far makes it fail that test, and draws none of its
    later columns. This is exact. The count only grows along the sampling
    order, every uniform (`which`, `accept_u` and each group's `w`) is drawn
    up front, and every kernel works row by row, so the kept rows and the
    proposal counts are those of drawing every column of every proposal. The
    survivors are put back in proposal order before the final test.
    """
    d = spec.d
    rows: list[np.ndarray] = []
    got = 0
    proposals = 0
    rate = 2.0 / (d + 1)
    rnd = 0
    while got < n:
        if rnd >= 500:
            raise DomainError("rejection sampler failed to reach the requested size")
        m = min(max(int(math.ceil((n - got) / rate * 1.2)), 64), 1 << 18)
        rng = rng_stream(seed, block, rnd)
        which = rng.integers(0, d, size=m)
        accept_u = rng.random(m)
        idx_parts, z_parts = [], []
        for jdx in np.unique(which):
            sel = np.flatnonzero(which == jdx)
            sub = rng_stream(seed, block, rnd, int(jdx) + 1)
            zj, live = _conditional_block(spec, plans[jdx], sub, sel.size, accept_u[sel])
            idx_parts.append(sel[live])
            z_parts.append(zj)
        idx = np.concatenate(idx_parts)
        order = np.argsort(idx)
        idx, z = idx[order], np.vstack(z_parts)[order]
        keep = accept_u[idx] * (z < 1.0).sum(axis=1) < 1.0
        rows.append(z[keep])
        got += int(keep.sum())
        proposals += m
        rate = max(got / proposals, 1.0 / (2 * d))
        rnd += 1
    return np.vstack(rows)[:n], proposals, got


def sample_inverted_pareto(spec: XVineSpec, n: int, seed: int,
                           threads: int | None = None,
                           ) -> tuple[np.ndarray, RejectionStats]:
    """Draw from the inverted-Pareto law of the model by rejection.

    A conditioning coordinate is chosen uniformly, a conditional sample drawn,
    and the row kept with probability 1/N where N counts its coordinates below
    1; this removes the multiple-counting of rows lying in several coordinate
    slabs. Returns the samples and proposal statistics.
    """
    if n < 0:
        raise DomainError(f"sample size must be nonnegative, got {n}")
    threads = resolve_threads(threads)
    plans = [_conditional_plan(spec, j) for j in spec.vine.nodes]
    if n == 0:
        return np.empty((0, spec.d)), RejectionStats(0, 0)
    parts = _blocked(n, threads,
                     lambda b, m: _rejection_block(spec, plans, m, seed, b))
    z = np.vstack([p[0] for p in parts])
    stats = RejectionStats(proposals=sum(p[1] for p in parts),
                           accepted=sum(p[2] for p in parts))
    return z, stats


def sample_pareto(spec: XVineSpec, n: int, seed: int,
                  threads: int | None = None) -> tuple[np.ndarray, RejectionStats]:
    """Multivariate-Pareto-scale samples: reciprocal of the inverted-Pareto law."""
    z, stats = sample_inverted_pareto(spec, n, seed, threads=threads)
    return 1.0 / z, stats
