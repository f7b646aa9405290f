"""Samplers for X-vine models.

Three laws are exposed: the conditional law given that one fixed coordinate is
below 1 (exact inverse-Rosenblatt along a sampling order), the inverted-Pareto
law (rejection over uniformly chosen conditioning coordinates), and its
reciprocal on the Pareto scale.

Work is carved into fixed-size blocks, each driven by its own counter-based
substream, so output depends only on (seed, n) and never on the thread count.
Blocks pool their rows into merged inverse-Rosenblatt calls; every kernel
works row by row, so merging moves no row.
"""
from __future__ import annotations

import math
import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidIndex
from .model import XVineSpec, _Evaluator
from .numerics import rng_stream
from .vines import Edge, sampling_order

#: Rows per deterministic work unit.
BLOCK = 4096

#: Most proposals one step of the rejection sampler takes from its blocks,
#: about _MERGE_CAP / d rows for each merged call; sample_conditional merges
#: that many rows a call too. Bounds memory at large n.
_MERGE_CAP = 1 << 18


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

    A count that is not an integer (a bool included) or is below 1, or an
    XVINE_THREADS that is not an integer, raises DomainError.
    """
    if threads is None:
        env = os.environ.get("XVINE_THREADS", "")
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(f"XVINE_THREADS must be an integer, got {env!r}") from None
    return _count(threads, "thread count", least=1)


class _LiveRows(dict):
    """Arrays, or log pairs of arrays, over the rows of a block that drops
    rows as it goes.

    A drop only appends the kept row indices to the shared `drops` list. An
    entry is taken down to the rows still live when it is next read, so one
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
                arr = (tuple(a.take(keep) for a in arr) if isinstance(arr, tuple)
                       else arr.take(keep))
            self[key] = arr
        return arr

    def get(self, key, default=None):
        return self[key] if key in self else default


def _count(n, name: str = "sample size", least: int = 0) -> int:
    """n as an int; DomainError unless it is an integer (numpy's too, not a
    bool) >= least."""
    if isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None
    if n < least:
        need = "nonnegative" if least == 0 else f"at least {least}"
        raise DomainError(f"{name} must be {need}, got {n}")
    return n


def _conditional_plan(spec: XVineSpec, j: int):
    """The sampling order of a structure matrix, as (first, cols): the first
    column's node, and for each later column its node and the deepest edge
    that conditions it on the nodes above it in that column.

    A plan depends on the vine only, so each is built once per spec and kept
    in its `_plans` slot.
    """
    plan = spec._plans.get(j)
    if plan is not None:
        return plan
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
    plan = spec._plans[j] = (m[0][0], cols)
    return plan


def _conditional_block(spec: XVineSpec, plan, w: np.ndarray, accept_u=None,
                       trace=None) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-Rosenblatt draws along a plan, one per row of the (m, d)
    uniform matrix w; returns (rows, row indices).

    Column 0 of w is the conditioning coordinate and column k + 1 inverts the
    plan's k-th column. Every kernel works row by row, so a row's draw depends
    on its own uniforms only, and rows from many blocks can share one call.
    Given accept_u, the rejection sampler's uniforms for these rows, a row is
    dropped before the next column once accept_u * (its coordinates below 1
    so far) >= 1: that count only grows, so the row would fail the final
    acceptance test anyway. The sampled columns and the recursion's memo are
    `_LiveRows`, so a drop copies nothing and each array is compacted when it
    is read. The returned indices, in increasing order, say which rows of w
    are live.
    """
    first, cols = plan
    n = w.shape[0]
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


def _blocks(n: int) -> list[tuple[int, int]]:
    """(block index, rows) of the fixed-size blocks that make up n rows."""
    return [(b, min(BLOCK, n - b * BLOCK)) for b in range((n + BLOCK - 1) // BLOCK)]


def sample_conditional(spec: XVineSpec, j: int, n: int, seed: int,
                       threads: int | None = None,
                       _trace: list | None = None) -> np.ndarray:
    """Draw from the model law conditioned on coordinate j being below 1.

    Coordinate j is uniform on (0, 1); the rest follow by inverting the
    conditional CDF recursion down a structure-matrix column each. The
    blocks' uniform matrices are stacked into calls of up to _MERGE_CAP / d
    rows, which run on up to `threads` threads.
    """
    if j not in spec.vine.nodes:
        raise DomainError(f"conditioning variable {j} not in model")
    n = _count(n)
    threads = resolve_threads(threads)
    plan = _conditional_plan(spec, j)
    if n == 0:
        return np.empty((0, spec.d))
    # calls of 2^18 rows ran slower per row than block by block at d = 10
    blocks = _blocks(n)
    per = max(_MERGE_CAP // (spec.d * BLOCK), 1)
    chunks = [blocks[i:i + per] for i in range(0, len(blocks), per)]

    def run(chunk):
        w = np.vstack([rng_stream(seed, b).random((m, spec.d)) for b, m in chunk])
        return _conditional_block(spec, plan, w, trace=_trace)[0]

    # a trace records the calls in order, so they run on one thread
    return np.vstack(parallel_map(run, chunks, threads if _trace is None else 1))


class _Block:
    """One block of the rejection sampler: its rows so far and its next round.

    Each round draws 20 % more proposals than the shortfall needs at the rate
    so far (first guess 2/(d+1)). The margin stays on the first round too:
    without it the 5-d sampler draws a sixth fewer proposals, but at d = 10,
    where the rate is below the guess, most blocks take a second round and
    the sampler runs slower.
    """

    __slots__ = ("index", "want", "rows", "got", "proposals", "rate", "rnd")

    def __init__(self, index: int, want: int, d: int):
        self.index, self.want = index, want
        self.rows: list[np.ndarray] = []
        self.got = self.proposals = self.rnd = 0
        self.rate = 2.0 / (d + 1)

    def size(self) -> int:
        """Proposals of the next round."""
        return min(max(int(math.ceil((self.want - self.got) / self.rate * 1.2)), 64), 1 << 18)


def _rejection_round(spec: XVineSpec, plans, seed: int, chunk: list[_Block],
                     threads: int) -> None:
    """The next round of every block in chunk, with one merged call per
    conditioning variable.

    A proposal is kept when accept_u * N < 1, where N counts its coordinates
    below 1. Each block draws its round's `which` and `accept_u` from
    rng_stream(seed, block, round), and the uniforms of its rows that
    condition on the j-th variable from rng_stream(seed, block, round, j + 1).
    Those rows of every block in chunk go through one `_conditional_block`
    call, and the survivors are split back by block. Rejection is early: the
    call drops a proposal as soon as its count so far makes it fail the test,
    and draws none of its later columns. This is exact. The count only grows
    along the sampling order, every uniform is drawn up front, and every
    kernel works row by row, so each block keeps the rows and counts it would
    get from drawing every column of every proposal on its own. The
    conditioning variables run one at a time, or `threads` at a time, so
    only that many merged uniform matrices exist at once. A block puts its
    survivors back in proposal order before the final test.
    """
    d = spec.d
    sizes = [blk.size() for blk in chunk]
    draws = []
    for blk, m in zip(chunk, sizes):
        rng = rng_stream(seed, blk.index, blk.rnd)
        draws.append((rng.integers(0, d, size=m), rng.random(m)))

    def group(jdx: int):
        sels = [np.flatnonzero(which == jdx) for which, _ in draws]
        if not any(sel.size for sel in sels):
            return []
        w = np.vstack([rng_stream(seed, blk.index, blk.rnd, jdx + 1).random((sel.size, d))
                       for blk, sel in zip(chunk, sels) if sel.size])
        accept_u = np.concatenate([a[sel] for (_, a), sel in zip(draws, sels)])
        z, live = _conditional_block(spec, plans[jdx], w, accept_u)
        offsets = np.cumsum([0] + [sel.size for sel in sels])
        cuts = np.searchsorted(live, offsets)
        return [(sel[live[lo:hi] - off], z[lo:hi])
                for sel, off, lo, hi in zip(sels, offsets, cuts[:-1], cuts[1:])]

    parts = [split for split in parallel_map(group, range(d), threads) if split]
    for b, (blk, m, (_, accept_u)) in enumerate(zip(chunk, sizes, draws)):
        idx = np.concatenate([split[b][0] for split in parts])
        order = np.argsort(idx)
        idx, z = idx[order], np.vstack([split[b][1] for split in parts])[order]
        keep = accept_u[idx] * (z < 1.0).sum(axis=1) < 1.0
        blk.rows.append(z[keep])
        blk.got += int(keep.sum())
        blk.proposals += m
        blk.rate = max(blk.got / blk.proposals, 1.0 / (2 * d))
        blk.rnd += 1
        if blk.got < blk.want and blk.rnd >= 500:
            raise DomainError("rejection sampler failed to reach the requested size")


def sample_inverted_pareto(spec: XVineSpec, n: int, seed: int,
                           threads: int | None = None,
                           ) -> tuple[np.ndarray, RejectionStats]:
    """Draw from the inverted-Pareto law of the model by rejection.

    A conditioning coordinate is chosen uniformly, a conditional sample drawn,
    and the row kept with probability 1/N where N counts its coordinates below
    1; this removes the multiple-counting of rows lying in several coordinate
    slabs. Returns the samples and proposal statistics.

    The blocks run in lockstep: blocks still short are queued, and each step
    takes blocks off the front of the queue until their next rounds would
    pass `_MERGE_CAP` proposals, runs those rounds together
    (`_rejection_round`), and queues again the blocks still short. So blocks
    in different rounds may share a step, and output depends only on
    (seed, n), never on the merging or the thread count.
    """
    n = _count(n)
    threads = resolve_threads(threads)
    plans = [_conditional_plan(spec, j) for j in spec.vine.nodes]
    if n == 0:
        return np.empty((0, spec.d)), RejectionStats(0, 0)
    blocks = [_Block(b, m, spec.d) for b, m in _blocks(n)]
    queue = deque(blocks)
    while queue:
        chunk = [queue.popleft()]
        total = chunk[0].size()
        while queue and total + queue[0].size() <= _MERGE_CAP:
            total += queue[0].size()
            chunk.append(queue.popleft())
        _rejection_round(spec, plans, seed, chunk, threads)
        queue.extend(blk for blk in chunk if blk.got < blk.want)
    z = np.vstack([np.vstack(blk.rows)[:blk.want] for blk in blocks])
    stats = RejectionStats(proposals=sum(blk.proposals for blk in blocks),
                           accepted=sum(blk.got for blk in blocks))
    return z, stats


def sample_pareto(spec: XVineSpec, n: int, seed: int,
                  threads: int | None = None) -> tuple[np.ndarray, RejectionStats]:
    """Multivariate-Pareto-scale samples: reciprocal of the inverted-Pareto law."""
    z, stats = sample_inverted_pareto(spec, n, seed, threads=threads)
    return 1.0 / z, stats
