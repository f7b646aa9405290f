"""Samplers for X-vine models.

Three laws are exposed: the conditional law given that one fixed coordinate is
below 1 (exact inverse-Rosenblatt along a sampling order), the inverted-Pareto
law (conditional proposals kept on their first exceedance: Dombry, Engelke &
Oesting 2016, Biometrika 103(2)), and its reciprocal on the Pareto scale.

Work is carved into fixed-size blocks, each driven by its own counter-based
substream, so output depends only on (seed, n) and never on the thread count.
Blocks pool their rows into merged inverse-Rosenblatt calls; every kernel
works row by row, so merging moves no row. The conditional sampler draws
each block's uniform matrix up front; the rejection sampler draws each
column only for the proposals still live before it (`_rejection_round`).
The rejection sampler sizes each block's first round from the spec's
acceptance rate, measured once per spec by a pilot round on fixed streams
that no call draws from (`_pilot_rate`), and writes each block's rows
straight into the output.
"""
from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidIndex, NoConvergence, _count
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


def _rejection_plans(spec: XVineSpec) -> tuple[list[tuple[tuple, frozenset]], float]:
    """(plans, rate): (plan, nodes ranked before its first node) for each node
    in vine order, and the hint round 0 of every block is sized from.

    Any fixed order is exact. This one ranks nodes by their column positions
    summed over the d plans, ties broken by label, so plans tend to draw the
    earlier-ranked nodes first and drop rows early. The rate is measured once
    (`_pilot_rate`). Both are kept in `_plans[None]`.
    """
    got = spec._plans.get(None)
    if got is None:
        plans = [_conditional_plan(spec, j) for j in spec.vine.nodes]
        cols = [[first, *(t for t, _ in rest)] for first, rest in plans]
        order = sorted(spec.vine.nodes, key=lambda v: (sum(c.index(v) for c in cols), v))
        plans = [(plan, frozenset(order[:order.index(plan[0])])) for plan in plans]
        got = spec._plans[None] = (plans, _pilot_rate(spec, plans))
    return got


def _conditional_block(spec: XVineSpec, plan, column, earlier=frozenset(),
                       trace=None) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-Rosenblatt draws along a plan; returns (rows, row indices).

    column(k, live) gives the uniforms of column k for the rows `live`, in
    increasing order, or for every row when live is None; column 0 is the
    conditioning coordinate and column k + 1 inverts the plan's k-th column.
    Column 0 is asked for once, for every row, and column k + 1 once, for the
    rows still live before it. Every kernel works row by row, so a row's draw
    depends on its own uniforms only, and rows from many blocks can share one
    call. A row is dropped, and no later uniform asked for it, as soon as a
    node in `earlier` comes out below 1. The sampled columns and the
    recursion's memo are `_LiveRows`, so a drop copies nothing and each array
    is compacted when it is read. The returned indices, in increasing order,
    say which rows are live.
    """
    first, cols = plan
    drops: list[np.ndarray] = []
    values = _LiveRows(drops)
    values[first] = w0 = column(0, None)
    ev = _Evaluator(spec.tail, spec.pairs, values, trace=trace)
    ev.memo = _LiveRows(drops)
    live = np.arange(w0.size)
    for k, (target, top) in enumerate(cols):
        values[target] = x = ev.quantile(top, target, ev.form(top, column(k + 1, live)))
        if target in earlier:
            keep = np.flatnonzero(x >= 1.0)
            if keep.size < live.size:
                live = live[keep]
                drops.append(keep)
            if live.size == 0:
                return np.empty((0, spec.d)), live
    return np.column_stack([values[node] for node in spec.vine.nodes]), live


def _matrix_columns(w: np.ndarray):
    """The column source of an (m, d) uniform matrix for `_conditional_block`."""
    return lambda k, live: w[:, k] if live is None else w[live, k]


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
                       threads: int = 1,
                       _trace: list | None = None) -> np.ndarray:
    """Draw from the model law conditioned on coordinate j being below 1.

    Coordinate j is uniform on (0, 1); the rest follow by inverting the
    conditional CDF recursion down a structure-matrix column each. The
    blocks' uniform matrices are stacked into calls of up to _MERGE_CAP / d
    rows, which run on up to `threads` threads.
    """
    if _count(j, "conditioning variable") not in spec.vine.nodes:
        raise DomainError(f"conditioning variable {j} not in model")
    n, seed = _count(n), _count(seed, "seed")
    threads = _count(threads, "thread count", least=1)
    plan = _conditional_plan(spec, j)
    if n == 0:
        return np.empty((0, spec.d))
    # calls of 2^18 rows ran slower per row than block by block at d = 10
    blocks = _blocks(n)
    per = max(_MERGE_CAP // (spec.d * BLOCK), 1)
    chunks = [blocks[i:i + per] for i in range(0, len(blocks), per)]

    def run(chunk):
        w = np.vstack([rng_stream(seed, b).random((m, spec.d)) for b, m in chunk])
        return _conditional_block(spec, plan, _matrix_columns(w), trace=_trace)[0]

    # a trace records the calls in order, so they run on one thread
    return np.vstack(parallel_map(run, chunks, threads if _trace is None else 1))


#: Seed and stream key of the pilot round (`_pilot_rate`). Its streams have
#: paths of four and five entries; the samplers' have one to three.
_PILOT_SEED, _PILOT_KEY = 0, (0, 0, 0)


def _bounded(m: float) -> int:
    """A round's proposals: m rounded up, within [64, 2^18]."""
    return min(max(int(math.ceil(m)), 64), 1 << 18)


def _round0(want: int, rate: float) -> int:
    """Proposals of a block's round 0: what `want` rows need at the spec's
    rate hint, plus three binomial standard deviations."""
    return _bounded((want + 3 * math.sqrt(want * (1 - rate))) / rate)


class _Block:
    """One block of the rejection sampler: the output rows it fills and its
    next round.

    Round 0 draws the proposals `want` rows need at the spec's rate hint, plus
    three binomial standard deviations (`_round0`), so a second round is rare.
    A later round draws 20 % more than the shortfall needs at the block's own
    rate so far. The streams are rng_stream(seed, *key, round[, j + 1]).
    """

    __slots__ = ("key", "out", "got", "proposals", "rnd", "size")

    def __init__(self, key: tuple, out: np.ndarray, size: int):
        self.key, self.out, self.size = key, out, size
        self.got = self.proposals = self.rnd = 0


def _pilot_rate(spec: XVineSpec, plans) -> float:
    """A lower confidence bound on the acceptance rate of `plans`, from one
    pilot round of 2 * BLOCK proposals.

    The pilot's seed and streams are fixed and no sampler call draws from
    them, so the hint, and every size it sets, depends on the spec only.
    """
    pilot = _Block(_PILOT_KEY, np.empty((0, spec.d)), 2 * BLOCK)
    _rejection_round(spec, plans, _PILOT_SEED, [pilot], 1)
    p = pilot.got / pilot.proposals
    return max(p - 2 * math.sqrt(p * (1 - p) / pilot.proposals), 1 / (2 * spec.d))


def _rejection_round(spec: XVineSpec, plans, seed: int, chunk: list[_Block],
                     threads: int) -> None:
    """The next round of every block in chunk, with one merged call per
    conditioning variable.

    Each block draws its round's `which` from rng_stream(seed, *key, round).
    Its rows that condition on the j-th variable go through one
    `_conditional_block` call with the same rows of every other block in
    chunk; the call drops a proposal at its first coordinate below 1 that
    ranks before j, so every row it returns is accepted, and the rows are
    split back by block, in proposal order.

    The uniforms are drawn a column at a time, only for the rows still live.
    For a block the generator G = rng_stream(seed, *key, round, j + 1) draws
    column 0 as G.random(m) for the block's m rows of that group, in proposal
    order, then each later column for the block's rows still live before it,
    in proposal order. This keeps the law exact: each uniform is drawn after
    everything that decides which row it goes to, and independently of it, so
    the live rows' next column is i.i.d. U(0, 1), as if every column of every
    row were drawn up front and the dropped rows' columns thrown away. No two
    blocks share a generator and a row's liveness depends on its own values
    only, so each block keeps the rows it would get on its own, whatever the
    merging or the thread count. The conditioning variables run one at a
    time, or `threads` at a time. The rows a block still wants go straight
    into its `out`; it counts the surplus as accepted.
    """
    d = spec.d
    whiches = [rng_stream(seed, *blk.key, blk.rnd).integers(0, d, size=blk.size)
               for blk in chunk]

    def group(jdx: int):
        sels = [np.flatnonzero(which == jdx) for which in whiches]
        offsets = np.cumsum([0] + [sel.size for sel in sels])
        if not offsets[-1]:
            return []
        gens = [rng_stream(seed, *blk.key, blk.rnd, jdx + 1) for blk in chunk]

        def column(k, live):
            cuts = offsets if live is None else np.searchsorted(live, offsets)
            return np.concatenate([gen.random(m) for gen, m in zip(gens, np.diff(cuts))])

        plan, earlier = plans[jdx]
        z, live = _conditional_block(spec, plan, column, earlier)
        cuts = np.searchsorted(live, offsets)
        return [(sel[live[lo:hi] - off], z[lo:hi])
                for sel, off, lo, hi in zip(sels, offsets, cuts[:-1], cuts[1:])]

    parts = [split for split in parallel_map(group, range(d), threads) if split]
    for b, (blk, which) in enumerate(zip(chunk, whiches)):
        order = np.argsort(np.concatenate([split[b][0] for split in parts]))
        want = len(blk.out)
        take = order[:max(want - blk.got, 0)]
        blk.out[blk.got:blk.got + take.size] = np.vstack([split[b][1] for split in parts])[take]
        blk.got += order.size
        blk.proposals += which.size
        blk.rnd += 1
        blk.size = _bounded((want - blk.got) / max(blk.got / blk.proposals, 1 / (2 * d)) * 1.2)
        if blk.got < want and blk.rnd >= 500:
            raise NoConvergence("rejection sampler failed to reach the requested size "
                                "in 500 rounds")


def sample_inverted_pareto(spec: XVineSpec, n: int, seed: int,
                           threads: int = 1,
                           ) -> tuple[np.ndarray, RejectionStats]:
    """Draw from the inverted-Pareto law of the model by rejection.

    A conditioning coordinate j is chosen uniformly, a conditional sample
    drawn, and the row kept when j is its first coordinate below 1 in a fixed
    node order (`_rejection_plans`): of a row's N coordinates below 1 just one
    can propose it, so the kept rows follow the target law, with acceptance
    E[1/N] = R(L)/d (Dombry, Engelke & Oesting 2016). Returns the samples and
    proposal statistics.

    The blocks run in lockstep: blocks still short are queued, and each step
    takes blocks off the front of the queue until their next rounds would
    pass `_MERGE_CAP` proposals, runs those rounds together
    (`_rejection_round`), and queues again the blocks still short. So blocks
    in different rounds may share a step, and output depends only on
    (seed, n), never on the merging or the thread count.
    """
    n, seed = _count(n), _count(seed, "seed")
    threads = _count(threads, "thread count", least=1)
    plans, rate = _rejection_plans(spec)
    if n == 0:
        return np.empty((0, spec.d)), RejectionStats(0, 0)
    z = np.empty((n, spec.d))
    blocks = [_Block((b,), z[b * BLOCK:b * BLOCK + m], _round0(m, rate)) for b, m in _blocks(n)]
    queue = deque(blocks)
    while queue:
        chunk = [queue.popleft()]
        total = chunk[0].size
        while queue and total + queue[0].size <= _MERGE_CAP:
            total += queue[0].size
            chunk.append(queue.popleft())
        _rejection_round(spec, plans, seed, chunk, threads)
        queue.extend(blk for blk in chunk if blk.got < len(blk.out))
    stats = RejectionStats(proposals=sum(blk.proposals for blk in blocks),
                           accepted=sum(blk.got for blk in blocks))
    return z, stats


def sample_pareto(spec: XVineSpec, n: int, seed: int,
                  threads: int = 1) -> tuple[np.ndarray, RejectionStats]:
    """Multivariate-Pareto-scale samples: reciprocal of the inverted-Pareto law."""
    z, stats = sample_inverted_pareto(spec, n, seed, threads=threads)
    return 1.0 / z, stats
