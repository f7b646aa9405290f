"""Samplers: determinism, conditional law, rejection bookkeeping, traces."""
from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

import oracles as oc
from conftest import make_random_vine, u_quantile
from xvine import simulate
from xvine.cli import main
from xvine.errors import DomainError, NoConvergence
from xvine.estimate import FitOptions
from xvine.families import PairFamily, TailFamily, tail_chi
from xvine.model import XVineSpec, conditional_cdf, model_chi, model_to_json
from xvine.numerics import rng_stream
from xvine.reference import (
    chain_vine,
    five_variable_spec,
    hr_vine_spec,
    truncated_cvine_study_spec,
)
from xvine.simulate import (
    BLOCK,
    RejectionStats,
    parallel_map,
    sample_conditional,
    sample_inverted_pareto,
    sample_pareto,
)
from xvine.vines import VineSequence


@pytest.fixture(scope="module")
def bench():
    return five_variable_spec()


def hr2_spec(gamma: float = 1.5) -> XVineSpec:
    return XVineSpec(VineSequence([[(1, 2)]], d=2), {(1, 2): TailFamily("hr", gamma)})


def joe4_spec() -> XVineSpec:
    """A 4-d D-vine whose second tree inverts by bisection (joe, survjoe)."""
    vine = chain_vine(4)
    tail = {(1, 2): TailFamily("logistic", 2.0), (2, 3): TailFamily("hr", 1.0),
            (3, 4): TailFamily("neglogistic", 1.5)}
    pairs = {(1, 3, (2,)): PairFamily("joe", 2.0), (2, 4, (3,)): PairFamily("survjoe", 1.5),
             (1, 4, (2, 3)): PairFamily("gaussian", 0.2)}
    return XVineSpec(vine, {vine.find_edge(k): f for k, f in tail.items()},
                     {vine.find_edge(k): f for k, f in pairs.items()})


def full_block(spec: XVineSpec, plan, w: np.ndarray) -> np.ndarray:
    """_conditional_block on the uniform matrix w, with nothing dropped."""
    z, live = simulate._conditional_block(spec, plan, simulate._matrix_columns(w))
    assert live.size == len(w)
    return z


def u_space_block(spec: XVineSpec, plan, w: np.ndarray) -> np.ndarray:
    """The same draws inverted by the u-space reference recursion."""
    first, cols = plan
    col = {first: w[:, 0]}
    for k, (target, top) in enumerate(cols):
        col[target] = u_quantile(spec, col, top, target, w[:, k + 1])
    return np.column_stack([col[node] for node in spec.vine.nodes])


def stream_uniforms(spec: XVineSpec, plan, earlier, gen, m: int, draw) -> np.ndarray:
    """The (m, d) uniforms of one conditioning group under the stream contract.

    gen draws column 0 for all m rows, then each later column for the rows
    with no node of `earlier` below 1 in the columns before it, in row order.
    Every column is inverted for every row by `draw`; a dropped row's later
    columns hold 0.5, which no stream draws.
    """
    first, cols = plan
    nodes = list(spec.vine.nodes)
    drawn = [nodes.index(v) for v in [first, *(t for t, _ in cols)]]
    w = np.full((m, spec.d), 0.5)
    w[:, 0] = gen.random(m)
    for k in range(1, spec.d):
        z = draw(spec, plan, w)
        seen = [c for c in drawn[:k] if nodes[c] in earlier]
        live = ~(z[:, seen] < 1.0).any(axis=1)
        w[live, k] = gen.random(int(live.sum()))
    return w


def late_rejection(spec: XVineSpec, n: int, seed: int, draw=full_block):
    """sample_inverted_pareto with every column of every proposal inverted.

    The same blocks, rounds and random streams as the sampler, with each
    column's uniforms drawn for the rows still live before it
    (`stream_uniforms`). Each conditioning group inverts all its columns for
    all its rows with `draw`, and a proposal from the j-th plan is kept only
    once all d columns are inverted, when no node ranked before j in the
    library's first-exceedance order is below 1. Round 0 takes its size from
    the library's rule and the spec's rate hint.
    """
    d = spec.d
    nodes = list(spec.vine.nodes)
    plans, hint = simulate._rejection_plans(spec)
    rows, proposals, accepted = [], 0, 0
    for block in range((n + BLOCK - 1) // BLOCK):
        want = min(BLOCK, n - block * BLOCK)
        kept, got, drawn, rnd = [], 0, 0, 0
        m = simulate._round0(want, hint)
        while got < want:
            which = rng_stream(seed, block, rnd).integers(0, d, size=m)
            z = np.empty((m, d))
            keep = np.empty(m, dtype=bool)
            for jdx in np.unique(which):
                sel = which == jdx
                plan, earlier = plans[jdx]
                w = stream_uniforms(spec, plan, earlier, rng_stream(seed, block, rnd, int(jdx) + 1),
                                    int(sel.sum()), draw)
                z[sel] = draw(spec, plan, w)
                cols = [nodes.index(v) for v in earlier]
                keep[sel] = ~(z[sel][:, cols] < 1.0).any(axis=1)
            kept.append(z[keep])
            got += int(keep.sum())
            drawn += m
            rate = max(got / drawn, 1.0 / (2 * d))
            m = min(max(int(math.ceil((want - got) / rate * 1.2)), 64), 1 << 18)
            rnd += 1
        rows.append(np.vstack(kept)[:want])
        proposals += drawn
        accepted += got
    return np.vstack(rows), RejectionStats(proposals, accepted)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_conditional_sampler_deterministic(bench):
    a = sample_conditional(bench, 2, 500, seed=11)
    b = sample_conditional(bench, 2, 500, seed=11)
    c = sample_conditional(bench, 2, 500, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_conditional_sampler_thread_invariant(bench):
    a = sample_conditional(bench, 3, 9000, seed=21, threads=1)
    b = sample_conditional(bench, 3, 9000, seed=21, threads=4)
    np.testing.assert_array_equal(a, b)


def test_rejection_sampler_thread_invariant(bench):
    za, sa = sample_inverted_pareto(bench, 3000, seed=31, threads=1)
    zb, sb = sample_inverted_pareto(bench, 3000, seed=31, threads=3)
    np.testing.assert_array_equal(za, zb)
    assert (sa.proposals, sa.accepted) == (sb.proposals, sb.accepted)


def overrate(spec: XVineSpec, hint: float = 0.6) -> XVineSpec:
    """spec with its rate hint set to `hint`, so round 0 of a block whose
    acceptance is below it falls short and the block takes a second round."""
    spec._plans[None] = (simulate._rejection_plans(spec)[0], hint)
    return spec


@pytest.mark.parametrize("spec,min_rounds", [(truncated_cvine_study_spec(), 1),
                                              (overrate(hr2_spec(0.01)), 2)],
                         ids=["cvine10", "hr2"])
def test_rejection_sampler_thread_invariant_across_blocks(spec, min_rounds, monkeypatch):
    # three blocks, so two worker threads really split the work; at d = 2 and
    # gamma = 0.01 the acceptance rate (2 - chi)/2 ~ 0.52 is below the hint
    # round 0 is sized from, so blocks also take a second round
    rounds: set[int] = set()
    simulate._rejection_plans(spec)  # the pilot's streams are not recorded

    def recording_stream(seed, *path):
        rounds.add(path[1] if len(path) > 1 else 0)
        return rng_stream(seed, *path)

    n = 2 * BLOCK + 808
    monkeypatch.setattr(simulate, "rng_stream", recording_stream)
    za, sa = sample_inverted_pareto(spec, n, seed=32, threads=1)
    monkeypatch.undo()
    zb, sb = sample_inverted_pareto(spec, n, seed=32, threads=2)
    np.testing.assert_array_equal(za, zb)
    assert (sa.proposals, sa.accepted) == (sb.proposals, sb.accepted)
    assert len(za) == n and sa.accepted >= n
    assert len(rounds) >= min_rounds


@pytest.mark.parametrize("spec", [five_variable_spec(), truncated_cvine_study_spec(),
                                  joe4_spec(), hr2_spec(0.5)],
                         ids=["bench5", "cvine10", "joe4", "hr2"])
def test_early_rejection_is_exact(spec):
    # dropping rows sure to be rejected changes neither the rows nor the counts;
    # at d = 2 no row can be dropped before the final test
    n = BLOCK + 700
    want, want_stats = late_rejection(spec, n, seed=81)
    for threads in (1, 2):
        z, stats = sample_inverted_pareto(spec, n, seed=81, threads=threads)
        np.testing.assert_array_equal(z, want)
        assert stats == want_stats


@pytest.mark.parametrize("make", [five_variable_spec, truncated_cvine_study_spec],
                         ids=["bench5", "cvine10"])
def test_rate_hint_keeps_output_a_function_of_spec_seed_and_n(make):
    # the first call on a spec runs the pilot, a later one reuses its hint, and
    # an equal spec built afresh measures the same hint: all give the same
    # rows and counts, and the pilot's proposals are in no call's stats
    n = BLOCK + 700
    spec = make()
    want, want_stats = sample_inverted_pareto(spec, n, seed=87)
    for threads in (1, 2):
        for again in (spec, make()):
            z, stats = sample_inverted_pareto(again, n, seed=87, threads=threads)
            np.testing.assert_array_equal(z, want)
            assert stats == want_stats
    assert make()._plans == {}  # nothing is measured before the first call


def test_pilot_streams_are_disjoint_from_sampler_streams(monkeypatch, bench):
    # the pilot's seed is fixed, so its paths must differ from those of every
    # call, whatever the call's seed
    paths: list[tuple] = []

    def recording_stream(seed, *path):
        paths.append((seed, *path))
        return rng_stream(seed, *path)

    hr2 = overrate(hr2_spec(0.01))
    simulate._rejection_plans(bench)
    monkeypatch.setattr(simulate, "rng_stream", recording_stream)
    simulate._rejection_plans(five_variable_spec())
    pilot = set(paths)
    paths.clear()
    for seed in (simulate._PILOT_SEED, 1):
        sample_inverted_pareto(bench, 3 * BLOCK, seed=seed)
        sample_inverted_pareto(hr2, 2 * BLOCK, seed=seed)
        sample_conditional(bench, 2, 2 * BLOCK, seed=seed)
        model_chi(bench, (1, 2), n_mc=100, seed=seed)
    calls = set(paths)
    assert pilot and any(len(p) > 2 and p[2] > 0 for p in calls)  # later rounds ran too
    assert not pilot & calls


@pytest.mark.parametrize("make,n", [(five_variable_spec, 40_000),
                                    (truncated_cvine_study_spec, 20_000)],
                         ids=["bench5", "cvine10"])
def test_round0_accepts_little_surplus(make, n):
    # round 0 asks for three binomial sd above the rows a block wants at the
    # hint, so a call at the benchmark's sizes accepts few rows it throws away
    _, stats = sample_inverted_pareto(make(), n, seed=1)
    assert n <= stats.accepted <= 1.12 * n


def test_rejection_sampler_that_accepts_nothing_stops(monkeypatch):
    def no_rows(spec, plan, column, earlier=frozenset()):
        return np.empty((0, spec.d)), np.empty(0, dtype=np.intp)

    monkeypatch.setattr(simulate, "_conditional_block", no_rows)
    with pytest.raises(NoConvergence, match="500 rounds"):
        sample_inverted_pareto(hr2_spec(), 10, seed=0)


@pytest.fixture()
def block_calls(monkeypatch) -> list[int]:
    """The row count of every _conditional_block call from here on."""
    calls: list[int] = []
    real_block = simulate._conditional_block

    def counting_block(spec, plan, column, *args, **kwargs):
        def counted(k, live):
            u = column(k, live)
            if live is None:
                calls.append(u.size)
            return u

        return real_block(spec, plan, counted, *args, **kwargs)

    monkeypatch.setattr(simulate, "_conditional_block", counting_block)
    return calls


def test_merged_steps_mix_blocks_and_rounds(monkeypatch, block_calls):
    # a small merge cap splits the call into several steps, and a step takes
    # blocks in different rounds; each block still gets the rows and counts of
    # drawing it on its own
    spec = overrate(hr2_spec(0.01))
    n = 2 * BLOCK + 808
    want, want_stats = late_rejection(spec, n, seed=85)
    steps: list[list[tuple[tuple, int]]] = []
    real_round = simulate._rejection_round

    def recording_round(spec, plans, seed, chunk, threads):
        steps.append([(blk.key, blk.rnd) for blk in chunk])
        return real_round(spec, plans, seed, chunk, threads)

    monkeypatch.setattr(simulate, "_MERGE_CAP", 8000)
    monkeypatch.setattr(simulate, "_rejection_round", recording_round)
    for threads in (1, 2):
        steps.clear()
        block_calls.clear()
        z, stats = sample_inverted_pareto(spec, n, seed=85, threads=threads)
        np.testing.assert_array_equal(z, want)
        assert stats == want_stats
        assert len(steps) >= 3
        assert any(len({rnd for _, rnd in step}) > 1 for step in steps)
        assert len(block_calls) <= spec.d * len(steps)  # one call per variable and step


def test_merged_conditional_matches_per_block_draws(bench, monkeypatch, block_calls):
    n = 5 * BLOCK + 100
    plan = simulate._conditional_plan(bench, 3)
    want = np.vstack([full_block(bench, plan, rng_stream(17, b).random((m, 5)))
                      for b, m in enumerate([BLOCK] * 5 + [100])])
    monkeypatch.setattr(simulate, "_MERGE_CAP", 2 * 5 * BLOCK)  # two blocks a call at d = 5
    for threads in (1, 2):
        block_calls.clear()
        np.testing.assert_array_equal(sample_conditional(bench, 3, n, seed=17, threads=threads),
                                      want)
        assert sorted(block_calls) == [BLOCK + 100, 2 * BLOCK, 2 * BLOCK]


def test_one_merged_call_per_conditioning_variable(block_calls):
    # 20 000 rows are 5 blocks, each done in one round: one call per variable
    spec = truncated_cvine_study_spec()
    simulate._rejection_plans(spec)  # the pilot's calls are not counted
    block_calls.clear()
    _, stats = sample_inverted_pareto(spec, 20_000, seed=1)
    assert len(block_calls) == spec.d
    assert sum(block_calls) == stats.proposals


def test_rejection_draws_no_uniform_for_a_dropped_row(monkeypatch):
    # column 0 is drawn for every proposal and each later column only for the
    # rows still live before it, so at d = 10, where most proposals drop
    # early, well under half of the d uniforms per proposal are drawn
    spec = truncated_cvine_study_spec()
    simulate._rejection_plans(spec)  # the pilot's draws are not counted
    drawn = {"integers": 0, "random": 0}
    asked: list[int] = []  # rows asked of each column after column 0

    class CountingGenerator:
        def __init__(self, gen):
            self.gen = gen

        def integers(self, *args, **kwargs):
            out = self.gen.integers(*args, **kwargs)
            drawn["integers"] += out.size
            return out

        def random(self, size):
            out = self.gen.random(size)
            drawn["random"] += out.size
            return out

    real_block = simulate._conditional_block

    def recording_block(spec, plan, column, *args, **kwargs):
        def recorded(k, live):
            if live is not None:
                asked.append(live.size)
            return column(k, live)

        return real_block(spec, plan, recorded, *args, **kwargs)

    monkeypatch.setattr(simulate, "rng_stream",
                        lambda seed, *path: CountingGenerator(rng_stream(seed, *path)))
    monkeypatch.setattr(simulate, "_conditional_block", recording_block)
    _, stats = sample_inverted_pareto(spec, 20_000, seed=1)
    assert drawn["integers"] == stats.proposals
    assert drawn["random"] == stats.proposals + sum(asked)
    assert drawn["random"] < 0.45 * stats.proposals * spec.d


def test_plans_are_built_once_per_spec(monkeypatch, tmp_path):
    spec = five_variable_spec()
    built: list[int] = []
    real = VineSequence.to_structure_matrix

    def counting(self, *args, **kwargs):
        built.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(VineSequence, "to_structure_matrix", counting)
    sample_inverted_pareto(spec, 100, seed=1)
    assert built
    built.clear()
    sample_inverted_pareto(spec, 100, seed=2)
    sample_conditional(spec, 3, 100, seed=1)
    model_chi(spec, (1, 2), n_mc=100)
    assert built == []
    # the CLI's chi loop shares one spec: a plan per first variable of the 10
    # pairs, not one per pair
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(model_to_json(spec)))
    assert main(["chi", "--spec", str(path), "--mc", "100", "--out", str(tmp_path / "c.csv")]) == 0
    assert 0 < len(built) < 10


def hr4_spec() -> XVineSpec:
    g = np.array([[0.0, 1.0, 1.8, 2.4], [1.0, 0.0, 1.1, 1.9],
                  [1.8, 1.1, 0.0, 0.9], [2.4, 1.9, 0.9, 0.0]])
    return hr_vine_spec(make_random_vine(5, 4), g)


@pytest.mark.parametrize("spec", [hr4_spec(), truncated_cvine_study_spec()],
                         ids=["hr4", "cvine10"])
def test_sampler_matches_u_space_reference(spec):
    # hr / gaussian chains invert in normal scores; the u-space reference
    # inverts the same uniforms, so the counts are equal and rows agree to
    # rounding
    n = BLOCK + 700
    want, want_stats = late_rejection(spec, n, seed=83, draw=u_space_block)
    z, stats = sample_inverted_pareto(spec, n, seed=83)
    assert stats == want_stats
    np.testing.assert_allclose(z, want, rtol=1e-10)


@pytest.mark.parametrize("spec", [five_variable_spec(), truncated_cvine_study_spec(),
                                  joe4_spec()], ids=["bench5", "cvine10", "joe4"])
def test_dropping_block_computes_each_value_once(spec):
    # rows are dropped between columns, yet every conditional value a later
    # column needs is still read back from the memo, not computed again; the
    # last-ranked plans of the 10-d model may drop every row
    sizes = []
    for plan, earlier in simulate._rejection_plans(spec)[0]:
        if not earlier:
            continue
        trace: list = []
        w = rng_stream(9).random((600, spec.d))
        _, live = simulate._conditional_block(spec, plan, simulate._matrix_columns(w),
                                             earlier, trace=trace)
        sizes.append(live.size)
        forward = [t for t in trace if t[0] in ("tail_h", "pair_h")]
        assert len(forward) == len(set(forward))
    assert max(sizes) < 600 and any(0 < size < 600 for size in sizes)


def test_conditional_block_drops_only_sure_rejections():
    spec = joe4_spec()
    nodes = list(spec.vine.nodes)
    w = rng_stream(5).random((600, spec.d))
    for plan, earlier in simulate._rejection_plans(spec)[0]:
        full = full_block(spec, plan, w)
        z, live = simulate._conditional_block(spec, plan, simulate._matrix_columns(w), earlier)
        np.testing.assert_array_equal(z, full[live])
        # dropped exactly where a coordinate ranked before the first node is below 1
        rejected = (full[:, [nodes.index(v) for v in earlier]] < 1.0).any(axis=1)
        np.testing.assert_array_equal(live, np.flatnonzero(~rejected))
        if earlier:
            assert 0 < live.size < 600
    # the last-ranked plan with its first drawn column forced below 1: every
    # row drops there, and no later column runs a kernel
    plan, earlier = max(simulate._rejection_plans(spec)[0], key=lambda got: len(got[1]))
    w[:, 1] = 1e-9
    trace: list = []
    z, live = simulate._conditional_block(spec, plan, simulate._matrix_columns(w), earlier,
                                         trace=trace)
    assert z.shape == (0, 4) and live.size == 0
    assert {node for kind, _, node in trace if kind.endswith("_inv")} == {plan[1][0][0]}


def test_parallel_map_keeps_input_order():
    # later items finish first, results still come back in input order
    def slow_square(x):
        time.sleep(0.01 * (5 - x))
        return x * x

    for threads in (1, 2, 4):
        assert parallel_map(slow_square, range(5), threads) == [0, 1, 4, 9, 16]


def test_threads_reject_bad_counts(bench, tmp_path, capsys):
    for bad in (0, -3, True, 2.5, None):
        with pytest.raises(DomainError, match="thread count"):
            sample_conditional(bench, 1, 10, seed=0, threads=bad)
        with pytest.raises(DomainError, match="thread count"):
            sample_inverted_pareto(bench, 10, seed=0, threads=bad)
        with pytest.raises(DomainError, match="thread count"):
            FitOptions(threads=bad)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(model_to_json(bench)))
    for bad in ("0", "-3"):
        code = main(["simulate", "--spec", str(spec), "--n", "5", "--threads", bad,
                     "--out", str(tmp_path / "z.csv")])
        assert code == 2
        assert "thread count" in capsys.readouterr().err


def test_empty_and_invalid_requests(bench):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sample_conditional(bench, 1, 0, seed=0).shape == (0, 5)
        z, stats = sample_inverted_pareto(bench, 0, seed=0)
        assert z.shape == (0, 5) and np.isnan(stats.acceptance_rate)
        with pytest.raises(DomainError):
            sample_conditional(bench, 9, 10, seed=0)
        with pytest.raises(DomainError):
            sample_conditional(bench, 1, -1, seed=0)
        # a size that is not an integer fails where it enters, not inside numpy
        for bad in (2.5, 100.0, "10", None, True):
            with pytest.raises(DomainError, match="must be an integer"):
                sample_conditional(bench, 1, bad, seed=0)
            with pytest.raises(DomainError, match="must be an integer"):
                sample_inverted_pareto(bench, bad, seed=0)
        for bad in (0, -5, 2.5, True):
            with pytest.raises(DomainError, match="n_mc"):
                model_chi(bench, (1, 2), n_mc=bad)
        # nor is a seed taken as int(seed), or a conditioning variable as node 1
        for bad in (1.5, 1.0, True, "1", None):
            with pytest.raises(DomainError, match="seed must be an integer"):
                sample_inverted_pareto(bench, 10, seed=bad)
            with pytest.raises(DomainError, match="seed must be an integer"):
                sample_pareto(bench, 0, seed=bad)
            with pytest.raises(DomainError, match="seed must be an integer"):
                sample_conditional(bench, 1, 10, seed=bad)
            with pytest.raises(DomainError, match="seed must be an integer"):
                model_chi(bench, (1, 2), n_mc=10, seed=bad)
            with pytest.raises(DomainError, match="conditioning variable must be an integer"):
                sample_conditional(bench, bad, 10, seed=0)
        with pytest.raises(DomainError, match="seed must be nonnegative"):
            sample_inverted_pareto(bench, 10, seed=-1)
        # numpy integers are integers
        assert sample_conditional(bench, 1, np.int64(3), seed=0).shape == (3, 5)
        assert sample_inverted_pareto(bench, np.int32(3), seed=0)[0].shape == (3, 5)
        np.testing.assert_array_equal(sample_conditional(bench, np.int64(2), 3, seed=np.int64(4)),
                                      sample_conditional(bench, 2, 3, seed=4))
        assert 0.0 <= model_chi(bench, (1, 2), n_mc=np.int64(10)) <= 1.0


# ---------------------------------------------------------------------------
# law checks
# ---------------------------------------------------------------------------

def test_conditioned_column_is_uniform(bench):
    for j in (2, 5):
        z = sample_conditional(bench, j, 10_000, seed=41 + j)
        col = z[:, list(bench.vine.nodes).index(j)]
        assert kstest(col, "uniform").pvalue > 0.01, j


def test_conditional_sample_hits_pair_chi(bench):
    # P(Z_a < 1) in a j-conditioned sample equals chi of the (a, j) pair
    z = sample_conditional(bench, 2, 40_000, seed=43)
    chi12 = tail_chi(bench.tail[bench.vine.find_edge((1, 2))])
    phat = float((z[:, 0] < 1.0).mean())
    assert abs(phat - chi12) < 3.0 * np.sqrt(chi12 * (1 - chi12) / 40_000)


def test_conditional_sample_matches_conditional_cdf(bench):
    # empirical CDF of column 1 given fixed others is the recursion's CDF
    z = sample_conditional(bench, 2, 100_000, seed=44)
    # smoke via chi instead of pointwise conditioning: coordinate 4 below 1
    chi24 = tail_chi(bench.tail[bench.vine.find_edge((2, 4))])
    phat = float((z[:, 3] < 1.0).mean())
    assert abs(phat - chi24) < 3.0 * np.sqrt(chi24 * (1 - chi24) / 100_000)


def test_rejection_rows_lie_in_slab(bench):
    z, _ = sample_inverted_pareto(bench, 2000, seed=51)
    assert z.shape == (2000, 5)
    assert np.all(z.min(axis=1) < 1.0)
    assert np.all(z > 0.0)


def test_pareto_is_reciprocal_slab(bench):
    y, _ = sample_pareto(bench, 1500, seed=52)
    assert np.all(y.max(axis=1) > 1.0)
    z, _ = sample_inverted_pareto(bench, 1500, seed=52)
    np.testing.assert_allclose(y, 1.0 / z, rtol=1e-12)


def test_acceptance_rate_matches_quadrature_at_d2():
    spec = hr2_spec(1.5)
    z, stats = sample_inverted_pareto(spec, 20_000, seed=61)
    chi = oc.chi_hr(1.5)
    want = (2.0 - chi) / 2.0
    se = np.sqrt(want * (1.0 - want) / stats.proposals)
    assert abs(stats.acceptance_rate - want) < 3.0 * se


def relabelled(spec: XVineSpec, perm: dict[int, int]) -> XVineSpec:
    """spec with node v renamed perm[v]: the same law, coordinates permuted."""
    def raw(e):
        if e.level == 1:
            return frozenset({perm[e.a], perm[e.b]})
        return frozenset({raw(e.child_a), raw(e.child_b)})

    vine = VineSequence([[raw(e) for e in t] for t in spec.vine.trees], d=spec.d)

    def key(e):
        return perm[e.a], perm[e.b], tuple(perm[c] for c in e.cond)

    return XVineSpec(vine, {vine.find_edge(key(e)): f for e, f in spec.tail.items()},
                     {vine.find_edge(key(e)): f for e, f in spec.pairs.items()})


def test_rejection_law_does_not_depend_on_labels(bench):
    # the first-exceedance order comes from the plans; on a relabelled model
    # the slab mass d * rate is the same and every margin is still uniform
    perm = {1: 4, 2: 5, 3: 2, 4: 1, 5: 3}
    spec = relabelled(bench, perm)
    n = 40_000
    z0, s0 = sample_inverted_pareto(bench, n, seed=62)
    z, stats = sample_inverted_pareto(spec, n, seed=62)
    d, rate = spec.d, stats.acceptance_rate
    se = d * np.hypot(np.sqrt(rate * (1 - rate) / stats.proposals),
                      np.sqrt(s0.acceptance_rate * (1 - s0.acceptance_rate) / s0.proposals))
    assert abs(d * rate - d * s0.acceptance_rate) < 3.0 * se
    for j in range(d):
        p = float((z[:, j] < 1.0).mean())
        se = np.sqrt((1 - p) / (n * p) + (1 - rate) / (stats.proposals * rate))
        assert abs(p * d * rate - 1.0) < 3.0 * se, j
    # the same law: the chi of a first-tree pair carries over to its new labels
    for e in bench.vine.trees[0]:
        a, b = perm[e.a] - 1, perm[e.b] - 1
        chi = tail_chi(bench.tail[e])
        m = int((z[:, a] < 1.0).sum())
        phat = float(((z[:, a] < 1.0) & (z[:, b] < 1.0)).sum()) / m
        assert abs(phat - chi) < 3.0 * np.sqrt(chi * (1 - chi) / m), e.label


def test_rejection_law_on_the_10d_model():
    # the 10-d model drops most proposals before their last column; the kept
    # rows still have unit margins, Z_j uniform given Z_j < 1, and the chi of
    # every first-tree pair
    spec = truncated_cvine_study_spec()
    n = 50_000
    z, stats = sample_inverted_pareto(spec, n, seed=64)
    d, rate = spec.d, stats.acceptance_rate
    pos = {v: i for i, v in enumerate(spec.vine.nodes)}
    below = z < 1.0
    for j in range(d):
        p = float(below[:, j].mean())
        se = np.sqrt((1 - p) / (n * p) + (1 - rate) / (stats.proposals * rate))
        assert abs(p * d * rate - 1.0) < 3.0 * se, j
        assert kstest(z[below[:, j], j], "uniform").pvalue > 0.001, j
    for e in spec.vine.trees[0]:
        chi = tail_chi(spec.tail[e])
        base = below[:, pos[e.a]]
        m = int(base.sum())
        phat = float((base & below[:, pos[e.b]]).sum()) / m
        assert abs(phat - chi) < 3.0 * np.sqrt(chi * (1 - chi) / m), e.label


def test_rejection_stats_bookkeeping():
    stats = RejectionStats(proposals=100, accepted=25)
    assert stats.acceptance_rate == 0.25


# ---------------------------------------------------------------------------
# recursion traces
# ---------------------------------------------------------------------------

def test_conditional_cdf_trace_is_single_pass(bench):
    trace: list = []
    conditional_cdf(bench, 1, (2, 3, 4), 0.8, [1.0, 1.0, 1.0], _trace=trace)
    assert trace == [
        ("tail_h", (1, 2, ()), 1),
        ("tail_h", (2, 3, ()), 3),
        ("pair_h", (1, 3, (2,)), 1),
        ("tail_h", (2, 4, ()), 4),
        ("pair_h", (3, 4, (2,)), 4),
        ("pair_h", (1, 4, (2, 3)), 1),
    ]
    # the shared R_{3|2} argument is memoized: (2,3) enters exactly once
    assert sum(1 for op, key, _ in trace if key == (2, 3, ())) == 1


def test_traced_sampler_draws_the_untraced_rows(bench):
    # a trace runs the same blocks, one after another
    n = BLOCK + 904
    trace: list = []
    traced = sample_conditional(bench, 3, n, seed=3, _trace=trace)
    np.testing.assert_array_equal(traced, sample_conditional(bench, 3, n, seed=3, threads=2))
    assert trace


def test_sampler_trace_quantile_chain(bench):
    trace: list = []
    sample_conditional(bench, 4, 1, seed=71, _trace=trace)
    want = [
        ("tail_h", (4, 5, ()), 5),
        ("pair_h_inv", (2, 5, (4,)), 2),
        ("tail_h_inv", (2, 4, ()), 2),
    ]
    idx = [trace.index(t) for t in want]
    assert idx == sorted(idx)
    assert idx[2] - idx[0] == 2  # contiguous: one inner h, then the two inversions
