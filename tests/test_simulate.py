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
from xvine.errors import DomainError
from xvine.estimate import FitOptions, fit_pipeline
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
    resolve_threads,
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
    """_conditional_block with nothing dropped."""
    z, live = simulate._conditional_block(spec, plan, w)
    assert live.size == len(w)
    return z


def u_space_block(spec: XVineSpec, plan, w: np.ndarray) -> np.ndarray:
    """The same draws inverted by the u-space reference recursion."""
    first, cols = plan
    col = {first: w[:, 0]}
    for k, (target, top) in enumerate(cols):
        col[target] = u_quantile(spec, col, top, target, w[:, k + 1])
    return np.column_stack([col[node] for node in spec.vine.nodes])


def late_rejection(spec: XVineSpec, n: int, seed: int, draw=full_block):
    """sample_inverted_pareto with every column of every proposal drawn.

    The same blocks, rounds and random streams as the sampler, but each
    conditioning group draws all its columns with `draw`, with nothing
    dropped, and the test accept_u * N < 1 comes only once all d columns are
    drawn.
    """
    d = spec.d
    plans = [simulate._conditional_plan(spec, j) for j in spec.vine.nodes]
    rows, proposals, accepted = [], 0, 0
    for block in range((n + BLOCK - 1) // BLOCK):
        want = min(BLOCK, n - block * BLOCK)
        kept, got, drawn, rate, rnd = [], 0, 0, 2.0 / (d + 1), 0
        while got < want:
            m = min(max(int(math.ceil((want - got) / rate * 1.2)), 64), 1 << 18)
            rng = rng_stream(seed, block, rnd)
            which = rng.integers(0, d, size=m)
            accept_u = rng.random(m)
            z = np.empty((m, d))
            for jdx in np.unique(which):
                sel = which == jdx
                w = rng_stream(seed, block, rnd, int(jdx) + 1).random((int(sel.sum()), d))
                z[sel] = draw(spec, plans[jdx], w)
            keep = accept_u * (z < 1.0).sum(axis=1) < 1.0
            kept.append(z[keep])
            got += int(keep.sum())
            drawn += m
            rate = max(got / drawn, 1.0 / (2 * d))
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


@pytest.mark.parametrize("spec,min_rounds", [(truncated_cvine_study_spec(), 1),
                                              (hr2_spec(0.01), 2)], ids=["cvine10", "hr2"])
def test_rejection_sampler_thread_invariant_across_blocks(spec, min_rounds, monkeypatch):
    # three blocks, so two worker threads really split the work; at d = 2 and
    # gamma = 0.01 the acceptance rate (2 - chi)/2 ~ 0.52 is below what the
    # first round is sized for, so blocks also take a second round
    rounds: set[int] = set()

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


@pytest.fixture()
def block_calls(monkeypatch) -> list[int]:
    """The row count of every _conditional_block call from here on."""
    calls: list[int] = []
    real_block = simulate._conditional_block

    def counting_block(spec, plan, w, *args, **kwargs):
        calls.append(len(w))
        return real_block(spec, plan, w, *args, **kwargs)

    monkeypatch.setattr(simulate, "_conditional_block", counting_block)
    return calls


def test_merged_steps_mix_blocks_and_rounds(monkeypatch, block_calls):
    # a small merge cap splits the call into several steps, and a step takes
    # blocks in different rounds; each block still gets the rows and counts of
    # drawing it on its own
    spec = hr2_spec(0.01)
    n = 2 * BLOCK + 808
    want, want_stats = late_rejection(spec, n, seed=85)
    steps: list[list[tuple[int, int]]] = []
    real_round = simulate._rejection_round

    def recording_round(spec, plans, seed, chunk, threads):
        steps.append([(blk.index, blk.rnd) for blk in chunk])
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
    _, stats = sample_inverted_pareto(spec, 20_000, seed=1)
    assert len(block_calls) == spec.d
    assert sum(block_calls) == stats.proposals


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
    # column needs is still read back from the memo, not computed again
    for j in spec.vine.nodes:
        trace: list = []
        _, live = simulate._conditional_block(spec, simulate._conditional_plan(spec, j),
                                             rng_stream(9).random((600, spec.d)),
                                             rng_stream(10).random(600), trace=trace)
        assert 0 < live.size < 600
        forward = [t for t in trace if t[0] in ("tail_h", "pair_h")]
        assert len(forward) == len(set(forward))


def test_conditional_block_drops_only_sure_rejections():
    spec = joe4_spec()
    plan = simulate._conditional_plan(spec, 2)
    w = rng_stream(5).random((600, spec.d))
    full, _ = simulate._conditional_block(spec, plan, w)
    accept_u = rng_stream(6).random(600)
    z, live = simulate._conditional_block(spec, plan, w, accept_u)
    np.testing.assert_array_equal(z, full[live])
    assert 0 < live.size < 600
    dropped = np.setdiff1d(np.arange(600), live)
    assert np.all(accept_u[dropped] * (full[dropped] < 1.0).sum(axis=1) >= 1.0)
    # with accept_u = 1 every row fails before its first drawn column: no kernel runs
    trace: list = []
    z, live = simulate._conditional_block(spec, plan, w, np.ones(600), trace=trace)
    assert z.shape == (0, 4) and live.size == 0 and trace == []


def test_parallel_map_keeps_input_order():
    # later items finish first, results still come back in input order
    def slow_square(x):
        time.sleep(0.01 * (5 - x))
        return x * x

    for threads in (1, 2, 4):
        assert parallel_map(slow_square, range(5), threads) == [0, 1, 4, 9, 16]


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("XVINE_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2
    monkeypatch.delenv("XVINE_THREADS")
    assert resolve_threads(None) == 1


def test_threads_reject_bad_counts(monkeypatch, bench, tmp_path, capsys):
    for bad in ("abc", "1.5", "0", "-3"):
        monkeypatch.setenv("XVINE_THREADS", bad)
        with pytest.raises(DomainError, match="XVINE_THREADS|thread count"):
            resolve_threads(None)
        with pytest.raises(DomainError):
            sample_conditional(bench, 1, 10, seed=0)
        assert resolve_threads(2) == 2  # an explicit count does not read the variable
    monkeypatch.delenv("XVINE_THREADS")
    for bad in (0, -3, True, 2.5):
        with pytest.raises(DomainError, match="thread count"):
            resolve_threads(bad)
        with pytest.raises(DomainError):
            sample_inverted_pareto(bench, 10, seed=0, threads=bad)
        with pytest.raises(DomainError):
            fit_pipeline(sample_inverted_pareto(bench, 300, seed=1)[0],
                         options=FitOptions(input_kind="inverted-pareto", threads=bad))
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
        # numpy integers are integers
        assert sample_conditional(bench, 1, np.int64(3), seed=0).shape == (3, 5)
        assert sample_inverted_pareto(bench, np.int32(3), seed=0)[0].shape == (3, 5)
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
