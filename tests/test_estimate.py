"""Rank transforms, per-edge fits, family selection, spanning trees, full pipeline."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau, rankdata

import xvine
import xvine.estimate as est
from xvine.errors import (
    DegenerateColumn,
    DomainError,
    InfeasibleLevel,
    InsufficientData,
    NotATree,
    UnknownEdge,
)
from xvine.estimate import (
    FitOptions,
    PseudoSample,
    _exceedance_rows,
    _kruskal,
    empirical_chi,
    empirical_tau,
    fit_pair_edge,
    fit_pipeline,
    fit_tail_edge,
    from_inverted_pareto,
    mbic_curve,
    rank_transform,
    select_pair_family,
    select_tail_family,
)
from xvine.families import (
    TAIL_KINDS,
    PairFamily,
    pair_h_inv,
    pair_tau,
    tail_chi,
)
from xvine.model import XVineSpec, model_from_json, model_to_json
from xvine.reference import (
    chain_vine,
    cvine,
    five_variable_spec,
    spec_families,
    truncated_cvine_study_spec,
)
from xvine.simulate import sample_inverted_pareto


@pytest.fixture(scope="module")
def bench():
    return five_variable_spec()


@pytest.fixture(scope="module")
def bench_sample(bench):
    z, _ = sample_inverted_pareto(bench, 4000, seed=83)
    return 1.0 / z


@pytest.fixture(scope="module")
def hr_ps():
    from xvine.model import XVineSpec
    from xvine.families import TailFamily
    from xvine.vines import VineSequence

    spec = XVineSpec(VineSequence([[(1, 2)]], d=2), {(1, 2): TailFamily("hr", 1.5)})
    z, _ = sample_inverted_pareto(spec, 4000, seed=97)
    return rank_transform(1.0 / z, 200)


# ---------------------------------------------------------------------------
# pseudo-samples
# ---------------------------------------------------------------------------

def test_rank_transform_flags_largest_values():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2))
    ps = rank_transform(X, 8)
    assert ps.k == 8.0 and ps.n == 40 and ps.d == 2
    for j in range(2):
        top = np.argsort(X[:, j])[-8:]
        assert set(np.flatnonzero(ps.exceed[:, j])) == set(top)
    # z is u_hat rescaled by n / k and positive
    assert np.all(ps.z > 0) and ps.z.max() <= 40 / 8


def test_rank_transform_validation():
    X = np.random.default_rng(4).normal(size=(30, 2))
    flat = X.copy()
    flat[:, 1] = 2.5
    for rank in (rank_transform, _exceedance_rows):
        for data, k in ((X[:, 0], 5), (X, 0), (X, 30), (X[:1], 0)):
            with pytest.raises(DomainError):
                rank(data, k)
        for entry in (np.inf, np.nan):
            bad = X.copy()
            bad[0, 0] = entry
            with pytest.raises(DomainError):
                rank(bad, 5)
        with pytest.raises(DegenerateColumn):
            rank(flat, 5)


def test_rank_transform_matches_max_ranks_on_ties():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 7, size=(500, 4)).astype(float)
    X[:, 3] = rng.normal(size=500)
    want = (1.0 - (rankdata(X, method="max", axis=0) - 0.5) / 500) * (500 / 40.0)
    np.testing.assert_array_equal(rank_transform(X, 40).z, want)


@pytest.mark.parametrize("k", [40, 7, 40.5, 0.3])
@pytest.mark.parametrize("ties", [False, True])
def test_exceedance_rows_are_rank_transform_rows(k, ties):
    rng = np.random.default_rng(13)
    X = rng.standard_t(3.0, size=(500, 4))
    if ties:
        X = np.round(X, 1)
    full = rank_transform(X, k)
    rows = full.exceed.any(axis=1)
    n, ps = _exceedance_rows(X, k)
    assert n == 500 and ps.n == int(rows.sum()) and ps.k == full.k
    np.testing.assert_array_equal(ps.z, full.z[rows])
    np.testing.assert_array_equal(ps.exceed, full.exceed[rows])


def test_import_leaves_scipy_stats_out():
    code = "import sys, xvine; assert 'scipy.stats' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(Path(xvine.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_import_leaves_scipy_optimize_and_integrate_out():
    # scipy.integrate loads on the first quadrature, not on import, and
    # scipy.optimize never (test_fit_leaves_scipy_optimize_out)
    code = ("import sys, xvine; "
            "assert not {'scipy.optimize', 'scipy.integrate'} & set(sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(xvine.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_fit_leaves_scipy_optimize_out():
    code = ("import sys, numpy as np; from xvine.estimate import fit_pipeline; "
            "x = np.random.default_rng(3).standard_t(4, size=(600, 4)); "
            "assert fit_pipeline(x, 60).spec.d == 4; "
            "assert 'scipy.optimize' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(xvine.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_from_inverted_pareto_bookkeeping():
    Z = np.array([[0.5, 2.0], [1.5, 0.25], [3.0, 0.75], [0.2, 4.0]])
    ps = from_inverted_pareto(Z)
    assert ps.n == 4 and ps.k == 2.0
    assert ps.exceed.tolist() == [[True, False], [False, True], [False, True], [True, False]]
    with pytest.raises(DomainError):
        from_inverted_pareto(Z - 1.0)
    with pytest.raises(InsufficientData):
        from_inverted_pareto(Z + 10.0)


def test_pseudo_sample_validation():
    z = np.ones((3, 2))
    with pytest.raises(DomainError):
        PseudoSample(z=z, k=2.0, n=3, exceed=np.zeros((2, 2), dtype=bool))
    with pytest.raises(DomainError):
        PseudoSample(z=z, k=2.0, n=4, exceed=z < 1)
    with pytest.raises(DomainError):
        PseudoSample(z=z, k=0.0, n=3, exceed=z < 1)
    # z is checked where it enters, so the tail fits read it unchecked
    for bad in (0.0, -1.0, np.nan, np.inf):
        zb = z.copy()
        zb[1, 0] = bad
        with pytest.raises(DomainError, match="positive and finite"):
            PseudoSample(z=zb, k=2.0, n=3, exceed=zb < 1)
        with pytest.raises(DomainError, match="positive and finite"):
            fit_tail_edge(PseudoSample(z=zb, k=2.0, n=3, exceed=zb < 1), 1, 2, "hr", n_min=1)


def test_empirical_chi_hand_computed():
    Z = np.array([
        [0.5, 0.5, 2.0],
        [0.5, 2.0, 0.5],
        [2.0, 0.5, 0.5],
        [0.5, 0.5, 0.5],
        [2.0, 2.0, 2.0],
        [0.5, 0.5, 2.0],
    ])
    ps = from_inverted_pareto(Z)
    # columns have 4, 4, 3 exceedances; k = 11/3
    assert ps.k == pytest.approx(11 / 3)
    assert empirical_chi(ps, (1, 2)) == pytest.approx(3 / ps.k)
    assert empirical_chi(ps, (1, 2, 3)) == pytest.approx(1 / ps.k)
    with pytest.raises(DomainError):
        empirical_chi(ps, (1,))
    with pytest.raises(DomainError):
        empirical_chi(ps, (1, 9))
    with pytest.raises(DomainError):
        empirical_chi(ps, (2, 2))


def test_empirical_tau():
    x = np.arange(50.0)
    assert empirical_tau(x, 2 * x + 1) == pytest.approx(1.0)
    assert empirical_tau(x, -x) == pytest.approx(-1.0)
    assert empirical_tau(x, np.ones(50)) == 0.0
    assert empirical_tau(x[:1], x[:1]) == 0.0
    with pytest.raises(DomainError):
        empirical_tau(x, x[:10])
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[3] = bad
        with pytest.raises(DomainError):
            empirical_tau(x, y)
        with pytest.raises(DomainError):
            empirical_tau(y, x)


def _tau_cases(rng, n):
    """Untied, tied and clipped-pseudo-observation samples of size n."""
    u = rng.normal(size=n)
    yield u, 0.5 * u + rng.normal(size=n)
    a, b = rng.integers(0, 4, n), rng.integers(0, 4, n)
    yield a.astype(float), (a + b).astype(float)
    yield a.astype(float), -b.astype(float)
    w = rng.uniform(size=n)
    yield (np.clip(w ** 6, 1e-12, 1 - 1e-12),
           np.clip(1.0 - (w + 0.1 * rng.uniform(size=n)) ** 9, 1e-12, 1 - 1e-12))
    yield u, np.full(n, 0.3)  # constant column


@pytest.mark.parametrize("n", [2, 3, 5, 33, 34, 257, 1000])
def test_empirical_tau_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        for u, v in _tau_cases(rng, n):
            want = kendalltau(u, v).statistic
            got = empirical_tau(u, v)
            assert got == (float(want) if np.isfinite(want) else 0.0), (u, v)


# ---------------------------------------------------------------------------
# single-edge fits
# ---------------------------------------------------------------------------

def test_fit_tail_edge_recovers_hr(hr_ps):
    fit = fit_tail_edge(hr_ps, 1, 2, "hr")
    assert fit.family.kind == "hr"
    assert abs(tail_chi(fit.family) - tail_chi_true()) < 0.05
    both = (hr_ps.exceed[:, 0] | hr_ps.exceed[:, 1]).sum()
    assert fit.n_eff == int(both)
    assert not fit.at_boundary and not fit.forced_indep


def tail_chi_true() -> float:
    from xvine.families import TailFamily, tail_chi

    return tail_chi(TailFamily("hr", 1.5))


def test_fit_tail_edge_validation(hr_ps):
    with pytest.raises(DomainError):
        fit_tail_edge(hr_ps, 1, 2, "gaussian")
    with pytest.raises(DomainError):
        fit_tail_edge(hr_ps, 1, 1, "hr")
    with pytest.raises(InsufficientData):
        fit_tail_edge(hr_ps, 1, 2, "hr", n_min=100_000)


def test_select_tail_family_prefers_truth(hr_ps):
    fit = select_tail_family(hr_ps, 1, 2)
    assert fit.family.kind == "hr"
    assert len(fit.selected_over) == len(TAIL_KINDS)
    assert fit.aic == min(aic for _, aic in fit.selected_over)
    with pytest.raises(DomainError):
        select_tail_family(hr_ps, 1, 2, catalogue=())


def clayton_sample(n: int, theta: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    v = rng.uniform(size=n)
    u = pair_h_inv(PairFamily("clayton", theta), rng.uniform(size=n), v)
    return u, v


def test_fit_pair_edge_recovers_clayton():
    u, v = clayton_sample(4000, 2.0, 13)
    fit = fit_pair_edge(u, v, "clayton")
    assert abs(pair_tau(fit.family) - 0.5) < 0.05
    assert fit.n_eff == 4000 and fit.aic == pytest.approx(2.0 - 2.0 * fit.loglik)


def test_fit_pair_edge_indep_and_validation():
    u, v = clayton_sample(50, 2.0, 14)
    fit = fit_pair_edge(u, v, "indep")
    assert fit.family.kind == "indep" and fit.loglik == 0.0 and fit.aic == 0.0
    with pytest.raises(DomainError):
        fit_pair_edge(u, v, "plackett")
    with pytest.raises(InsufficientData):
        fit_pair_edge(u[:5], v[:5], "clayton")
    with pytest.raises(DomainError):
        fit_pair_edge(u, v[:10], "clayton")


def test_select_pair_family_picks_strong_clayton():
    u, v = clayton_sample(4000, 2.0, 15)
    fit = select_pair_family(u, v)
    assert fit.family.kind == "clayton"
    assert not fit.forced_indep
    assert fit.aic == min(aic for _, aic in fit.selected_over) < 0.0


def test_select_pair_family_forced_independence():
    rng = np.random.default_rng(16)
    u, v = rng.uniform(size=2000), rng.uniform(size=2000)
    fit = select_pair_family(u, v)
    assert fit.family.kind == "indep" and fit.forced_indep
    assert fit.selected_over == ()
    tiny = select_pair_family(u[:4], v[:4])
    assert tiny.forced_indep and tiny.n_eff == 4
    with pytest.raises(DomainError):
        select_pair_family(u, v, catalogue=())


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def test_kruskal_breaks_ties_lexicographically():
    p12, p13, p23 = (1, 2), (1, 3), (2, 3)
    chosen = _kruskal([1, 2, 3], [(1.0, (2, 3), p23), (1.0, (1, 2), p12), (1.0, (1, 3), p13)])
    assert chosen == [(1, 2), (1, 3)]


def test_kruskal_prefers_heavy_edges():
    p12, p13, p23 = (1, 2), (1, 3), (2, 3)
    chosen = _kruskal([1, 2, 3], [(0.1, (1, 2), p12), (0.9, (1, 3), p13), (0.8, (2, 3), p23)])
    assert chosen == [(1, 3), (2, 3)]


def test_kruskal_disconnected():
    with pytest.raises(NotATree):
        _kruskal([1, 2, 3], [(1.0, (1, 2), (1, 2))])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_fit_options_validation():
    with pytest.raises(DomainError):
        FitOptions(input_kind="csv")
    with pytest.raises(DomainError):
        FitOptions(truncation="bic")
    with pytest.raises(DomainError):
        FitOptions(truncation=2.5)
    with pytest.raises(DomainError):
        FitOptions(truncation=True)
    # a numpy integer is a level, stored as int
    assert type(FitOptions(truncation=np.int64(2)).truncation) is int
    with pytest.raises(DomainError):
        FitOptions(n_min=True)
    with pytest.raises(DomainError):
        FitOptions(psi0=1.0)


@pytest.mark.parametrize("bad", [
    {"pair_catalogue": ()},
    {"pair_catalogue": ("gausian", "clayton")},
    {"pair_catalogue": ("gaussian", "clayton", "")},
    {"tail_catalogue": ()},
    {"tail_catalogue": ("hr", "husler")},
    {"families": {(1, 2, ()): "gumbel"}},
    {"families": {(1, 3, (2,)): "hr"}},
    {"n_min": -3},
    {"n_min": 0},
    {"n_min": 2.5},
    {"tau_min": float("nan")},
    {"tau_min": float("inf")},
    {"tau_min": -0.1},
    {"tau_min": 1.0},
])
def test_fit_options_reject_bad_kinds_and_thresholds(bad):
    with pytest.raises(DomainError):
        FitOptions(**bad)


def test_fit_options_accept_one_map_pinning_every_tree(bench):
    # the first-tree kinds are tail kinds, the rest pair kinds
    fams = spec_families(bench)
    FitOptions(families=fams, n_min=np.int64(5), tau_min=0.0)


def test_fit_options_pin_keys_in_any_order(bench, bench_sample):
    # (3, 1, (2,)) names edge (1,3;2) as find_edge reads it
    opts = FitOptions(structure=bench.vine, truncation=2, families={(3, 1, (2,)): "frank"})
    assert opts.families == {(1, 3, (2,)): "frank"}
    report = fit_pipeline(bench_sample, 200, options=opts)
    fam = report.spec.pairs[report.spec.vine.find_edge((1, 3, (2,)))]
    assert fam.kind == "frank" and not report.errors


@pytest.mark.parametrize("pins", [
    {(1, 3): "hr"},
    {(1, 5, (2,)): "frank"},
    {(5, 1, (4, 3, 2)): "frank", (1, 5, (2, 3)): "joe"},
])
def test_fit_options_reject_pins_off_a_given_structure(bench, pins):
    with pytest.raises(UnknownEdge):
        FitOptions(structure=bench.vine, families=pins)


@pytest.mark.parametrize("pins,given", [
    ({(1, 2): "gaussian"}, False),             # a tree-1 key with a pair kind
    ({(1, 3, (2,)): "hr"}, False),             # a deeper key with a tail kind
    ({(1, 2): "husler"}, False),               # an unknown kind
    ({(1, 3, (2,)): "notakind"}, False),
    ({(1, 5, (2,)): "frank"}, True),           # no edge of the given structure
])
def test_fit_options_reject_misplaced_pins(bench, pins, given):
    with pytest.raises(DomainError):
        FitOptions(structure=bench.vine if given else None, families=pins)


def test_pipeline_names_pins_off_a_learned_vine(bench_sample):
    opts = FitOptions(truncation=2, families={(1, 9): "hr", (2, 1, (7,)): "frank"})
    report = fit_pipeline(bench_sample, 200, options=opts)
    assert report.errors == ("pinned edge (1, 9, ()) is no edge of the fitted vine",
                             "pinned edge (1, 2, (7,)) is no edge of the fitted vine")


def test_pipeline_computes_each_tau_once(monkeypatch, bench_sample):
    import xvine.estimate as est

    seen = []

    def recording_tau(u, v):
        seen.append((np.asarray(u).tobytes(), np.asarray(v).tobytes()))
        return empirical_tau(u, v)

    monkeypatch.setattr(est, "empirical_tau", recording_tau)
    fit_pipeline(bench_sample, 200)
    assert seen and len(set(seen)) == len(seen)


def test_pipeline_known_structure_recovers_families(bench, bench_sample):
    opts = FitOptions(
        structure=bench.vine,
        families=spec_families(bench),
    )
    report = fit_pipeline(bench_sample, 200, options=opts)
    assert report.k == 200.0 and report.n == 4000 and not report.errors
    fitted = report.spec
    for e in bench.vine.level_edges(1):
        true, got = bench.tail[e], fitted.tail[fitted.vine.find_edge((e.a, e.b))]
        assert got.kind == true.kind
        assert abs(tail_chi(got) - tail_chi(true)) < 0.1, e.label
    for lvl in range(2, 5):
        for e in bench.vine.level_edges(lvl):
            true = bench.pairs[e]
            got = fitted.pairs[fitted.vine.find_edge((e.a, e.b, e.cond))]
            assert got.kind == true.kind
            assert abs(pair_tau(got) - pair_tau(true)) < 0.15, e.label


def test_pipeline_tree2_effective_size_is_k(bench, bench_sample):
    opts = FitOptions(structure=bench.vine, families=spec_families(bench))
    report = fit_pipeline(bench_sample, 200, options=opts)
    for rec in report.edges:
        if rec["level"] == 2:
            assert rec["n_eff"] == 200
        if rec["level"] == 1:
            assert rec["n_eff"] >= 200


def test_pipeline_learned_structure_smoke(bench_sample):
    report = fit_pipeline(bench_sample, 200)
    assert report.spec.vine.d == 5 and report.spec.vine.q == 4
    assert report.errors == ()
    kinds = {rec["family"] for rec in report.edges if rec["level"] == 1}
    assert kinds <= set(TAIL_KINDS)


def test_pipeline_threads_do_not_change_fits(bench, bench_sample):
    opts1 = FitOptions(structure=bench.vine, threads=1)
    opts3 = FitOptions(structure=bench.vine, threads=3)
    r1 = fit_pipeline(bench_sample, 200, options=opts1)
    r3 = fit_pipeline(bench_sample, 200, options=opts3)
    assert r1.edges == r3.edges


def test_pipeline_errors_in_tree_and_slot_order(bench, bench_sample):
    # n_min above the deeper trees' sample sizes: every pinned edge there raises
    fams = spec_families(bench)
    reports = [
        fit_pipeline(bench_sample, 200, options=FitOptions(
            structure=bench.vine, families=fams, n_min=190, threads=t))
        for t in (1, 2)
    ]
    assert reports[0].errors == reports[1].errors
    failed = [f"edge ({r['a']},{r['b']};{','.join(map(str, r['cond']))}):"
              for r in reports[0].edges if r["level"] >= 3]
    assert len(failed) == 3
    assert [e.split(" need")[0] for e in reports[0].errors] == failed


def test_pipeline_ignores_rows_without_exceedances(bench):
    z, _ = sample_inverted_pareto(bench, 2000, seed=31)
    rng = np.random.default_rng(32)
    extra = rng.uniform(1.0, 50.0, size=(3000, 5))  # no coordinate below 1
    slots = np.zeros(5000, dtype=bool)
    slots[rng.choice(5000, 3000, replace=False)] = True
    mixed = np.empty((5000, 5))
    mixed[slots], mixed[~slots] = extra, z  # z keeps its row order
    opts = FitOptions(input_kind="inverted-pareto", truncation="mbic")
    plain, padded = fit_pipeline(z, options=opts), fit_pipeline(mixed, options=opts)
    assert padded.edges == plain.edges
    assert padded.mbic == plain.mbic and padded.q_star == plain.q_star
    assert (plain.n, padded.n) == (2000, 5000)
    for rec in padded.edges[:4]:  # the first tree sees every exceedance of a or b
        assert rec["n_eff"] == int(((z[:, rec["a"] - 1] < 1) | (z[:, rec["b"] - 1] < 1)).sum())


def test_pipeline_truncation_levels(bench, bench_sample):
    opts = FitOptions(structure=bench.vine, truncation=2)
    report = fit_pipeline(bench_sample, 200, options=opts)
    assert report.spec.vine.q == 2
    assert {rec["level"] for rec in report.edges} == {1, 2}
    with pytest.raises(InfeasibleLevel):
        fit_pipeline(bench_sample, 200, options=FitOptions(truncation=7))
    shallow = chain_vine(5, q=2)
    with pytest.raises(InfeasibleLevel):
        fit_pipeline(bench_sample, 200,
                     options=FitOptions(structure=shallow, truncation=3))


def test_pipeline_input_checks(bench, bench_sample):
    with pytest.raises(DomainError):
        fit_pipeline(bench_sample)  # raw input needs k
    with pytest.raises(DomainError):
        fit_pipeline(bench_sample, 200, options=FitOptions(structure=chain_vine(4)))


def test_pipeline_mbic_reports_curve(bench, bench_sample):
    opts = FitOptions(structure=bench.vine, truncation="mbic",
                      families=spec_families(bench))
    report = fit_pipeline(bench_sample, 200, options=opts)
    assert len(report.mbic) == 4
    assert report.q_star == 1 + int(np.argmin(report.mbic))
    assert report.spec.vine.q == report.q_star


@pytest.fixture(scope="module")
def c11_sample():
    """One draw of the acceptance gate's truncation study (true level 4 of 9)."""
    z, _ = sample_inverted_pareto(truncated_cvine_study_spec(d=10, q=4, seed=20), 1000,
                                  seed=3000)
    return z


def first_rise(curve) -> int:
    """The sequential rule read off a whole curve: the level before its first non-fall."""
    return next((q for q in range(1, len(curve)) if curve[q] >= curve[q - 1]), len(curve))


def per_level(report) -> list[list[dict]]:
    return [[r for r in report.edges if r["level"] == lvl]
            for lvl in range(1, report.spec.q + 1)]


@pytest.mark.parametrize("case", ["given", "learned", "c11"])
def test_pipeline_mbic_is_the_full_curve_cut_where_it_stops_falling(
        case, bench, bench_sample, c11_sample):
    if case == "c11":
        data, k = c11_sample, None
        base = FitOptions(input_kind="inverted-pareto", structure=cvine(10))
    else:
        data, k = bench_sample, 200
        base = FitOptions(structure=bench.vine if case == "given" else None)
    seq = fit_pipeline(data, k, replace(base, truncation="mbic"))
    full = fit_pipeline(data, k, replace(base, truncation=data.shape[1] - 1))
    curve = mbic_curve(per_level(full), base.psi0)
    q = seq.q_star
    # on these samples the first level where the curve stops falling is its argmin
    assert q == first_rise(curve) == 1 + int(np.argmin(curve))
    assert list(seq.mbic) == curve[:q + 1]
    assert seq.edges == full.edges[:len(seq.edges)]
    want = XVineSpec(full.spec.vine.truncate(q), full.spec.tail,
                     {e: c for e, c in full.spec.pairs.items() if e.level <= q})
    assert model_to_json(seq.spec) == model_to_json(want)


def test_pipeline_mbic_fits_no_tree_past_the_stop(monkeypatch, c11_sample):
    calls = []

    fit_pair = est._fit_pair

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_pair(*args, **kwargs)

    monkeypatch.setattr(est, "_fit_pair", counting_fit)
    base = FitOptions(input_kind="inverted-pareto", structure=cvine(10))
    counts = {}
    for truncation in ("mbic", 5, 9):
        calls.clear()
        report = fit_pipeline(c11_sample, options=replace(base, truncation=truncation))
        counts[truncation] = len(calls)
        if truncation == "mbic":
            assert report.q_star == 4 and len(report.mbic) == 5
    # tree q_star + 1 = 5 is fitted to see the curve rise, and no tree below it
    assert counts["mbic"] == counts[5] < counts[9]


def test_pipeline_mbic_on_a_single_tree(bench_sample):
    report = fit_pipeline(bench_sample[:, :2], 200, FitOptions(truncation="mbic"))
    assert report.mbic == (0.0,) and report.q_star == 1 and report.spec.q == 1


def test_pipeline_mbic_fits_every_tree_while_the_curve_falls(bench, bench_sample):
    opts = FitOptions(structure=bench.vine.truncate(3), truncation="mbic")
    report = fit_pipeline(bench_sample, 200, opts)
    assert report.q_star == 3 and len(report.mbic) == 3
    assert (np.diff(report.mbic) < 0).all()


def student_t_sample() -> np.ndarray:
    """20 000 Student-t rows (nu = 4) in 10 variables with AR(1) correlation
    0.8^|i - j|: tail dependence weakens fast along the chain, so mBIC stops
    after a few trees."""
    rng = np.random.default_rng(23)
    idx = np.arange(10)
    chol = np.linalg.cholesky(0.8 ** np.abs(idx[:, None] - idx[None, :]))
    g = rng.standard_normal((20_000, 10)) @ chol.T
    return g / np.sqrt(rng.chisquare(4.0, size=20_000) / 4.0)[:, None]


def test_pipeline_mbic_names_pins_past_the_stop():
    data, k = student_t_sample(), 200
    base = FitOptions()
    full = fit_pipeline(data, k, options=replace(base, truncation=9))
    seq = fit_pipeline(data, k, options=replace(base, truncation="mbic"))
    deep = [(r["a"], r["b"], tuple(r["cond"])) for r in full.edges
            if r["level"] > seq.q_star + 1]
    assert deep and not seq.errors
    pinned = replace(base, families={key: "frank" for key in deep})
    want = tuple(f"pinned edge {key} is no edge of the fitted vine" for key in deep)
    assert fit_pipeline(data, k, options=replace(pinned, truncation="mbic")).errors == want
    assert fit_pipeline(data, k, options=replace(pinned, truncation=seq.q_star + 1)).errors == want


def test_pipeline_partial_failure_is_reported():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(300, 4))  # independent columns: joint exceedances are rare
    opts = FitOptions(structure=chain_vine(4), families={(1, 4, (2, 3)): "clayton"})
    report = fit_pipeline(X, 15, options=opts)
    assert len(report.errors) == 1 and "(1,4;2,3)" in report.errors[0]
    top = [rec for rec in report.edges if rec["level"] == 3]
    assert len(top) == 1
    assert top[0]["family"] == "indep" and top[0]["forced_indep"]


def test_fit_report_json_round_trip(bench, bench_sample):
    opts = FitOptions(structure=bench.vine, families=spec_families(bench))
    report = fit_pipeline(bench_sample, 200, options=opts)
    blob = json.loads(json.dumps(report.to_json()))
    again = model_from_json(blob)
    for lvl in range(1, 5):
        for e in report.spec.vine.level_edges(lvl):
            e2 = again.vine.find_edge((e.a, e.b, e.cond))
            fam1 = report.spec.tail[e] if lvl == 1 else report.spec.pairs[e]
            fam2 = again.tail[e2] if lvl == 1 else again.pairs[e2]
            assert fam1.kind == fam2.kind
            assert fam1.theta == pytest.approx(fam2.theta)


def test_mbic_curve_hand_computed():
    records = [
        [{"family": "hr", "theta": 1.0, "loglik": 3.0, "n_eff": 50}],
        [
            {"family": "indep", "theta": None, "loglik": 0.0, "n_eff": 40},
            {"family": "clayton", "theta": 2.0, "loglik": 5.0, "n_eff": 40},
        ],
    ]
    psi0 = 0.9
    psi = psi0
    want = 0.0
    want += -2.0 * 0.0 - 2.0 * np.log(1.0 - psi)
    want += np.log(40) - 2.0 * np.log(psi / (1.0 - psi)) - 2.0 * 5.0 - 2.0 * np.log(1.0 - psi)
    curve = mbic_curve(records, psi0)
    assert curve[0] == 0.0
    assert curve[1] == pytest.approx(want)
    with pytest.raises(DomainError):
        mbic_curve(records, 0.0)
