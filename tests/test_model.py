"""Assembled models: density identities, conditionals, summaries, JSON."""
from __future__ import annotations

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as oc
from conftest import (
    make_random_vine,
    random_spec,
    spec_grid_points,
    u_log_density,
    u_quantile,
    u_value,
)
from xvine.errors import DomainError, InvalidIndex, RecursionUnavailable
from xvine.families import PairFamily, TailFamily, tail_chi
from xvine.model import (
    XVineSpec,
    conditional_cdf,
    conditional_quantile,
    density,
    exponent_measure_density,
    log_density,
    model_chi,
    model_from_json,
    model_to_json,
    resolve_conditional,
)
from xvine.reference import (
    chain_vine,
    five_variable_spec,
    hr_vine_spec,
    hr_partial_rho,
    logistic_vine_spec,
    neglogistic_vine_spec,
    truncated_cvine_study_spec,
)

GAMMA3 = np.array([[0.0, 1.4, 1.6], [1.4, 0.0, 1.2], [1.6, 1.2, 0.0]])


@pytest.fixture(scope="module")
def bench():
    return five_variable_spec()


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_requires_every_edge(bench):
    vine = bench.vine
    tails = dict(bench.tail)
    pairs = dict(bench.pairs)
    missing_tail = {e: f for e, f in tails.items() if e.key != (1, 2, ())}
    with pytest.raises(DomainError):
        XVineSpec(vine, missing_tail, pairs)
    missing_pair = {e: c for e, c in pairs.items() if e.key != (1, 5, (2, 3, 4))}
    with pytest.raises(DomainError):
        XVineSpec(vine, tails, missing_pair)


def test_spec_rejects_misplaced_families(bench):
    vine = bench.vine
    with pytest.raises(DomainError):
        XVineSpec(vine, {**bench.tail, (1, 3, (2,)): TailFamily("hr", 1.0)}, bench.pairs)
    with pytest.raises(DomainError):
        XVineSpec(vine, {**bench.tail, (1, 2): PairFamily("gaussian", 0.5)}, bench.pairs)


# ---------------------------------------------------------------------------
# density identities against direct closed forms
# ---------------------------------------------------------------------------

def test_logistic_model_equals_direct_trivariate():
    th = 2.0
    spec = logistic_vine_spec(chain_vine(3), th)
    pts = spec_grid_points(np.random.default_rng(0), 3, 40)
    got = density(spec, pts)
    want = np.array([oc.tri_logistic(p, th) for p in pts])
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_neglogistic_model_equals_direct_trivariate():
    th = 1.5
    spec = neglogistic_vine_spec(chain_vine(3), th)
    pts = spec_grid_points(np.random.default_rng(1), 3, 40)
    got = density(spec, pts)
    want = np.array([oc.tri_neglogistic(p, th) for p in pts])
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_hr_model_equals_direct_trivariate():
    spec = hr_vine_spec(chain_vine(3), GAMMA3)
    pts = spec_grid_points(np.random.default_rng(2), 3, 40)
    got = density(spec, pts)
    want = np.array([oc.tri_hr(p, GAMMA3) for p in pts])
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_hr_partial_rho_frozen():
    g = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    want = (1.0 + 1.5 - 2.0) / (2.0 * np.sqrt(1.5))
    assert abs(hr_partial_rho(g, 1, 3, [2]) - want) < 1e-14


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(3, 6))
# inputs off by 3e-4 to 0.11 when conditional values near 1 were plain floats
@example(seed=74, d=6)
@example(seed=571, d=5)
@example(seed=300, d=5)
@example(seed=944, d=5)
@example(seed=197, d=6)
@example(seed=825, d=6)
def test_density_homogeneity_random_specs(seed, d):
    # h-values are scale-invariant only up to float rounding (~1e-15), and the
    # pair-copula log density has unbounded corner derivatives in its uniform
    # arguments, so log-scale agreement degrades to ~1e-6 at extreme points.
    vine = make_random_vine(seed, d)
    spec = random_spec(vine, np.random.default_rng(seed + 13))
    x = spec_grid_points(np.random.default_rng(seed + 29), d, 6)
    base = log_density(spec, x)
    for t in (0.2, 5.0):
        shifted = log_density(spec, t * x)
        np.testing.assert_allclose(shifted, base + (1 - d) * np.log(t), atol=5e-5)


def _random_variogram(d: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).normal(size=(d, d))
    cov = a @ a.T / d + 0.2 * np.eye(d)
    dg = np.diag(cov)
    return dg[:, None] + dg[None, :] - 2.0 * cov


GAMMA5 = _random_variogram(5, 17)


def hr5_spec() -> XVineSpec:
    """Huesler-Reiss model on a random 5-d vine."""
    return hr_vine_spec(make_random_vine(3, 5), GAMMA5)


@pytest.mark.parametrize("spec", [hr5_spec(), truncated_cvine_study_spec()],
                         ids=["hr5", "cvine10"])
def test_score_recursion_matches_u_space_reference(spec):
    # hr / gaussian chains run in normal scores, the reference in u. Where a
    # conditional value nears 1 the reference keeps only the digits of its
    # complement (the loss the scores remove), so the comparison takes the
    # rows whose conditional values all stay below 1 - 1e-5. There the two
    # agree to rounding: log-densities to 1e-10, i.e. densities to 1e-10
    # relative.
    rng = np.random.default_rng(91)
    x = np.exp(rng.normal(scale=0.5, size=(2000, spec.d)))
    u = rng.uniform(0.001, 0.999, size=2000)
    col = {n: x[:, i] for i, n in enumerate(spec.vine.nodes)}
    top = np.zeros(x.shape[0])
    for e in (e for t in spec.vine.trees for e in t):
        for node in (e.a, e.b):
            top = np.maximum(top, u_value(spec, col, e, node))
    ok = top < 1.0 - 1e-5
    assert ok.sum() >= 500
    np.testing.assert_allclose(log_density(spec, x)[ok], u_log_density(spec, x)[ok],
                               rtol=0.0, atol=1e-10)
    for e in spec.vine.trees[1] + spec.vine.trees[-1]:
        for node, other in ((e.a, e.b), (e.b, e.a)):
            given = sorted(e.cond | {other})
            x_given = [col[g] for g in given]
            np.testing.assert_allclose(
                conditional_cdf(spec, node, given, col[node], x_given)[ok],
                u_value(spec, col, e, node)[ok], rtol=1e-10)
            np.testing.assert_allclose(
                conditional_quantile(spec, node, given, u, x_given)[ok],
                u_quantile(spec, col, e, node, u)[ok], rtol=1e-10)


def test_hr_vine_density_matches_closed_form():
    # in scores an hr / gaussian chain loses no digits near u = 1, so the vine
    # density is the d-variate Huesler-Reiss density to rounding on every row
    # (the u-space recursion misses by up to 2e-9 here); at wider spreads
    # rows appear on which the clamp binds
    x = np.exp(1.15 * np.random.default_rng(93).normal(size=(20000, 5)))
    np.testing.assert_allclose(log_density(hr5_spec(), x), oc.hr_log_density(x, GAMMA5),
                               rtol=1e-11)


def test_density_zero_on_nonpositive_rows(bench):
    x = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0, 1.0]])
    out = density(bench, x)
    assert out[0] > 0.0 and out[1] == 0.0
    assert log_density(bench, [1, 1, 0, 1, 1]) == -np.inf


def test_infinite_coordinates(bench):
    # +inf fails where it enters; -inf is nonpositive, so its log-density is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in range(bench.d):
            row = np.ones(bench.d)
            row[j] = np.inf
            with pytest.raises(DomainError):
                log_density(bench, row)
            with pytest.raises(DomainError):
                log_density(bench, np.vstack([np.ones(bench.d), row]))
            row[j] = -np.inf
            assert log_density(bench, row) == -np.inf
            assert density(bench, row) == 0.0
        # the conditionals reject +inf in x_i and in every conditioning value
        given = (2, 3, 4, 5)
        for j in range(bench.d):
            vals = [np.ones(3) for _ in range(bench.d)]
            vals[j][1] = np.inf
            with pytest.raises(DomainError, match="finite"):
                conditional_cdf(bench, 1, given, vals[0], vals[1:])
            with pytest.raises(DomainError, match="finite"):
                conditional_cdf(bench, 1, given, float(vals[0][1]),
                                [float(v[1]) for v in vals[1:]])
            if j > 0:
                with pytest.raises(DomainError, match="finite"):
                    conditional_quantile(bench, 1, given, np.full(3, 0.5), vals[1:])
                with pytest.raises(DomainError, match="finite"):
                    conditional_quantile(bench, 1, given, 0.5,
                                         {g: v for g, v in zip(given, vals[1:])})


def test_density_input_validation(bench):
    with pytest.raises(DomainError):
        density(bench, [1.0, 2.0])
    with pytest.raises(DomainError):
        density(bench, [1.0, np.nan, 1.0, 1.0, 1.0])


def test_exponent_measure_change_of_variables(bench):
    y = spec_grid_points(np.random.default_rng(3), 5, 10)
    got = exponent_measure_density(bench, y)
    want = density(bench, 1.0 / y) * np.prod(y, axis=1) ** -2.0
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert exponent_measure_density(bench, [1, 1, 1, -1, 1]) == 0.0


def test_margin_normalization_small_models():
    spec = hr_vine_spec(chain_vine(3), GAMMA3)
    for node, val in ((1, 0.8), (2, 1.6), (3, 0.4)):
        assert abs(oc.margin_mass(lambda p: density(spec, p), 3, {node: val}) - 1.0) < 1e-6
    with pytest.raises(oc.DimensionTooLarge):
        oc.margin_mass(lambda p: density(five_variable_spec(), p), 5, {1: 1.0})


# ---------------------------------------------------------------------------
# conditional recursion
# ---------------------------------------------------------------------------

def test_resolve_conditional_explicit(bench):
    e = resolve_conditional(bench, 1, (2, 3, 4))
    assert e.key == (1, 4, (2, 3))
    assert resolve_conditional(bench, 5, (2, 3, 4)).key == (3, 5, (2, 4))


def test_resolve_conditional_truncation_reduction():
    full = five_variable_spec()
    trunc = XVineSpec(
        full.vine.truncate(2),
        {e.key: f for e, f in full.tail.items()},
        {e.key: c for e, c in full.pairs.items() if e.level == 2},
    )
    e = resolve_conditional(trunc, 1, (2, 3, 4))
    assert e.level == 2 and e.key == (1, 3, (2,))


def test_resolve_conditional_ambiguous_after_truncation():
    spec = logistic_vine_spec(chain_vine(3, q=1), 2.0)
    with pytest.raises(InvalidIndex):
        resolve_conditional(spec, 2, (1, 3))


def test_resolve_conditional_errors(bench):
    with pytest.raises(RecursionUnavailable):
        resolve_conditional(bench, 1, (3,))
    with pytest.raises(InvalidIndex):
        resolve_conditional(bench, 1, (1, 2))
    with pytest.raises(InvalidIndex):
        resolve_conditional(bench, 1, ())
    with pytest.raises(InvalidIndex):
        resolve_conditional(bench, 9, (2,))


def test_conditional_cdf_quantile_round_trip(bench):
    x_given = {2: 0.9, 3: 1.4, 4: 0.6}
    x = np.array([0.2, 1.0, 3.5])
    u = conditional_cdf(bench, 1, (2, 3, 4), x, x_given)
    assert np.all((0 < u) & (u < 1)) and np.all(np.diff(u) > 0)
    back = conditional_quantile(bench, 1, (2, 3, 4), u, x_given)
    np.testing.assert_allclose(back, x, rtol=1e-8)


def test_conditional_cdf_tree1_is_tail_h(bench):
    from xvine.families import tail_h
    got = conditional_cdf(bench, 1, (2,), 0.7, [1.3])
    want = tail_h(bench.tail[bench.vine.find_edge((1, 2))], 0.7, 1.3)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_conditional_cdf_matches_margin_ratio():
    # R_{1|2,3}(x | x2, x3) should equal int_0^x r(t, x2, x3) dt / r_{23}(x2, x3)
    spec = hr_vine_spec(chain_vine(3), GAMMA3)
    x2, x3 = 1.1, 0.7
    gx, gw = oc.log_panels(upper=0.9)
    pts = np.column_stack([gx, np.full_like(gx, x2), np.full_like(gx, x3)])
    num = float(density(spec, pts) @ gw)
    den = float(oc.biv_hr(x2, x3, GAMMA3[1, 2]))
    got = float(conditional_cdf(spec, 1, (2, 3), 0.9, [x2, x3]))
    assert abs(got - num / den) < 1e-8


def test_conditional_validation(bench):
    with pytest.raises(DomainError):
        conditional_cdf(bench, 1, (2, 3, 4), 0.5, [1.0, -1.0, 1.0])
    with pytest.raises(DomainError):
        conditional_quantile(bench, 1, (2, 3, 4), 1.5, [1.0, 1.0, 1.0])
    # a NaN u on a logistic edge, which returned NaN
    with pytest.raises(DomainError):
        conditional_quantile(bench, 4, (2,), [0.5, np.nan], [[1.0, 2.0]])
    with pytest.raises(InvalidIndex):
        conditional_cdf(bench, 1, (2, 3, 4), 0.5, {2: 1.0, 3: 1.0, 5: 1.0})


# ---------------------------------------------------------------------------
# dependence summaries
# ---------------------------------------------------------------------------

def test_model_chi_matches_family_chi(bench):
    got = model_chi(bench, (1, 2), n_mc=200_000, seed=4)
    want = tail_chi(bench.tail[bench.vine.find_edge((1, 2))])
    assert abs(got - want) < 0.01
    assert model_chi(bench, (1, 2), n_mc=50_000, seed=9) == \
           model_chi(bench, (1, 2), n_mc=50_000, seed=9)


def test_model_chi_triple_bounded_by_pairs(bench):
    triple = model_chi(bench, (2, 4, 5), n_mc=100_000, seed=5)
    pair = model_chi(bench, (4, 5), n_mc=100_000, seed=5)
    assert 0.0 < triple <= pair + 0.01


def test_model_chi_validation(bench):
    with pytest.raises(DomainError):
        model_chi(bench, (1,))
    with pytest.raises(DomainError):
        model_chi(bench, (1, 1))
    with pytest.raises(DomainError):
        model_chi(bench, (1, 9))
    # a variable that is not an integer is not rounded to one
    for idx in ((1.7, 2), (1, 2.2), (True, 2), ("1", 2)):
        with pytest.raises(DomainError, match="chi variable must be an integer"):
            model_chi(bench, idx)


# ---------------------------------------------------------------------------
# conditional copula extraction (quadrature route)
# ---------------------------------------------------------------------------

def test_extracted_copula_matches_partial_correlation():
    spec = hr_vine_spec(chain_vine(3), GAMMA3)
    rho = hr_partial_rho(GAMMA3, 1, 3, [2])
    for u, v, x2 in ((0.3, 0.7, 1.0), (0.6, 0.45, 0.5)):
        got = oc.conditional_copula_density(spec, (1, 3), (2,), (u, v), (x2,))
        want = float(oc.gaussian_copula_density(u, v, rho))
        assert abs(got - want) < 1e-5, (u, v, x2)


def test_extraction_validation(bench):
    spec = hr_vine_spec(chain_vine(3), GAMMA3)
    with pytest.raises(oc.DimensionTooLarge):
        oc.conditional_copula_density(bench, (1, 3), (2,), (0.5, 0.5), (1.0,))
    with pytest.raises(DomainError):
        oc.conditional_copula_density(spec, (1, 2), (2,), (0.5, 0.5), (1.0,))
    with pytest.raises(DomainError):
        oc.conditional_copula_density(spec, (1,), (2,), (0.5,), (1.0,))
    with pytest.raises(DomainError):
        oc.conditional_copula_density(spec, (1, 3), (2,), (0.5, 1.2), (1.0,))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def test_model_json_round_trip(bench):
    blob = json.dumps(model_to_json(bench))
    back = model_from_json(json.loads(blob))
    assert back.d == bench.d and back.q == bench.q
    for t in bench.vine.trees:
        for e in t:
            orig = (bench.tail if e.level == 1 else bench.pairs)[e]
            new = (back.tail if e.level == 1 else back.pairs)[back.vine.find_edge(e.key)]
            assert (orig.kind, orig.theta) == (new.kind, new.theta)


def test_model_json_rejects_malformed(bench):
    with pytest.raises(DomainError):
        model_from_json([])
    with pytest.raises(DomainError):
        model_from_json({"structure": {"d": 2, "trunc": 1, "matrix": [[1, 1], [0, 2]]}})
    for edges in (5, None, {"a": 1}):
        with pytest.raises(DomainError):
            model_from_json({"structure": model_to_json(bench)["structure"], "edges": edges})
    blob = model_to_json(bench)
    blob["edges"][0]["family"] = "gaussian"  # pair family on a tree-1 edge
    with pytest.raises(DomainError):
        model_from_json(blob)
    # a theta that is not a number fails as a DomainError naming its edge:
    # missing, null, text or a list on a tail edge, text or a list on a pair edge
    tail_at = 0
    pair_at = len(blob["edges"]) - 1
    for at, theta in [(tail_at, "missing"), (tail_at, None), (tail_at, "abc"),
                      (tail_at, [1.5]), (pair_at, "abc"), (pair_at, [0.3])]:
        blob = model_to_json(bench)
        rec = blob["edges"][at]
        if theta == "missing":
            del rec["theta"]
        else:
            rec["theta"] = theta
        label = bench.vine.find_edge((rec["a"], rec["b"], rec["cond"])).label
        with pytest.raises(DomainError, match=re.escape(label)):
            model_from_json(blob)
