"""Numerical kernel contracts: inversion, optimization, quadrature, streams."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from xvine.errors import BracketFailure, DomainError, NoConvergence
from xvine.families import (
    PAIR_BOXES,
    TAIL_BOXES,
    prepare_pair_log_density,
    prepare_tail_log_density,
)
from xvine.numerics import (
    _TRANSFORMS,
    ScalarProblem,
    invert_monotone,
    log1mexp,
    minimize_scalar,
    quad_1d,
    reg_beta_cdf,
    reg_beta_log_cdf_sf,
    reg_beta_logit_quantile,
    rng_stream,
    std_normal_cdf,
    std_normal_quantile,
)


def test_normal_round_trip():
    u = np.linspace(0.001, 0.999, 41)
    np.testing.assert_allclose(std_normal_cdf(std_normal_quantile(u)), u, atol=1e-12)


#: Inputs outside [0, 1] or NaN: the quantiles must reject each of them.
OFF_UNIT = [1.5, [0.2, np.nan], [np.nan, np.nan, np.nan], np.nan,
            [0.5, np.nextafter(0.0, -1.0)], [np.nextafter(1.0, 2.0), 0.5]]


def check_unit_domain(quantile):
    assert quantile(np.empty(0)).shape == (0,)
    assert np.all(np.isfinite(quantile([0.25, 0.75])))
    assert quantile([0.0, 1.0]).shape == (2,)
    for bad in OFF_UNIT:
        with pytest.raises(DomainError):
            quantile(bad)


def test_normal_quantile_domain():
    check_unit_domain(std_normal_quantile)


def test_beta_round_trip():
    # the logit solve against betainc on the smaller side of u, both shapes
    # above and below 1
    u = np.concatenate([[1e-12, 1e-6], np.linspace(0.01, 0.99, 23), [1 - 1e-6, 1 - 1e-12]])
    for a, b in [(2.5, 0.7), (0.7, 2.5), (3.0, 2.0), (0.3, 0.2), (29.0, 28.0)]:
        t = reg_beta_logit_quantile(np.log(u), np.log1p(-u), a, b)
        lc, ls = reg_beta_log_cdf_sf(np.exp(np.minimum(t, 0.0)), np.exp(np.minimum(-t, 0.0)), a, b)
        low = u <= 0.5
        np.testing.assert_allclose(np.where(low, lc, ls), np.where(low, np.log(u), np.log1p(-u)),
                                   rtol=0.0, atol=1e-13)
        mid = slice(2, -2)   # where p itself holds the digits of 1 - p
        p = 1.0 / (1.0 + np.exp(-t[mid]))
        np.testing.assert_allclose(reg_beta_cdf(p, a, b), u[mid], atol=1e-12)


def test_beta_quantile_domain():
    assert reg_beta_logit_quantile(np.empty(0), np.empty(0), 2.5, 0.7).shape == (0,)
    assert np.all(np.isfinite(reg_beta_logit_quantile(np.log([0.25, 0.75]),
                                                      np.log([0.75, 0.25]), 2.5, 0.7)))
    assert isinstance(reg_beta_logit_quantile(np.log(0.3), np.log(0.7), 2.5, 0.7), np.ndarray)
    for lw, lwb in [(0.1, -2.0), (np.nan, -1.0), (-1.0, np.nan), (-np.inf, 0.0),
                    (0.0, -np.inf), ([-1.0, -0.5], [-0.5, 0.2])]:
        with pytest.raises(DomainError):
            reg_beta_logit_quantile(lw, lwb, 2.5, 0.7)


def test_log1mexp_is_exact_at_both_ends():
    mp = pytest.importorskip("mpmath")
    x = [-1e-300, -1e-20, -1e-10, -0.1, -np.log(2.0), -0.8, -5.0, -40.0, -700.0]
    with mp.workdps(400):  # enough digits to hold 1 - exp(-700)
        want = [float(mp.log(-mp.expm1(mp.mpf(t)))) for t in x]
    np.testing.assert_allclose(log1mexp(x), want, rtol=1e-14)
    assert log1mexp(0.0) == -np.inf


def test_beta_log_cdf_sf_is_exact_at_both_ends():
    mp = pytest.importorskip("mpmath")
    a, b = 3.0, 2.0
    x = np.array([1e-9, 1e-4, 0.3, 1.0, 3.0, 1e4, 1e9])
    lc, ls = reg_beta_log_cdf_sf(x, 1.0, a, b)
    with mp.workdps(50):
        cdf = [mp.betainc(a, b, 0, mp.mpf(t) / (mp.mpf(t) + 1), regularized=True) for t in x]
        want_c = [float(mp.log(c)) for c in cdf]
        want_s = [float(mp.log(1 - c)) for c in cdf]
    np.testing.assert_allclose(lc, want_c, rtol=1e-12)
    np.testing.assert_allclose(ls, want_s, rtol=1e-12)


def test_beta_rejects_bad_shapes():
    with pytest.raises(DomainError):
        reg_beta_cdf(0.5, -1.0, 2.0)
    with pytest.raises(DomainError):
        reg_beta_logit_quantile(np.log(0.5), np.log(0.5), 1.0, 0.0)


@pytest.mark.parametrize("transform,box,truth", [
    ("identity", (-4.0, 7.0), 1.3),
    ("log", (1e-3, 50.0), 0.42),
    ("logm1", (1.0 + 1e-6, 30.0), 2.6),
    ("atanh", (-0.999, 0.999), -0.55),
])
def test_minimize_scalar_quadratic(transform, box, truth):
    prob = ScalarProblem(lambda x: (x - truth) ** 2, box, transform=transform)
    arg, val = minimize_scalar(prob, tol=1e-9)
    assert abs(arg - truth) < 1e-6
    assert val < 1e-10


def test_scalar_problem_validation():
    with pytest.raises(DomainError):
        ScalarProblem(lambda x: x, (2.0, 1.0))
    with pytest.raises(DomainError):
        ScalarProblem(lambda x: x, (0.0, 1.0), transform="cubic")


def test_minimize_scalar_survives_nonfinite():
    prob = ScalarProblem(lambda x: np.inf if x < 0.5 else (x - 2.0) ** 2,
                         (1e-3, 10.0), transform="log")
    arg, _ = minimize_scalar(prob, tol=1e-9)
    assert abs(arg - 2.0) < 1e-5


def counted(f):
    """f with a running count of its calls in `.calls`."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def fminbound_reference(problem: ScalarProblem, tol: float) -> tuple[float, float, int]:
    """scipy's fminbound on the problem's transformed axis, with the same
    penalty for non-finite values: (argmin, min value, evaluations)."""
    fwd, inv = _TRANSFORMS[problem.transform]

    def goal(t):
        val = problem.objective(float(inv(t)))
        return float(val) if math.isfinite(val) else 1e300

    t, f, status, nfev = optimize.fminbound(
        goal, fwd(problem.bracket[0]), fwd(problem.bracket[1]), xtol=tol, maxfun=500,
        full_output=True, disp=0)
    assert status == 0
    return float(inv(t)), float(f), nfev


def assert_matches_fminbound(objective, box, transform, tol):
    f = counted(objective)
    got = minimize_scalar(ScalarProblem(f, box, transform), tol=tol)
    assert (*got, f.calls) == fminbound_reference(ScalarProblem(objective, box, transform), tol)


QUADRATICS = [
    ("identity", (-4.0, 7.0), 1.3),
    ("log", (1e-3, 50.0), 0.42),
    ("logm1", (1.0 + 1e-6, 30.0), 2.6),
    ("atanh", (-0.999, 0.999), -0.55),
]


@pytest.mark.parametrize("transform,box,truth", QUADRATICS)
@pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-4])
def test_minimize_scalar_matches_fminbound_on_quadratics(transform, box, truth, tol):
    assert_matches_fminbound(lambda x: (x - truth) ** 2, box, transform, tol)


@pytest.mark.parametrize("transform,box,_truth", QUADRATICS)
def test_minimize_scalar_matches_fminbound_at_bracket_ends(transform, box, _truth):
    lo, hi = box
    assert_matches_fminbound(lambda x: x - lo, box, transform, 1e-7)
    assert_matches_fminbound(lambda x: hi - x, box, transform, 1e-7)


@pytest.mark.parametrize("c,w", [(4.4, 0.28), (3.0, 0.5)])
def test_minimize_scalar_matches_fminbound_on_plateaus(c, w):
    # flat outside a well: equal values take the tie rules of the point updates
    assert_matches_fminbound(lambda x: min(abs(x - c), w), (-4.0, 7.0), "identity", 1e-7)
    assert_matches_fminbound(lambda x: 0.0 if abs(x - c) < w else 1.0, (-4.0, 7.0),
                             "identity", 1e-7)


def test_minimize_scalar_matches_fminbound_on_nonfinite_region():
    objective = lambda x: np.inf if x < 0.5 else (x - 2.0) ** 2
    assert_matches_fminbound(objective, (1e-3, 10.0), "log", 1e-9)
    assert_matches_fminbound(lambda x: np.nan if x > 3.0 else -x, (-4.0, 7.0), "identity", 1e-7)


@pytest.mark.parametrize("kind", sorted(TAIL_BOXES))
def test_minimize_scalar_matches_fminbound_on_tail_loglik(kind):
    rng = np.random.default_rng(5)
    x = 1.0 / rng.uniform(0.01, 1.0, 150)
    y = x * np.exp(rng.normal(0.0, 0.7, 150))
    loglik = prepare_tail_log_density(kind, x, y)
    lo, hi, transform = TAIL_BOXES[kind]
    assert_matches_fminbound(lambda th: -float(loglik(th).sum()), (lo, hi), transform, 1e-7)


@pytest.mark.parametrize("kind", sorted(PAIR_BOXES))
def test_minimize_scalar_matches_fminbound_on_pair_loglik(kind):
    rng = np.random.default_rng(6)
    g = rng.standard_normal((200, 2)) @ np.linalg.cholesky([[1.0, 0.6], [0.6, 1.0]]).T
    u, v = std_normal_cdf(g).T
    loglik = prepare_pair_log_density(kind, u, v)
    lo, hi, transform = PAIR_BOXES[kind]
    assert_matches_fminbound(lambda th: -float(loglik(th).sum()), (lo, hi), transform, 1e-7)


def test_minimize_scalar_stops_at_500_evaluations():
    # |x| with a tolerance far below the spacing of doubles near 1: the
    # bracket would have to shrink to 1e-300 around 0
    f = counted(abs)
    with pytest.raises(NoConvergence):
        minimize_scalar(ScalarProblem(f, (-1.0, 2.0)), tol=1e-300)
    assert f.calls == 500


def test_invert_monotone_scalar_and_array():
    f = lambda x: x**3
    assert abs(invert_monotone(f, 8.0, (0.0, 10.0)) - 2.0) < 1e-9
    got = invert_monotone(f, np.array([1.0, 27.0]), (0.0, 10.0))
    np.testing.assert_allclose(got, [1.0, 3.0], atol=1e-9)


def test_invert_monotone_decreasing_and_unbracketed():
    # f must increase: a decreasing one is refused
    with pytest.raises(BracketFailure):
        invert_monotone(lambda x: -x, -5.0, (0.0, 10.0))
    # a bracket that does not straddle the target
    with pytest.raises(BracketFailure):
        invert_monotone(lambda x: x, 100.0, (0.0, 1.0))


def test_invert_monotone_rejects_empty_bracket():
    with pytest.raises(BracketFailure):
        invert_monotone(lambda x: x, 0.5, (1.0, 1.0))


@settings(deadline=None, max_examples=40)
@given(st.floats(0.05, 0.95), st.floats(0.3, 4.0))
def test_invert_monotone_beta_property(u, a):
    x = invert_monotone(lambda t: reg_beta_cdf(t, a, 1.7), u, (0.0, 1.0), tol=1e-12)
    assert abs(reg_beta_cdf(x, a, 1.7) - u) < 1e-10


def test_quad_1d_finite_and_improper():
    assert abs(quad_1d(lambda x: 2.0 * x, 0.0, 1.0) - 1.0) < 1e-10
    # improper at an end of the finite range: x^-1/2 on (0, 1)
    assert abs(quad_1d(lambda x: x**-0.5, 0.0, 1.0) - 2.0) < 1e-10


def test_rng_stream_reproducible_and_disjoint():
    a = rng_stream(7, 3).standard_normal(5)
    b = rng_stream(7, 3).standard_normal(5)
    c = rng_stream(7, 4).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)
    with pytest.raises(DomainError):
        rng_stream(-1)
