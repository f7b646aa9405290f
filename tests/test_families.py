"""Bivariate tail and pair families: densities, h-functions, summaries."""
from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import log_ndtr, ndtr, ndtri

import oracles as oc
from conftest import PAIR_RANGES, TAIL_RANGES, call_record
from xvine.errors import DomainError
from xvine.estimate import (
    fit_pair_edge,
    fit_pipeline,
    from_inverted_pareto,
    mbic_curve,
    rank_transform,
    select_pair_family,
)
from xvine.numerics import _TRANSFORMS
from xvine.families import (
    _PAIR_RECORDS,
    _TAIL_RECORDS,
    EPS_UNIT,
    LOG_HI,
    LOG_LO,
    PAIR_BOXES,
    PAIR_KINDS,
    TAIL_BOXES,
    TAIL_KINDS,
    X_MAX,
    PairFamily,
    TailFamily,
    Z_HI,
    Z_LO,
    clamp_score,
    log_pair_to_score,
    pair_density,
    pair_h,
    pair_h_inv,
    pair_log_density,
    pair_tau,
    prepare_pair_log_density,
    prepare_tail_log_density,
    score_to_log_pair,
    tail_chi,
    tail_density,
    tail_h,
    tail_h_inv,
    tail_log_density,
    tau_inverse,
)
from xvine.model import conditional_cdf
from xvine.reference import five_variable_spec

GRID = np.array([0.07, 0.31, 0.9, 1.0, 1.8, 6.3])


def tail_cases():
    return [("hr", 1.5), ("hr", 0.4), ("hr", 4.0),
            ("logistic", 2.5), ("logistic", 1.3), ("logistic", 6.0),
            ("neglogistic", 2.0), ("neglogistic", 0.45),
            ("dirichlet", 2.0), ("dirichlet", 0.45), ("dirichlet", 8.0)]


# ---------------------------------------------------------------------------
# tail families
# ---------------------------------------------------------------------------

def test_tail_family_validation():
    with pytest.raises(DomainError):
        TailFamily("cauchy", 1.0)
    with pytest.raises(DomainError):
        TailFamily("logistic", 1.0)
    with pytest.raises(DomainError):
        TailFamily("hr", 0.0)
    with pytest.raises(DomainError):
        TailFamily("dirichlet", float("nan"))


@pytest.mark.parametrize("kind,theta", tail_cases())
def test_tail_density_matches_direct_form(kind, theta):
    fam = TailFamily(kind, theta)
    X, Y = np.meshgrid(GRID, GRID)
    got = tail_density(fam, X.ravel(), Y.ravel())
    want = oc.BIV[kind](X.ravel(), Y.ravel(), theta)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("kind,theta", tail_cases())
def test_tail_density_symmetric_and_homogeneous(kind, theta):
    fam = TailFamily(kind, theta)
    x, y = GRID, GRID[::-1]
    np.testing.assert_allclose(tail_density(fam, x, y), tail_density(fam, y, x),
                               rtol=1e-12)
    for t in (0.25, 3.0):
        np.testing.assert_allclose(tail_log_density(fam, t * x, t * y),
                                   tail_log_density(fam, x, y) - np.log(t),
                                   atol=1e-11)


@pytest.mark.parametrize("kind,theta", tail_cases())
def test_tail_h_is_integrated_density(kind, theta):
    fam = TailFamily(kind, theta)
    for x in (0.3, 1.0, 2.2):
        for y in (0.6, 1.7):
            want = oc.cond_cdf_biv(oc.BIV[kind], x, y, theta)
            got = float(tail_h(fam, x, y))
            assert abs(got - want) < 5e-8, (x, y)


@pytest.mark.parametrize("kind,theta", tail_cases())
def test_tail_unit_conditional_margin(kind, theta):
    # h(x | y) -> 1 as x -> inf: the conditional density integrates to one
    fam = TailFamily(kind, theta)
    assert abs(float(tail_h(fam, 1e14, 0.9)) - 1.0) < 2e-4


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(TAIL_KINDS), st.floats(0.05, 0.95), st.floats(0.1, 4.0),
       st.floats(0.0, 1.0))
def test_tail_h_round_trip(kind, u, y, frac):
    lo, hi = TAIL_RANGES[kind]
    fam = TailFamily(kind, lo + frac * (hi - lo))
    x = float(tail_h_inv(fam, u, y))
    assert x > 0.0
    assert abs(float(tail_h(fam, x, y)) - u) < 1e-7


#: Dirichlet roots t = log(x / y) of tail_h = w, from 50-digit mpmath:
#: (theta, w, t). Each x lies beyond 1e15 * y.
DIRICHLET_ROOTS = [(0.01, 0.5, 69.33093071223144995),
                   (1e-3, 0.5, 693.14882309368025714),
                   (0.1, 1.0 - 1e-6, 138.29881350451881272)]


@pytest.mark.parametrize("th,w,t", DIRICHLET_ROOTS)
def test_dirichlet_h_inv_reaches_far_roots(th, w, t):
    got = np.log(float(tail_h_inv(TailFamily("dirichlet", th), w, 1.0)))
    assert abs(got - t) <= 1e-12 * t


def _tail_grid(kind):
    lo, hi, _ = TAIL_BOXES[kind]
    inner = [g for g in (1e-3, 0.01, 0.1, 0.5, 1.0, 1.01, 1.1, 2.0, 8.0, 28.0) if lo < g < hi]
    return [lo, *inner, hi]


TAIL_INV_W = np.array([1e-12, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0 - 1e-12])


@pytest.mark.parametrize("kind,th", [(k, th) for k in ("logistic", "neglogistic", "dirichlet")
                                     for th in _tail_grid(k)])
def test_tail_h_inv_round_trip_full_box(kind, th):
    # log h(h_inv(w)) against log w on the smaller side of w, to 1e-12
    # relative in that side, at every root below X_MAX; a root beyond it
    # comes back as X_MAX, where h still falls short of w. No warning, inf
    # or NaN anywhere. The double nearest 1 - 1e-12 lies below the log-pair
    # clamp, so h is read from the record, which does not clamp it.
    fam = TailFamily(kind, th)
    w, y = TAIL_INV_W, np.ones(TAIL_INV_W.size)
    if (kind, th) == ("dirichlet", 1e-3):   # a target of 9.6e-20, far below the pair clip
        w, y = np.r_[w, tail_h(fam, 1e-8, 1e8)], np.r_[y, 1e8]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = tail_h_inv(fam, w, y)
        assert np.all(np.isfinite(x)) and np.all(x > 0.0)
        lh, lhb = _TAIL_RECORDS[kind].h(x, y, th)
    low = w <= 0.5
    got = np.where(low, lh, lhb)
    want = np.where(low, np.log(w), np.log1p(-w))
    cap = x == X_MAX
    assert np.all(np.abs(np.expm1(got - want)[~cap]) <= 1e-12), (got - want)
    # at the cap the smaller side is still short of its target
    assert np.all(np.where(low, got <= want, got >= want)[cap])


@pytest.mark.parametrize("kind,th", [(k, th) for k in ("logistic", "neglogistic", "dirichlet")
                                     for th in _tail_grid(k)])
def test_tail_h_inv_row_does_not_depend_on_its_batch(kind, th):
    fam = TailFamily(kind, th)
    rng = np.random.default_rng(9)
    w = rng.uniform(size=100_000)
    y = np.exp(rng.uniform(-3.0, 3.0, size=w.size))
    at = rng.choice(w.size, TAIL_INV_W.size, replace=False)
    w[at] = TAIL_INV_W
    batch = tail_h_inv(fam, w, y)
    alone = [float(tail_h_inv(fam, np.array([wi]), np.array([yi]))[0])
             for wi, yi in zip(TAIL_INV_W, y[at])]
    np.testing.assert_array_equal(batch[at], alone)


def test_tail_h_inv_caps_roots_beyond_every_double():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam, w in [(TailFamily("neglogistic", 1e-3), [0.1, 0.5, 0.9]),
                       (TailFamily("dirichlet", 1e-3), [1.0 - 1e-6, 1.0 - 1e-12]),
                       (TailFamily("logistic", 1.0 + 1e-6), [0.5, 1.0 - 1e-12])]:
            np.testing.assert_array_equal(tail_h_inv(fam, w, 1.0), X_MAX)


@pytest.mark.parametrize("kind,th,w", [("dirichlet", 1e-3, 0.509), ("neglogistic", 0.01, 0.921),
                                       ("logistic", 1.01, 1.0 - 8.1e-4)])
def test_tail_h_inv_keeps_finite_roots_past_an_overflowing_ratio(kind, th, w):
    # x / y is beyond X_MAX, but at y = 0.05 the root itself is a finite double
    fam, y = TailFamily(kind, th), 0.05
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = float(tail_h_inv(fam, w, y))
        lh, lhb = _TAIL_RECORDS[kind].h(np.array([x]), np.array([y]), th)
    assert x < X_MAX and math.log(x) - math.log(y) > math.log(X_MAX)
    got, want = (lh[0], math.log(w)) if w <= 0.5 else (lhb[0], math.log1p(-w))
    assert abs(math.expm1(got - want)) <= 1e-12


def test_tail_chi_frozen_values():
    assert abs(tail_chi(TailFamily("hr", 1.5)) - 0.54029137460742) < 1e-12
    assert abs(tail_chi(TailFamily("logistic", 2.5)) - 0.6804920892271058) < 1e-12
    assert abs(tail_chi(TailFamily("neglogistic", 2.0)) - 2.0 ** -0.5) < 1e-12
    assert abs(tail_chi(TailFamily("dirichlet", 2.0)) - 0.625) < 1e-9


@pytest.mark.parametrize("kind,theta", tail_cases())
def test_tail_chi_matches_quadrature(kind, theta):
    got = tail_chi(TailFamily(kind, theta))
    want = oc.chi_biv(oc.BIV[kind], theta)
    # strong dependence squeezes the mass into a diagonal ridge the fixed
    # panel rule resolves less sharply; 2e-5 still pins the closed forms
    assert abs(got - want) < 2e-5
    assert 0.0 < got < 1.0


def test_logistic_density_frozen_point():
    fam = TailFamily("logistic", 2.0)
    assert abs(float(tail_density(fam, 1.0, 1.0)) - 2.0 ** -1.5) < 1e-15


def test_tail_rejects_nonpositive_points():
    fam = TailFamily("hr", 1.0)
    with pytest.raises(DomainError):
        tail_h(fam, 1.0, 0.0)
    with pytest.raises(DomainError):
        tail_log_density(fam, -1.0, 1.0)


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_tail_doors_reject_infinite_points(kind):
    # every kind raises at +inf, where logistic and Dirichlet gave NaN and
    # hr and neglogistic -inf
    fam = TailFamily(kind, 1.5)
    for x, y in ((np.inf, 1.0), (1.0, np.inf)):
        for door in (tail_log_density, tail_density, tail_h):
            with pytest.raises(DomainError, match="finite"):
                door(fam, x, y)
        with pytest.raises(DomainError, match="finite"):
            prepare_tail_log_density(kind, x, y)
    with pytest.raises(DomainError, match="finite"):
        tail_h_inv(fam, 0.5, np.inf)


@pytest.mark.parametrize("kind", TAIL_KINDS)
def test_prepared_tail_log_density_is_bit_identical(kind):
    # theta over the whole search box, both ends included; points span 1e-13..1e13
    rng = np.random.default_rng(5)
    x = np.exp(rng.uniform(-30.0, 30.0, 300))
    y = np.exp(rng.uniform(-30.0, 30.0, 300))
    lo, hi, _ = TAIL_BOXES[kind]
    loglik = prepare_tail_log_density(kind, x, y)
    with np.errstate(all="ignore"):
        for th in np.linspace(lo, hi, 24):
            got = loglik(th)
            np.testing.assert_array_equal(got, oc.tail_log_density_one_pass(kind, th, x, y))
            want = float(np.sum(tail_log_density(TailFamily(kind, th), x, y)))
            assert float(np.sum(got)) == want or (np.isnan(want) and np.isnan(np.sum(got)))


@pytest.mark.parametrize("kind", ["cauchy", "gaussian"])
def test_prepared_tail_log_density_rejects_unknown_kinds(kind):
    with pytest.raises(DomainError, match="unknown tail family"):
        prepare_tail_log_density(kind, [1.0, 2.0], [0.5, 3.0])


def test_tail_density_vector_shape():
    fam = TailFamily("logistic", 2.0)
    out = tail_density(fam, GRID, 1.0)
    assert out.shape == GRID.shape
    assert isinstance(float(tail_density(fam, 1.0, 1.0)), float)


# ---------------------------------------------------------------------------
# pair families
# ---------------------------------------------------------------------------

def pair_cases():
    return [("gaussian", 0.7), ("gaussian", -0.6), ("clayton", 2.0),
            ("clayton", 0.4), ("gumbel", 2.5), ("frank", 5.0), ("frank", -7.0),
            ("joe", 1.7), ("survclayton", 2.0), ("survgumbel", 3.0),
            ("survjoe", 2.2)]


def test_pair_family_validation():
    with pytest.raises(DomainError):
        PairFamily("indep", 1.0)
    with pytest.raises(DomainError):
        PairFamily("gaussian", 1.0)
    with pytest.raises(DomainError):
        PairFamily("clayton", -2.0)
    with pytest.raises(DomainError):
        PairFamily("gumbel", 0.9)
    with pytest.raises(DomainError):
        PairFamily("frank", 0.0)
    with pytest.raises(DomainError):
        PairFamily("gaussian", None)
    with pytest.raises(DomainError):
        PairFamily("plackett", 2.0)


@pytest.mark.parametrize("kind,theta", pair_cases())
def test_pair_density_normalizes(kind, theta):
    fam = PairFamily(kind, theta)
    gx, gw = leggauss(96)
    u = 0.5 * gx + 0.5
    w = 0.5 * gw
    U, V = np.meshgrid(u, u)
    mass = float(np.outer(w, w).ravel() @ pair_density(fam, U.ravel(), V.ravel()))
    assert abs(mass - 1.0) < 2e-3, mass


@pytest.mark.parametrize("kind,theta", pair_cases())
def test_pair_h_is_integrated_density(kind, theta):
    fam = PairFamily(kind, theta)
    gx, gw = leggauss(160)
    for v in (0.2, 0.8):
        for u_hi in (0.35, 0.9):
            s = 0.5 * u_hi * gx + 0.5 * u_hi
            num = float((0.5 * u_hi * gw) @ pair_density(fam, s, np.full_like(s, v)))
            assert abs(float(pair_h(fam, u_hi, v)) - num) < 5e-5, (v, u_hi)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([k for k in PAIR_KINDS if k != "indep"]),
       st.floats(0.03, 0.97), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
def test_pair_h_round_trip(kind, w, v, frac):
    lo, hi = PAIR_RANGES[kind]
    theta = lo + frac * (hi - lo)
    if kind == "frank" and abs(theta) < 0.05:
        theta = 0.05
    fam = PairFamily(kind, theta)
    u = float(pair_h_inv(fam, w, v))
    assert 0.0 <= u <= 1.0
    assert abs(float(pair_h(fam, u, v)) - w) < 1e-7


#: Targets w on their smaller side, down to 1e-12, and conditioning values
#: within 1e-12 of either end.
SIDE_W = np.array([1e-12, 1e-10, 1e-8, 1e-4, 0.05, 0.3, 0.5])
EDGE_V = np.array([1e-12, 1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6, 1.0 - 1e-12])


@pytest.mark.parametrize("kind", [k for k in PAIR_KINDS if k != "indep"])
def test_pair_h_inv_round_trip_full_box(kind):
    # h(h_inv(w)) = w through the record's own form, relative to the smaller
    # side of w, for w and 1 - w down to 1e-12: log h against log w, or
    # log(1 - h) against log(1 - w); a score kind through log Phi of scores.
    # theta spans the search scale of the box, both ends included (an even
    # count skips frank's theta = 0).
    rec = _PAIR_RECORDS[kind]
    lo, hi, transform = PAIR_BOXES[kind]
    fwd, inv = _TRANSFORMS[transform]
    thetas = inv(np.linspace(fwd(lo), fwd(hi), 12))
    thetas[[0, -1]] = lo, hi
    s, v = (np.tile(a.ravel(), 2) for a in np.meshgrid(SIDE_W, EDGE_V))
    low = np.arange(s.size) < s.size // 2   # w = s, then w = 1 - s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for th in thetas:
            if rec.score:
                z, zv = np.where(low, ndtri(s), -ndtri(s)), ndtri(v)
                back = rec.h(rec.h_inv(z, zv, th), zv, th)
                got, want = log_ndtr(np.where(low, back, -back)), log_ndtr(np.where(low, z, -z))
            else:
                ls, lsb = _log_pair(s)
                q = _log_pair(v)
                lh, lhb = rec.h(rec.h_inv((np.where(low, ls, lsb), np.where(low, lsb, ls)), q, th),
                                q, th)
                got, want = np.where(low, lh, lhb), ls
            err = np.abs(np.expm1(got - want))
            assert err.max() <= 1e-12, (th, s[err.argmax()], low[err.argmax()], v[err.argmax()])


@pytest.mark.parametrize("theta,w,v", [
    (1.0 + 1e-8, 0.3, 0.6), (1.5, 0.05, 0.2), (2.5, 0.5, 0.5),
    (6.0, 0.9, 0.01), (17.0, 0.2, 0.97), (3.0, 0.001, 0.999)])
def test_gumbel_h_inv_matches_scalar_root(theta, w, v):
    want = oc.invert_gumbel_h(w, v, theta)
    got = float(pair_h_inv(PairFamily("gumbel", theta), w, v))
    assert abs(got - want) <= 1e-11 * want


def test_pair_h_inv_clips_unreachable_targets():
    # roots beyond the EPS_UNIT clip: those rows get the clip end, the batch
    # does not fail
    w, v = 0.9999977967125581, 0.9999999999943999
    u = float(pair_h_inv(PairFamily("joe", 3.0), w, v))
    assert abs(u - (1.0 - EPS_UNIT)) < 1e-14
    u = float(pair_h_inv(PairFamily("survjoe", 3.0), 1.0 - w, 1.0 - v))
    assert abs(u - EPS_UNIT) < 1e-14
    fam = PairFamily("gumbel", 2.5)
    u = pair_h_inv(fam, [0.5, 2.5294546861993176e-12], [0.5, 1.2819392570923834e-10])
    assert u[1] == EPS_UNIT
    assert abs(float(pair_h(fam, u[0], 0.5)) - 0.5) < 1e-12


@pytest.mark.parametrize("kind", [k for k in PAIR_KINDS if k != "indep"])
def test_prepared_pair_log_density_is_bit_identical(kind):
    # theta over the whole search box, both ends included; points reach the clip
    rng = np.random.default_rng(6)
    u = np.r_[rng.uniform(size=300), 0.0, 1.0, 1e-14, 1.0 - 1e-14, 0.5]
    v = np.r_[rng.uniform(size=300), 1.0, 0.0, 0.5, 1e-13, 0.5]
    lo, hi, _ = PAIR_BOXES[kind]
    loglik = prepare_pair_log_density(kind, u, v)
    with np.errstate(all="ignore"):
        for th in np.linspace(lo, hi, 24):  # an even count skips frank's theta = 0
            got = loglik(th)
            np.testing.assert_array_equal(got, oc.pair_log_density_one_pass(kind, th, u, v))
            want = float(np.sum(pair_log_density(PairFamily(kind, th), u, v)))
            assert float(np.sum(got)) == want or (np.isnan(want) and np.isnan(np.sum(got)))


@pytest.mark.parametrize("kind", ["plackett", "hr"])
def test_prepared_pair_log_density_rejects_unknown_kinds(kind):
    with pytest.raises(DomainError, match="unknown pair family"):
        prepare_pair_log_density(kind, [0.2, 0.7], [0.4, 0.9])


def test_survival_reflection_identity():
    base = PairFamily("clayton", 2.0)
    surv = PairFamily("survclayton", 2.0)
    u = np.linspace(0.05, 0.95, 9)
    np.testing.assert_allclose(pair_density(surv, u, 0.3),
                               pair_density(base, 1.0 - u, 0.7), rtol=1e-12)
    np.testing.assert_allclose(pair_h(surv, u, 0.3),
                               1.0 - pair_h(base, 1.0 - u, 0.7), atol=1e-12)


def test_indep_family_short_circuits():
    fam = PairFamily("indep")
    u = np.linspace(0.1, 0.9, 5)
    np.testing.assert_allclose(pair_density(fam, u, 0.4), 1.0)
    np.testing.assert_allclose(pair_h(fam, u, 0.4), u)
    np.testing.assert_allclose(pair_h_inv(fam, u, 0.4), u)
    assert pair_tau(fam) == 0.0
    assert pair_log_density(fam, 0.5, 0.5) == 0.0


def test_gaussian_density_frozen_point():
    fam = PairFamily("gaussian", 0.7)
    assert abs(float(pair_density(fam, 0.5, 0.5)) - 0.51 ** -0.5) < 1e-14


def test_pair_tau_frozen_values():
    assert abs(pair_tau(PairFamily("clayton", 2.0)) - 0.5) < 1e-12
    assert abs(pair_tau(PairFamily("gumbel", 2.5)) - 0.6) < 1e-12
    assert abs(pair_tau(PairFamily("gaussian", 0.7)) - oc.tau_gaussian(0.7)) < 1e-12


@pytest.mark.parametrize("kind,theta", pair_cases())
def test_pair_tau_matches_sample(kind, theta):
    # tau from the h-function sampler agrees with the closed/numeric form
    from scipy.stats import kendalltau
    fam = PairFamily(kind, theta)
    rng = np.random.default_rng(99)
    v = rng.uniform(size=40_000)
    u = pair_h_inv(fam, rng.uniform(size=v.size), v)
    got = kendalltau(u, v).statistic
    assert abs(got - pair_tau(fam)) < 0.02


@pytest.mark.parametrize("kind", [k for k in PAIR_KINDS if k != "indep"])
def test_tau_inverse_round_trip(kind):
    lo, hi = PAIR_RANGES[kind]
    for frac in (0.25, 0.6):
        theta = lo + frac * (hi - lo)
        if kind == "frank" and abs(theta) < 0.05:
            theta = 1.0
        tau = pair_tau(PairFamily(kind, theta))
        back = tau_inverse(kind, tau)
        assert abs(pair_tau(PairFamily(kind, back)) - tau) < 1e-6


def test_tau_inverse_domain():
    with pytest.raises(DomainError):
        tau_inverse("indep", 0.3)
    with pytest.raises(DomainError):
        tau_inverse("gaussian", 1.0)


@pytest.mark.parametrize("kind", ["plackett", "cauchy"])
def test_tau_inverse_rejects_unknown_kinds(kind):
    with pytest.raises(DomainError, match="unknown pair family"):
        tau_inverse(kind, 0.3)


#: Each door that takes values in [0, 1], with the number of its leading
#: arguments that are such values (tail_h_inv's second is y).
UNIT_DOORS = {
    **{f"tail_h_inv {k}": (partial(tail_h_inv, TailFamily(k, th)), 1)
       for k, th in (("hr", 1.0), ("logistic", 2.0))},
    **{f"{door.__name__} {k}": (partial(door, PairFamily(k, th)), 2)
       for door in (pair_log_density, pair_density, pair_h, pair_h_inv)
       for k, th in (("indep", None), ("gaussian", 0.5), ("clayton", 2.0))},
    "fit_pair_edge clayton": (partial(fit_pair_edge, kind="clayton"), 2),
    "select_pair_family": (select_pair_family, 2),
}


@pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
@pytest.mark.parametrize("door", UNIT_DOORS)
def test_unit_doors_reject_values_outside_the_unit_interval(door, bad):
    # the closed interval passes, clipped inside; one value beyond it or NaN
    # fails at the door with a typed error, not as a NaN, an extreme root or
    # a boundary fit
    call, n_unit = UNIT_DOORS[door]
    args = list(np.random.default_rng(3).uniform(0.05, 0.95, size=(2, 60)))
    for a, ends in zip(args[:n_unit], ((0.0, 1.0), (1.0, 0.0))):
        a[:2] = ends
    call(*args)
    for i in range(n_unit):
        broken = [a.copy() for a in args]
        broken[i][5] = bad
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            call(*broken)


#: Malformed input that each door turns into a DomainError where it enters.
_WORDS = [["a", "b"], ["c", "d"]]
MALFORMED = {
    **{f"{door.__name__} unbroadcastable": partial(door, fam, *args)
       for door, fam, args in (
           (tail_h, TailFamily("hr", 1.0), ([1.0, 2.0], [1.0, 2.0, 3.0])),
           (tail_log_density, TailFamily("logistic", 2.0), ([1.0, 2.0], [1.0, 2.0, 3.0])),
           (tail_h_inv, TailFamily("dirichlet", 2.0), ([0.2, 0.7], [1.0, 2.0, 3.0])),
           (pair_h, PairFamily("clayton", 2.0), ([0.2, 0.7], [0.1, 0.2, 0.3])),
           (pair_log_density, PairFamily("gumbel", 2.0), ([0.2, 0.7], [0.1, 0.2, 0.3])),
           (pair_h_inv, PairFamily("frank", 2.0), ([0.2, 0.7], [0.1, 0.2, 0.3])))},
    "conditional_cdf unbroadcastable": partial(
        conditional_cdf, five_variable_spec(), 1, (2,), [1.0, 2.0], [[1.0, 2.0, 3.0]]),
    "PairFamily string theta": partial(PairFamily, "gaussian", "x"),
    "TailFamily string theta": partial(TailFamily, "hr", "x"),
    "TailFamily bool theta": partial(TailFamily, "hr", True),
    "fit_pipeline words": partial(fit_pipeline, _WORDS, 1),
    "rank_transform words": partial(rank_transform, _WORDS, 1),
    "from_inverted_pareto words": partial(from_inverted_pareto, _WORDS),
    "mbic_curve n_eff 0": partial(
        mbic_curve, [[], [{"theta": 2.0, "n_eff": 0, "loglik": 1.0}]]),
}


@pytest.mark.parametrize("call", MALFORMED)
def test_doors_raise_domain_error_on_malformed_input(call):
    with pytest.raises(DomainError):
        MALFORMED[call]()


def test_valid_theta_is_stored_as_given():
    assert type(TailFamily("hr", 2).theta) is int
    assert type(PairFamily("clayton", np.float64(2.0)).theta) is np.float64


# ---------------------------------------------------------------------------
# the record tables
# ---------------------------------------------------------------------------

def test_every_box_end_builds_a_family():
    # the fitter searches each box without building families, so both ends,
    # as given and through the search transform, lie in the kind's domain
    for cls, table in ((TailFamily, _TAIL_RECORDS), (PairFamily, _PAIR_RECORDS)):
        for kind, rec in table.items():
            if rec.box is None:
                continue
            lo, hi, transform = rec.box
            fwd, inv = _TRANSFORMS[transform]
            for th in (lo, hi, float(inv(fwd(lo))), float(inv(fwd(hi)))):
                assert cls(kind, th).theta == th


def test_derived_tables_keep_contents_and_order():
    # bench/worker.py and scripts/kernel_timing.py read these
    assert TAIL_KINDS == ("hr", "logistic", "neglogistic", "dirichlet")
    assert PAIR_KINDS == ("indep", "gaussian", "clayton", "gumbel", "frank", "joe",
                          "survclayton", "survgumbel", "survjoe")
    assert list(TAIL_BOXES.items()) == [
        ("hr", (1e-3, 50.0, "log")),
        ("logistic", (1.0 + 1e-6, 28.0, "logm1")),
        ("neglogistic", (1e-3, 28.0, "log")),
        ("dirichlet", (1e-3, 28.0, "log")),
    ]
    assert list(PAIR_BOXES.items()) == [
        ("gaussian", (-0.999, 0.999, "atanh")),
        ("clayton", (1e-6, 28.0, "log")),
        ("gumbel", (1.0 + 1e-8, 17.0, "logm1")),
        ("frank", (-35.0, 35.0, "identity")),
        ("joe", (1.0 + 1e-8, 30.0, "logm1")),
        ("survclayton", (1e-6, 28.0, "log")),
        ("survgumbel", (1.0 + 1e-8, 17.0, "logm1")),
        ("survjoe", (1.0 + 1e-8, 30.0, "logm1")),
    ]
    assert {k for table in (_TAIL_RECORDS, _PAIR_RECORDS)
            for k, r in table.items() if r.score} == {"hr", "gaussian"}


def test_every_record_fills_the_slots_its_doors_reach():
    shared = ("domain", "prepare", "evaluate", "h", "h_inv")
    for kind, rec in _TAIL_RECORDS.items():
        assert rec.name == kind and rec.need and rec.box is not None
        assert all(callable(getattr(rec, slot)) for slot in (*shared, "chi"))
    for kind, rec in _PAIR_RECORDS.items():
        assert rec.name == kind and rec.need
        assert all(callable(getattr(rec, slot)) for slot in (*shared, "tau"))
        # only independence has no box, and pair_h takes its h on u
        assert (rec.box is None) == (rec.h_u is not None)
    for kind in PAIR_KINDS:
        if kind.startswith("surv"):
            rec, base = _PAIR_RECORDS[kind], _PAIR_RECORDS[kind[4:]]
            assert base.survival and not rec.score
            assert (rec.box, rec.tau, rec.tau_inv, rec.domain) == (
                base.box, base.tau, base.tau_inv, base.domain)


# ---------------------------------------------------------------------------
# normal-score kernels (hr tails, gaussian pairs)
# ---------------------------------------------------------------------------

#: theta over the whole estimation box, both ends included
HR_THETAS = np.geomspace(TAIL_BOXES["hr"][0], TAIL_BOXES["hr"][1], 12)
GAUSS_THETAS = np.linspace(PAIR_BOXES["gaussian"][0], PAIR_BOXES["gaussian"][1], 13)
#: probabilities out to the clip and beyond it, 0 and 1 included
EDGE_U = np.array([0.0, 1e-300, 1e-13, EPS_UNIT, np.nextafter(EPS_UNIT, 1.0), 1e-9,
                   0.3, 0.5, 0.97, 1.0 - 1e-9, np.nextafter(1.0 - EPS_UNIT, 0.0),
                   1.0 - EPS_UNIT, 1.0 - 1e-13, 1.0])


def test_clamping_a_score_is_clipping_u():
    rng = np.random.default_rng(41)
    u = np.r_[EDGE_U, rng.uniform(size=200)]
    clipped = np.clip(u, EPS_UNIT, 1.0 - EPS_UNIT)
    np.testing.assert_array_equal(clamp_score(ndtri(u)), ndtri(clipped))
    z = np.r_[-np.inf, -40.0, Z_LO - 1e-9, Z_LO, Z_HI, Z_HI + 1e-9, 40.0, np.inf,
              rng.normal(scale=3.0, size=200)]
    np.testing.assert_allclose(ndtr(clamp_score(z)),
                               np.clip(ndtr(z), EPS_UNIT, 1.0 - EPS_UNIT), rtol=1e-14)
    assert Z_LO < -7.0 < 7.0 < Z_HI


def test_score_kernels_under_ndtr_match_u_kernels():
    # same formulas: bit-identical, except that Phi(Z_LO) is 1e-12 only to
    # 7e-15 relative, so u-space output clipped at the low end moves by that
    rng = np.random.default_rng(42)
    grid = np.r_[EDGE_U, rng.uniform(size=150)]
    u, v = (a.ravel() for a in np.meshgrid(grid, grid))
    x = np.exp(rng.normal(scale=4.0, size=u.size))
    y = np.exp(rng.normal(scale=4.0, size=u.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for th in HR_THETAS:
            fam = TailFamily("hr", float(th))
            np.testing.assert_array_equal(ndtr(call_record(fam, "h", x, y)), tail_h(fam, x, y))
            with np.errstate(divide="ignore"):
                z = ndtri(u)
            np.testing.assert_array_equal(call_record(fam, "h_inv", z, y), tail_h_inv(fam, u, y))
        for th in GAUSS_THETAS:
            fam = PairFamily("gaussian", float(th))
            with np.errstate(divide="ignore"):
                zu, zv = ndtri(u), ndtri(v)
            np.testing.assert_array_equal(call_record(fam, "log_density", zu, zv),
                                          pair_log_density(fam, u, v))
            np.testing.assert_allclose(ndtr(call_record(fam, "h", zu, zv)), pair_h(fam, u, v),
                                       rtol=1e-14)
            np.testing.assert_allclose(ndtr(call_record(fam, "h_inv", zu, zv)),
                                       pair_h_inv(fam, u, v), rtol=1e-14)


def test_score_round_trip_full_box():
    z = np.linspace(ndtri(1e-3), ndtri(1.0 - 1e-3), 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zz, yy = (a.ravel() for a in np.meshgrid(np.linspace(Z_LO, Z_HI, 201),
                                                 [1e-3, 0.5, 1.0, 30.0]))
        for th in HR_THETAS:
            fam = TailFamily("hr", float(th))
            back = call_record(fam, "h", call_record(fam, "h_inv", zz, yy), yy)
            assert np.abs(back - zz).max() <= 1e-12, th
        w, zv = (a.ravel() for a in np.meshgrid(z, z))
        for th in GAUSS_THETAS:
            fam = PairFamily("gaussian", float(th))
            back = call_record(fam, "h", call_record(fam, "h_inv", w, zv), zv)
            assert np.abs(back - w).max() <= 1e-12, th


# ---------------------------------------------------------------------------
# log pairs (log u, log(1 - u))
# ---------------------------------------------------------------------------

LOG_PAIR_CASES = [("indep", None), ("clayton", 2.0), ("clayton", 0.3), ("gumbel", 2.5),
                  ("gumbel", 1.1), ("frank", 5.0), ("frank", -5.0), ("joe", 2.0),
                  ("joe", 6.0), ("survclayton", 2.0), ("survgumbel", 2.5), ("survjoe", 3.0)]


def _log_pair(u):
    u = np.asarray(u, dtype=float)
    return np.log(u), np.log1p(-u)


def _clamped(lp):
    return np.clip(lp, LOG_LO, LOG_HI)


def test_log_pair_reflection_swaps_the_logs():
    rng = np.random.default_rng(44)
    p, q = _log_pair(rng.uniform(size=50)), _log_pair(rng.uniform(size=50))
    for base in ("clayton", "gumbel", "joe"):
        surv, plain = PairFamily("surv" + base, 2.5), PairFamily(base, 2.5)
        lh, lhb = call_record(surv, "h", p, q)
        mh, mhb = call_record(plain, "h", p[::-1], q[::-1])
        np.testing.assert_array_equal(lh, mhb)
        np.testing.assert_array_equal(lhb, mh)
        np.testing.assert_array_equal(call_record(surv, "log_density", p, q),
                                      call_record(plain, "log_density", p[::-1], q[::-1]))


def _mp_pair_h(mp, kind, th, u, v):
    """h(u | v) of a base pair kind from its textbook formula, in mpmath."""
    if kind == "clayton":
        return v ** (-th - 1) * (u ** -th + v ** -th - 1) ** (-1 - 1 / th)
    if kind == "gumbel":
        x, y = -mp.log(u), -mp.log(v)
        a = x ** th + y ** th
        return mp.exp(-a ** (1 / th)) * a ** (1 / th - 1) * y ** (th - 1) / v
    if kind == "joe":
        a, b = (1 - u) ** th, (1 - v) ** th
        return (1 - v) ** (th - 1) * (a + b - a * b) ** (1 / th - 1) * (1 - a)
    g1, gu, gv = mp.expm1(-th), mp.expm1(-th * u), mp.expm1(-th * v)
    return mp.exp(-th * v) * gu / (g1 + gu * gv)


def _mp_tail_h(mp, kind, th, x, y):
    if kind == "logistic":
        return 1 - (1 + (x / y) ** th) ** ((1 - th) / th)
    if kind == "neglogistic":
        return (1 + (x / y) ** -th) ** (-(1 + th) / th)
    return mp.betainc(th + 1, th, 0, x / (x + y), regularized=True)


def _assert_log_pair_near(got, h, mp, where):
    # each end to a relative 1e-12 of itself, after the clamp
    want = _clamped([float(mp.log(h)), float(mp.log(1 - h))])
    for g, w in zip(got, want):
        assert abs(float(g) - w) <= 1e-12 * abs(w), (where, float(g), w)


def _mp_h(mp, fam, u, v):
    """pair_h of a u-space pair family in mpmath; survival kinds by reflection."""
    u, v = mp.mpf(u), mp.mpf(v)
    if fam.kind == "indep":
        return u
    if fam.kind.startswith("surv"):
        return 1 - _mp_pair_h(mp, fam.kind[4:], mp.mpf(fam.theta), 1 - u, 1 - v)
    return _mp_pair_h(mp, fam.kind, mp.mpf(fam.theta), u, v)


def test_h_kernels_match_mpmath():
    # pair_h and tail_h against the closed forms, and each log pair h sums to 1
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(43)
    u, v = rng.uniform(0.01, 0.99, size=(2, 400))
    x, y = np.exp(rng.normal(scale=1.5, size=(2, 400)))
    with mp.workdps(30):
        for kind, th in LOG_PAIR_CASES:
            fam = PairFamily(kind, th)
            want = [float(_mp_h(mp, fam, a, b)) for a, b in zip(u, v)]
            np.testing.assert_allclose(pair_h(fam, u, v), want, rtol=1e-12, atol=1e-15)
            lh, lhb = call_record(fam, "h", _log_pair(u), _log_pair(v))
            np.testing.assert_allclose(np.exp(lh) + np.exp(lhb), 1.0, rtol=0.0, atol=1e-14)
        for kind, th in tail_cases():
            if kind == "hr":
                continue
            fam = TailFamily(kind, th)
            want = [float(_mp_tail_h(mp, kind, mp.mpf(th), mp.mpf(a), mp.mpf(b)))
                    for a, b in zip(x, y)]
            np.testing.assert_allclose(tail_h(fam, x, y), want, rtol=1e-12)
            lh, lhb = call_record(fam, "h", x, y)
            np.testing.assert_allclose(np.exp(lh) + np.exp(lhb), 1.0, rtol=0.0, atol=1e-14)


def _mp_pair_log_density(mp, kind, th, u, v):
    """log c(u, v) of a pair kind from its textbook closed form, in mpmath."""
    if kind.startswith("surv"):
        return _mp_pair_log_density(mp, kind[4:], th, 1 - u, 1 - v)
    if kind == "gaussian":
        x, y = (mp.sqrt(2) * mp.erfinv(2 * w - 1) for w in (u, v))
        return -mp.log1p(-th * th) / 2 - (th * th * (x * x + y * y) - 2 * th * x * y) / (
            2 * (1 - th * th))
    if kind == "clayton":
        c = (1 + th) * (u * v) ** (-th - 1) * (u ** -th + v ** -th - 1) ** (-1 / th - 2)
    elif kind == "gumbel":
        x, y = -mp.log(u), -mp.log(v)
        a = x ** th + y ** th
        c = (mp.exp(-a ** (1 / th)) / (u * v) * (x * y) ** (th - 1) * a ** (2 / th - 2)
             * (1 + (th - 1) * a ** (-1 / th)))
    elif kind == "frank":
        g1, gu, gv = mp.expm1(-th), mp.expm1(-th * u), mp.expm1(-th * v)
        c = -th * g1 * mp.exp(-th * (u + v)) / (g1 + gu * gv) ** 2
    else:  # joe
        a, b = (1 - u) ** th, (1 - v) ** th
        t = a + b - a * b
        c = ((1 - u) * (1 - v)) ** (th - 1) * t ** (1 / th - 2) * (th - 1 + t)
    return mp.log(c)


@pytest.mark.parametrize("kind", [k for k in PAIR_KINDS if k != "indep"])
def test_pair_log_density_matches_mpmath(kind):
    # theta across the whole search box, both ends included (an even count
    # skips frank's theta = 0); points within 1e-12 of either end
    mp = pytest.importorskip("mpmath")
    pts = np.array([1e-12, 1e-7, 1e-3, 0.3, 0.5, 0.7, 1 - 1e-3, 1 - 1e-7, 1 - 1e-12])
    u, v = (a.ravel() for a in np.meshgrid(pts, pts))
    lo, hi, _ = PAIR_BOXES[kind]
    with mp.workdps(40):
        for th in np.linspace(lo, hi, 8):
            got = pair_log_density(PairFamily(kind, th), u, v)
            for g, a, b in zip(got, u, v):
                want = _mp_pair_log_density(mp, kind, mp.mpf(th), mp.mpf(a), mp.mpf(b))
                err = abs(g - want) / max(1.0, abs(want))
                assert err <= 1e-8, (th, a, b, float(g), float(want))


@pytest.mark.parametrize("th", [1.5, 2.0, 6.0, 30.0])
def test_joe_h_inv_keeps_small_targets_and_complements(th):
    # the bisection runs in the logit of u on the smaller side of w, so a
    # small target and a small complement both keep their digits down to
    # what the double u can hold: within 1e-9 relative, or no farther off
    # than the better of u's two neighbouring doubles
    mp = pytest.importorskip("mpmath")
    fam = PairFamily("joe", th)
    with mp.workdps(50):
        t = mp.mpf(th)
        for v in (0.05, 0.5, 0.95):
            for w in (1e-10, 1e-7, 1e-4, 0.3, 0.7, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8,
                      1.0 - 1e-10):
                u = float(pair_h_inv(fam, w, v))
                scale = min(mp.mpf(w), 1 - mp.mpf(w))

                def err(uu):
                    return abs(_mp_pair_h(mp, "joe", t, mp.mpf(uu), mp.mpf(v)) - w) / scale

                best = min(err(np.nextafter(u, 0.0)), err(np.nextafter(u, 1.0)))
                assert err(u) <= max(1e-9, best), (v, w, float(err(u)))


@pytest.mark.parametrize("kind,th", [("survclayton", 2.0), ("survgumbel", 2.5),
                                     ("survjoe", 3.0)])
def test_survival_pair_h_keeps_a_small_h(kind, th):
    # a small survival h is 1 - h of its base kind near 1: reflecting through
    # 1 - h keeps only its absolute digits, swapping the logs keeps them all
    mp = pytest.importorskip("mpmath")
    fam = PairFamily(kind, th)
    u, v = (a.ravel() for a in np.meshgrid([0.003, 0.01732, 0.0621], [0.9453, 0.9836, 0.999]))
    with mp.workdps(60):
        want = [float(_mp_h(mp, fam, a, b)) for a, b in zip(u, v)]
    np.testing.assert_allclose(pair_h(fam, u, v), want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("th", [35.0, -35.0])
def test_frank_h_inv_keeps_both_ends(th):
    # near either end 1 + gu keeps few digits, and at u near 1 a double keeps
    # 1 - u to about 4e-5 at 2.9e-12, so 1 - h to about 1e-5 of itself
    mp = pytest.importorskip("mpmath")
    fam = PairFamily("frank", th)
    with mp.workdps(60):
        t = mp.mpf(th)
        for w, v in [(1e-10, 1e-9), (1.0 - 1e-10, 1.0 - 1e-9), (1e-10, 1.0 - 1e-9),
                     (1.0 - 1e-10, 1e-9), (0.3, 0.7), (0.7, 0.2)]:
            u = float(pair_h_inv(fam, w, v))
            root = -mp.log1p(w * mp.expm1(-t) / (1 + (1 - mp.mpf(w)) * mp.expm1(-t * v))) / t
            assert abs(u - root) <= 1e-15 * root, (w, v, u)
            h = _mp_pair_h(mp, "frank", t, mp.mpf(u), mp.mpf(v))
            assert abs(h - w) <= 1e-5 * min(w, 1.0 - w), (w, v, float(h))


@pytest.mark.parametrize("kind,th", [("clayton", 4.2), ("clayton", 0.5), ("gumbel", 2.8),
                                     ("gumbel", 1.2), ("joe", 4.9), ("joe", 1.5),
                                     ("frank", 8.0), ("frank", -8.0)])
def test_log_pair_h_keeps_both_ends(kind, th):
    # u = 1 - 1e-10 keeps only 6 digits of 1 - u as a double, so 1 - h comes
    # out of pair_h no better; from log pairs it keeps them all
    mp = pytest.importorskip("mpmath")
    fam = PairFamily(kind, th)
    with mp.workdps(60):
        for eps in (1e-3, 1e-7, 1e-10, 3e-12):
            for u in (eps, 1.0 - eps):
                for v in (0.02, 0.5, 1.0 - 1e-9):
                    h = _mp_pair_h(mp, kind, mp.mpf(th), mp.mpf(u), mp.mpf(v))
                    got = call_record(fam, "h", _log_pair(u), _log_pair(v))
                    _assert_log_pair_near(got, h, mp, (u, v))


@pytest.mark.parametrize("kind,th", [(k, t) for k, t in tail_cases() if k != "hr"])
def test_tail_h_log_pair_keeps_both_ends(kind, th):
    mp = pytest.importorskip("mpmath")
    fam = TailFamily(kind, th)
    with mp.workdps(60):
        for ratio in (1e-6, 1e-3, 0.2, 1.0, 5.0, 1e3, 1e6):
            x, y = 1.7 * ratio, 1.7
            h = _mp_tail_h(mp, kind, mp.mpf(th), mp.mpf(x), mp.mpf(y))
            _assert_log_pair_near(call_record(fam, "h", x, y), h, mp, ratio)


def test_score_log_pair_conversions_keep_both_ends():
    z = np.array([-7.0, -5.0, -1.0, -1e-3, 0.0, 0.5, 2.0, 5.0, 7.0])
    lu, lub = score_to_log_pair(z)
    np.testing.assert_allclose(lu, log_ndtr(z), rtol=1e-14)
    np.testing.assert_allclose(lub, log_ndtr(-z), rtol=1e-14)
    np.testing.assert_allclose(log_pair_to_score((lu, lub)), z, rtol=1e-12, atol=1e-15)
    # beyond the clamp, as clamp_score
    lu, lub = score_to_log_pair([-40.0, 40.0])
    np.testing.assert_allclose(log_pair_to_score((lu, lub)), [Z_LO, -Z_LO], rtol=1e-14)
