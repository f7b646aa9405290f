"""Each benchmark check passes on the program's output and fails on a wrong one.

Run from the root of a checkout:

    python3 -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import worker  # noqa: E402

XV = worker._Xvine()


def _made(cls, rows=None):
    w = cls(XV, checks)
    w.build()
    if rows is not None:
        w.ROWS = rows
    return w


# ---------------------------------------------------------------------------
# the closed forms themselves: h is the integral of the density


@pytest.mark.parametrize("kind,theta", [("hr", 1.5), ("logistic", 2.5),
                                        ("neglogistic", 2.0), ("dirichlet", 2.0)])
def test_tail_h_integrates_tail_density(kind, theta):
    y = 0.7
    for x in (0.05, 0.9, 6.0):
        mass, _ = integrate.quad(lambda s: math.exp(checks.tail_logpdf(kind, theta, s, y)),
                                 0.0, x, epsabs=1e-12, limit=200)
        assert checks.tail_cdf_given(kind, theta, x, y) == pytest.approx(mass, abs=1e-8)


@pytest.mark.parametrize("kind,theta", [("gaussian", 0.7), ("clayton", 2.0), ("gumbel", 2.5)])
def test_pair_h_integrates_pair_density(kind, theta):
    v = 0.3
    for u in (0.1, 0.5, 0.95):
        mass, _ = integrate.quad(lambda s: math.exp(checks.pair_logpdf(kind, theta, s, v)),
                                 0.0, u, epsabs=1e-12, limit=200)
        assert checks.pair_cdf_given(kind, theta, u, v) == pytest.approx(mass, abs=1e-8)


# ---------------------------------------------------------------------------
# evaluate-5d


@pytest.fixture(scope="module")
def evaluated():
    w = _made(worker.Evaluate5d)
    x = np.exp(1.5 * np.random.default_rng(5).standard_normal((4000, 5)))
    return w, x, w.call(x)


def test_evaluate_checks_pass_on_program_output(evaluated):
    w, x, out = evaluated
    w.check(x, out, np.random.default_rng(0))


def test_density_off_by_constant_factor_fails(evaluated):
    w, x, (ld, cdf) = evaluated
    off = ld + math.log(2.0)
    scaled = w.xv.model.log_density(w.spec, w.SCALE * x) + math.log(2.0)
    checks.check_homogeneity(off, scaled, w.SCALE, 5)  # a constant factor keeps homogeneity
    with pytest.raises(checks.CheckError, match="oracle"):
        checks.check_against_oracle(w.edges(), x, np.arange(0, 4000, 16), off, cdf,
                                    1, (2, 3, 4, 5))


def test_density_not_homogeneous_fails(evaluated):
    w, x, (ld, _) = evaluated
    scaled = w.xv.model.log_density(w.spec, w.SCALE * x)
    with pytest.raises(checks.CheckError, match="homogeneity"):
        checks.check_homogeneity(ld, scaled + 1e-3 * np.log(x[:, 0]), w.SCALE, 5)


def test_wrong_conditional_cdf_fails(evaluated):
    w, x, (ld, cdf) = evaluated
    with pytest.raises(checks.CheckError, match="conditional_cdf"):
        w.check(x, (ld, np.sqrt(cdf)), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# sample-5d


@pytest.fixture(scope="module")
def sampled():
    w = _made(worker.Sample5d, rows=12_000)
    return w, w.call(7)


def test_sample_checks_pass_on_program_output(sampled):
    w, out = sampled
    w.check(7, out, None)
    w.check_threads(7, out)


def test_column_not_uniform_below_one_fails(sampled):
    w, (z, st) = sampled
    bent = z.copy()
    low = bent[:, 2] < 1.0
    bent[low, 2] = bent[low, 2] ** 2
    with pytest.raises(checks.CheckError, match="not uniform"):
        w.check(7, (bent, st), None)


def test_row_off_the_slab_fails(sampled):
    w, (z, st) = sampled
    lifted = z.copy()
    lifted[0] = 1.5
    with pytest.raises(checks.CheckError, match="slab"):
        w.check(7, (lifted, st), None)


def test_wrong_acceptance_count_fails(sampled):
    w, (z, st) = sampled
    wrong = type(st)(proposals=st.proposals, accepted=int(st.accepted * 0.9))
    with pytest.raises(checks.CheckError, match="acceptance"):
        w.check(7, (z, wrong), None)


def test_wrong_tail_dependence_fails(sampled):
    w, (z, st) = sampled
    shuffled = z.copy()
    # permute Z_3 over the rows another coordinate keeps on the slab
    held = np.delete(z, 2, axis=1).min(axis=1) < 1.0
    shuffled[held, 2] = np.random.default_rng(0).permutation(z[held, 2])
    with pytest.raises(checks.CheckError, match="chi on edge"):
        w.check(7, (shuffled, st), None)


def test_thread_count_dependence_fails(sampled):
    _, (z, st) = sampled
    other = z.copy()
    other[-1, -1] = np.nextafter(other[-1, -1], 2.0)
    with pytest.raises(checks.CheckError, match="threads"):
        checks.check_thread_identity(z, (st.proposals, st.accepted),
                                     other, (st.proposals, st.accepted))


# ---------------------------------------------------------------------------
# fit-10d


@pytest.fixture(scope="module")
def fitted():
    w = _made(worker.Fit10d)
    w.inputs_per_round = 1
    data = w.make_inputs(np.random.default_rng(3))[0]
    return w, data, w.call(data)


def _with_edges(report, edges):
    return type(report)(spec=report.spec, edges=tuple(edges), k=report.k, n=report.n,
                        mbic=report.mbic, q_star=report.q_star, errors=report.errors)


def test_fit_checks_pass_on_program_output(fitted):
    w, data, report = fitted
    w.check(data, report, None)


def test_theta_off_its_maximum_fails(fitted):
    w, data, report = fitted
    edges = [dict(r) for r in report.edges]
    first = next(r for r in edges if r["level"] == 1)
    first["theta"] *= 1.01
    with pytest.raises(checks.CheckError, match="half-sample maxima"):
        w.check(data, _with_edges(report, edges), None)


def test_wrong_loglik_fails(fitted):
    w, data, report = fitted
    edges = [dict(r) for r in report.edges]
    next(r for r in edges if r["level"] == 1)["loglik"] += 0.5
    with pytest.raises(checks.CheckError, match="log-likelihood"):
        w.check(data, _with_edges(report, edges), None)


def test_tree_that_is_not_a_maximum_spanning_tree_fails(fitted):
    _, data, report = fitted
    z, exceed = checks.exceedances(data, worker.FIT_K)
    tree = [(r["a"], r["b"]) for r in report.edges if r["level"] == 1]
    e = exceed.astype(float)
    chi = e.T @ e / worker.FIT_K
    # drop one edge and reconnect the two halves by their weakest link
    a, b = tree[0]
    rest = tree[1:]
    side = {a}
    grew = True
    while grew:
        grew = False
        for p, q in rest:
            if (p in side) != (q in side):
                side |= {p, q}
                grew = True
    cut = [(p, q) for p in side for q in range(1, exceed.shape[1] + 1) if q not in side]
    weak = min(cut, key=lambda pq: chi[pq[0] - 1, pq[1] - 1])
    assert chi[weak[0] - 1, weak[1] - 1] < chi[a - 1, b - 1]
    with pytest.raises(checks.CheckError, match="maximum"):
        checks.check_first_tree_mst(rest + [weak], exceed, worker.FIT_K)
    with pytest.raises(checks.CheckError, match="cycle"):
        checks.check_first_tree_mst(rest + [rest[0]], exceed, worker.FIT_K)


def test_fitted_chi_far_from_student_t_fails(fitted):
    w, _, report = fitted
    records = [dict(r, family="hr", theta=20.0) for r in report.edges if r["level"] == 1]
    with pytest.raises(checks.CheckError, match="Student-t"):
        checks.check_fit_chi(records, w.corr, worker.FIT_NU)


def test_q_star_not_the_mbic_argmin_fails(fitted):
    _, _, report = fitted
    curve = list(report.mbic)
    wrong = 1 + (int(np.argmin(curve)) + 1) % len(curve)
    with pytest.raises(checks.CheckError, match="argmin"):
        checks.check_mbic(curve, wrong)
