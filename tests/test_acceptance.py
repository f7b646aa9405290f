"""Release gate: twelve end-to-end checks, one printed PASS/FAIL line each.

Each test exercises a headline guarantee of the package at its stated
tolerance: closed-form dependence coefficients, structural identities,
density validity, sampler correctness, and statistical recovery at desk
scale.  Replication studies are shared across tests through module-scoped
fixtures so the whole gate stays fast.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import kstest

import oracles as oc
from xvine.estimate import (
    FitOptions,
    empirical_chi,
    fit_pipeline,
    from_inverted_pareto,
)
from xvine.families import (
    PairFamily,
    TailFamily,
    pair_tau,
    tail_chi,
    tail_density,
)
from xvine.model import XVineSpec, conditional_cdf, density
from xvine.reference import (
    chain_vine,
    cvine,
    five_variable_spec,
    hr_partial_rho,
    hr_vine_spec,
    logistic_vine_spec,
    spec_families,
    truncated_cvine_study_spec,
)
from xvine.simulate import sample_conditional, sample_inverted_pareto
from xvine.vines import VineSequence, from_structure_matrix, random_vine, sampling_order


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num:02d} — {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def bench():
    return five_variable_spec()


@pytest.fixture(scope="module")
def study(bench):
    """Fifty replications at (n, k) = (4000, 200): pinned-family and free-selection fits."""
    fams = spec_families(bench)
    pinned, free = [], []
    for rep in range(50):
        z, _ = sample_inverted_pareto(bench, 4000, seed=1000 + rep)
        y = 1.0 / z
        pinned.append(fit_pipeline(y, 200, options=FitOptions(
            structure=bench.vine, tail_families=fams, pair_families=fams)))
        free.append(fit_pipeline(y, 200, options=FitOptions(structure=bench.vine)))
    return pinned, free


@pytest.fixture(scope="module")
def truncation_study():
    """Twenty replications of mBIC truncation selection on a level-4 ten-variable model."""
    spec = truncated_cvine_study_spec(d=10, q=4, seed=20)
    full = cvine(10)
    q_stars = []
    for rep in range(20):
        z, _ = sample_inverted_pareto(spec, 1000, seed=3000 + rep)
        report = fit_pipeline(z, options=FitOptions(
            input_kind="inverted-pareto", structure=full, truncation="mbic"))
        q_stars.append(report.q_star)
    return q_stars


def edge_record(report, a, b, cond=()):
    return next(r for r in report.edges
                if (r["a"], r["b"], tuple(r["cond"])) == (a, b, tuple(cond)))


# ---------------------------------------------------------------------------

def test_c01_pairwise_chi_closed_forms():
    cases = [
        (TailFamily("hr", 1.5), 0.54),
        (TailFamily("neglogistic", 2.0), 0.71),
        (TailFamily("logistic", 2.5), 0.68),
        (TailFamily("dirichlet", 2.0), 0.62),
    ]
    devs = [abs(tail_chi(fam) - want) for fam, want in cases]
    check(1, "pairwise chi closed forms", max(devs) <= 0.005 + 1e-9,
          f"max dev {max(devs):.4f}")


def test_c02_pair_copula_tau_maps():
    cases = [
        (PairFamily("clayton", 2.0), 0.50),
        (PairFamily("gumbel", 2.5), 0.60),
        (PairFamily("gaussian", 0.7), 0.49),
    ]
    devs = [abs(pair_tau(fam) - want) for fam, want in cases]
    check(2, "Kendall tau maps", max(devs) <= 0.005, f"max dev {max(devs):.4f}")


def test_c03_telescoping_identity():
    from conftest import random_admissible_gamma

    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(100):
        d = 3 + i % 5
        vine = random_vine(d, rng)
        gamma = random_admissible_gamma(vine, rng)
        want = gamma[frozenset(vine.nodes)]
        got = vine.telescoping_product(gamma)
        worst = max(worst, abs(got - want) / abs(want))
    check(3, "telescoping edge product", worst <= 1e-10, f"max rel err {worst:.2e}")


def test_c04_structure_matrix_encodings(bench):
    ok = True
    for lead, want in oc.REFERENCE_MATRICES.items():
        sm = bench.vine.to_structure_matrix(diagonal=oc.REFERENCE_ORDERS[lead])
        ok = ok and sm.matrix == want

    def edge_keys(vine):
        return {(e.a, e.b, tuple(sorted(e.cond)))
                for lvl in range(1, vine.q + 1) for e in vine.level_edges(lvl)}

    rng = np.random.default_rng(404)
    for i in range(100):
        vine = random_vine(3 + i % 5, rng)
        again = from_structure_matrix(vine.to_structure_matrix())
        ok = ok and edge_keys(again) == edge_keys(vine)
    check(4, "structure-matrix encode/decode", ok)


def path3(a: int, m: int, c: int) -> VineSequence:
    e1, e2 = frozenset({a, m}), frozenset({m, c})
    return VineSequence([[e1, e2], [frozenset({e1, e2})]], d=3)


def test_c05_density_homogeneity_and_margins():
    tails = [("hr", 1.2), ("logistic", 2.2), ("neglogistic", 1.5),
             ("dirichlet", 2.4), ("hr", 3.0), ("logistic", 4.0),
             ("neglogistic", 3.2), ("dirichlet", 0.9), ("hr", 0.6),
             ("dirichlet", 5.0)]
    pair_fams = [("gaussian", 0.55), ("clayton", 1.7), ("survgumbel", 2.2),
                 ("frank", 4.0), ("joe", 1.8)]
    paths = [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1)]
    rng = np.random.default_rng(505)
    worst_hom, worst_margin = 0.0, 0.0
    for i in range(5):
        vine = path3(*paths[i])
        e1, e2 = vine.level_edges(1)
        top = next(iter(vine.level_edges(2)))
        spec = XVineSpec(
            vine,
            {e1: TailFamily(*tails[2 * i]), e2: TailFamily(*tails[2 * i + 1])},
            {top: PairFamily(*pair_fams[i])},
        )
        z = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(40, 3)))
        base = density(spec, z)
        for t in (0.25, 3.7):
            scaled = density(spec, t * z)
            worst_hom = max(worst_hom, float(
                np.max(np.abs(scaled * t**2 - base) / base)))
        for j in (1, 2, 3):
            for x in (0.6, 1.7):
                mass = oc.margin_mass(lambda p: density(spec, p), 3, {j: x})
                worst_margin = max(worst_margin, abs(mass - 1.0))
    ok = worst_hom <= 1e-10 and worst_margin <= 1e-3
    check(5, "density homogeneity and unit margins", ok,
          f"hom {worst_hom:.2e}, margin {worst_margin:.2e}")


def extraction_grid(spec, us, x2: float) -> np.ndarray:
    """Numerically extract the copula density of (1, 3) given 2 on a grid."""
    f12 = spec.tail[spec.vine.find_edge((1, 2))]
    f23 = spec.tail[spec.vine.find_edge((2, 3))]
    r12 = lambda x, y: tail_density(f12, x, y)
    r23 = lambda x, y: tail_density(f23, x, y)
    xu = np.array([oc.invert_cond_biv(r12, u, x2) for u in us])
    xv = np.array([oc.invert_cond_biv(r23, v, x2) for v in us])
    pts = np.array([(a, x2, b) for a in xu for b in xv])
    num = density(spec, pts)
    den = np.outer(r12(xu, np.full_like(xu, x2)),
                   r23(np.full_like(xv, x2), xv)).ravel()
    return (num / den).reshape(len(us), len(us))


def test_c06_parametric_family_closure():
    us = (np.arange(1, 21) - 0.5) / 20
    G = np.array([[0.0, 1.4, 1.6], [1.4, 0.0, 1.2], [1.6, 1.2, 0.0]])
    got = extraction_grid(hr_vine_spec(chain_vine(3), G), us, x2=1.0)
    rho = hr_partial_rho(G, 1, 3, [2])
    want = np.array([[oc.gaussian_copula_density(u, v, rho) for v in us] for u in us])
    hr_err = float(np.abs(got - want).max())

    theta = 2.0
    got = extraction_grid(logistic_vine_spec(chain_vine(3), theta), us, x2=1.0)
    want = np.array([[oc.survival_clayton_copula_density(u, v, theta / (theta - 1.0))
                      for v in us] for u in us])
    lg_err = float(np.abs(got - want).max())
    ok = hr_err <= 1e-4 and lg_err <= 1e-4
    check(6, "implied conditional copulas close over the catalogue", ok,
          f"HR->Gaussian {hr_err:.2e}, logistic->survival-Clayton {lg_err:.2e}")


def test_c07_sampler_battery(bench):
    # conditioned column is uniform
    pvals = []
    for j in (1, 2, 3, 4, 5):
        z = sample_conditional(bench, j, 10_000, seed=700 + j)
        pvals.append(kstest(z[:, j - 1], "uniform").pvalue)
    ks_ok = min(pvals) > 0.01

    # rejection acceptance rate at d = 2 equals slab mass over dimension
    spec2 = XVineSpec(VineSequence([[(1, 2)]], d=2), {(1, 2): TailFamily("hr", 1.5)})
    _, stats = sample_inverted_pareto(spec2, 20_000, seed=61)
    chi = oc.chi_hr(1.5)
    want = (2.0 - chi) / 2.0
    se = np.sqrt(want * (1.0 - want) / stats.proposals)
    rate_ok = abs(stats.acceptance_rate - want) <= 2.0 * se

    # both samplers agree on pairwise chi
    zc = sample_conditional(bench, 2, 10_000, seed=71)
    chi1 = float((zc[:, 0] < 1.0).mean())
    zr, _ = sample_inverted_pareto(bench, 10_000, seed=72)
    ps = from_inverted_pareto(zr)
    chi2 = empirical_chi(ps, (1, 2))
    se1 = np.sqrt(chi1 * (1 - chi1) / 10_000)
    se2 = np.sqrt(chi2 * (1 - chi2) / ps.k)
    agree_ok = abs(chi1 - chi2) <= 3.0 * float(np.hypot(se1, se2))

    check(7, "sampler battery", ks_ok and rate_ok and agree_ok,
          f"min KS p {min(pvals):.3f}, rate dev {abs(stats.acceptance_rate - want) / se:.2f} SE, "
          f"chi gap {abs(chi1 - chi2):.4f}")


def test_c08_parameter_recovery(bench, study):
    pinned, _ = study
    worst_med, worst_iqr = 0.0, 0.0
    for lvl in range(1, 5):
        for e in bench.vine.level_edges(lvl):
            if lvl == 1:
                truth = tail_chi(bench.tail[e])
                to_stat = lambda rec: tail_chi(TailFamily(rec["family"], rec["theta"]))
            else:
                truth = pair_tau(bench.pairs[e])
                to_stat = lambda rec: pair_tau(PairFamily(rec["family"], rec["theta"]))
            vals = np.array([to_stat(edge_record(rp, e.a, e.b, sorted(e.cond)))
                             for rp in pinned])
            worst_med = max(worst_med, abs(float(np.median(vals)) - truth))
            worst_iqr = max(worst_iqr, float(np.subtract(*np.percentile(vals, [75, 25]))))
    ok = worst_med <= 0.05 and worst_iqr <= 0.15
    check(8, "chi/tau recovery at (n, k) = (4000, 200)", ok,
          f"max |median - truth| {worst_med:.4f}, max IQR {worst_iqr:.4f}")


def test_c09_family_selection_rates(study):
    _, free = study
    sel12 = [edge_record(rp, 1, 2) for rp in free]
    hr_rate = float(np.mean([r["family"] == "hr" for r in sel12]))
    top = [edge_record(rp, 1, 5, (2, 3, 4)) for rp in free]
    true_rate = float(np.mean([r["family"] == "gaussian" for r in top]))
    indep_rate = float(np.mean([r["family"] == "indep" for r in top]))
    ok = hr_rate >= 0.85 and true_rate < 0.30 and indep_rate >= 0.40
    check(9, "family selection easy vs deep edges", ok,
          f"(1,2) HR {hr_rate:.0%}, top true {true_rate:.0%}, top indep {indep_rate:.0%}")


def test_c10_effective_sample_sizes(study):
    pinned, _ = study
    tree2_exact = all(rec["n_eff"] == 200
                      for rp in pinned for rec in rp.edges if rec["level"] == 2)
    med = {lvl: float(np.median([rec["n_eff"] for rp in pinned
                                 for rec in rp.edges if rec["level"] == lvl]))
           for lvl in (1, 2, 3, 4)}
    monotone = med[1] >= med[2] >= med[3] >= med[4]
    check(10, "effective sample sizes per tree", tree2_exact and monotone,
          f"medians {med[1]:.0f}/{med[2]:.0f}/{med[3]:.0f}/{med[4]:.0f}")


def test_c11_mbic_truncation_selection(truncation_study):
    hits = sum(q in (3, 4, 5) for q in truncation_study) / len(truncation_study)
    counts = {q: truncation_study.count(q) for q in sorted(set(truncation_study))}
    check(11, "mBIC truncation near the true level", hits >= 0.80,
          f"q* in {{3,4,5}} {hits:.0%}, counts {counts}")


def test_c12_worked_example_traces(bench):
    orders = all(
        sampling_order(bench.vine, j).sigma == oc.REFERENCE_ORDERS[j]
        and tuple(e.key for e in sampling_order(bench.vine, j).edges) == oc.REFERENCE_CHAINS[j]
        for j in (1, 2, 3, 4, 5)
    )

    trace: list = []
    conditional_cdf(bench, 1, (2, 3, 4), 0.8, [1.0, 1.0, 1.0], _trace=trace)
    recursion = trace == [
        ("tail_h", (1, 2, ()), 1),
        ("tail_h", (2, 3, ()), 3),
        ("pair_h", (1, 3, (2,)), 1),
        ("tail_h", (2, 4, ()), 4),
        ("pair_h", (3, 4, (2,)), 4),
        ("pair_h", (1, 4, (2, 3)), 1),
    ]

    trace = []
    sample_conditional(bench, 4, 1, seed=71, _trace=trace)
    want = [
        ("tail_h", (4, 5, ()), 5),
        ("pair_h_inv", (2, 5, (4,)), 2),
        ("tail_h_inv", (2, 4, ()), 2),
    ]
    idx = [trace.index(t) for t in want]
    quantile = idx == sorted(idx) and idx[2] - idx[0] == 2
    check(12, "worked-example recursion and sampling-order traces",
          orders and recursion and quantile)
