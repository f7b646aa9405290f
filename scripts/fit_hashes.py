#!/usr/bin/env python3
"""Fingerprints of fitted reports, for comparing the fitter between commits.

For each `fit_pipeline` report prints two lines: the selected family and
theta (rounded to 1e-6) of every edge with the report's `q_star`, then the
sha256 of `json.dumps(report.to_json())`. The first line shows whether a
change moved a selection or a fitted parameter; the second whether it moved
anything at all, the mBIC curve and every log-likelihood included. The fits
cover:

- Student-t data built as the benchmark's fit-10d inputs (AR(1) correlation
  0.8, 4 degrees of freedom, 20 000 rows of 10 variables, k = 200; seeds
  1-10, four data sets each), with learned structure and mBIC truncation;
- samples of `five_variable_spec` refitted on its own structure, families
  chosen over the full catalogues (seeds 1-10, 4 000 rows, k = 200);
- paths those inputs miss, each on seeds 1-5: the student-t data on a given
  C-vine structure (so Kendall's tau is computed at selection, not carried
  over from the structure search); the five-variable samples with every
  family pinned to the model's, and fitted as inverted-Pareto input with
  mBIC truncation; the student-t data rounded to one decimal, whose ties
  the rank transform must count; and the student-t data with tau_min = 0.2.

`fits()` lists them; scripts/mbic_agreement.py reads its mBIC fits. Run it
on two checkouts and compare with one `diff`:

    PYTHONPATH=src python3 scripts/fit_hashes.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/fit_hashes.py) > before.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from xvine.estimate import FitOptions, FitReport, fit_pipeline
from xvine.reference import cvine, five_variable_spec, spec_families
from xvine.simulate import sample_inverted_pareto

T_D, T_N, T_K, T_RHO, T_NU, T_SETS = 10, 20_000, 200, 0.8, 4.0, 4
FIVE_N, FIVE_K = 4000, 200
SEEDS = range(1, 11)
EXTRA_SEEDS = range(1, 6)


def student_t_sets(seed: int) -> list[np.ndarray]:
    """The fit-10d inputs of one benchmark seed."""
    rng = np.random.default_rng([seed, 1])
    idx = np.arange(T_D)
    chol = np.linalg.cholesky(T_RHO ** np.abs(idx[:, None] - idx[None, :]))
    out = []
    for _ in range(T_SETS):
        g = rng.standard_normal((T_N, T_D)) @ chol.T
        w = rng.chisquare(T_NU, size=T_N) / T_NU
        out.append(g / np.sqrt(w)[:, None])
    return out


def fingerprint(label: str, report: FitReport) -> str:
    edges = " ".join(
        f"{r['family']}" + ("" if r["theta"] is None else f"={r['theta']:.6f}")
        for r in report.edges)
    digest = hashlib.sha256(json.dumps(report.to_json()).encode()).hexdigest()
    return f"{label} q_star={report.q_star} {edges}\n{label} sha256={digest}"


def fits():
    """(label, data, k, options) of every fit, in print order."""
    opts = FitOptions(truncation="mbic", threads=1)
    for seed in SEEDS:
        for i, data in enumerate(student_t_sets(seed)):
            yield f"student_t seed={seed} set={i}", data, T_K, opts
    bench = five_variable_spec()
    samples = {seed: sample_inverted_pareto(bench, FIVE_N, seed=seed)[0] for seed in SEEDS}
    opts = FitOptions(structure=bench.vine, truncation="mbic", threads=1)
    for seed in SEEDS:
        yield f"five_variable seed={seed}", 1.0 / samples[seed], FIVE_K, opts

    fams = spec_families(bench)
    extra = {
        "given_structure": (FitOptions(structure=cvine(T_D), truncation="mbic", threads=1),
                            lambda x: x),
        "ties": (FitOptions(truncation="mbic", threads=1), lambda x: np.round(x, 1)),
        "tau_min": (FitOptions(truncation="mbic", tau_min=0.2, threads=1), lambda x: x),
    }
    for seed in EXTRA_SEEDS:
        data = student_t_sets(seed)[0]
        for label, (opts, prep) in extra.items():
            yield f"student_t_{label} seed={seed}", prep(data), T_K, opts
        z = samples[seed]
        yield (f"five_variable_pinned seed={seed}", 1.0 / z, FIVE_K,
               FitOptions(structure=bench.vine, families=fams, threads=1))
        yield (f"five_variable_inverted_pareto seed={seed}", z, None,
               FitOptions(input_kind="inverted-pareto", truncation="mbic", threads=1))


def main() -> int:
    for label, data, k, opts in fits():
        print(fingerprint(label, fit_pipeline(data, k, opts)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
