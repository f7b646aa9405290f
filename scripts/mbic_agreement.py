#!/usr/bin/env python3
"""Where the sequential mBIC stop and the argmin of the whole curve disagree.

`fit_pipeline(truncation="mbic")` grows the vine one tree at a time and
stops at the first tree that does not lower the mBIC curve, so its q_star is
the level before the curve's first rise. This script fits every input twice:
once that way, and once through every tree the structure allows
(`truncation=d - 1`, or the given structure's depth). It then compares the
sequential q_star with 1 + argmin of the whole curve from `mbic_curve`, and
checks that the sequential curve is a prefix of the whole one. Every
disagreement is printed, then one count line per group of inputs:

- the benchmark's fit-10d inputs of seeds 1-10, made by `Fit10d.make_inputs`
  of bench/worker.py, which is imported and not changed;
- the mBIC fits of scripts/fit_hashes.py;
- the model of scripts/truncation_study.py (C-vine on 10 variables, its
  default 20 replications of 1000 rows from seed 3000) at true level
  --q 2, 4 and 6 and --psi0 0.5 and 0.9.

Run it from the root of a checkout (70 s on a 2-core Xeon VM):

    PYTHONPATH=src python3 scripts/mbic_agreement.py
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from xvine.estimate import FitOptions, fit_pipeline, mbic_curve
from xvine.reference import cvine, truncated_cvine_study_spec
from xvine.simulate import sample_inverted_pareto

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]
sys.dont_write_bytecode = True  # import the benchmark's worker without writing into bench/

import fit_hashes  # noqa: E402
import worker  # noqa: E402


def fit10d_fits():
    bench = worker.Fit10d(worker._Xvine(), None)
    bench.build()
    for seed in range(1, 11):
        for i, data in enumerate(bench.make_inputs(np.random.default_rng([seed, 1]))):
            yield f"seed={seed} input={i}", data, worker.FIT_K, bench.options


def fit_hashes_fits():
    for label, data, k, opts in fit_hashes.fits():
        if opts.truncation == "mbic":
            yield label, data, k, opts


def truncation_study_fits():
    for q in (2, 4, 6):
        spec = truncated_cvine_study_spec(d=10, q=q)
        samples = [sample_inverted_pareto(spec, 1000, seed=3000 + rep)[0] for rep in range(20)]
        for psi0 in (0.5, 0.9):
            opts = FitOptions(input_kind="inverted-pareto", structure=cvine(10),
                              truncation="mbic", psi0=psi0, threads=1)
            for rep, z in enumerate(samples):
                yield f"q={q} psi0={psi0} rep={rep}", z, None, opts


def compare(label: str, data, k, opts: FitOptions) -> tuple[bool, int, int]:
    """Print the fit if the two rules disagree; (agree, trees grown, trees in all)."""
    seq = fit_pipeline(data, k, opts)
    depth = data.shape[1] - 1 if opts.structure is None else opts.structure.q
    full = fit_pipeline(data, k, replace(opts, truncation=depth))
    curve = mbic_curve([[r for r in full.edges if r["level"] == lvl]
                        for lvl in range(1, depth + 1)], opts.psi0)
    best = 1 + int(np.argmin(curve))
    prefix = list(seq.mbic) == curve[:len(seq.mbic)]
    agree = seq.q_star == best and prefix
    if not agree:
        print(f"  {label}: sequential q_star={seq.q_star}, argmin q_star={best}"
              + ("" if prefix else ", sequential curve is not a prefix")
              + "; curve " + " ".join(f"{v:.2f}" for v in curve))
    return agree, len(seq.mbic), depth


def main() -> int:
    total = disagreed = 0
    for group, fits in (("fit-10d", fit10d_fits()),
                        ("fit_hashes", fit_hashes_fits()),
                        ("truncation_study", truncation_study_fits())):
        print(f"{group}:")
        results = [compare(*fit) for fit in fits]
        bad = sum(not agree for agree, _, _ in results)
        grown = sum(g for _, g, _ in results)
        whole = sum(w for _, _, w in results)
        print(f"{group}: {len(results)} fits, {bad} disagreements; "
              f"the sequential rule grew {grown} of {whole} trees")
        total += len(results)
        disagreed += bad
    print(f"all: {total} fits, {disagreed} disagreements")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
