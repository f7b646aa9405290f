#!/usr/bin/env python3
"""Parameter-recovery study on the five-variable benchmark.

Simulates the benchmark model, refits it with the true structure and
families pinned, and reports per-edge chi (first tree) or Kendall's tau
(deeper trees) implied by the fitted parameters.  One CSV row per
replication and edge; a median/IQR summary is printed at the end.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from xvine.estimate import FitOptions, fit_pipeline
from xvine.families import PairFamily, TailFamily, pair_tau, tail_chi
from xvine.reference import five_variable_spec, spec_families
from xvine.simulate import sample_inverted_pareto


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--seed", type=int, default=1000)
    p.add_argument("--out", default="estimation_study.csv")
    args = p.parse_args(argv)

    bench = five_variable_spec()
    fams = spec_families(bench)
    opts = FitOptions(structure=bench.vine, families=fams)

    truth = {}
    for lvl in range(1, bench.vine.q + 1):
        for e in bench.vine.level_edges(lvl):
            fam = bench.tail[e] if lvl == 1 else bench.pairs[e]
            stat = tail_chi(fam) if lvl == 1 else pair_tau(fam)
            truth[(e.a, e.b, tuple(sorted(e.cond)))] = stat

    rows = []
    for rep in range(args.reps):
        z, _ = sample_inverted_pareto(bench, args.n, seed=args.seed + rep)
        report = fit_pipeline(1.0 / z, args.k, options=opts)
        for rec in report.edges:
            key = (rec["a"], rec["b"], tuple(rec["cond"]))
            if rec["level"] == 1:
                stat = tail_chi(TailFamily(rec["family"], rec["theta"]))
            else:
                stat = pair_tau(PairFamily(rec["family"], rec["theta"]))
            rows.append({
                "rep": rep,
                "a": rec["a"],
                "b": rec["b"],
                "cond": " ".join(map(str, rec["cond"])),
                "level": rec["level"],
                "family": rec["family"],
                "theta": rec["theta"],
                "stat": stat,
                "truth": truth[key],
                "n_eff": rec["n_eff"],
            })
        if (rep + 1) % 25 == 0:
            print(f"{rep + 1}/{args.reps} replications", file=sys.stderr)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    print(f"wrote {len(rows)} rows to {args.out}\n")
    print(f"{'edge':>16} {'stat':>6} {'truth':>8} {'median':>8} {'IQR':>7} {'n_eff~':>7}")
    for key, tv in truth.items():
        a, b, cond = key
        sel = [r for r in rows if (r["a"], r["b"], tuple(map(int, r["cond"].split()) if r["cond"] else ())) == key]
        vals = np.array([r["stat"] for r in sel])
        iqr = float(np.subtract(*np.percentile(vals, [75, 25])))
        label = f"({a},{b}" + (";" + ",".join(map(str, cond)) if cond else "") + ")"
        kind = "chi" if not cond else "tau"
        med_n = int(np.median([r["n_eff"] for r in sel]))
        print(f"{label:>16} {kind:>6} {tv:8.4f} {np.median(vals):8.4f} {iqr:7.4f} {med_n:7d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
