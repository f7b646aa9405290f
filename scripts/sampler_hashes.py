#!/usr/bin/env python3
"""Fingerprints of the samplers' output, for bit-identity checks between commits.

Prints one line per call: the sha256 of the rows and the RejectionStats of
`sample_inverted_pareto`, the sha256 of `sample_conditional` rows, and the
exact `model_chi` values, over fixed specs, seeds, sizes and thread counts.
The `hr2_overrate` calls set the spec's rate hint above its acceptance, so
their blocks take a later round and its sizing is fingerprinted too.
Run it on two checkouts and compare with one `diff`:

    PYTHONPATH=src python3 scripts/sampler_hashes.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/sampler_hashes.py) > before.txt
    diff before.txt after.txt

`--quick` leaves out the 200 000-row calls (about a minute of the run).
`calls()` lists them; scripts/sampler_moves.py reads the same list.
"""
from __future__ import annotations

import argparse
import hashlib
from functools import partial

import numpy as np

from xvine.families import PairFamily, TailFamily
from xvine.model import XVineSpec, model_chi
from xvine.reference import chain_vine, five_variable_spec, hr_vine_spec, truncated_cvine_study_spec
from xvine.simulate import _rejection_plans, sample_conditional, sample_inverted_pareto

SEEDS = (1, 2, 3, 12345)
THREADS = (1, 2)


def joe4_spec() -> XVineSpec:
    """A 4-d D-vine whose second tree inverts by bisection (joe, survjoe)."""
    vine = chain_vine(4)
    tail = {(1, 2): TailFamily("logistic", 2.0), (2, 3): TailFamily("hr", 1.0),
            (3, 4): TailFamily("neglogistic", 1.5)}
    pairs = {(1, 3, (2,)): PairFamily("joe", 2.0), (2, 4, (3,)): PairFamily("survjoe", 1.5),
             (1, 4, (2, 3)): PairFamily("gaussian", 0.2)}
    return XVineSpec(vine, {vine.find_edge(k): f for k, f in tail.items()},
                     {vine.find_edge(k): f for k, f in pairs.items()})


def hr4_spec() -> XVineSpec:
    """A Huesler-Reiss model on the 4-d D-vine: hr tails, gaussian pairs."""
    g = np.array([[0.0, 1.0, 1.8, 2.4], [1.0, 0.0, 1.1, 1.9],
                  [1.8, 1.1, 0.0, 0.9], [2.4, 1.9, 0.9, 0.0]])
    return hr_vine_spec(chain_vine(4), g)


def hr2_spec() -> XVineSpec:
    """d = 2 and gamma = 0.01: chi near 1, acceptance about 0.52."""
    return XVineSpec(chain_vine(2), {(1, 2): TailFamily("hr", 0.01)})


def hr2_overrate_spec() -> XVineSpec:
    """hr2_spec with its rate hint set to 0.6, above its acceptance of about
    0.52, so round 0 of a block falls short and the block takes a later round."""
    spec = hr2_spec()
    spec._plans[None] = (_rejection_plans(spec)[0], 0.6)
    return spec


def digest(z: np.ndarray) -> str:
    return f"shape={z.shape} sha256={hashlib.sha256(np.ascontiguousarray(z).tobytes()).hexdigest()}"


def calls(quick: bool = False):
    """(label, call) of every fingerprinted call, in print order. call() gives
    the rows (a 1-element array for a model_chi value) and the rest of the
    line: the digest, or the exact value."""
    big = () if quick else (200_000,)
    specs = {"five_variable": (five_variable_spec(), (100, 20_000, *big)),
             "truncated_cvine": (truncated_cvine_study_spec(), (100, 20_000, *big)),
             "joe4": (joe4_spec(), (100, 9_000)),
             "hr4": (hr4_spec(), (100, 9_000)),
             "hr2": (hr2_spec(), (100, 9_000))}

    def inverted_pareto(spec, n, seed, threads):
        z, st = sample_inverted_pareto(spec, n, seed, threads=threads)
        return z, f"{digest(z)} proposals={st.proposals} accepted={st.accepted}"

    def conditional(spec, j, n, seed, threads):
        z = sample_conditional(spec, j, n, seed, threads=threads)
        return z, digest(z)

    def chi(spec, idx, seed):
        val = model_chi(spec, idx, n_mc=20_000, seed=seed)
        return np.array([val]), repr(val)

    for name, (spec, sizes) in specs.items():
        for n in sizes:
            for seed in SEEDS:
                for threads in THREADS:
                    yield (f"inverted_pareto {name} n={n} seed={seed} threads={threads}",
                           partial(inverted_pareto, spec, n, seed, threads))
        for j in (spec.vine.nodes[0], spec.vine.nodes[-1]):
            for n in (100, 9_000):
                for seed in SEEDS[:3]:
                    for threads in THREADS:
                        yield (f"conditional {name} j={j} n={n} seed={seed} threads={threads}",
                               partial(conditional, spec, j, n, seed, threads))
    late = hr2_overrate_spec()
    for seed in SEEDS:
        for threads in THREADS:
            yield (f"inverted_pareto hr2_overrate n=9000 seed={seed} threads={threads}",
                   partial(inverted_pareto, late, 9_000, seed, threads))
    bench = five_variable_spec()
    for idx in ((1, 2), (2, 4, 5)):
        for seed in SEEDS[:3]:
            yield f"model_chi five_variable idx={idx} seed={seed}", partial(chi, bench, idx, seed)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--quick", action="store_true", help="skip the 200 000-row calls")
    args = p.parse_args(argv)
    for label, call in calls(args.quick):
        print(f"{label} {call()[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
