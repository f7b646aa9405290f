#!/usr/bin/env python3
"""The laws of the inverted-Pareto samples, for comparing two checkouts.

For each `inverted_pareto` call of scripts/sampler_hashes.py (its `calls()`)
prints the acceptance rate, the rows accepted per row asked for, the blocks
and the block rounds the call took, the inverse-kernel rows and the uniforms
drawn per accepted row, the worst z-score of P(Z_j < 1) * d * rate = 1 over the
coordinates j, and the z-score of each first-tree edge's empirical chi
against `tail_chi`. A change to the rejection rule moves every row, so rows
cannot be compared by position (scripts/sampler_moves.py); the laws they
follow can.

    PYTHONPATH=src python3 scripts/sampler_laws.py            # this checkout
    python3 scripts/sampler_laws.py ../parent .               # two, line by line
    python3 scripts/sampler_laws.py --quick ../parent .       # without the 200 000-row calls

With two checkouts each runs in a child process that imports its own `xvine`
and this checkout's list of calls, one after the other, and every line shows
the two figures as before -> after.
"""
from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
from pathlib import Path


def laws(quick: bool) -> None:
    """Print one line of figures per inverted-Pareto call."""
    from sampler_hashes import calls

    from xvine import model, simulate
    from xvine.families import tail_chi
    from xvine.simulate import sample_inverted_pareto

    inverse_rows: list[int] = []
    uniforms: list[int] = []
    rounds: list[int] = []
    quantile = model._Evaluator.quantile
    stream = simulate.rng_stream

    def counting(self, e, node, w):
        # every call inverts one edge's kernel: tail_h_inv on tree 1, pair_h_inv deeper
        inverse_rows.append(len(w[0] if isinstance(w, tuple) else w))
        return quantile(self, e, node, w)

    class CountingStream:
        """A generator that counts the uniforms it draws."""

        def __init__(self, gen):
            self.gen = gen

        def __getattr__(self, name):
            return getattr(self.gen, name)

        def random(self, size):
            out = self.gen.random(size)
            uniforms.append(out.size)
            return out

        def integers(self, *args, **kwargs):
            # each block round draws its conditioning variables once
            rounds.append(1)
            return self.gen.integers(*args, **kwargs)

    model._Evaluator.quantile = counting
    simulate.rng_stream = lambda seed, *path: CountingStream(stream(seed, *path))
    for label, call in calls(quick):
        if not label.startswith("inverted_pareto"):
            continue
        spec, n, seed, threads = call.args
        simulate._rejection_plans(spec)  # whatever a spec sets up once is not counted
        inverse_rows.clear()
        uniforms.clear()
        rounds.clear()
        z, st = sample_inverted_pareto(spec, n, seed, threads=threads)
        rate = st.acceptance_rate
        below = z < 1.0
        worst = 0.0
        for j in range(spec.d):
            p = float(below[:, j].mean())
            se = math.sqrt((1.0 - p) / (n * p) + (1.0 - rate) / (st.proposals * rate))
            worst = max(worst, (p * spec.d * rate - 1.0) / se, key=abs)
        pos = {v: i for i, v in enumerate(spec.vine.nodes)}
        chis = []
        for e in spec.vine.trees[0]:
            base = below[:, pos[e.a]]
            m = int(base.sum())
            want = tail_chi(spec.tail[e])
            got = float((base & below[:, pos[e.b]]).sum()) / m
            se = math.sqrt(want * (1.0 - want) / m) if 0.0 < want < 1.0 else math.inf
            chis.append(f"({e.a},{e.b})={(got - want) / se:+.2f}")
        per_row = sum(inverse_rows) / st.accepted
        print(f"{label} rate={rate:.4f} accepted/asked={st.accepted / n:.3f}"
              f" blocks={-(-n // simulate.BLOCK)} rounds={len(rounds)}"
              f" inverse_rows/accepted={per_row:.2f}"
              f" uniforms/accepted={sum(uniforms) / st.accepted:.2f}"
              f" worst_margin_z={worst:+.2f} chi_z=" + ",".join(chis), flush=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before", nargs="?", help="root of the earlier checkout")
    p.add_argument("after", nargs="?", help="root of the later checkout")
    p.add_argument("--quick", action="store_true", help="skip the 200 000-row calls")
    args = p.parse_args(argv)
    if args.before is None and args.after is None:
        laws(args.quick)
        return 0
    if args.before is None or args.after is None:
        p.error("need both checkouts, or none")
    outs = []
    for root in (args.before, args.after):
        env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
        cmd = [sys.executable, __file__, *(["--quick"] if args.quick else [])]
        outs.append(subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                   check=True).stdout.splitlines())
    for before, after in zip(*outs):
        label, figs_before = before.split(" rate=", 1)
        label_after, figs_after = after.split(" rate=", 1)
        if label != label_after:
            raise SystemExit(f"the checkouts disagree on the calls: {label} / {label_after}")
        print(label, " ".join(f"{a} -> {b.split('=', 1)[1]}" if a != b else a
                              for a, b in zip(("rate=" + figs_before).split(),
                                              ("rate=" + figs_after).split())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
