#!/usr/bin/env python3
"""Time the inverse kernels, tail_h_inv and pair_h_inv, per family kind.

For each kind, theta runs over a grid of POINTS values spanning its
estimation box (both ends included, evenly spaced on the box's search scale),
or over the values given with --thetas that lie in the box. Each (kind, theta)
is timed on the same ROWS inputs drawn at seed SEED: w uniform on (0, 1), and
y = exp(N(0, 1)) for a tail kind or v uniform for a pair kind. The output is
one JSON object on standard output: per kind and theta, the best and median
wall time of REPEATS calls in milliseconds, and the best in nanoseconds per
row.

    PYTHONPATH=src python3 scripts/kernel_timing.py > after.json
    PYTHONPATH=src python3 scripts/kernel_timing.py --kinds dirichlet --thetas 0.5 2

Only the public kernels are called, so the script also times older checkouts:
run it from this tree with PYTHONPATH set to the other checkout's src/.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import time

import numpy as np
import scipy

from xvine.families import (
    PAIR_BOXES,
    PAIR_KINDS,
    TAIL_BOXES,
    TAIL_KINDS,
    PairFamily,
    TailFamily,
    pair_h_inv,
    tail_h_inv,
)

ROWS = 100_000
REPEATS = 5
SEED = 1
POINTS = 9

#: Maps from a box's search scale to theta and back, by the box's transform name.
SCALES = {
    "identity": (lambda x: x, lambda s: s),
    "log": (math.log, math.exp),
    "logm1": (lambda x: math.log(x - 1.0), lambda s: math.exp(s) + 1.0),
    "atanh": (math.atanh, math.tanh),
}


def box_grid(box) -> list[float]:
    lo, hi, scale = box
    to, back = SCALES[scale]
    grid = [lo, *(back(s) for s in np.linspace(to(lo), to(hi), POINTS)[1:-1]), hi]
    return [th for th in grid if th != 0.0]  # frank excludes theta = 0


def time_calls(call) -> list[float]:
    call()  # first call outside the timing: lazy imports, caches
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        out.append(time.perf_counter() - t0)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--kinds", nargs="*", help="family kinds to time (default: all)")
    p.add_argument("--thetas", nargs="*", type=float,
                   help="theta values in place of the box grid (those outside a box are skipped)")
    args = p.parse_args(argv)

    rng = np.random.default_rng(SEED)
    w = rng.uniform(size=ROWS)
    y = np.exp(rng.normal(size=ROWS))
    v = rng.uniform(size=ROWS)

    plans = [("tail_h_inv", k, TAIL_BOXES[k]) for k in TAIL_KINDS]
    plans += [("pair_h_inv", k, PAIR_BOXES.get(k)) for k in PAIR_KINDS]
    results = []
    for kernel, kind, box in plans:
        if args.kinds and kind not in args.kinds:
            continue
        if box is None:  # indep: no parameter
            thetas = [None]
        elif args.thetas:
            thetas = [th for th in args.thetas if box[0] <= th <= box[1]]
        else:
            thetas = box_grid(box)
        for th in thetas:
            if kernel == "tail_h_inv":
                fam = TailFamily(kind, th)
                def call(fam=fam):
                    return tail_h_inv(fam, w, y)
            else:
                fam = PairFamily(kind, th)
                def call(fam=fam):
                    return pair_h_inv(fam, w, v)
            ts = time_calls(call)
            results.append({"kernel": kernel, "kind": kind, "theta": th,
                            "best_ms": round(min(ts) * 1e3, 3),
                            "median_ms": round(statistics.median(ts) * 1e3, 3),
                            "best_ns_per_row": round(min(ts) / ROWS * 1e9, 1)})
    print(json.dumps({"rows": ROWS, "repeats": REPEATS, "seed": SEED,
                      "python": platform.python_version(), "numpy": np.__version__,
                      "scipy": scipy.__version__, "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
