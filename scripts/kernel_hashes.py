#!/usr/bin/env python3
"""Fingerprints of the family kernels and the model recursion, for bit-identity
checks between commits.

Prints one line per kernel, kind and theta: the sha256 of the kernel's output
over a fixed grid, or its exact value for a scalar summary. Every public
kernel of `xvine.families` is covered (the u-space h-functions, their
inverses, the densities, `pair_tau`, `tail_chi` and `tau_inverse`) for every
kind, with theta at both ends of its estimation box and at 0.3, 0.5 and 0.7
of the way along its search scale. The grids put u and v within 1e-12 of 0
and 1, and x / y from 1e-12 to 1e12; the score / log-pair conversions run
on scores beyond the clamp. Then come the error classes each door raises for
a nonpositive or infinite x or y, a u outside [0, 1] and an out-of-domain
theta, and the sha256 of `log_density`, `conditional_cdf` and
`conditional_quantile` on `five_variable_spec` and `truncated_cvine_study_spec`
at log-normal points (sigma 1.5, seeds 1-3), each with its `_trace` event
list. Run it on two checkouts and compare with
one `diff`:

    PYTHONPATH=src python3 scripts/kernel_hashes.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 scripts/kernel_hashes.py) > before.txt
    diff before.txt after.txt

Only the public kernels are called, so the script also runs on older
checkouts. It takes a few seconds.
"""
from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

from xvine import families as fm
from xvine.errors import XVineError
from xvine.model import conditional_cdf, conditional_quantile, log_density
from xvine.reference import five_variable_spec, truncated_cvine_study_spec

#: Positions along a box's search scale at which theta is taken.
FRACTIONS = (0.0, 0.3, 0.5, 0.7, 1.0)
#: Maps from a box's search scale to theta and back, by the transform name.
SCALES = {
    "identity": (lambda x: x, lambda s: s),
    "log": (math.log, math.exp),
    "logm1": (lambda x: math.log(x - 1.0), lambda s: math.exp(s) + 1.0),
    "atanh": (math.atanh, math.tanh),
}
EPS = fm.EPS_UNIT
#: u and v out to the pair clip and beyond it, 0 and 1 included.
U = np.array([0.0, 1e-300, 1e-13, EPS, np.nextafter(EPS, 1.0), 1e-9, 1e-6, 0.3, 0.5,
              0.97, 1.0 - 1e-6, 1.0 - 1e-9, np.nextafter(1.0 - EPS, 0.0), 1.0 - EPS,
              1.0 - 1e-13, 1.0])
#: Normal scores beyond the clamp at both ends, infinities included.
Z = np.array([-np.inf, -40.0, fm.Z_LO - 1e-9, fm.Z_LO, -7.0, -1.0, 0.0, 0.5, 3.0, 7.0,
              fm.Z_HI, fm.Z_HI + 1e-9, 40.0, np.inf])
#: Tail points: y at three scales, x / y from 1e-12 to 1e12.
Y = np.array([1e-3, 1.0, 7.0])
RATIO = 10.0 ** np.arange(-12.0, 12.5, 0.5)
#: Values outside the closed unit interval, NaN included.
BAD_U = (-0.1, 1.5, float("nan"))
SIGMA = 1.5
SEEDS = (1, 2, 3)
ROWS = 2000


def digest(out) -> str:
    parts = out if isinstance(out, tuple) else (out,)
    h = hashlib.sha256()
    for a in parts:
        a = np.asarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def thetas(box) -> list[float]:
    lo, hi, scale = box
    to, back = SCALES[scale]
    out = []
    for f in FRACTIONS:
        th = lo if f == 0.0 else hi if f == 1.0 else back(to(lo) + f * (to(hi) - to(lo)))
        if th != 0.0:  # frank excludes theta = 0
            out.append(th)
    return out


def error_class(fn, *args) -> str:
    try:
        fn(*args)
    except XVineError as exc:
        return type(exc).__name__
    except Exception as exc:  # noqa: BLE001 - a non-typed error is a finding too
        return f"untyped:{type(exc).__name__}"
    return "none"


def tail_lines() -> list[str]:
    xs, ys = (a.ravel() for a in np.meshgrid(RATIO, Y))
    xs = xs * ys
    us, yu = (a.ravel() for a in np.meshgrid(U, Y))
    out = []
    for kind in fm.TAIL_KINDS:
        for th in thetas(fm.TAIL_BOXES[kind]):
            fam = fm.TailFamily(kind, th)
            tag = f"tail {kind} theta={th!r}"
            calls = {
                "tail_log_density": lambda: fm.tail_log_density(fam, xs, ys),
                "tail_density": lambda: fm.tail_density(fam, xs, ys),
                "prepare_tail_log_density": lambda: fm.prepare_tail_log_density(kind, xs, ys)(th),
                "tail_h": lambda: fm.tail_h(fam, xs, ys),
                "tail_h_inv": lambda: fm.tail_h_inv(fam, us, yu),
                "tail_h_scalar": lambda: fm.tail_h(fam, 0.7, 1.3),
                "tail_h_inv_scalar": lambda: fm.tail_h_inv(fam, 0.3, 1.3),
            }
            for name, call in calls.items():
                out.append(f"{tag} {name} {digest(call())}")
            out.append(f"{tag} tail_chi {fm.tail_chi(fam)!r}")
    return out


def pair_lines() -> list[str]:
    u, v = (a.ravel() for a in np.meshgrid(U, U))
    uc = np.clip(u, EPS, 1.0 - EPS)
    p = np.log(uc), np.log1p(-uc)
    out = []
    for kind in fm.PAIR_KINDS:
        box = fm.PAIR_BOXES.get(kind)
        for th in thetas(box) if box else [None]:
            fam = fm.PairFamily(kind, th)
            tag = f"pair {kind} theta={th!r}"
            calls = {
                "pair_log_density": lambda: fm.pair_log_density(fam, u, v),
                "pair_density": lambda: fm.pair_density(fam, u, v),
                "prepare_pair_log_density": lambda: fm.prepare_pair_log_density(kind, u, v)(th),
                "pair_h": lambda: fm.pair_h(fam, u, v),
                "pair_h_inv": lambda: fm.pair_h_inv(fam, u, v),
                "pair_h_scalar": lambda: fm.pair_h(fam, 0.7, 0.2),
                "pair_h_inv_scalar": lambda: fm.pair_h_inv(fam, 0.3, 0.8),
            }
            for name, call in calls.items():
                out.append(f"{tag} {name} {digest(call())}")
            tau = fm.pair_tau(fam)
            out.append(f"{tag} pair_tau {tau!r}")
            if th is not None:
                out.append(f"{tag} tau_inverse {fm.tau_inverse(kind, tau)!r}")
    z = np.r_[Z, np.linspace(-9.0, 9.0, 37)]
    out.append(f"conversions clamp_score {digest(fm.clamp_score(z))}")
    out.append(f"conversions score_to_log_pair {digest(fm.score_to_log_pair(z))}")
    out.append(f"conversions log_pair_to_score "
               f"{digest(fm.log_pair_to_score(fm.score_to_log_pair(z)))}")
    out.append(f"conversions log_pair_to_score_u {digest(fm.log_pair_to_score(p))}")
    return out


def error_lines() -> list[str]:
    tf, pf = fm.TailFamily, fm.PairFamily
    cases = {}
    for kind in fm.TAIL_KINDS:
        fam = tf(kind, 1.5)
        # nonpositive and non-finite points at every tail door
        for x, y in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (float("nan"), 1.0),
                     (float("inf"), 1.0), (1.0, float("inf"))):
            cases[f"tail_log_density {kind} x={x} y={y}"] = (fm.tail_log_density, fam, x, y)
            cases[f"tail_h {kind} x={x} y={y}"] = (fm.tail_h, fam, x, y)
            cases[f"prepare_tail_log_density {kind} x={x} y={y}"] = (
                fm.prepare_tail_log_density, kind, x, y)
        for y in (0.0, -1.0, float("inf")):
            cases[f"tail_h_inv {kind} y={y}"] = (fm.tail_h_inv, fam, 0.5, y)
        # a target outside [0, 1]
        for u in BAD_U:
            cases[f"tail_h_inv {kind} u={u}"] = (fm.tail_h_inv, fam, u, 1.0)
        # out-of-domain theta
        for th in (-1.0, 0.0, 1.0, float("nan"), float("inf")):
            cases[f"TailFamily {kind} theta={th}"] = (tf, kind, th)
    for kind in fm.PAIR_KINDS:
        for th in (None, -2.0, -1.0, 0.0, 0.5, 1.0, float("nan"), float("inf")):
            cases[f"PairFamily {kind} theta={th}"] = (pf, kind, th)
        for tau in (-1.0, -0.5, 0.0, 0.5, 1.0):
            cases[f"tau_inverse {kind} tau={tau}"] = (fm.tau_inverse, kind, tau)
        # a u or v outside [0, 1] at every u-space pair door
        fam = pf(kind, fm.tau_inverse(kind, 0.5) if kind in fm.PAIR_BOXES else None)
        for door in (fm.pair_log_density, fm.pair_density, fm.pair_h, fm.pair_h_inv):
            for bad in BAD_U:
                cases[f"{door.__name__} {kind} u={bad}"] = (door, fam, bad, 0.5)
                cases[f"{door.__name__} {kind} v={bad}"] = (door, fam, 0.5, bad)
    return [f"error {name} {error_class(*call)}" for name, call in cases.items()]


def model_lines() -> list[str]:
    out = []
    for name, spec in (("five_variable", five_variable_spec()),
                       ("truncated_cvine", truncated_cvine_study_spec())):
        pos = {n: i for i, n in enumerate(spec.vine.nodes)}
        # every edge's two conditionals resolve through the recursion
        targets = [(i, frozenset(e.cond | {j})) for t in spec.vine.trees for e in t
                   for i, j in ((e.a, e.b), (e.b, e.a))]
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            x = np.exp(SIGMA * rng.standard_normal((ROWS, spec.d)))
            w = rng.uniform(size=ROWS)
            out.append(f"log_density {name} seed={seed} {digest(log_density(spec, x))}")
            for i, given in targets:
                giv = sorted(given)
                xg = {g: x[:, pos[g]] for g in giv}
                tag = f"{name} seed={seed} i={i} given={giv}"
                trace: list = []
                got = conditional_cdf(spec, i, giv, x[:, pos[i]], xg, _trace=trace)
                out.append(f"conditional_cdf {tag} {digest(got)} trace={trace}")
                trace = []
                got = conditional_quantile(spec, i, giv, w, xg, _trace=trace)
                out.append(f"conditional_quantile {tag} {digest(got)} trace={trace}")
    return out


def main() -> int:
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for line in (*tail_lines(), *pair_lines(), *error_lines(), *model_lines()):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
