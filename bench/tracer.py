"""Spans around calls into each xvine layer, recorded from outside the program.

Tracer.installed() replaces each public function named in TARGETS by a timing
wrapper at every name an xvine module looks it up under (for example
`xvine.simulate.pair_h_inv` and `xvine.families.invert_monotone`), and puts
the originals back on exit. Spans stay in memory as
[call, name, kind, start, end, parent, rows, evals] and are written out once
the run ends. A span's self time is its duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import statistics
import sys
import time

import numpy as np

KERNELS = ("tail_log_density", "tail_h", "tail_h_inv",
           "pair_log_density", "pair_h", "pair_h_inv")
TAIL_KINDS = ("hr", "logistic", "neglogistic", "dirichlet")
PAIR_KINDS = ("indep", "gaussian", "clayton", "gumbel", "frank", "joe",
              "survclayton", "survgumbel", "survjoe")

#: (module, function, what the wrapper records besides time)
TARGETS = (
    *(("families", k, "kernel") for k in KERNELS),
    ("numerics", "invert_monotone", "f_evals"),
    ("numerics", "minimize_scalar", "objective_evals"),
    ("model", "log_density", None),
    ("model", "conditional_cdf", None),
    ("simulate", "sample_inverted_pareto", None),
    ("estimate", "fit_tail_edge", None),
    ("estimate", "fit_pair_edge", None),
    ("estimate", "empirical_tau", None),
    ("estimate", "empirical_chi", None),
    ("estimate", "fit_pipeline", None),
)

CALL, NAME, KIND, START, END, PARENT, ROWS, EVALS = range(8)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in reporting order."""
    out = []
    for k in KERNELS:
        out += [(f"families.{k}.calls", "count", "lower"),
                (f"families.{k}.rows", "count", "lower"),
                (f"families.{k}.self_s", "s", "lower")]
    for k, kinds in (("tail_h_inv", TAIL_KINDS), ("pair_h_inv", PAIR_KINDS)):
        for kind in kinds:
            out += [(f"families.{k}.{kind}.calls", "count", "lower"),
                    (f"families.{k}.{kind}.rows", "count", "lower"),
                    (f"families.{k}.{kind}.self_s", "s", "lower")]
    out += [("numerics.invert_monotone.calls", "count", "lower"),
            ("numerics.invert_monotone.f_evals", "count", "lower"),
            ("numerics.invert_monotone.self_s", "s", "lower"),
            ("numerics.minimize_scalar.calls", "count", "lower"),
            ("numerics.minimize_scalar.self_s", "s", "lower"),
            ("numerics.objective_evals", "count", "lower"),
            ("vines.to_structure_matrix.calls", "count", "lower"),
            ("vines.to_structure_matrix.self_s", "s", "lower"),
            ("model.log_density.self_s", "s", "lower"),
            ("model.conditional_cdf.self_s", "s", "lower"),
            ("simulate.sample_inverted_pareto.self_s", "s", "lower"),
            ("simulate.proposals", "count", "lower"),
            ("simulate.accepted", "count", "lower"),
            ("simulate.acceptance", "ratio", "higher")]
    for f in ("fit_tail_edge", "fit_pair_edge", "empirical_tau"):
        out += [(f"estimate.{f}.calls", "count", "lower"),
                (f"estimate.{f}.self_s", "s", "lower")]
    out += [("estimate.empirical_chi.calls", "count", "lower"),
            ("estimate.fit_pipeline.self_s", "s", "lower"),
            ("trace.overhead", "ratio", "lower")]
    return out


class Tracer:
    """Span recorder for single-threaded calls into xvine."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = 0

    def _wrap(self, name: str, fn, extra):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.call, name, None, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]

            def counted(f):
                def g(*a, **k):
                    rec[EVALS] += 1
                    return f(*a, **k)
                return g

            if extra == "kernel":
                rec[KIND] = args[0].kind
                rec[ROWS] = int(np.broadcast(args[1], args[2]).size)
            elif extra == "f_evals":
                args = (counted(args[0]), *args[1:])
            elif extra == "objective_evals":
                problem = args[0]
                args = (dataclasses.replace(problem, objective=counted(problem.objective)),
                        *args[1:])
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at each module-level name bound to it."""
        import xvine.vines

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "xvine" or n.startswith("xvine.")]
        undo = []
        for mod, name, extra in TARGETS:
            orig = getattr(sys.modules[f"xvine.{mod}"], name)
            wrapped = self._wrap(f"{mod}.{name}", orig, extra)
            for m in modules:
                if getattr(m, name, None) is orig:
                    undo.append((m, name, orig))
                    setattr(m, name, wrapped)
        cls = xvine.vines.VineSequence
        undo.append((cls, "to_structure_matrix", cls.to_structure_matrix))
        cls.to_structure_matrix = self._wrap("vines.to_structure_matrix",
                                             cls.to_structure_matrix, None)
        try:
            yield self
        finally:
            for obj, name, orig in reversed(undo):
                setattr(obj, name, orig)

    def call_summary(self, call: int) -> tuple[dict, dict]:
        """Counts and self times of one traced call, keyed by metric stem."""
        idx = [i for i, s in enumerate(self.spans) if s[CALL] == call]
        child = {i: 0.0 for i in idx}
        for i in idx:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        counts: dict[str, int] = {}
        times: dict[str, float] = {}
        for i in idx:
            s = self.spans[i]
            own = s[END] - s[START] - child[i]
            stems = [s[NAME]]
            if s[NAME] in ("families.tail_h_inv", "families.pair_h_inv"):
                stems.append(f"{s[NAME]}.{s[KIND]}")
            for stem in stems:
                counts[f"{stem}.calls"] = counts.get(f"{stem}.calls", 0) + 1
                counts[f"{stem}.rows"] = counts.get(f"{stem}.rows", 0) + s[ROWS]
                counts[f"{stem}.evals"] = counts.get(f"{stem}.evals", 0) + s[EVALS]
                times[f"{stem}.self_s"] = times.get(f"{stem}.self_s", 0.0) + own
        return counts, times

    def metrics(self, calls: list[int]) -> tuple[dict, bool]:
        """Per-layer figures over the traced calls of one input.

        Counts come from the first call; self times are medians over calls.
        The flag says whether every call gave the same counts.
        """
        summaries = [self.call_summary(c) for c in calls]
        counts = summaries[0][0]
        repeat = all(s[0] == counts for s in summaries)
        keys = {k for _, t in summaries for k in t}
        times = {k: statistics.median(t.get(k, 0.0) for _, t in summaries) for k in keys}
        out: dict[str, float] = {}
        for name, _unit, _better in per_layer_metrics():
            if name.endswith(".self_s"):
                out[name] = times.get(name, 0.0)
            elif name.endswith((".calls", ".rows")):
                out[name] = counts.get(name, 0)
        out["numerics.invert_monotone.f_evals"] = counts.get(
            "numerics.invert_monotone.evals", 0)
        out["numerics.objective_evals"] = counts.get("numerics.minimize_scalar.evals", 0)
        return out, repeat

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
