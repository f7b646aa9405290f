"""One benchmark process: set up a workload, time its calls, check the outputs.

Run by run.py with the checkout's `src` on PYTHONPATH. With --setup-only it
imports xvine, builds the workload's state and reports how long that took.
Otherwise it also makes the inputs from --seed, makes a warm-up call, times
whole rounds of calls (one call per input) for --seconds, and checks every
output. With --trace 1 the timed calls run on the first input only, half of
them untraced and half under the tracer, and per-layer figures are reported.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Student-t data for fit-10d: AR(1) correlation RHO**|i-j|, NU degrees of freedom.
FIT_D, FIT_N, FIT_K, FIT_RHO, FIT_NU = 10, 20_000, 200, 0.8, 4.0


class Workload:
    """Inputs, the timed operation and its checks, for one workload."""

    inputs_per_round = 1

    def __init__(self, xv, checks) -> None:
        self.xv = xv
        self.checks = checks


class Evaluate5d(Workload):
    """log_density on 1e5 points plus F(1 | 2,3,4,5), which walks every tree."""

    ROWS, SCALE, SUBSAMPLE = 100_000, 10.0, 256

    def build(self):
        self.spec = self.xv.reference.five_variable_spec()

    def make_inputs(self, rng):
        np = self.xv.np
        # log-normal coordinates: 99.7% of them within about 1e-2 .. 1e2
        return [np.exp(1.5 * rng.standard_normal((self.ROWS, 5)))]

    def call(self, x):
        model = self.xv.model
        ld = model.log_density(self.spec, x)
        cdf = model.conditional_cdf(self.spec, 1, (2, 3, 4, 5), x[:, 0],
                                    [x[:, 1], x[:, 2], x[:, 3], x[:, 4]])
        return ld, cdf

    def check(self, x, out, rng):
        ld, cdf = out
        scaled = self.xv.model.log_density(self.spec, self.SCALE * x)
        self.checks.check_homogeneity(ld, scaled, self.SCALE, self.spec.d)
        rows = rng.choice(x.shape[0], self.SUBSAMPLE, replace=False)
        self.checks.check_against_oracle(self.edges(), x, rows, ld, cdf, 1, (2, 3, 4, 5))

    def edges(self):
        """The model as (a, b, cond, kind, theta) tuples, for the oracle."""
        spec = self.spec
        return [(e.a, e.b, tuple(e.cond), fam.kind, fam.theta)
                for tree in spec.vine.trees for e in tree
                for fam in [spec.tail[e] if e.level == 1 else spec.pairs[e]]]

    def same(self, a, b):
        np = self.xv.np
        return all(np.array_equal(p, q) for p, q in zip(a, b))


class Sample(Workload):
    """sample_inverted_pareto at threads=1; each input is a sampler seed."""

    def make_inputs(self, rng):
        return [int(s) for s in rng.integers(0, 2**31 - 1, size=self.inputs_per_round)]

    def call(self, seed, threads=1):
        return self.xv.simulate.sample_inverted_pareto(self.spec, self.ROWS, seed=seed,
                                                       threads=threads)

    def check(self, seed, out, rng):
        z, st = out
        first_tree = [(e.a, e.b, self.spec.tail[e].kind, self.spec.tail[e].theta)
                      for e in self.spec.vine.trees[0]]
        self.checks.check_inverted_pareto(z, st.proposals, st.accepted, self.ROWS, first_tree)

    def check_threads(self, seed, out):
        # several 4096-row blocks, so threads=2 really splits the work
        z2, st2 = self.call(seed, threads=2)
        self.checks.check_thread_identity(out[0], (out[1].proposals, out[1].accepted),
                                          z2, (st2.proposals, st2.accepted))

    def same(self, a, b):
        return self.xv.np.array_equal(a[0], b[0]) and a[1] == b[1]


class Sample5d(Sample):
    ROWS = 40_000

    def build(self):
        self.spec = self.xv.reference.five_variable_spec()


class Sample10d(Sample):
    ROWS = 20_000

    def build(self):
        self.spec = self.xv.reference.truncated_cvine_study_spec()


class Fit10d(Workload):
    """fit_pipeline, learned structure, mBIC truncation, on Student-t data."""

    inputs_per_round = 4

    def build(self):
        self.options = self.xv.estimate.FitOptions(truncation="mbic", threads=1)

    def make_inputs(self, rng):
        np = self.xv.np
        idx = np.arange(FIT_D)
        self.corr = FIT_RHO ** np.abs(idx[:, None] - idx[None, :])
        chol = np.linalg.cholesky(self.corr)
        out = []
        for _ in range(self.inputs_per_round):
            g = rng.standard_normal((FIT_N, FIT_D)) @ chol.T
            w = rng.chisquare(FIT_NU, size=FIT_N) / FIT_NU
            out.append(g / np.sqrt(w)[:, None])
        return out

    def call(self, data):
        return self.xv.estimate.fit_pipeline(data, FIT_K, self.options)

    def check(self, data, report, rng):
        c = self.checks
        c.require(not report.errors, f"fit reported edge failures: {report.errors}")
        z, exceed = c.exceedances(data, FIT_K)
        tree1 = [r for r in report.edges if r["level"] == 1]
        c.check_first_tree_mst([(r["a"], r["b"]) for r in tree1], exceed, FIT_K)
        c.check_first_tree_fits(tree1, z, exceed, self.xv.families.TAIL_BOXES)
        c.check_fit_chi(tree1, self.corr, FIT_NU)
        c.check_mbic(report.mbic, report.q_star)

    def same(self, a, b):
        return json.dumps(a.to_json()) == json.dumps(b.to_json())


WORKLOADS = {"evaluate-5d": Evaluate5d, "sample-5d": Sample5d,
             "sample-10d": Sample10d, "fit-10d": Fit10d}


class _Xvine:
    """The modules a workload uses, looked up as attributes at call time."""

    def __init__(self) -> None:
        import numpy
        import xvine
        import xvine.estimate
        import xvine.families
        import xvine.model
        import xvine.reference
        import xvine.simulate

        self.np = numpy
        self.model = xvine.model
        self.simulate = xvine.simulate
        self.estimate = xvine.estimate
        self.families = xvine.families
        self.reference = xvine.reference


class Runner:
    """Counts every call of the operation; a call that raises is a failure."""

    def __init__(self, workload) -> None:
        self.w = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def call(self, inp):
        self.attempted += 1
        try:
            return self.w.call(inp)
        except Exception:  # a failed operation is counted, not fatal
            self.failures.append(f"call failed: {traceback.format_exc()}")
            return None

    def timed_rounds(self, inputs, seconds: float):
        """Whole rounds over `inputs` until `seconds` pass; per-input wall and CPU times."""
        walls = [[] for _ in inputs]
        cpus = [[] for _ in inputs]
        first = [None] * len(inputs)
        start = time.perf_counter()
        while True:
            for p, inp in enumerate(inputs):
                c0, w0 = time.process_time(), time.perf_counter()
                out = self.call(inp)
                w1, c1 = time.perf_counter(), time.process_time()
                if out is None:
                    continue
                walls[p].append(w1 - w0)
                cpus[p].append(c1 - c0)
                if first[p] is None:
                    first[p] = out
            if time.perf_counter() - start >= seconds:
                return walls, cpus, first

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except self.w.checks.CheckError as exc:
            self.problems.append(f"{name}: {exc}")


def _per_input_median(samples) -> float:
    """Median over each input's calls, averaged over the inputs."""
    meds = [statistics.median(s) for s in samples if s]
    return sum(meds) / len(meds) if meds else math.nan


def traced_run(run: Runner, workload, inp, seconds: float, spans_path: Path):
    """Per-layer figures from alternating untraced and traced calls on one input.

    Alternating keeps drift in the machine's speed out of trace.overhead.
    Returns the metrics and the first untraced output, for the checks.
    """
    import tracer

    t = tracer.Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    outs: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    while len(walls[True]) < 3 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            with t.installed() if traced else contextlib.nullcontext():
                t.call = len(walls[True])
                w0 = time.perf_counter()
                out = run.call(inp)
                walls[traced].append(time.perf_counter() - w0)
            outs[traced].append(out)
    plain = outs[False][0]
    metrics, repeat = t.metrics(list(range(len(walls[True]))))
    if not repeat:
        run.problems.append("per-layer counts differ between traced calls on one input")
    done = [o for o in outs[True] + outs[False] if o is not None]
    if not all(workload.same(o, done[0]) for o in done):
        run.problems.append("repeated calls on one input gave different outputs")
    stats = plain[1] if isinstance(workload, Sample) and plain is not None else None
    metrics["simulate.proposals"] = stats.proposals if stats else 0
    metrics["simulate.accepted"] = stats.accepted if stats else 0
    metrics["simulate.acceptance"] = stats.accepted / stats.proposals if stats else 0.0
    metrics["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
    spans_path.parent.mkdir(exist_ok=True)
    t.dump(spans_path)
    return metrics, [plain]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    xv = _Xvine()
    import checks

    workload = WORKLOADS[args.workload](xv, checks)
    workload.build()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    np = xv.np
    rng = np.random.default_rng([args.seed, 1])
    inputs = workload.make_inputs(rng)
    run = Runner(workload)
    run.call(inputs[0])  # warm-up
    result: dict = {"setup_s": setup_s}
    if args.trace == 0:
        walls, cpus, outs = run.timed_rounds(inputs, args.seconds)
        result["metrics"] = {
            "call_s": _per_input_median(walls),
            "call_cpu_s": _per_input_median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        result["metrics"], outs = traced_run(run, workload, inputs[0], args.seconds,
                                             RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")

    check_rng = np.random.default_rng([args.seed, 2])
    for p, out in enumerate(outs):
        if out is not None:
            run.check(f"input {p}", workload.check, inputs[p], out, check_rng)
    if isinstance(workload, Sample) and outs[0] is not None:
        run.check("threads", workload.check_threads, inputs[0], outs[0])

    result.update(attempted=run.attempted, failed=len(run.failures),
                  correct=not run.problems, problems=run.failures + run.problems)
    for p in result["problems"]:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
