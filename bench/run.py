"""Benchmark of xvine's evaluate, sample and fit jobs.

Run from the root of a checkout:

    python3 bench/run.py --workload sample-5d --seed 1 --seconds 10 --trace 0

Workloads are listed in BENCHMARK.json and described in bench/README.md. This
process imports nothing from xvine: every set-up is timed in a fresh worker
process. With --trace 0 it first makes one throwaway set-up (so the file
cache is warm), then SETUPS - 1 set-up-only workers, then the worker that
times the calls; setup_s is the median of the SETUPS set-up times. With
--trace 1 one worker reports the per-layer figures. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 3
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker(root: Path, args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # single-threaded numerics; the workloads pass threads=1 themselves
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("XVINE_THREADS", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root,
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description="xvine benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "xvine" / "__init__.py").is_file():
        return fail(f"no xvine sources under {root / 'src'}; run from a checkout's root")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds < 1:
        return fail("seed must be >= 0 and seconds >= 1")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUPS):
                got = worker(root, [*base, "--setup-only"], deadline)
                if i:  # the first one only warms the file cache
                    setups.append(got["setup_s"])
        out = worker(root, [*base, "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))

    metrics = dict(out["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [out["setup_s"]])
    if set(metrics) != set(declared):
        return fail(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    result = {"correct": bool(out["correct"]), "attempted": int(out["attempted"]),
              "failed": int(out["failed"]),
              "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared}}
    (HERE / "results").mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps({**result, "problems": out["problems"]},
                                                    indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
