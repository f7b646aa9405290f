"""Repeat the benchmark over seeds and summarize it, as in bench/README.md.

Run from the root of a checkout:

    python3 bench/repeat.py --runs 10            # untraced, seeds 1..10
    python3 bench/repeat.py --runs 2 --trace     # traced, seed 1 twice
    python3 bench/repeat.py --runs 5 --workloads fit-10d

Untraced: for each workload, one run per seed, then the median, the quartiles
and the quartile spread as a share of the median for each end-to-end metric.
Traced: each run uses the same seed; the per-layer counts must repeat
exactly, and the figures of the first run are printed. A summary is written
to bench/results/repeat-trace<0|1>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles or compare counts")

    summary: dict = {}
    ok = True
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = 1 if args.trace else 1 + i
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(int(args.trace))]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        correct = all(r["correct"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        ok &= correct
        print(f"\n{w}: {args.runs} runs, correct={correct}, "
              f"failed/attempted in {sorted(shares)}, "
              f"attempted {[r['attempted'] for r in runs]}")
        block: dict = {"correct": correct, "attempted": [r["attempted"] for r in runs]}
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if not k.endswith(".self_s") and k != "trace.overhead"} for r in runs]
            repeat = all(c == counts[0] for c in counts)
            ok &= repeat
            print(f"  counts repeat across runs: {repeat}")
            for k, v in runs[0]["metrics"].items():
                if v["value"]:
                    print(f"  {k:45s} {v['value']:.6g} {v['unit']}")
            block.update(repeat=repeat, metrics=runs[0]["metrics"])
        else:
            print(f"  {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'iqr/median':>10s}")
            for m in spec["end_to_end"]:
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                print(f"  {m['name']:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:10.3f}"
                      f"  ({m['unit']}, bound {m['bound']})")
                block[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "values": vals}
        summary[w] = block
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / f"repeat-trace{int(args.trace)}.json"
    out.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
