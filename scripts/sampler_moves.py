#!/usr/bin/env python3
"""Largest relative row move of each sampler call between two checkouts.

Runs every call that scripts/sampler_hashes.py fingerprints under the `src`
of two checkouts, and prints per call the largest relative move of a row
(max |after - before| / |before| over its coordinates, then over the rows)
and how many rows moved at all. A hash diff says only that samples moved;
this says by how much. Rows are compared by position, so a call whose row
count changed is reported as a shape change.

    python3 scripts/sampler_moves.py ../parent .
    python3 scripts/sampler_moves.py --quick ../parent .   # without the 200 000-row calls

Each checkout runs in a child process that imports its own `xvine` and this
checkout's list of calls, and streams the rows back; the two run at once.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def emit(quick: bool) -> None:
    """Write each call's label, shape and rows to stdout."""
    from sampler_hashes import calls

    out = sys.stdout.buffer
    for label, call in calls(quick):
        z = np.ascontiguousarray(call()[0], dtype=float)
        out.write((json.dumps([label, list(z.shape)]) + "\n").encode())
        out.write(z.tobytes())
        out.flush()


def receive(stream):
    """The next (label, rows) a child wrote, or None at its end."""
    head = stream.readline()
    if not head:
        return None
    label, shape = json.loads(head)
    z = np.frombuffer(stream.read(8 * int(np.prod(shape))), dtype=float)
    return label, z.reshape(shape)


def move(before: np.ndarray, after: np.ndarray) -> str:
    if before.shape != after.shape:
        return f"shape {before.shape} -> {after.shape}"
    a = before.reshape(before.shape[0], -1)
    b = after.reshape(after.shape[0], -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a)).max(axis=1)
    return f"max_rel={rel.max():.3g} rows_moved={int((rel > 0.0).sum())}/{rel.size}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("before", nargs="?", help="root of the earlier checkout")
    p.add_argument("after", nargs="?", help="root of the later checkout")
    p.add_argument("--quick", action="store_true", help="skip the 200 000-row calls")
    p.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    quick = ["--quick"] if args.quick else []
    if args.emit:
        emit(args.quick)
        return 0
    if args.before is None or args.after is None:
        p.error("need the two checkouts")
    children = [
        subprocess.Popen([sys.executable, __file__, "--emit", *quick], stdout=subprocess.PIPE,
                         env=dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src")))
        for root in (args.before, args.after)]
    while True:
        got = [receive(c.stdout) for c in children]
        if got[0] is None or got[1] is None:
            break
        (label, before), (label_after, after) = got
        if label != label_after:
            raise SystemExit(f"the checkouts disagree on the calls: {label} / {label_after}")
        print(f"{label} {move(before, after)}", flush=True)
    return max(c.wait() for c in children)


if __name__ == "__main__":
    raise SystemExit(main())
