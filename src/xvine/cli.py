"""Command-line front end: simulate, fit, chi and structure subcommands."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from itertools import combinations

import numpy as np

from .errors import XVineError
from .estimate import FitOptions, fit_pipeline
from .model import XVineSpec, _chi_groups, model_from_json
from .simulate import sample_conditional, sample_inverted_pareto, sample_pareto
from .vines import StructureMatrix, from_structure_matrix

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_IO = 3
EXIT_PARTIAL = 4


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise XVineError(f"{path}: not valid JSON ({exc})") from exc


def _load_spec(path: str) -> XVineSpec:
    return model_from_json(_load_json(path))


def _load_structure(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "matrix" not in obj and "structure" in obj:
        obj = obj["structure"]
    return from_structure_matrix(StructureMatrix.from_json(obj))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _write_csv(path: str, arr: np.ndarray, prefix: str) -> None:
    d = arr.shape[1]
    header = ",".join(f"{prefix}{j}" for j in range(1, d + 1))
    np.savetxt(path, arr, delimiter=",", header=header, comments="", fmt="%.17g")


def _read_csv(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    skip = 1 if any(c.isalpha() for c in first) else 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on header-only files
        arr = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if arr.size == 0:
        raise XVineError(f"{path}: no data rows")
    return arr


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    if args.conditional is not None:
        out = sample_conditional(spec, args.conditional, args.n, args.seed,
                                 threads=args.threads)
        prefix = "Z"
    elif args.pareto:
        out, stats = sample_pareto(spec, args.n, args.seed, threads=args.threads)
        prefix = "Y"
    else:
        out, stats = sample_inverted_pareto(spec, args.n, args.seed,
                                            threads=args.threads)
        prefix = "Z"
    if args.conditional is None and args.n > 0:
        print(
            f"acceptance rate {stats.acceptance_rate:.6f} "
            f"({stats.accepted}/{stats.proposals} proposals)",
            file=sys.stderr,
        )
    _write_csv(args.out, out, prefix)
    return EXIT_OK


def _parse_trunc(text: str):
    if text in ("auto", "mbic"):
        return text
    try:
        return int(text)
    except ValueError:
        raise XVineError(
            f"--trunc must be an integer, 'auto' or 'mbic', got {text!r}"
        ) from None


def cmd_fit(args) -> int:
    data = _read_csv(args.data)
    if args.input_kind == "raw" and args.k is None:
        raise XVineError("--k is required for raw input")
    if args.input_kind == "inverted-pareto" and args.k is not None:
        print("note: --k is ignored for inverted-pareto input", file=sys.stderr)
    structure = _load_structure(args.structure) if args.structure else None
    options = FitOptions(
        input_kind=args.input_kind,
        structure=structure,
        truncation=_parse_trunc(args.trunc),
        tail_catalogue=tuple(args.tail_catalogue.split(","))
        if args.tail_catalogue
        else FitOptions.tail_catalogue,
        pair_catalogue=tuple(args.pair_catalogue.split(","))
        if args.pair_catalogue
        else FitOptions.pair_catalogue,
        psi0=args.psi0,
        tau_min=args.tau_min,
        n_min=args.n_min,
        threads=args.threads,
    )
    report = fit_pipeline(data, k=args.k, options=options)
    _write_json(args.out, report.to_json())
    msg = f"fitted d={report.spec.d} q={report.spec.q} k={report.k:g} n={report.n}"
    if report.q_star is not None:
        msg += f" q*={report.q_star}"
    print(msg, file=sys.stderr)
    for err in report.errors:
        print(f"warning: {err}", file=sys.stderr)
    return EXIT_PARTIAL if report.errors else EXIT_OK


def cmd_chi(args) -> int:
    if (args.spec is None) == (args.data is None):
        raise XVineError("exactly one of --spec or --data is required")
    if args.spec is not None:
        spec = _load_spec(args.spec)
        groups = list(combinations(range(1, spec.d + 1), 3 if args.triples else 2))
        rows = [(*g, chi) for g, chi in zip(groups, _chi_groups(spec, groups, args.mc, args.seed))]
    else:
        from .estimate import empirical_chi, from_inverted_pareto, rank_transform

        data = _read_csv(args.data)
        if args.input_kind == "raw":
            if args.k is None:
                raise XVineError("--k is required for raw input")
            ps = rank_transform(data, args.k)
        else:
            ps = from_inverted_pareto(data)
        groups = combinations(range(1, ps.d + 1), 3 if args.triples else 2)
        rows = [(*g, empirical_chi(ps, g)) for g in groups]
    cols = "a,b,c,chi" if args.triples else "a,b,chi"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(cols + "\n")
        for row in rows:
            idx = ",".join(str(int(v)) for v in row[:-1])
            fh.write(f"{idx},{row[-1]:.17g}\n")
    return EXIT_OK


def cmd_structure(args) -> int:
    if (args.convert is None) == (args.validate is None):
        raise XVineError("exactly one of --convert or --validate is required")
    if args.convert is not None:
        vine = _load_structure(args.convert)
        if args.out is None:
            raise XVineError("--out is required with --convert")
        sm = vine.to_structure_matrix(first_diag=args.diag)
        _write_json(args.out, sm.to_json())
        return EXIT_OK
    vine = _load_structure(args.validate)
    print(f"valid vine: d={vine.d} q={vine.q}"
          + (" (truncated)" if vine.is_truncated else ""))
    for lvl in range(1, vine.q + 1):
        for e in vine.level_edges(lvl):
            print(f"T{lvl}: {e.label}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xvine",
        description="Multivariate extreme-value dependence via vine tree sequences.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw samples from a model file")
    sim.add_argument("--spec", required=True, help="model JSON file")
    sim.add_argument("--n", type=int, required=True, help="number of samples")
    sim.add_argument("--seed", type=int, default=0)
    # conditional sampling is defined on the inverted scale only
    law = sim.add_mutually_exclusive_group()
    law.add_argument("--conditional", type=int, default=None, metavar="J",
                     help="sample conditionally on coordinate J being below 1")
    law.add_argument("--pareto", action="store_true",
                     help="emit multivariate-Pareto-scale samples (reciprocal)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker threads (default 1); output is the same at any count")
    sim.add_argument("--out", required=True, help="output CSV file")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model to data")
    fit.add_argument("--data", required=True, help="input CSV file")
    fit.add_argument("--k", type=int, default=None,
                     help="number of order statistics kept per margin")
    fit.add_argument("--input-kind", choices=("raw", "inverted-pareto"),
                     default="raw")
    fit.add_argument("--structure", default=None,
                     help="structure-matrix JSON; learned from data if omitted")
    fit.add_argument("--trunc", default="auto",
                     help="truncation level, 'auto' or 'mbic'")
    fit.add_argument("--psi0", type=float, default=0.9)
    fit.add_argument("--tail-catalogue", default=None,
                     help="comma-separated tail families to consider")
    fit.add_argument("--pair-catalogue", default=None,
                     help="comma-separated pair families to consider")
    fit.add_argument("--tau-min", type=float, default=0.05)
    fit.add_argument("--n-min", type=int, default=10)
    fit.add_argument("--threads", type=int, default=1,
                     help="worker threads (default 1); output is the same at any count")
    fit.add_argument("--out", required=True, help="output JSON file")
    fit.set_defaults(func=cmd_fit)

    chi = sub.add_parser("chi", help="tail-dependence coefficients")
    chi.add_argument("--spec", default=None, help="model JSON (Monte Carlo)")
    chi.add_argument("--data", default=None, help="data CSV (empirical)")
    chi.add_argument("--k", type=int, default=None)
    chi.add_argument("--input-kind", choices=("raw", "inverted-pareto"),
                     default="raw")
    chi.add_argument("--triples", action="store_true",
                     help="report trivariate coefficients instead of pairwise")
    chi.add_argument("--mc", type=int, default=100_000,
                     help="Monte Carlo sample size for the model route")
    chi.add_argument("--seed", type=int, default=0)
    chi.add_argument("--out", required=True, help="output CSV file")
    chi.set_defaults(func=cmd_chi)

    st = sub.add_parser("structure", help="convert or validate structure matrices")
    st.add_argument("--convert", default=None, metavar="FILE",
                    help="re-encode the matrix with a chosen last diagonal entry")
    st.add_argument("--diag", type=int, default=None,
                    help="variable to place on the first diagonal entry")
    st.add_argument("--validate", default=None, metavar="FILE",
                    help="check a matrix and print the edge list")
    st.add_argument("--out", default=None, help="output JSON file for --convert")
    st.set_defaults(func=cmd_structure)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XVineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
