"""End-to-end command-line checks: exit codes, file formats, interop between subcommands."""
from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from xvine import estimate
from xvine.cli import main
from xvine.errors import NoConvergence
from xvine.families import TailFamily, tail_chi
from xvine.model import XVineSpec, model_chi, model_from_json, model_to_json
from xvine.reference import five_variable_spec
from xvine.vines import VineSequence


@pytest.fixture()
def bench_spec_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(model_to_json(five_variable_spec())))
    return str(path)


@pytest.fixture()
def hr2_spec_file(tmp_path):
    spec = XVineSpec(VineSequence([[(1, 2)]], d=2), {(1, 2): TailFamily("hr", 1.5)})
    path = tmp_path / "hr2.json"
    path.write_text(json.dumps(model_to_json(spec)))
    return str(path)


def read_csv(path) -> tuple[list[str], np.ndarray]:
    text = open(path).read().strip().splitlines()
    data = np.loadtxt(text[1:], delimiter=",", ndmin=2)
    return text[0].split(","), data


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_csv_and_acceptance_line(bench_spec_file, tmp_path, capsys):
    out = tmp_path / "z.csv"
    code = main(["simulate", "--spec", bench_spec_file, "--n", "200",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    header, z = read_csv(out)
    assert header == ["Z1", "Z2", "Z3", "Z4", "Z5"]
    assert z.shape == (200, 5) and np.all(z.min(axis=1) < 1.0)
    err = capsys.readouterr().err
    assert "acceptance rate" in err and "proposals" in err


def test_simulate_seed_reproduces_file(bench_spec_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["simulate", "--spec", bench_spec_file, "--n", "50",
                     "--seed", "3", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_simulate_conditional_and_pareto(bench_spec_file, tmp_path, capsys):
    cond = tmp_path / "cond.csv"
    code = main(["simulate", "--spec", bench_spec_file, "--n", "300",
                 "--conditional", "2", "--seed", "5", "--out", str(cond)])
    assert code == 0
    assert "acceptance rate" not in capsys.readouterr().err
    header, z = read_csv(cond)
    assert header[0] == "Z1" and np.all(z[:, 1] < 1.0)

    par = tmp_path / "par.csv"
    assert main(["simulate", "--spec", bench_spec_file, "--n", "60",
                 "--pareto", "--seed", "5", "--out", str(par)]) == 0
    header, y = read_csv(par)
    assert header == ["Y1", "Y2", "Y3", "Y4", "Y5"]
    assert np.all(y.max(axis=1) > 1.0)


def test_simulate_bad_inputs(bench_spec_file, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--spec", "/no/such/file.json", "--n", "5",
                 "--out", out]) == 3
    assert main(["simulate", "--spec", bench_spec_file, "--n", "-2",
                 "--out", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--spec", str(bad), "--n", "5", "--out", out]) == 2
    blob = json.loads(open(bench_spec_file).read())
    blob["edges"][0]["theta"] = None
    bad.write_text(json.dumps(blob))
    assert main(["simulate", "--spec", str(bad), "--n", "5", "--out", out]) == 2
    assert "theta must be a number" in capsys.readouterr().err


def test_simulate_rejects_bad_requests(bench_spec_file, tmp_path, capsys):
    out = tmp_path / "x.csv"
    base = ["simulate", "--spec", bench_spec_file, "--out", str(out)]
    for law in ([], ["--pareto"], ["--conditional", "2"]):
        assert main([*base, "--n", "-1", *law]) == 2
        assert "nonnegative" in capsys.readouterr().err
    # conditional sampling is defined on the inverted scale only
    with pytest.raises(SystemExit) as exc:
        main([*base, "--n", "10", "--conditional", "2", "--pareto"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def simulate_csv(spec_file, tmp_path, n=2000, seed=11) -> str:
    path = tmp_path / "sample.csv"
    assert main(["simulate", "--spec", spec_file, "--n", str(n),
                 "--seed", str(seed), "--out", str(path)]) == 0
    return str(path)


def test_fit_round_trip_through_files(bench_spec_file, tmp_path, capsys):
    data = simulate_csv(bench_spec_file, tmp_path)
    struct = tmp_path / "struct.json"
    struct.write_text(json.dumps(
        five_variable_spec().vine.to_structure_matrix().to_json()))
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--structure", str(struct), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "fitted d=5 q=4" in err
    report = json.loads(out.read_text())
    spec = model_from_json(report)
    assert spec.d == 5 and {rec["level"] for rec in report["edges"]} == {1, 2, 3, 4}


def test_fit_k_handling(bench_spec_file, tmp_path, capsys):
    data = simulate_csv(bench_spec_file, tmp_path)
    out = str(tmp_path / "fit.json")
    # raw input without --k is a usage error
    assert main(["fit", "--data", data, "--out", out]) == 2
    # --k on inverted-pareto input is ignored with a note
    code = main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--k", "100", "--out", out])
    assert code == 0
    assert "ignored" in capsys.readouterr().err


def test_fit_partial_failure_exit_code(bench_spec_file, tmp_path, capsys, monkeypatch):
    data = simulate_csv(bench_spec_file, tmp_path, n=1500, seed=13)
    out = tmp_path / "fit.json"

    def no_convergence(*args, **kwargs):
        raise NoConvergence("bounded scalar search failed: 500 evaluations reached")

    # every deeper fit fails, as only a search can once the options are checked
    monkeypatch.setattr(estimate, "_fit_pair", no_convergence)
    code = main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--out", str(out)])
    assert code == 4
    assert "warning:" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["errors"]
    deeper = [rec for rec in report["edges"] if rec["level"] > 1]
    assert deeper and all(rec["family"] == "indep" for rec in deeper)


@pytest.mark.parametrize("catalogue", ["plackett", "gaussian,clayton,", "gausian,clayton"])
def test_fit_rejects_bad_pair_catalogue(bench_spec_file, tmp_path, capsys, catalogue):
    data = simulate_csv(bench_spec_file, tmp_path, n=1500, seed=13)
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--pair-catalogue", catalogue, "--out", str(out)])
    assert code == 2
    assert "pair_catalogue" in capsys.readouterr().err
    assert not out.exists()


def test_fit_mbic_reports_qstar(bench_spec_file, tmp_path, capsys):
    data = simulate_csv(bench_spec_file, tmp_path, n=2500, seed=17)
    out = tmp_path / "fit.json"
    code = main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--trunc", "mbic", "--out", str(out)])
    assert code == 0
    assert "q*=" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["q_star"] == 1 + int(np.argmin(report["mbic"]))
    assert main(["fit", "--data", data, "--input-kind", "inverted-pareto",
                 "--trunc", "soon", "--out", str(out)]) == 2


def test_fit_rejects_unreadable_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("Z1,Z2\n")
    assert main(["fit", "--data", str(empty), "--k", "5",
                 "--out", str(tmp_path / "o.json")]) == 2
    assert main(["fit", "--data", "/no/file.csv", "--k", "5",
                 "--out", str(tmp_path / "o.json")]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

def test_chi_model_route_matches_closed_form(hr2_spec_file, tmp_path):
    out = tmp_path / "chi.csv"
    code = main(["chi", "--spec", hr2_spec_file, "--mc", "40000",
                 "--seed", "9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,chi" and len(lines) == 2
    a, b, chi = lines[1].split(",")
    assert (a, b) == ("1", "2")
    assert abs(float(chi) - tail_chi(TailFamily("hr", 1.5))) < 0.02


def test_chi_model_route_is_seeded(hr2_spec_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["chi", "--spec", hr2_spec_file, "--mc", "5000",
                     "--seed", "21", "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("triples", [False, True])
def test_chi_model_route_rows_are_model_chi(bench_spec_file, tmp_path, triples):
    # one conditional sample per first variable gives each group's own value
    out = tmp_path / "chi.csv"
    assert main(["chi", "--spec", bench_spec_file, "--mc", "3000", "--seed", "5",
                 *(["--triples"] if triples else []), "--out", str(out)]) == 0
    spec = model_from_json(json.loads(open(bench_spec_file).read()))
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 10   # 5 choose 2 = 5 choose 3
    for row in rows:
        *idx, chi = row.split(",")
        want = model_chi(spec, [int(i) for i in idx], n_mc=3000, seed=5)
        assert chi == f"{want:.17g}", idx


def test_chi_data_route(bench_spec_file, tmp_path):
    data = simulate_csv(bench_spec_file, tmp_path, n=3000, seed=23)
    out = tmp_path / "chi.csv"
    code = main(["chi", "--data", data, "--input-kind", "inverted-pareto",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,chi" and len(lines) == 1 + 10
    hat12 = float(lines[1].split(",")[2])
    assert abs(hat12 - tail_chi(TailFamily("hr", 1.5))) < 0.1

    trip = tmp_path / "chi3.csv"
    assert main(["chi", "--data", data, "--input-kind", "inverted-pareto",
                 "--triples", "--out", str(trip)]) == 0
    tlines = trip.read_text().strip().splitlines()
    assert tlines[0] == "a,b,c,chi" and len(tlines) == 1 + 10


def test_chi_requires_exactly_one_source(hr2_spec_file, tmp_path, capsys):
    out = str(tmp_path / "chi.csv")
    assert main(["chi", "--out", out]) == 2
    assert main(["chi", "--spec", hr2_spec_file, "--data", "x.csv",
                 "--out", out]) == 2
    capsys.readouterr()


def test_chi_rejects_empty_monte_carlo(hr2_spec_file, tmp_path, capsys):
    # no draws gives no estimate: exit 2 with no rows written, not a nan row
    out = tmp_path / "chi.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ("0", "-3"):
            assert main(["chi", "--spec", hr2_spec_file, "--mc", bad, "--out", str(out)]) == 2
            assert "n_mc must be at least 1" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_structure_validate_prints_edges(bench_spec_file, tmp_path, capsys):
    struct = tmp_path / "m.json"
    struct.write_text(json.dumps(
        five_variable_spec().vine.to_structure_matrix().to_json()))
    assert main(["structure", "--validate", str(struct)]) == 0
    out = capsys.readouterr().out
    assert "valid vine: d=5 q=4" in out
    assert sum(1 for line in out.splitlines() if line.startswith("T")) == 10
    assert any(line.startswith("T4:") for line in out.splitlines())


def test_structure_validate_accepts_model_files(bench_spec_file, capsys):
    # model JSON carries the matrix under "structure"; accepted directly
    assert main(["structure", "--validate", bench_spec_file]) == 0
    assert "valid vine" in capsys.readouterr().out


def test_structure_convert_pins_diagonal(bench_spec_file, tmp_path, capsys):
    struct = tmp_path / "m.json"
    struct.write_text(json.dumps(
        five_variable_spec().vine.to_structure_matrix().to_json()))
    out1 = tmp_path / "c1.json"
    assert main(["structure", "--convert", str(struct), "--diag", "3",
                 "--out", str(out1)]) == 0
    obj = json.loads(out1.read_text())
    assert obj["matrix"][0][0] == 3
    out2 = tmp_path / "c2.json"
    assert main(["structure", "--convert", str(out1), "--diag", "3",
                 "--out", str(out2)]) == 0
    assert json.loads(out2.read_text()) == obj
    capsys.readouterr()


def test_structure_usage_errors(tmp_path, capsys):
    struct = tmp_path / "m.json"
    struct.write_text(json.dumps(
        five_variable_spec().vine.to_structure_matrix().to_json()))
    assert main(["structure", "--validate", str(struct),
                 "--convert", str(struct)]) == 2
    assert main(["structure"]) == 2
    assert main(["structure", "--convert", str(struct)]) == 2  # missing --out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 3, "trunc": 2, "matrix": [[1, 1], [0, 2]]}))
    assert main(["structure", "--validate", str(bad)]) == 2
    capsys.readouterr()
