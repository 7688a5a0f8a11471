import json
import math
import subprocess
import sys

import numpy as np
import pytest

from sipspectra import cli, spectral
from sipspectra.cli import main
from sipspectra.generators import build_sip
from sipspectra.reports import CheckRecord, ExperimentReport, emit_report, parse_report


def sample_report() -> ExperimentReport:
    report = ExperimentReport("demo", {"k": 2, "eps": [0.1, 0.01]})
    report.add(CheckRecord(
        name="alpha", reference="a first identity",
        computed={"value": 1.0 / 3.0, "count": 7, "flag": True},
        target="value below one", tolerance=1e-8, passed=True,
        wall_clock=0.125))
    report.add(CheckRecord(
        name="beta", reference="a second identity",
        computed={"value": 2.0**-52, "items": [1.5, -0.25]},
        target="tiny", tolerance=1e-12, passed=False, wall_clock=0.5))
    return report


def test_json_round_trip_lossless():
    report = sample_report()
    text = emit_report(report, fmt="json", include_timing=True)
    back = parse_report(text)
    assert back == report
    assert not back.passed


def test_canonical_emission_is_deterministic_and_timing_free():
    report = sample_report()
    a = emit_report(report)
    report.records[0].wall_clock = 99.0  # timing must not leak into the bytes
    b = emit_report(report)
    assert a == b
    assert "wall_clock" not in a


def test_floats_at_full_precision():
    report = sample_report()
    text = emit_report(report)
    assert format(2.0**-52, ".17g") in text
    parsed = json.loads(text)
    assert parsed["records"][1]["computed"]["value"] == 2.0**-52


def test_non_finite_floats_are_written_as_null():
    report = ExperimentReport("demo", {"eps": [0.1, math.inf]})
    report.add(CheckRecord(
        name="edges", reference="non-finite values",
        computed={"a": math.inf, "b": -math.inf, "c": math.nan,
                  "d": np.float64(-np.inf), "e": np.float32(np.nan), "f": [1.5, math.nan]},
        target="valid JSON", tolerance=1e-8, passed=False))
    text = emit_report(report)
    assert "inf" not in text.lower() and "nan" not in text.lower()
    back = parse_report(text)
    assert back.inputs == {"eps": [0.1, None]}
    assert back.records[0].computed == {"a": None, "b": None, "c": None,
                                        "d": None, "e": None, "f": [1.5, None]}


def test_tsv_schema():
    report = sample_report()
    text = emit_report(report, fmt="tsv")
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == [
        "experiment", "name", "reference", "target", "tolerance", "passed",
        "computed"]
    assert len(lines) == 3
    assert lines[2].split("\t")[5] == "false"


def test_failing_check_fails_report():
    report = sample_report()
    assert not report.passed
    report.records[1].passed = True
    assert report.passed


def test_cli_gap_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["gap", "--family", "path(3)", "--k-max", "3",
                 "--out", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    assert report.passed
    assert report.experiment == "gap"


def test_cli_input_error_codes(tmp_path):
    assert main(["gap", "--family", "blob(3)"]) == 2
    assert main(["gap", "--graph", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["gap", "--graph", str(bad)]) == 2


@pytest.mark.parametrize("command", ["compare-dirichlet", "spectrum", "metastable"])
def test_cli_zero_particles_is_input_error(command, capsys):
    assert main([command, "--family", "path(3)", "--k", "0"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["gap", "--family", "path(3)", "--k-max", "1"],
    ["nonconservative", "--family", "path(3)", "--k-max", "0"],
    ["torus", "--d", "2", "--n-range", "6:5"],
])
def test_cli_degenerate_ranges_are_input_errors(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_budget_exceeded():
    assert main(["torus", "--d", "2", "--n-range", "6:10",
                 "--budget", "50"]) == 4


def test_cli_failed_certificate_exits_3(monkeypatch, capsys):
    def broken_sip(g, k, space=None):
        L = build_sip(g, k, space)
        L.rates.data[0] *= 1.5  # one rate off: the generator is not reversible
        return L

    monkeypatch.setattr(cli, "build_sip", broken_sip)
    assert main(["spectrum", "--family", "path(3)", "--k", "2"]) == 3
    assert capsys.readouterr().err.startswith("certificate failed:")


def test_cli_spectrum_above_the_iterative_cap_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(spectral, "ITERATIVE_CAP", 5)
    assert main(["spectrum", "--family", "path(3)", "--k", "2"]) == 4  # 6 states
    assert capsys.readouterr().err.startswith("budget exceeded:")


def test_cli_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main(["metastable", "--family", "h_shape", "--k", "3",
                     "--out", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_graph_file_round_trip(tmp_path):
    doc = {"vertices": ["a", "b", "c"],
           "edges": [["a", "b", 1.0], ["b", "c", 2.0]],
           "alpha": {"a": 0.5}}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["spectrum", "--graph", str(path), "--k", "2",
                 "--out", str(out)]) == 0
    report = parse_report(out.read_text())
    assert report.inputs["graph"]["alpha"]["a"] == 0.5


def test_cli_compare_subcommand(tmp_path):
    out = tmp_path / "cmp.json"
    code = main(["compare-dirichlet", "--family", "path(3)", "--k", "2",
                 "--panel", "10", "--out", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    names = [r.name for r in report.records]
    assert "overlap_histogram" in names and "per_case_cost_bounds" in names


def test_cli_nonconservative_subcommand(tmp_path):
    out = tmp_path / "nc.json"
    code = main(["nonconservative", "--family", "path(3)", "--k-max", "2",
                 "--omega", "1,0,0", "--rho", "0.4", "--out", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    assert all(r.passed for r in report.records)


def test_cli_tsv_output(tmp_path):
    out = tmp_path / "gap.tsv"
    assert main(["gap", "--family", "complete(3)", "--format", "tsv",
                 "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("experiment\tname\treference")


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sipspectra.cli", "spectrum", "--family",
         "complete(2)", "--k", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert '"experiment":"spectrum"' in proc.stdout


def test_cli_gap_bounds_table(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(["gap", "--family", "path(3)", "--alpha", "0.4,1,2",
                 "--eps", "1,0.1,0.01", "--out", str(out)])
    assert code == 0
    report = parse_report(out.read_text())
    table = next(r for r in report.records if r.name == "bounds_table")
    assert table.passed
    rows = table.computed["rows"]
    assert [r["eps"] for r in rows] == [1, 0.1, 0.01]
    eps0 = table.computed["quadratic_crossover_eps"]
    assert eps0 is None or 0 < eps0 <= 1


def test_quadratic_crossover_separates_bounds():
    from sipspectra.experiments import quadratic_crossover, explicit_lower_bound
    from sipspectra.graphs import metrics, path_graph

    g = path_graph(3, alpha=(0.4, 1.0, 2.0))
    eps0 = quadratic_crossover(g)
    assert eps0 is not None
    from sipspectra.generators import build_sip
    from sipspectra.spectral import spectral_gap
    hat = g.with_alpha(g.alpha / g.alpha.min())
    base = spectral_gap(build_sip(hat, 1))
    for eps in (eps0 / 4, eps0 / 16):
        ge = hat.scaled_alpha(eps)
        assert explicit_lower_bound(ge) > metrics(ge).alpha_min**2 * base
    for eps in (4 * eps0, 1.0):
        ge = hat.scaled_alpha(eps)
        assert explicit_lower_bound(ge) < metrics(ge).alpha_min**2 * base


def test_cli_verify_all_single_criterion(capsys):
    assert main(["verify-all", "--only", "1"]) == 0
    out = capsys.readouterr().out
    assert "criterion-1-reversibility: pass" in out
