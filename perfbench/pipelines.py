"""Request pipelines: what one CLI subcommand does, called in-process.

``gap``, ``compare`` and the ``metastable`` half of ``open_system`` run the
subcommand itself through ``sipspectra.cli.main`` in this process, with the
graph read from a ``--graph`` file and the report that the CLI writes to
standard output captured.  Two requests the CLI cannot express keep
pipelines of their own, built from the same public functions and records as
``sipspectra nonconservative``: ``killed_gap`` (only its ``gap_identity``
record) and the nonconservative half of ``open_system`` (eigen-lifts kept
small).  A request ends when its last report is emitted.  Every pipeline
returns the emitted report texts; the benchmark parses and checks them
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from sipspectra import cli, graphs, nonconservative, reports
from sipspectra.reports import CheckRecord, ExperimentReport

GRAPH_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out" / "graphs"

# the nonconservative subcommand's default --rho; lifts run for k <= LIFT_K_MAX
# and only on graphs with at most LIFT_N_MAX vertices, because one lift on
# eight vertices takes minutes
RHO = 0.5
LIFT_K_MAX = 2
LIFT_N_MAX = 4


def graph_file(g: graphs.WeightedGraph) -> Path:
    """Write ``g`` as the graph document ``--graph`` reads; returns its path."""
    text = json.dumps(graphs.graph_to_document(g))
    path = GRAPH_DIR / f"{hashlib.sha256(text.encode()).hexdigest()[:24]}.json"
    if not path.exists():
        GRAPH_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return path


def _flag(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _cli(command: str, path: Path, **options) -> str:
    """``sipspectra COMMAND --graph PATH --OPTION VALUE ..``; the report text."""
    argv = [command, "--graph", str(path)]
    for key, value in options.items():
        argv += [f"--{key.replace('_', '-')}", _flag(value)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code not in (cli.EXIT_PASS, cli.EXIT_CHECK):  # a failed check is judged later
        raise RuntimeError(f"sipspectra {' '.join(argv)} exited with code {code}")
    return out.getvalue()


def gap(g, path: Path, k_max: int, eps=None) -> list[str]:
    """``sipspectra gap --k-max K [--eps E1,E2,..]``."""
    options = {"k_max": k_max} if eps is None else {"k_max": k_max, "eps": eps}
    return [_cli("gap", path, **options)]


def compare(g, path: Path, k: int) -> list[str]:
    """``sipspectra compare-dirichlet --k K``."""
    return [_cli("compare-dirichlet", path, k=k)]


def _inputs(g, **extra) -> dict:
    return {"graph": graphs.graph_to_document(g), **extra}


def _gap_identity(g, omega, k_max: int) -> CheckRecord:
    rep = nonconservative.gap_identity_check(g, omega, k_max)
    return CheckRecord(
        name="gap_identity",
        reference="absorbing-chain gaps equal the killed walk gap at every "
                  "particle number",
        computed={"chain_gaps": rep.chain_gaps,
                  "level_bottoms": rep.level_bottoms,
                  "max_relative_deviation": rep.max_relative_deviation},
        target="relative deviation < 1e-8", tolerance=1e-8,
        passed=rep.identity_holds)


def killed_gap(g, path: Path, omega, k_max: int) -> list[str]:
    """The ``gap_identity`` record of ``sipspectra nonconservative --k-max K``."""
    omega = np.asarray(omega, dtype=float)
    report = ExperimentReport("nonconservative", _inputs(
        g, omega=[float(v) for v in omega], k_max=k_max))
    report.add(_gap_identity(g, omega, k_max))
    return [reports.emit_report(report)]


def nonconservative_report(g, omega, k_max: int) -> str:
    """``sipspectra nonconservative --k-max K`` with eigen-lifts kept small.

    The subcommand lifts every killed eigenpair for k <= 3; here lifts run
    for k <= LIFT_K_MAX and only on graphs with at most LIFT_N_MAX vertices.
    Otherwise the records are the subcommand's.
    """
    omega = np.asarray(omega, dtype=float)
    report = ExperimentReport("nonconservative", _inputs(
        g, omega=[float(v) for v in omega], k_max=k_max, rho=RHO))
    report.add(_gap_identity(g, omega, k_max))
    surv = nonconservative.survival_domination(g, omega, min(k_max, 3), (0.5, 1.0, 2.0))
    report.add(CheckRecord(
        name="survival_domination",
        reference="worst-case first-kill survival of many particles never "
                  "exceeds that of one particle",
        computed={"times": surv.times, "many": surv.many_particle,
                  "one": surv.one_particle,
                  "slope_deviation": surv.slope_deviation},
        target="domination at every time; extinction slopes match the gap",
        tolerance=1e-3,
        passed=surv.dominated and surv.slope_deviation < 1e-3))
    if g.n <= LIFT_N_MAX:
        worst = 0.0
        theta = np.full(g.n, RHO)
        for k in range(1, min(k_max, LIFT_K_MAX) + 1):
            vals, vecs, _ = nonconservative.killed_eigenpairs(g, omega, k)
            for i in range(len(vals)):
                worst = max(worst, nonconservative.eigen_lift_residual(
                    g, omega, theta, RHO, k, vals[i], vecs[:, i]))
        report.add(CheckRecord(
            name="eigen_lift",
            reference="killed eigenpairs lift to generalized eigenfunctions of "
                      "the open generator",
            computed={"worst_residual": worst}, target="residual < 1e-7",
            tolerance=1e-7, passed=worst < 1e-7))
    return reports.emit_report(report)


def open_system(g, path: Path, omega, k: int, eps, k_max: int) -> list[str]:
    """``metastable --k K --eps ..`` then ``nonconservative --k-max K`` on one graph."""
    return [_cli("metastable", path, k=k, eps=eps),
            nonconservative_report(g, omega, k_max)]
