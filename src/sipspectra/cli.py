"""Command-line front end for the experiments.

Subcommands: gap, spectrum, metastable, compare-dirichlet, nonconservative,
torus, verify-all.  Exit codes: 0 all checks pass, 2 input error, 3 some
check or numerical certificate failed, 4 budget exceeded (a configuration
space above --budget or a spectrum above the iterative-solver cap).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache
from pathlib import Path

import numpy as np

from . import acceptance, comparison, metastable, nonconservative
from .configspace import DEFAULT_CAP, SpaceCapExceeded, enumerate_configs
from .experiments import (
    BOUNDS_TOL,
    bounds_report_rows,
    quadratic_crossover,
    torus_experiment,
    unit_walk_gap,
)
from .generators import CertificationError, build_killed, build_sip
from .graphs import GraphError, WeightedGraph, build_family, graph_to_document, parse_graph
from .reports import CheckRecord, ExperimentReport, emit_report
from .spectral import spectrum

EXIT_PASS = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
EXIT_BUDGET = 4


def _load_graph(args) -> WeightedGraph:
    if args.graph and args.family:
        raise GraphError("give either --graph or --family, not both")
    if args.graph:
        return parse_graph(Path(args.graph).read_text())
    if args.family:
        g = build_family(args.family)
        if getattr(args, "alpha", None):
            g = g.with_alpha(_parse_floats(args.alpha, g.n))
        return g
    raise GraphError("one of --graph or --family is required")


def _parse_floats(text: str, n: int | None = None) -> np.ndarray:
    values = np.array([float(v) for v in text.split(",")])
    if n is not None and values.size == 1:
        values = np.full(n, values[0])
    if n is not None and values.size != n:
        raise GraphError(f"expected {n} values, got {values.size}")
    return values


def _graph_inputs(g: WeightedGraph) -> dict:
    return {"graph": graph_to_document(g)}


def _write(report: ExperimentReport, args) -> int:
    text = emit_report(report, fmt=args.format, include_timing=args.timing)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if report.passed else EXIT_CHECK


def _cmd_gap(args) -> int:
    g = _load_graph(args)
    report = ExperimentReport("gap", {**_graph_inputs(g), "k_max": args.k_max})
    eps_grid = tuple(float(e) for e in args.eps.split(",")) if args.eps else ()
    t0 = time.perf_counter()
    # the eps = 1 row is the graph as given; the rest are the requested table
    base, *rows = bounds_report_rows(g, args.k_max, (1.0, *eps_grid), cap=args.budget)
    report.add(CheckRecord(
        name="per_particle_gaps",
        reference="gaps shrink weakly in the particle number",
        computed={"gaps": base.scan.gaps, "gap_sip": base.scan.gap_sip},
        target="gap_k <= gap_{k-1}", tolerance=1e-10,
        passed=base.scan.monotone, wall_clock=time.perf_counter() - t0))
    report.add(CheckRecord(
        name="sandwich",
        reference="many-particle gap sits between the damped and full walk gap",
        computed={"lower": base.sandwich_lower, "gap_sip": base.scan.gap_sip,
                  "gap_rw": base.scan.gaps[0]},
        target="(1 ^ a_min) gap_RW <= gap_SIP <= gap_RW", tolerance=BOUNDS_TOL,
        passed=base.sandwich_ok))
    report.add(CheckRecord(
        name="linear_lower_bound",
        reference="explicit graph-feature lower bound on the gap",
        computed={"bound": base.linear_lower, "gap_sip": base.scan.gap_sip},
        target="gap_SIP >= bound", tolerance=BOUNDS_TOL,
        passed=base.linear_ok))
    if eps_grid:
        t0 = time.perf_counter()
        gap_hat = unit_walk_gap(g)
        a_min = float(g.alpha.min())  # eps * a_min == min(eps * alpha) bit for bit
        crossover = quadratic_crossover(g, gap_hat)
        report.add(CheckRecord(
            name="bounds_table",
            reference="gap bounds across the diffusivity grid; the linear "
                      "bound overtakes the naive quadratic one below the "
                      "reported crossover",
            computed={"rows": [{
                "eps": r.eps, "gap_rw": r.scan.gaps[0], "gap_sip": r.scan.gap_sip,
                "sandwich_lower": r.sandwich_lower,
                "linear_lower": r.linear_lower,
                "quadratic_lower": (r.eps * a_min)**2 * gap_hat} for r in rows],
                "quadratic_crossover_eps": crossover},
            target="sandwich and linear bound hold on every row",
            tolerance=BOUNDS_TOL,
            passed=all(r.sandwich_ok and r.linear_ok for r in rows),
            wall_clock=time.perf_counter() - t0))
    return _write(report, args)


def _cmd_spectrum(args) -> int:
    g = _load_graph(args)
    space = enumerate_configs(g, args.k, cap=args.budget)
    if args.omega:
        omega = _parse_floats(args.omega, g.n)
        L = build_killed(g, omega, args.k, space)
    else:
        L = build_sip(g, args.k, space)
    spec = spectrum(L)
    report = ExperimentReport("spectrum", {**_graph_inputs(g), "k": args.k})
    report.add(CheckRecord(
        name="spectrum",
        reference="eigenvalues of the negated generator are real and ordered",
        computed={"eigenvalues": [float(v) for v in spec.eigenvalues],
                  "gap": spec.gap, "partial": spec.partial},
        target="ascending, first zero when conservative and positive when "
               "killed", tolerance=1e-8,
        passed=spec.well_formed()))
    return _write(report, args)


def _cmd_metastable(args) -> int:
    g = _load_graph(args)
    report = ExperimentReport("metastable", {**_graph_inputs(g), "k": args.k})
    t0 = time.perf_counter()
    chain = metastable.build_chain(g, args.k,
                                   enumerate_configs(g, args.k, cap=args.budget))
    rows = chain.row_sum_residual()
    tri = chain.triangularity_residual()
    rev = chain.varsigma_reversibility_residual()
    lambdas = {str(m): metastable.lambda_km(chain, m)
               for m in range(2, args.k + 1) if m in chain.blocks}
    wk = metastable.w_k(chain)
    report.add(CheckRecord(
        name="structure",
        reference="limit chain conserves mass, never raises the stack count, "
                  "and is reversible inside each stack sector",
        computed={"row_sum_residual": rows, "triangularity_residual": tri,
                  "sector_reversibility_residual": rev},
        target="residuals < 1e-10", tolerance=1e-10,
        passed=max(rows, tri, rev) < 1e-10,
        wall_clock=time.perf_counter() - t0))
    report.add(CheckRecord(
        name="sector_rates",
        reference="sector decay rates and the limit-chain gap",
        computed={"lambda": lambdas, "w_k": wk,
                  "components": {str(m): [len(c) for c in b.components]
                                 for m, b in chain.blocks.items()}},
        target="informational", tolerance=0.0, passed=True))
    if args.k >= 2:
        t0 = time.perf_counter()
        prev = metastable.build_chain(g, args.k - 1,
                                      enumerate_configs(g, args.k - 1, cap=args.budget))
        resid = metastable.restricted_annihilation_residual(chain, prev)
        report.add(CheckRecord(
            name="restricted_intertwining",
            reference="limit chain commutes with particle removal on the "
                      "absorbing sets",
            computed={"residual": resid}, target="residual < 1e-10",
            tolerance=1e-10, passed=resid < 1e-10,
            wall_clock=time.perf_counter() - t0))
    if args.eps:
        eps_grid = tuple(float(e) for e in args.eps.split(","))
        rows_sf = metastable.slow_fast_convergence(chain, t=1.0, eps_grid=eps_grid)
        report.add(CheckRecord(
            name="slow_fast_convergence",
            reference="rescaled gaps and semigroups approach the limit chain",
            computed={"rows": [{
                "eps": r.eps, "semigroup_deviation": r.semigroup_deviation,
                "gap_ratio": r.gap_ratio, "gap_ratio_error": r.gap_ratio_error,
                "min_absorbing_mass": r.min_absorbing_mass} for r in rows_sf]},
            target="informational", tolerance=0.0, passed=True))
    return _write(report, args)


def _cmd_compare(args) -> int:
    g = _load_graph(args)
    report = ExperimentReport("compare-dirichlet",
                              {**_graph_inputs(g), "k": args.k})
    enumerate_configs(g, args.k, cap=args.budget)  # fail fast on the budget
    t0 = time.perf_counter()
    comp = comparison.verify_key_ing(g, args.k)
    report.add(CheckRecord(
        name="comparison_inequality",
        reference="complete-graph energy bounded by the graph energy times "
                  "the explicit constant",
        computed={"constant": comp.constant, "worst_ratio": comp.worst_ratio,
                  "panel": comp.panel_size},
        target="zero violations", tolerance=1e-10,
        passed=comp.violations == 0, wall_clock=time.perf_counter() - t0))
    t0 = time.perf_counter()
    bounds = comparison.case_bound_report(g, args.k)  # one sweep, both records
    report.add(CheckRecord(
        name="per_case_cost_bounds",
        reference="every transfer plan meets its per-case closed-form bound "
                  "and is a unit flow",
        computed={"triples": bounds.triples, "by_case": bounds.by_case,
                  "worst_margin": bounds.worst_margin,
                  "max_divergence": bounds.max_divergence},
        target="zero violations, divergence < 1e-12", tolerance=1e-12,
        passed=bounds.violations == 0 and bounds.max_divergence < 1e-12,
        wall_clock=time.perf_counter() - t0))
    overlaps = bounds.overlaps
    worst_pair = max(overlaps, key=overlaps.get)
    report.add(CheckRecord(
        name="overlap_histogram",
        reference="no gradient term is charged by more than six triples",
        computed={"max_overlap": overlaps[worst_pair],
                  "worst_pair": list(worst_pair)},
        target="max overlap <= 6", tolerance=0.0,
        passed=overlaps[worst_pair] <= 6))
    alt = comparison.alt_bounds_report(g, args.k, comp)
    report.add(CheckRecord(
        name="alternative_constants",
        reference="both alternative comparison constants dominate the "
                  "empirical worst energy ratio",
        computed={"main": alt.main_constant, "exponential": alt.alt_exponential,
                  "harmonic": alt.alt_harmonic,
                  "empirical_worst_ratio": alt.empirical_worst_ratio},
        target="alternatives >= empirical ratio", tolerance=0.0,
        passed=alt.all_dominate))
    return _write(report, args)


def _cmd_nonconservative(args) -> int:
    if args.k_max < 1:
        raise ValueError(f"--k-max must be at least 1, got {args.k_max}")
    g = _load_graph(args)
    enumerate_configs(g, args.k_max, cap=args.budget)  # fail fast on the budget
    omega = _parse_floats(args.omega, g.n) if args.omega else np.eye(g.n)[0]
    report = ExperimentReport(
        "nonconservative",
        {**_graph_inputs(g), "omega": [float(v) for v in omega],
         "k_max": args.k_max, "rho": args.rho})
    t0 = time.perf_counter()
    rep = nonconservative.gap_identity_check(g, omega, args.k_max)
    report.add(CheckRecord(
        name="gap_identity",
        reference="absorbing-chain gaps equal the killed walk gap at every "
                  "particle number",
        computed={"chain_gaps": rep.chain_gaps,
                  "level_bottoms": rep.level_bottoms,
                  "max_relative_deviation": rep.max_relative_deviation},
        target="relative deviation < 1e-8", tolerance=1e-8,
        passed=rep.identity_holds, wall_clock=time.perf_counter() - t0))
    t0 = time.perf_counter()
    surv = nonconservative.survival_domination(g, omega, min(args.k_max, 3),
                                               (0.5, 1.0, 2.0))
    report.add(CheckRecord(
        name="survival_domination",
        reference="worst-case first-kill survival of many particles never "
                  "exceeds that of one particle",
        computed={"times": surv.times, "many": surv.many_particle,
                  "one": surv.one_particle,
                  "slope_deviation": surv.slope_deviation},
        target="domination at every time; extinction slopes match the gap",
        tolerance=1e-3,
        passed=surv.dominated and surv.slope_deviation < 1e-3,
        wall_clock=time.perf_counter() - t0))
    t0 = time.perf_counter()
    worst = 0.0
    theta = _parse_floats(args.theta, g.n) if args.theta else np.full(g.n, args.rho)
    for k in range(1, min(args.k_max, 3) + 1):
        vals, vecs, _ = nonconservative.killed_eigenpairs(g, omega, k)
        for i in range(len(vals)):
            worst = max(worst, nonconservative.eigen_lift_residual(
                g, omega, theta, args.rho, k, vals[i], vecs[:, i]))
    report.add(CheckRecord(
        name="eigen_lift",
        reference="killed eigenpairs lift to generalized eigenfunctions of "
                  "the open generator",
        computed={"worst_residual": worst}, target="residual < 1e-7",
        tolerance=1e-7, passed=worst < 1e-7,
        wall_clock=time.perf_counter() - t0))
    return _write(report, args)


def _cmd_torus(args) -> int:
    lo, hi = (int(v) for v in args.n_range.split(":"))
    if lo > hi:
        raise ValueError(f"--n-range {args.n_range} is empty")
    scan = torus_experiment(args.d, range(lo, hi + 1), budget=args.budget)
    report = ExperimentReport("torus", {"d": args.d, "n_range": args.n_range})
    report.add(CheckRecord(
        name="reduction_cross_validation",
        reference="separation-walk eigenvalue against the direct limit chain",
        computed={"deviation": scan.validation_deviation},
        target="relative deviation < 1e-8", tolerance=1e-8,
        passed=scan.validation_deviation < 1e-8))
    report.add(CheckRecord(
        name="kac_identities",
        reference="mean return and escape times from the hitting-time system",
        computed={"return_deviation": scan.kac_return_deviation,
                  "escape_deviation": scan.kac_escape_deviation},
        target="relative deviation < 1e-10", tolerance=1e-10,
        passed=max(scan.kac_return_deviation, scan.kac_escape_deviation) < 1e-10))
    report.add(CheckRecord(
        name="crossover_table",
        reference="two-stack sector rate against the walk gap per torus size",
        computed={"crossover_n": scan.crossover_n,
                  "rows": [{"n": r.n, "walk_gap": r.walk_gap,
                            "lambda_two": r.lambda_two, "crossover": r.crossover,
                            "s_n": r.s_n} for r in scan.rows]},
        target="stable crossover in range", tolerance=0.0,
        passed=scan.crossover_n is not None))
    return _write(report, args)


def _cmd_verify_all(args) -> int:
    numbers = ([int(v) for v in args.only.split(",")] if args.only
               else sorted(acceptance.CRITERIA))
    unknown = sorted(set(numbers) - set(acceptance.CRITERIA))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid: {sorted(acceptance.CRITERIA)}")
    failures = 0
    for number in numbers:
        report = acceptance.run_criterion(number)
        status = "pass" if report.passed else "FAIL"
        print(f"{report.experiment}: {status}")
        if not report.passed:
            failures += 1
            for rec in report.records:
                if not rec.passed:
                    print(f"  failed: {rec.name} computed={rec.computed}")
        if args.out:
            path = Path(args.out)
            path.mkdir(parents=True, exist_ok=True)
            (path / f"{report.experiment}.{args.format}").write_text(
                emit_report(report, fmt=args.format, include_timing=args.timing))
    return EXIT_PASS if failures == 0 else EXIT_CHECK


def _add_common(p: argparse.ArgumentParser, graph: bool = True) -> None:
    if graph:
        p.add_argument("--graph", help="graph description file (JSON)")
        p.add_argument("--family", help="family spec, e.g. torus(4,2) or path(3)")
        p.add_argument("--alpha", help="comma-separated site weights override")
        p.add_argument("--budget", type=int, default=DEFAULT_CAP,
                       help="state-space size budget")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fields (breaks byte-determinism)")


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="sipspectra",
        description="spectral experiments for interacting particle systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gap", help="per-particle-number gaps and bounds")
    _add_common(p)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--eps", help="diffusivity grid for the bounds table")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("spectrum", help="full spectrum of one generator")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--omega", help="killing rates (makes the generator killed)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("metastable", help="limit chain structure and rates")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", help="comma-separated diffusivity grid")
    p.set_defaults(func=_cmd_metastable)

    p = sub.add_parser("compare-dirichlet", help="complete-graph comparison")
    _add_common(p)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("nonconservative", help="killed gaps and duality lifts")
    _add_common(p)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--omega", help="comma-separated killing rates")
    p.add_argument("--theta", help="comma-separated reservoir densities")
    p.add_argument("--rho", type=float, default=0.5)
    p.set_defaults(func=_cmd_nonconservative)

    p = sub.add_parser("torus", help="crossover scan on the torus")
    _add_common(p, graph=False)
    p.add_argument("--budget", type=int, default=DEFAULT_CAP,
                   help="largest torus, in vertices")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n-range", default="6:40",
                   help="inclusive size range lo:hi")
    p.set_defaults(func=_cmd_torus)

    p = sub.add_parser("verify-all", help="run the acceptance criteria")
    _add_common(p, graph=False)  # fixed instances: no budget
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "k", 1) < 1:
            raise ValueError(f"--k must be at least 1, got {args.k}")
        return args.func(args)
    except CertificationError as exc:  # a ValueError, so caught first
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (GraphError, FileNotFoundError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SpaceCapExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
