"""The full verification suite: one runnable check per headline property.

Each criterion builds its instances, measures the relevant residuals or
bounds at the pinned tolerances, and returns an ExperimentReport; the CLI
``verify-all`` subcommand and the acceptance test module both run these.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable

import numpy as np

from . import comparison, intertwiners, metastable, nonconservative
from .configspace import enumerate_configs
from .experiments import BOUNDS_TOL, bounds_report_rows, torus_experiment
from .generators import (
    build_killed,
    build_lookdown,
    build_sip,
    label_pullback,
    symmetrize_labels,
)
from .graphs import WeightedGraph, complete, h_shape, path_graph, torus
from .reports import CheckRecord, ExperimentReport
from .spectral import gap_sip, spectrum

__all__ = ["CRITERIA", "run_criterion", "standard_suite"]

MIXED_PATTERN = (0.3, 2.0, 0.7, 1.2, 0.4, 1.7)
K_MAX = 4              # particle numbers 1..K_MAX in criteria 1-6, 8 and 11
SLOW_FAST_K_MAX = 3    # limit chains and semigroups of criterion 9
LIFT_K_MAX = 3         # lifted killed eigenpairs of criterion 12


def _mixed(n: int, floor: float | None = None) -> np.ndarray:
    base = np.array([MIXED_PATTERN[i % len(MIXED_PATTERN)] for i in range(n)])
    if floor is not None:
        base = base / base.min() * floor
    return base


def standard_suite() -> list[tuple[str, WeightedGraph]]:
    """The graph family every blanket criterion quantifies over."""
    graphs = [
        ("complete_2", complete(2)),
        ("complete_3", complete(3)),
        ("complete_4", complete(4)),
        ("path_3", path_graph(3)),
        ("path_4", path_graph(4)),
        ("path_5", path_graph(5)),
        ("torus_4", torus(4, 1)),
        ("torus_5", torus(5, 1)),
        ("torus_6", torus(6, 1)),
        ("torus_4x4", torus(4, 2)),
        ("h_shape", h_shape()),
    ]
    return graphs


def _alpha_patterns(n: int) -> list[tuple[str, np.ndarray]]:
    return [
        ("const_0.2", np.full(n, 0.2)),
        ("mixed_0.3_2", _mixed(n)),
        ("const_1", np.ones(n)),
        ("const_2", np.full(n, 2.0)),
    ]


def _timed(report: ExperimentReport, name: str, reference: str, target: str,
           tolerance: float, computed: dict, passed: bool, started: float) -> None:
    report.add(CheckRecord(name=name, reference=reference, computed=computed,
                           target=target, tolerance=tolerance, passed=passed,
                           wall_clock=time.perf_counter() - started))


def criterion_1_reversibility() -> ExperimentReport:
    """Detailed balance of the conservative generator over the suite."""
    report = ExperimentReport("criterion-1-reversibility",
                              {"k_max": K_MAX, "tolerance": 1e-12})
    for gname, base in standard_suite():
        for aname, alpha in _alpha_patterns(base.n):
            g = base.with_alpha(alpha)
            t0 = time.perf_counter()
            worst = 0.0
            for k in range(1, K_MAX + 1):
                worst = max(worst, build_sip(g, k).detailed_balance_residual())
            _timed(report, f"{gname}/{aname}",
                   "stationary weights satisfy detailed balance for the inclusion rates",
                   "max |mu(eta) r(eta,xi) - mu(xi) r(xi,eta)| < 1e-12",
                   1e-12, {"residual": worst}, worst < 1e-12, t0)
    return report


def criterion_2_one_particle_identity() -> ExperimentReport:
    """Gap equals the walk gap whenever every site weight is at least one."""
    report = ExperimentReport("criterion-2-one-particle-identity",
                              {"k_max": K_MAX, "tolerance": 1e-8})
    patterns = [("const_1", lambda n: np.ones(n)),
                ("const_2", lambda n: np.full(n, 2.0)),
                ("mixed_geq1", lambda n: _mixed(n, floor=1.0))]
    for gname, base in standard_suite():
        for aname, make in patterns:
            g = base.with_alpha(make(base.n))
            t0 = time.perf_counter()
            gap1, *gaps = gap_sip(g, K_MAX).gaps
            dev = max(abs(gap - gap1) / gap1 for gap in gaps)
            _timed(report, f"{gname}/{aname}",
                   "many-particle gap collapses to the walk gap for log-concave weights",
                   "|gap_k - gap_1|/gap_1 < 1e-8 for k = 2..4",
                   1e-8, {"gap_1": gap1, "max_relative_deviation": dev},
                   dev < 1e-8, t0)
    return report


def criterion_3_sandwich_and_lower_bound() -> ExperimentReport:
    """Walk-gap sandwich and the explicit linear lower bound, small weights."""
    report = ExperimentReport("criterion-3-sandwich-lower-bound",
                              {"alpha_min": [0.05, 0.2, 0.5],
                               "eps": [1.0, 0.1, 0.01], "tolerance": 1e-8})
    for gname, base in standard_suite():
        t0 = time.perf_counter()
        ok = True
        worst: dict = {}
        for amin in (0.05, 0.2, 0.5):
            for pname, alpha in (("const", np.full(base.n, amin)),
                                 ("mixed", _mixed(base.n, floor=amin))):
                for row in bounds_report_rows(base.with_alpha(alpha), K_MAX,
                                              (1.0, 0.1, 0.01)):
                    if not (row.sandwich_ok and row.linear_ok):
                        ok = False
                        worst = {"amin": amin, "pattern": pname, "eps": row.eps,
                                 "gap_rw": row.scan.gaps[0],
                                 "gap_sip": row.scan.gap_sip,
                                 "lower": row.sandwich_lower,
                                 "linear": row.linear_lower}
        _timed(report, gname,
               "walk-gap sandwich and the linear-in-smallest-weight lower bound",
               "(1 ^ a_min) gap_RW <= gap_SIP <= gap_RW and gap_SIP >= explicit bound",
               BOUNDS_TOL, worst or {"violations": 0}, ok, t0)
    return report


def criterion_4_complete_graph_spectrum() -> ExperimentReport:
    """Closed-form complete-graph spectra with multiplicities."""
    report = ExperimentReport("criterion-4-complete-spectrum",
                              {"k_max": K_MAX, "tolerance": 1e-8})
    cases = [(n, aname, alpha)
             for n in (2, 3, 4)
             for aname, alpha in (("const_1", np.ones(n)),
                                  ("const_0.5", np.full(n, 0.5)),
                                  ("mixed", _mixed(n)))]
    for n, aname, alpha in cases:
        g = complete(n, alpha)
        t0 = time.perf_counter()
        worst = 0.0
        ok = True
        for k in range(1, K_MAX + 1):
            rep = intertwiners.complete_graph_check(g, k)
            worst = max(worst, rep.spectrum_deviation)
            ok = ok and rep.multiplicities_match and rep.spectrum_deviation < 1e-8
        _timed(report, f"complete_{n}/{aname}",
               "complete-graph eigenvalues j(|alpha|+j-1) with level multiplicities",
               "relative eigenvalue deviation < 1e-8, multiplicities exact",
               1e-8, {"max_deviation": worst}, ok, t0)
    # the two-site pinned instance
    t0 = time.perf_counter()
    eigs = spectrum(build_sip(complete(2), 2)).eigenvalues
    dev = float(np.abs(np.sort(eigs) - np.array([0.0, 2.0, 6.0])).max())
    _timed(report, "complete_2/pinned_levels",
           "two-site, two-particle spectrum is {0, 2, 6}",
           "max |eig - {0,2,6}| < 1e-8", 1e-8, {"eigenvalues": list(map(float, eigs))},
           dev < 1e-8, t0)
    return report


def criterion_5_intertwining() -> ExperimentReport:
    """Consistency and adjointness of the level-coupling operators."""
    report = ExperimentReport("criterion-5-intertwining",
                              {"k_max": K_MAX, "tolerance": 1e-11})
    for gname, base in standard_suite():
        for aname, alpha in _alpha_patterns(base.n):
            g = base.with_alpha(alpha)
            t0 = time.perf_counter()
            cons = max(intertwiners.consistency_residual(g, k)
                       for k in range(2, K_MAX + 1))
            adj = max(intertwiners.adjointness_residual(g, k)
                      for k in range(1, K_MAX + 1))
            worst = max(cons, adj)
            _timed(report, f"{gname}/{aname}",
                   "particle-removal operator commutes with the dynamics and "
                   "is adjoint to weighted particle addition",
                   "max-norm residuals < 1e-11", 1e-11,
                   {"consistency": cons, "adjointness": adj}, worst < 1e-11, t0)
    return report


_COMPARISON_CASES = [
    ("path_3", lambda a: path_graph(3, a)),
    ("path_4", lambda a: path_graph(4, a)),
    ("path_5", lambda a: path_graph(5, a)),
    ("torus_4", lambda a: torus(4, 1, a)),
    ("torus_5", lambda a: torus(5, 1, a)),
    ("torus_6", lambda a: torus(6, 1, a)),
    ("torus_4x4", lambda a: torus(4, 2, a)),
    ("h_shape", lambda a: h_shape(a)),
    ("complete_3", lambda a: complete(3, a)),
]


def criterion_6_dirichlet_comparison() -> ExperimentReport:
    """Graph-versus-complete-graph comparison, plans, overlaps, case bounds."""
    report = ExperimentReport("criterion-6-dirichlet-comparison",
                              {"k_max": K_MAX, "panel": 50})
    for gname, make in _COMPARISON_CASES:
        n = make(1.0).n
        for aname, alpha in (("const_1", 1.0), ("const_0.3", 0.3),
                             ("mixed", _mixed(n))):
            g = make(alpha)
            t0 = time.perf_counter()
            comp = comparison.verify_key_ing(g, K_MAX)
            max_overlap = 0
            bound_violations = 0
            triples = 0
            worst_margin = 0.0
            max_div = 0.0
            for k in range(2, K_MAX + 1):
                bounds = comparison.case_bound_report(g, k)
                bound_violations += bounds.violations
                triples += bounds.triples
                worst_margin = max(worst_margin, bounds.worst_margin)
                max_div = max(max_div, bounds.max_divergence)
                max_overlap = max(max_overlap, max(bounds.overlaps.values()))
            ok = (comp.violations == 0 and bound_violations == 0
                  and max_overlap <= 6 and max_div < 1e-12)
            _timed(report, f"{gname}/{aname}",
                   "complete-graph energy controlled by the graph energy via "
                   "transfer plans; per-case cost bounds; at most six overlaps",
                   "zero violations, overlap <= 6, flow divergence < 1e-12",
                   1e-10,
                   {"comparison_violations": comp.violations,
                    "worst_ratio": comp.worst_ratio,
                    "constant": comp.constant,
                    "bound_violations": bound_violations,
                    "worst_cost_margin": worst_margin,
                    "max_overlap": max_overlap,
                    "triples": triples,
                    "max_divergence": max_div},
                   ok, t0)
    return report


def criterion_7_metastable_structure() -> ExperimentReport:
    """Structure of the limit chain: rows, triangularity, reversibility."""
    report = ExperimentReport("criterion-7-metastable-structure",
                              {"tolerance": 1e-10})
    cases = [(gname, base, (2, 3, 4)) for gname, base in standard_suite()]
    cases += [("path_3_mixed", path_graph(3, (0.5, 1.0, 2.0)), (3,)),
              ("torus_5_mixed", torus(5, 1, _mixed(5)), (3,))]
    for gname, g, ks in cases:
        chains = {k: metastable.build_chain(g, k) for k in range(ks[0] - 1, ks[-1] + 1)}
        for k in ks:
            t0 = time.perf_counter()
            chain = chains[k]
            rows = chain.row_sum_residual()
            tri = chain.triangularity_residual()
            rev = chain.varsigma_reversibility_residual()
            walk = chain.blocks[1]
            sites = chain.space.occupations[chain.omega[walk.local]].argmax(axis=1)
            expect = g.conductances[np.ix_(sites, sites)] * g.alpha[sites]
            off = ~np.eye(sites.size, dtype=bool)
            single = float(np.abs(walk.matrix - expect)[off].max(initial=0.0))
            inter = metastable.restricted_annihilation_residual(chain, chains[k - 1])
            ok = max(rows, tri, rev, single, inter) < 1e-10
            _timed(report, f"{gname}/k{k}",
                   "limit chain is conservative, never raises the stack count, "
                   "is reversible per sector, moves single stacks as the walk, "
                   "and commutes with particle removal",
                   "all residuals < 1e-10", 1e-10,
                   {"row_sums": rows, "triangularity": tri,
                    "sector_reversibility": rev,
                    "single_stack_rates": single, "intertwining": inter}, ok, t0)
    # pinned H-shape sector components
    t0 = time.perf_counter()
    chain = metastable.build_chain(h_shape(), 5)
    block = chain.blocks[4]
    comps = sorted(
        sorted(chain.omega_config(int(block.local[i])) for i in comp)
        for comp in block.components
    )
    expected = sorted([
        sorted([(1, 0, 1, 1, 0, 2), (1, 0, 1, 2, 0, 1)]),
        sorted([(1, 0, 2, 1, 0, 1), (2, 0, 1, 1, 0, 1)]),
    ])
    _timed(report, "h_shape/k5_sector_components",
           "five particles on the H graph split the four-stack sector into "
           "the two listed irreducible pairs",
           "components match exactly", 0.0,
           {"components": [[list(c) for c in comp] for comp in comps]},
           comps == expected, t0)
    return report


def criterion_8_eigenvalue_collapse() -> ExperimentReport:
    """Sector rates depend only on the stack count and grow from two stacks."""
    report = ExperimentReport("criterion-8-eigenvalue-collapse",
                              {"k_max": K_MAX, "tolerance": 1e-8})
    for gname, base in standard_suite():
        for aname, alpha in (("const_1", np.ones(base.n)),
                             ("mixed", _mixed(base.n))):
            g = base.with_alpha(alpha)
            t0 = time.perf_counter()
            chains = {k: metastable.build_chain(g, k)
                      for k in range(2, K_MAX + 1)}
            collapse_dev = 0.0
            order_margin = math.inf
            l22 = metastable.lambda_km(chains[2], 2)
            for m in range(2, K_MAX + 1):
                base_val = metastable.lambda_km(chains[m], m)
                for k in range(m, K_MAX + 1):
                    val = metastable.lambda_km(chains[k], m)
                    if math.isinf(base_val) or math.isinf(val):
                        if base_val != val:
                            collapse_dev = math.inf
                        continue
                    collapse_dev = max(collapse_dev, abs(val - base_val)
                                       / max(base_val, 1.0))
            for k in range(2, K_MAX + 1):
                lkk = metastable.lambda_km(chains[k], k)
                order_margin = min(order_margin, lkk - l22)
            ok = collapse_dev < 1e-8 and order_margin >= -1e-8
            _timed(report, f"{gname}/{aname}",
                   "sector rates equal the all-singleton rate of the same stack "
                   "count and never drop below the two-stack rate",
                   "collapse < 1e-8 relative; ordering within 1e-8", 1e-8,
                   {"collapse_deviation": collapse_dev,
                    "ordering_margin": (None if math.isinf(order_margin)
                                        else order_margin)},
                   ok, t0)
    return report


# the eight-cycle is the one instance here whose limit gap comes from the
# two-stack sector, so its rescaled gaps converge non-trivially
SLOW_FAST_INSTANCES = [
    ("path_3", path_graph(3)),
    ("path_3_mixed", path_graph(3, (0.5, 1.0, 2.0))),
    ("path_4", path_graph(4)),
    ("torus_4", torus(4, 1)),
    ("torus_8", torus(8, 1)),
    ("complete_3", complete(3)),
]

EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def criterion_9_slow_fast_limits() -> ExperimentReport:
    """Gap, semigroup, and absorption convergence toward the limit chain."""
    report = ExperimentReport("criterion-9-slow-fast",
                              {"eps_grid": list(EPS_GRID)})
    chains = {}
    for gname, g in SLOW_FAST_INSTANCES:
        t0 = time.perf_counter()
        ok = True
        final_rel = 0.0
        scans = [gap_sip(g.scaled_alpha(e), SLOW_FAST_K_MAX).gaps for e in EPS_GRID]
        for k in range(1, SLOW_FAST_K_MAX + 1):
            chains[gname, k] = metastable.build_chain(g, k)
            wk = metastable.w_k(chains[gname, k])
            errs = [abs(gaps[k - 1] / e - wk) for gaps, e in zip(scans, EPS_GRID)]
            decreasing = all(errs[i + 1] <= errs[i] + 1e-12 * max(wk, 1.0)
                             for i in range(len(errs) - 1))
            final_rel = max(final_rel, errs[-1] / wk)
            ok = ok and decreasing and errs[-1] < 1e-2 * wk
        _timed(report, f"{gname}/gap_ratio",
               "rescaled gaps converge monotonically to the limit-chain gap",
               "deviation decreasing along the grid, < 1e-2 w_k at eps=1e-3",
               1e-2, {"worst_final_relative": final_rel}, ok, t0)
    # two-particle asymptotic identity
    for gname, g in SLOW_FAST_INSTANCES:
        t0 = time.perf_counter()
        _, g2, *higher = gap_sip(g.scaled_alpha(1e-3), 4).gaps
        dev = max(abs(gap / g2 - 1.0) for gap in higher)
        _timed(report, f"{gname}/two_particle_identity",
               "higher-particle gaps match the two-particle gap at small weights",
               "|gap_k/gap_2 - 1| < 0.02 at eps = 1e-3 for k = 3, 4",
               0.02, {"max_deviation": dev}, dev < 0.02, t0)
    # semigroup convergence and absorbing mass on the pinned instance
    for k in range(2, SLOW_FAST_K_MAX + 1):
        t0 = time.perf_counter()
        rows = metastable.slow_fast_convergence(chains["path_3", k], t=1.0, eps_grid=EPS_GRID)
        devs = [r.semigroup_deviation for r in rows]
        decreasing = all(devs[i + 1] <= devs[i] + 1e-12 for i in range(len(devs) - 1))
        mass = rows[-1].min_absorbing_mass
        ok = decreasing and devs[-1] < 0.05 and mass >= 0.99
        _timed(report, f"path_3/k{k}/semigroup",
               "accelerated semigroup approaches the projected limit semigroup "
               "and the state thermalizes into the absorbing set",
               "sup-norm deviation < 0.05 and absorbing mass >= 0.99 at eps=1e-3, t=1",
               0.05, {"deviations": devs, "min_absorbing_mass": mass}, ok, t0)
    return report


def criterion_10_torus_crossover() -> ExperimentReport:
    """Two-stack rate drops below the walk gap on large two-dimensional tori."""
    report = ExperimentReport("criterion-10-torus-crossover",
                              {"d": 2, "n_range": "6..64"})
    t0 = time.perf_counter()
    scan = torus_experiment(2, range(6, 65))
    _timed(report, "reduction_cross_validation",
           "separation-walk eigenvalue agrees with the direct two-particle "
           "limit-chain rate on small tori",
           "relative deviation < 1e-8 for n <= 6", 1e-8,
           {"deviation": scan.validation_deviation},
           scan.validation_deviation < 1e-8, t0)
    t0 = time.perf_counter()
    _timed(report, "kac_identities",
           "mean return time n^d/(4d) and mean escape time 1/(4d) from the "
           "hitting-time linear system",
           "relative deviation < 1e-10", 1e-10,
           {"return_deviation": scan.kac_return_deviation,
            "escape_deviation": scan.kac_escape_deviation},
           max(scan.kac_return_deviation, scan.kac_escape_deviation) < 1e-10, t0)
    t0 = time.perf_counter()
    _timed(report, "walk_gap_formula",
           "cosine formula for the torus walk gap against the eigensolver",
           "relative deviation < 1e-10", 1e-10,
           {"deviation": scan.walk_gap_deviation}, scan.walk_gap_deviation < 1e-10, t0)
    t0 = time.perf_counter()
    _timed(report, "stable_crossover",
           "a stable size beyond which the two-stack rate stays below the walk gap",
           "crossover exists within n <= 64 with a five-size stability window",
           0.0, {"crossover_n": scan.crossover_n,
                 "final_ratio": scan.rows[-1].lambda_two / scan.rows[-1].walk_gap},
           scan.crossover_n is not None, t0)
    return report


def criterion_11_killed_gap_identity() -> ExperimentReport:
    """Absorbing-chain gaps equal the killed walk gap, any interaction strength."""
    report = ExperimentReport("criterion-11-killed-identity",
                              {"k_max": K_MAX, "tolerance": 1e-8})
    omega_patterns = [("first_site", lambda n: np.eye(n)[0]),
                      ("uniform", lambda n: np.ones(n)),
                      ("half", lambda n: (np.arange(n) % 2).astype(float))]
    for gname, base in standard_suite():
        for aname, alpha in (("const_1", np.ones(base.n)),
                             ("const_0.2", np.full(base.n, 0.2)),
                             ("mixed", _mixed(base.n))):
            g = base.with_alpha(alpha)
            t0 = time.perf_counter()
            worst = 0.0
            ok = True
            for oname, make in omega_patterns:
                omega = make(base.n)
                rep = nonconservative.gap_identity_check(g, omega, K_MAX)
                worst = max(worst, rep.max_relative_deviation)
                ok = ok and rep.identity_holds
            _timed(report, f"{gname}/{aname}",
                   "k-particle absorbing-chain gap equals the killed walk gap",
                   "relative deviation < 1e-8 over three killing patterns",
                   1e-8, {"max_relative_deviation": worst}, ok, t0)
    # pinned two-site instance and survival domination
    t0 = time.perf_counter()
    g2 = path_graph(2)
    rep = nonconservative.gap_identity_check(g2, (1.0, 0.0), K_MAX)
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    dev = abs(rep.chain_gaps[0] - golden)
    _timed(report, "two_site/pinned_gap",
           "two-site killed walk gap is (3 - sqrt 5)/2",
           "absolute deviation < 1e-10", 1e-10,
           {"gap": rep.chain_gaps[0], "level_bottoms": rep.level_bottoms},
           dev < 1e-10 and rep.identity_holds, t0)
    t0 = time.perf_counter()
    surv = nonconservative.survival_domination(g2, (1.0, 0.0), 2, (0.5, 1.0, 2.0))
    _timed(report, "two_site/survival_domination",
           "worst-case first-kill survival of many particles never exceeds "
           "that of one particle",
           "domination at every grid time", 1e-12,
           {"many": surv.many_particle, "one": surv.one_particle},
           surv.dominated, t0)
    return report


def criterion_12_duality_suite() -> ExperimentReport:
    """Lifted eigen-relations, kernel orthogonality, lookdown symmetrization."""
    report = ExperimentReport("criterion-12-duality", {"k_max": LIFT_K_MAX})
    t0 = time.perf_counter()
    worst = 0.0
    for g in (path_graph(3), h_shape(), torus(4, 1)):
        n = g.n
        first, last = np.eye(n)[0], np.eye(n)[n - 1]
        settings = [(first, 0.5 * first, 0.2),
                    (first + 0.5 * np.eye(n)[1], 0.3, 0.3),
                    (0.5 * first + last, np.resize((0.1, 0.4, 0.2), n), 0.5)]
        for omega, theta, rho in settings:
            for k in range(1, LIFT_K_MAX + 1):
                vals, vecs, _ = nonconservative.killed_eigenpairs(g, omega, k)
                for i in range(len(vals)):
                    worst = max(worst, nonconservative.eigen_lift_residual(
                        g, omega, theta, rho, k, vals[i], vecs[:, i]))
    _timed(report, "eigen_lift",
           "killed eigenpairs lift to generalized eigenfunctions of the open "
           "generator through the polynomial kernels",
           "pointwise residual < 1e-7 over all eigenpairs, k <= 3, on path_3, "
           "h_shape and torus_4", 1e-7,
           {"worst_residual": worst}, worst < 1e-7, t0)
    t0 = time.perf_counter()
    diag_dev, off_dev = 0.0, 0.0
    for gg, rho in ((path_graph(2), 1.0), (path_graph(2, (0.7, 1.4)), 0.5)):
        for k in (1, 2):
            for l in (1, 2):
                rep = nonconservative.orthogonality_check(gg, rho, k, l)
                if k == l:
                    diag_dev = max(diag_dev, rep.diagonal_deviation)
                off_dev = max(off_dev, rep.off_diagonal)
    _timed(report, "orthogonality",
           "duality kernels are orthogonal under the product measure with the "
           "closed-form diagonal norm",
           "certified-truncation deviation < 1e-7", 1e-7,
           {"diagonal_deviation": diag_dev, "off_diagonal": off_dev},
           max(diag_dev, off_dev) < 1e-7, t0)
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(17)
    for gg, k, omega in ((path_graph(3, (0.5, 1.0, 2.0)), 2, (1.0, 0.0, 0.0)),
                         (path_graph(3), 3, (0.5, 0.25, 0.0)),
                         (complete(3), 2, (1.0, 1.0, 0.0))):
        space = enumerate_configs(gg, k)
        lookdown = build_lookdown(gg, omega, k)
        killed = build_killed(gg, omega, k, space)
        for _ in range(5):
            f = rng.standard_normal(space.size)
            phi = label_pullback(lookdown.space, space, f)
            lhs = symmetrize_labels(lookdown.space, lookdown.matvec(phi))
            rhs = label_pullback(lookdown.space, space, killed.matvec(f))
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    _timed(report, "lookdown_symmetrization",
           "label-averaged lookdown dynamics reproduces the killed dynamics",
           "max-norm residual < 1e-12", 1e-12, {"worst_residual": worst},
           worst < 1e-12, t0)
    return report


CRITERIA: dict[int, Callable[[], ExperimentReport]] = {
    1: criterion_1_reversibility,
    2: criterion_2_one_particle_identity,
    3: criterion_3_sandwich_and_lower_bound,
    4: criterion_4_complete_graph_spectrum,
    5: criterion_5_intertwining,
    6: criterion_6_dirichlet_comparison,
    7: criterion_7_metastable_structure,
    8: criterion_8_eigenvalue_collapse,
    9: criterion_9_slow_fast_limits,
    10: criterion_10_torus_crossover,
    11: criterion_11_killed_gap_identity,
    12: criterion_12_duality_suite,
}


def run_criterion(number: int) -> ExperimentReport:
    return CRITERIA[number]()

