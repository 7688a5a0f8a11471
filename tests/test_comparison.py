import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipspectra import comparison
from sipspectra.acceptance import _COMPARISON_CASES, _mixed
from sipspectra.cli import main
from sipspectra.comparison import (
    CaseBoundReport,
    alt_bounds_report,
    build_plan,
    case_bound,
    case_bound_report,
    complete_reference,
    overlap_histogram,
    plan_cost,
    comparison_constant,
    verify_key_ing,
)
from sipspectra.configspace import ConfigSpace, enumerate_configs
from sipspectra.generators import GeneratorMatrix, build_sip, dirichlet_form
from sipspectra.graphs import WeightedGraph, complete, h_shape, path_graph, shortest_path, torus
from sipspectra.measures import log_mu_rows
from sipspectra.reports import parse_report


# -- the per-term oracle: every complete-graph gradient term on its own -----


def _spreads(sites: int, j: int):
    """Every way to put j particles on that many sites, lexicographic."""
    if sites == 0:
        if j == 0:
            yield ()
        return
    for v in (range(j + 1) if sites > 1 else (j,)):
        for rest in _spreads(sites - 1, j - v):
            yield (v,) + rest


def _triples(g: WeightedGraph, k: int):
    """Every complete-graph gradient term (x, y, l, m, sigma), pairs x < y outermost."""
    for x, y in combinations(range(g.n), 2):
        free = [v for v in range(g.n) if v not in (x, y)]
        for l in range(1, k + 1):
            for values in _spreads(len(free), k - l):
                sigma = [0] * g.n
                for v, c in zip(free, values):
                    sigma[v] = c
                for m in range(1, l + 1):
                    yield x, y, l, m, tuple(sigma)


@dataclass(frozen=True)
class DirichletTerm:
    x: int
    y: int
    l: int
    m: int
    sigma: tuple[int, ...]   # full occupation tuple, zero at x and y
    log_weight: float
    src: int                 # index of sigma + m delta_x + (l-m) delta_y
    dst: int                 # index of sigma + (m-1) delta_x + (l-m+1) delta_y


def decompose_dirichlet(g: WeightedGraph, k: int,
                        space: ConfigSpace | None = None) -> list[DirichletTerm]:
    """All complete-graph gradient terms with weights, for pairs x < y."""
    space = space or enumerate_configs(g, k)
    alpha = g.alpha
    triples = list(_triples(g, k))
    src_rows = np.array([t[4] for t in triples], dtype=np.int64).reshape(-1, g.n)
    dst_rows = src_rows.copy()
    for i, (x, y, l, m, _) in enumerate(triples):
        src_rows[i, x] += m
        src_rows[i, y] += l - m
        dst_rows[i, x] += m - 1
        dst_rows[i, y] += l - m + 1
    src_idx = space.rank_rows(src_rows)
    dst_idx = space.rank_rows(dst_rows)
    log_mu = log_mu_rows(alpha, src_rows, k)
    return [DirichletTerm(x=x, y=y, l=l, m=m, sigma=sigma,
                          log_weight=float(lm + math.log(m) + math.log(alpha[y] + l - m)),
                          src=int(s), dst=int(d))
            for (x, y, l, m, sigma), s, d, lm in zip(triples, src_idx, dst_idx, log_mu)]


def reassemble_energy(terms: list[DirichletTerm], f) -> float:
    """Sum of the evaluated terms; equals the complete-graph Dirichlet form."""
    f = np.asarray(f, dtype=float)
    w = np.exp(np.array([t.log_weight for t in terms]))
    src = np.array([t.src for t in terms])
    dst = np.array([t.dst for t in terms])
    return float(np.dot(w, (f[dst] - f[src]) ** 2))


def per_term_report(g: WeightedGraph, k: int) -> CaseBoundReport:
    """The sweep with one transfer plan per term, the class sweep's oracle."""
    bounds = {tag: case_bound(g, k, tag)
              for tag in ("connected", "occupied", "empty_few", "empty_many", "general")}
    cxy = g.conductances
    by_case: Counter = Counter()
    violations = 0
    worst = 0.0
    max_div = 0.0
    overlaps: dict[tuple[int, int], int] = {}
    for pair, terms in groupby(_triples(g, k), key=itemgetter(0, 1)):
        charged: Counter = Counter()
        for x, y, l, m, sigma in terms:
            plan = build_plan(g, x, y, l, m, sigma)
            by_case[plan.case_tag] += 1
            cost = plan_cost(plan, g)
            if plan.case_tag == "connected":
                ok = abs(cost * cxy[x, y] - 1.0) < 1e-9
                margin = cost * cxy[x, y]
            else:
                bound = bounds[plan.case_tag]
                ok = cost <= bound * (1 + 1e-12)
                margin = cost / bound
            if not ok:
                violations += 1
            worst = max(worst, margin)
            max_div = max(max_div, plan.divergence_residual())
            charged.update({e.key() for e in plan.edges})
        overlaps[pair] = max(charged.values(), default=0)
    return CaseBoundReport(triples=sum(by_case.values()), by_case=dict(by_case),
                           violations=violations, worst_margin=worst,
                           max_divergence=max_div, overlaps=overlaps)


def _assert_same_report(g: WeightedGraph, k: int) -> CaseBoundReport:
    got, want = case_bound_report(g, k), per_term_report(g, k)
    assert got == want
    assert list(got.by_case) == list(want.by_case)
    assert list(got.overlaps) == list(want.overlaps)
    return got


def test_reassembly_matches_complete_energy():
    for g, k in ((path_graph(3), 2), (path_graph(3, alpha=(0.5, 1, 2)), 3),
                 (h_shape(alpha=0.3), 2), (torus(4, 1), 3)):
        terms = decompose_dirichlet(g, k)
        space = enumerate_configs(g, k)
        L_complete = build_sip(complete_reference(g), k, space)
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.uniform(-1.0, 1.0, space.size)
            lhs = reassemble_energy(terms, f)
            rhs = dirichlet_form(L_complete, f)
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)


def test_term_count():
    g = path_graph(4)
    k = 3
    terms = decompose_dirichlet(g, k)
    expected = 0
    for x in range(g.n):
        for y in range(x + 1, g.n):
            for l in range(1, k + 1):
                expected += l * math.comb((g.n - 2) + (k - l) - 1, k - l)
    assert len(terms) == expected


def test_one_particle_terms():
    terms = decompose_dirichlet(path_graph(3), 1)
    assert all(t.l == 1 and t.m == 1 and sum(t.sigma) == 0 for t in terms)


def test_connected_plan_exact_cost():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    for l, m in ((1, 1), (2, 1), (3, 2)):
        plan = build_plan(g, 0, 1, l, m, (0, 0, 3 - l))
        assert plan.case_tag == "connected"
        assert len(plan.edges) == 1
        assert plan_cost(plan, g) == pytest.approx(1.0 / g.conductances[0, 1])
        assert plan.divergence_residual() < 1e-12


def test_single_particle_empty_path_has_no_backtrack():
    # one particle over empty interior: forward steps and the single jump
    g = path_graph(4)
    plan = build_plan(g, 0, 3, 1, 1, (0, 0, 0, 0))
    assert plan.case_tag == "empty_few"
    assert plan.kind == "path"
    assert len(plan.edges) == 3  # t hops, never backwards
    assert plan.divergence_residual() < 1e-12


def test_flow_values_of_the_two_dimensional_plan():
    # stack of four over an empty stretch: lanes weighted by 1/i over the
    # harmonic normalization 1 + 1/2 = 3/2
    g = path_graph(4, alpha=(2.0, 1.0, 1.0, 1.0))
    plan = build_plan(g, 0, 3, 4, 4, (0, 0, 0, 0))
    assert plan.case_tag == "empty_many"
    assert plan.kind == "flow"
    assert plan.divergence_residual() < 1e-12
    down = [e.phi for e in plan.edges[:2]]
    assert down[0] == pytest.approx(1.0)
    assert down[1] == pytest.approx(1.0 / 3.0)
    lane_values = sorted({round(e.phi, 12) for e in plan.edges})
    assert pytest.approx(2.0 / 3.0) in lane_values
    assert pytest.approx(1.0 / 3.0) in lane_values


def test_mixed_path_general_case():
    g = path_graph(5)
    sigma = (0, 2, 0, 0, 0)  # occupied then empty interior
    plan = build_plan(g, 0, 4, 2, 2, sigma)
    assert plan.case_tag == "general"
    assert plan.divergence_residual() < 1e-12
    src = list(sigma)
    src[0] += 2
    assert plan.source == tuple(src)


def test_every_plan_edge_has_positive_rate():
    g = h_shape(alpha=0.4)
    k = 3
    space = enumerate_configs(g, k)
    terms = decompose_dirichlet(g, k, space)
    for t in terms[::7]:
        plan = build_plan(g, t.x, t.y, t.l, t.m, t.sigma)
        for e in plan.edges:
            rate = (g.conductances[e.site_from, e.site_to] * e.eta[e.site_from]
                    * (g.alpha[e.site_to] + e.eta[e.site_to]))
            assert rate > 0.0


@pytest.mark.parametrize("g,k", [
    (path_graph(3), 2),
    (path_graph(3, alpha=(0.5, 1.0, 2.0)), 3),
    (torus(4, 1, alpha=0.3), 3),
    (h_shape(), 4),
    (torus(5, 1, alpha=2.0), 4),
])
def test_case_bounds_hold(g, k):
    rep = case_bound_report(g, k)
    assert rep.violations == 0
    assert rep.max_divergence < 1e-12


def test_empty_many_cost_below_closed_form():
    g = path_graph(3, alpha=(2.0, 0.5, 1.0))
    plan = build_plan(g, 0, 2, 4, 4, (0, 0, 0))
    assert plan.case_tag == "empty_many"
    assert plan_cost(plan, g) <= case_bound(g, 4, "empty_many")


def test_overlaps():
    # adjacent pairs admit a single charging triple per edge term
    g = path_graph(3)
    hist = overlap_histogram(g, 2)
    assert hist[(0, 1)] == 1
    assert hist[(1, 2)] == 1
    # distance-two pair: never more than six, and off-geodesic terms uncharged
    for g, k in ((h_shape(), 4), (torus(4, 1), 3), (path_graph(5), 3)):
        hist = overlap_histogram(g, k)
        assert max(hist.values()) <= 6


def test_off_geodesic_terms_untouched():
    g = path_graph(4)
    geodesic_sites = {0, 1}
    for x, y, l, m, sigma in _triples(g, 2):
        if (x, y) != (0, 1):
            continue
        plan = build_plan(g, x, y, l, m, sigma)
        for e in plan.edges:
            assert {e.site_from, e.site_to} <= geodesic_sites


def test_triples_match_the_term_count_and_pair_order():
    g = path_graph(4)
    triples = list(_triples(g, 3))
    assert len(triples) == len(decompose_dirichlet(g, 3))
    pairs = [t[:2] for t in triples]
    assert pairs == sorted(pairs)
    assert all(x < y and sigma[x] == 0 == sigma[y] and sum(sigma) == 3 - l
               for x, y, l, m, sigma in triples)


def test_h_shape_sweep_values():
    # values of the separate cost and overlap sweeps; by_case order is the report's key order
    g = h_shape()
    rep = case_bound_report(g, 3)
    assert rep.triples == 315
    assert rep.by_case == {"connected": 105, "empty_few": 120, "occupied": 40,
                           "empty_many": 10, "general": 40}
    assert list(rep.by_case) == ["connected", "empty_few", "occupied",
                                 "empty_many", "general"]
    assert rep.violations == 0
    assert rep.worst_margin == pytest.approx(1.0000000000000002, rel=1e-12)
    assert rep.max_divergence == 0.0
    hist = overlap_histogram(g, 3)
    assert hist == rep.overlaps
    assert hist == {(0, 1): 1, (0, 2): 2, (0, 3): 3, (0, 4): 2, (0, 5): 3,
                    (1, 2): 1, (1, 3): 2, (1, 4): 1, (1, 5): 2, (2, 3): 3,
                    (2, 4): 2, (2, 5): 3, (3, 4): 1, (3, 5): 2, (4, 5): 1}
    assert max(hist, key=hist.get) == (0, 3)


def _class_count(g: WeightedGraph, k: int) -> int:
    """Distinct (x, y, l, m, sigma on the geodesic interior, particles off it)."""
    classes = set()
    for x, y, l, m, sigma in _triples(g, k):
        geo = [g.vertex_index[v] for v in shortest_path(g, g.vertices[x], g.vertices[y])]
        interior = tuple(sigma[v] for v in geo[1:-1])
        classes.add((x, y, l, m, interior, sum(sigma) - sum(interior)))
    return len(classes)


def test_compare_request_builds_one_plan_per_geodesic_class(monkeypatch, capsys):
    calls = 0

    def counting_build_plan(*args):
        nonlocal calls
        calls += 1
        return build_plan(*args)

    monkeypatch.setattr(comparison, "build_plan", counting_build_plan)
    assert main(["compare-dirichlet", "--family", "path(4)", "--k", "3"]) == 0
    report = parse_report(capsys.readouterr().out)
    bounds = next(r for r in report.records if r.name == "per_case_cost_bounds")
    assert calls == _class_count(path_graph(4), 3) == 48
    assert bounds.computed["triples"] == 60 > calls


def test_compare_request_builds_one_carrier_per_generator(monkeypatch, capsys):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(GeneratorMatrix, "carrier", counting("carrier", GeneratorMatrix.carrier))
    monkeypatch.setattr(comparison, "dirichlet_form", counting("dirichlet_form", dirichlet_form))
    assert main(["compare-dirichlet", "--family", "path(4)", "--k", "3"]) == 0
    capsys.readouterr()
    assert calls == {"carrier": 2, "dirichlet_form": 2}


_ORACLE_CASES = [
    pytest.param(name, aname, k, id=f"{name}-{aname}-k{k}")
    for name, _ in _COMPARISON_CASES
    for aname in ("const_1", "const_0.3", "mixed")
    for k in (2, 3)
    if not (name == "torus_4x4" and k == 3 and aname != "mixed")
] + [
    pytest.param(name, aname, 4, id=f"{name}-{aname}-k4")
    for name in ("h_shape", "torus_6")
    for aname in ("const_1", "const_0.3", "mixed")
]


@pytest.mark.parametrize("name,aname,k", _ORACLE_CASES)
def test_class_sweep_matches_per_term_oracle(name, aname, k):
    make = dict(_COMPARISON_CASES)[name]
    n = make(1.0).n
    alpha = {"const_1": 1.0, "const_0.3": 0.3, "mixed": _mixed(n)}[aname]
    _assert_same_report(make(alpha), k)


@st.composite
def _connected_graphs(draw):
    n = draw(st.integers(3, 6))
    c = np.zeros((n, n))
    for v in range(1, n):  # a random spanning tree, then extra edges
        u = draw(st.integers(0, v - 1))
        c[u, v] = c[v, u] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    for u, v in combinations(range(n), 2):
        if c[u, v] == 0 and draw(st.booleans()):
            c[u, v] = c[v, u] = draw(st.sampled_from([0.5, 1.0, 2.0]))
    labels = draw(st.permutations([chr(ord("a") + i) for i in range(n)]))
    alpha = draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n))
    return WeightedGraph(tuple(labels), c, np.array(alpha)), draw(st.integers(1, 3))


def test_class_sweep_matches_per_term_oracle_on_random_graphs():
    seen: set[str] = set()

    @given(_connected_graphs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(case):
        seen.update(_assert_same_report(*case).by_case)

    check()
    # stack moves (empty_few) and two-dimensional flows (empty_many) both occur
    assert {"empty_few", "empty_many"} <= seen


def test_verify_key_ing():
    for g, k in ((path_graph(3), 2), (torus(4, 1, alpha=0.3), 3)):
        rep = verify_key_ing(g, k)
        assert rep.violations == 0
        assert rep.panel_size == 51
        assert rep.worst_ratio <= rep.constant
    rep = verify_key_ing(complete(3), 2)
    assert rep.worst_ratio == pytest.approx(1.0)


def test_comparison_constant_formula():
    g = h_shape(alpha=0.5)
    k = 3
    expected = (21.0 * k * (0.5 + k - 1) * 36 * 3 * 6.0**0.5) / (0.5 * 1.0 * 1.0)
    assert comparison_constant(g, k) == pytest.approx(expected)


def test_alt_bounds_dominate():
    for g, k in ((path_graph(3), 2), (torus(4, 1, alpha=0.1), 3),
                 (h_shape(), 2)):
        comp = verify_key_ing(g, k)
        rep = alt_bounds_report(g, k, comp)
        assert rep.all_dominate
        assert rep.alt_exponential >= rep.empirical_worst_ratio
        assert rep.alt_harmonic >= rep.empirical_worst_ratio


def test_alt_bounds_with_more_particles():
    g = torus(4, 1, alpha=0.1)
    rep = alt_bounds_report(g, 8, verify_key_ing(g, 8))
    assert rep.all_dominate


@st.composite
def _plan_inputs(draw):
    builder = draw(st.sampled_from(["path", "torus", "h"]))
    if builder == "path":
        g = path_graph(draw(st.integers(3, 5)),
                       alpha=draw(st.floats(0.1, 2.5)))
    elif builder == "torus":
        g = torus(draw(st.integers(4, 6)), 1, alpha=draw(st.floats(0.1, 2.5)))
    else:
        g = h_shape(alpha=draw(st.floats(0.1, 2.5)))
    k = draw(st.integers(1, 5))
    x = draw(st.integers(0, g.n - 2))
    y = draw(st.integers(x + 1, g.n - 1))
    l = draw(st.integers(1, k))
    m = draw(st.integers(1, l))
    free = [v for v in range(g.n) if v not in (x, y)]
    sigma = [0] * g.n
    for _ in range(k - l):
        sigma[draw(st.sampled_from(free))] += 1
    return g, k, x, y, l, m, tuple(sigma)


@given(_plan_inputs())
@settings(max_examples=120, deadline=None)
def test_random_plans_are_unit_flows_within_bounds(inputs):
    g, k, x, y, l, m, sigma = inputs
    plan = build_plan(g, x, y, l, m, sigma)
    assert plan.divergence_residual() < 1e-12
    # every step is a genuine jump of the dynamics
    for e in plan.edges:
        assert g.conductances[e.site_from, e.site_to] > 0
        assert e.eta[e.site_from] >= 1
    cost = plan_cost(plan, g)
    if plan.case_tag == "connected":
        assert cost * g.conductances[x, y] == pytest.approx(1.0)
    else:
        assert cost <= case_bound(g, k, plan.case_tag) * (1 + 1e-12)


def test_plan_cost_against_absolute_measure_route():
    # the tracker accumulates relative log-weights along the plan; recompute
    # every cost from the absolute measure as an independent route
    import math

    from sipspectra.measures import log_mu_rows

    for g, k in ((path_graph(4, alpha=(0.4, 1.0, 2.0, 0.7)), 3),
                 (h_shape(alpha=0.6), 3)):
        space = enumerate_configs(g, k)
        lw = log_mu_rows(g.alpha, space.occupations, k)
        terms = decompose_dirichlet(g, k, space)
        for t in terms[::11]:
            plan = build_plan(g, t.x, t.y, t.l, t.m, t.sigma)
            direct = 0.0
            for e in plan.edges:
                rate = (g.conductances[e.site_from, e.site_to]
                        * e.eta[e.site_from]
                        * (g.alpha[e.site_to] + e.eta[e.site_to]))
                carrier = math.exp(lw[space.index_of(e.eta)]) * rate
                direct += e.phi**2 * math.exp(t.log_weight) / carrier
            assert plan_cost(plan, g) == pytest.approx(direct, rel=1e-11)
