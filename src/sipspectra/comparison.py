"""Dirichlet-form comparison against the complete graph.

Every complete-graph gradient term (one particle relocated from x to y, in
the presence of a background sigma) is charged to a transfer plan along a
fixed geodesic: a single edge when x, y are adjacent; a single-particle relay
through occupied stretches; a forward/single/backward stack move through
empty stretches when the stack is small; and a two-dimensional unit flow that
moves only part of the stack when it is large.  Costs of the plans, overlap
counts, and the resulting comparison constant certify the graph-versus-
complete-graph inequality.

A plan reads the background only on the interior of the fixed geodesic.
Off the geodesic every configuration it visits equals sigma, and the rates
and log-measure ratios it evaluates involve geodesic sites only.  So all the
terms that share (x, y, l, m), sigma on the geodesic interior and the number
j of particles off it -- one geodesic class -- have plans with bit-identical
costs and divergences, whose charged terms differ only off the geodesic.
The sweep builds one plan per class and counts it once per term; terms
charged by plans of different j never coincide, so a pair's largest overlap
count is the largest count over the class representatives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np

from .configspace import enumerate_configs
from .generators import build_sip, dirichlet_form
from .graphs import WeightedGraph, metrics, shortest_path
from .spectral import bottom_eigenpairs

__all__ = [
    "TransferPlan",
    "PlanEdge",
    "build_plan",
    "plan_cost",
    "case_bound",
    "comparison_constant",
    "verify_key_ing",
    "overlap_histogram",
    "case_bound_report",
    "alt_bounds_report",
    "complete_reference",
]


def _harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


@dataclass(frozen=True)
class PlanEdge:
    """One particle move z -> w with its flow value.

    ``logmu_rel`` is log mu(eta) - log mu(source); only ratios ever enter the
    cost, so the absolute normalization never needs to be formed.
    """

    eta: tuple[int, ...]
    site_from: int
    site_to: int
    phi: float
    logmu_rel: float

    @property
    def zeta(self) -> tuple[int, ...]:
        out = list(self.eta)
        out[self.site_from] -= 1
        out[self.site_to] += 1
        return tuple(out)

    def key(self) -> tuple:
        """Oriented gradient-term key: base configuration and the jump."""
        return (self.eta, self.site_from, self.site_to)


@dataclass
class TransferPlan:
    kind: str        # "path" or "flow"
    case_tag: str    # connected | occupied | empty_few | empty_many | general
    x: int
    y: int
    l: int
    m: int
    source: tuple[int, ...]
    target: tuple[int, ...]
    edges: list[PlanEdge]

    def divergence_residual(self) -> float:
        """Unit-flow defect: +1 at the source, -1 at the target, 0 elsewhere."""
        div: dict[tuple[int, ...], float] = {}
        for e in self.edges:
            div[e.eta] = div.get(e.eta, 0.0) + e.phi
            zeta = e.zeta
            div[zeta] = div.get(zeta, 0.0) - e.phi
        worst = 0.0
        for cfg, val in div.items():
            want = 1.0 if cfg == self.source else (-1.0 if cfg == self.target else 0.0)
            worst = max(worst, abs(val - want))
        return worst


class _Tracker:
    """Current configuration with its running log-measure offset."""

    __slots__ = ("config", "logmu", "alpha")

    def __init__(self, config: list[int], alpha: np.ndarray):
        self.config = config
        self.logmu = 0.0
        self.alpha = alpha

    def snapshot(self) -> tuple[tuple[int, ...], float]:
        return tuple(self.config), self.logmu

    def apply(self, z: int, w: int) -> None:
        cfg, a = self.config, self.alpha
        self.logmu += math.log((a[w] + cfg[w]) / (cfg[w] + 1.0))
        self.logmu += math.log(cfg[z] / (a[z] + cfg[z] - 1.0))
        cfg[z] -= 1
        cfg[w] += 1


def _geodesic(g: WeightedGraph, x: int, y: int) -> list[int]:
    """Vertex indices of the fixed x -> y geodesic."""
    return [g.vertex_index[v] for v in shortest_path(g, g.vertices[x], g.vertices[y])]


def build_plan(g: WeightedGraph, x: int, y: int, l: int, m: int,
               sigma: tuple[int, ...]) -> TransferPlan:
    """Transfer plan charging the (x, y, l, m, sigma) gradient term to g.

    sigma is a full occupation tuple vanishing at x and y; the plan moves one
    particle of the m-stack at x over to y along the fixed geodesic.
    """
    if not (1 <= m <= l):
        raise ValueError("need 1 <= m <= l")
    if sigma[x] != 0 or sigma[y] != 0:
        raise ValueError("sigma must vanish at x and y")
    alpha = g.alpha
    source = list(sigma)
    source[x] += m
    source[y] += l - m
    target = list(sigma)
    target[x] += m - 1
    target[y] += l - m + 1
    geo = _geodesic(g, x, y)
    t = len(geo) - 1
    tracker = _Tracker(list(source), alpha)
    edges: list[PlanEdge] = []

    def emit(z: int, w: int, phi: float) -> None:
        eta, lm = tracker.snapshot()
        edges.append(PlanEdge(eta=eta, site_from=z, site_to=w, phi=phi, logmu_rel=lm))
        tracker.apply(z, w)

    if t == 1:
        emit(x, y, 1.0)
        return TransferPlan(kind="path", case_tag="connected", x=x, y=y, l=l, m=m,
                            source=tuple(source), target=tuple(target), edges=edges)

    interior = geo[1:-1]
    occupied = [sigma[p] > 0 for p in interior]
    any_occ, any_empty = any(occupied), not all(occupied)
    if not any_empty:
        tag = "occupied"
    elif not any_occ:
        tag = "empty_few" if alpha[x] * _harmonic(m - 1) <= 1.0 else "empty_many"
    else:
        tag = "general"

    used_flow = False
    pos = 0  # index into geo of the red particle
    while pos < t:
        nxt = pos + 1
        if nxt < t and sigma[geo[nxt]] > 0:
            # occupied stretch: relay a single particle while sites stay occupied
            while nxt < t and sigma[geo[nxt]] > 0:
                emit(geo[nxt - 1], geo[nxt], 1.0)
                nxt += 1
            pos = nxt - 1
            continue
        # empty stretch from geo[pos] to the next occupied site or to y
        end = nxt
        while end < t and sigma[geo[end]] == 0:
            end += 1
        u, v = geo[pos], geo[end]
        stretch = geo[pos:end + 1]
        q = tracker.config[u]
        if len(stretch) == 2:
            emit(u, v, 1.0)
        elif alpha[u] * _harmonic(q - 1) <= 1.0:
            _cross_few(tracker, emit, stretch, q)
        else:
            _cross_many(tracker, emit, stretch, q)
            used_flow = True
        pos = end

    kind = "flow" if used_flow else "path"
    return TransferPlan(kind=kind, case_tag=tag, x=x, y=y, l=l, m=m,
                        source=tuple(source), target=tuple(target), edges=edges)


def _cross_few(tracker: _Tracker, emit, stretch: list[int], q: int) -> None:
    """Forward all q particles, single step to the far end, walk q-1 back."""
    inner = stretch[1:-1]
    hops = list(zip(stretch[:-2], stretch[1:-1]))
    for z, w in hops:
        for _ in range(q):
            emit(z, w, 1.0)
    emit(inner[-1], stretch[-1], 1.0)
    for z, w in reversed(hops):
        for _ in range(q - 1):
            emit(w, z, 1.0)


def _cross_many(tracker: _Tracker, emit, stretch: list[int], q: int) -> None:
    """Two-dimensional unit flow moving i <= floor(q/2) particles per lane."""
    u, v = stretch[0], stretch[-1]
    first = stretch[1]
    inner_hops = list(zip(stretch[1:-2], stretch[2:-1]))
    mtilde = q // 2
    H = _harmonic(mtilde)
    suffix = [0.0] * (mtilde + 2)
    for i in range(mtilde, 0, -1):
        suffix[i] = suffix[i + 1] + 1.0 / i

    base, base_lm = tracker.snapshot()

    def replay(cfg: tuple[int, ...], lm: float) -> None:
        tracker.config = list(cfg)
        tracker.logmu = lm

    # down chain: i-th particle u -> first carries the remaining lane mass
    for i in range(1, mtilde + 1):
        emit(u, first, suffix[i] / H)
    for i in range(1, mtilde + 1):
        # lane i starts from the configuration with i particles at `first`
        replay(base, base_lm)
        for _ in range(i):
            tracker.apply(u, first)
        phi = (1.0 / i) / H
        for z, w in inner_hops:
            for _ in range(i):
                emit(z, w, phi)
        emit(stretch[-2], v, phi)
        for z, w in reversed(inner_hops):
            for _ in range(i - 1):
                emit(w, z, phi)
    # up chain: from i-1 particles at `first` back toward u
    for i in range(mtilde, 1, -1):
        replay(base, base_lm)
        for _ in range(i - 1):
            tracker.apply(u, first)
        tracker.apply(u, v)
        emit(first, u, suffix[i] / H)
    # leave the tracker at the stretch outcome: one particle moved u -> v
    replay(base, base_lm)
    tracker.apply(u, v)


def plan_cost(plan: TransferPlan, g: WeightedGraph) -> float:
    """Term weight times the squared flow norm (paths are unit flows).

    The weight mu(source) m (alpha_y + l - m) and the carrier mu(eta) r(eta,
    zeta) enter only through their ratio, evaluated from the tracked relative
    log-measures.
    """
    alpha = g.alpha
    c = g.conductances
    log_w = math.log(plan.m) + math.log(alpha[plan.y] + plan.l - plan.m)
    total = 0.0
    for e in plan.edges:
        eta = e.eta
        rate = c[e.site_from, e.site_to] * eta[e.site_from] * (
            alpha[e.site_to] + eta[e.site_to])
        if rate <= 0:
            raise ValueError("plan edge with zero rate")
        total += e.phi**2 * math.exp(log_w - e.logmu_rel) / rate
    return total


def case_bound(g: WeightedGraph, k: int, tag: str) -> float:
    """Closed-form per-case cost bound for a plan of the given case."""
    met = metrics(g)
    amax, amin, ratio, cmin, diam = (met.alpha_max, met.alpha_min,
                                     met.alpha_ratio, met.c_min, met.diameter)
    if tag == "connected":
        return 1.0 / cmin
    if tag == "occupied":
        return 3.0 * diam * (amax + k - 1) ** 2 / cmin
    if tag == "empty_few":
        return 7.0 * k * (amax + k - 1) * diam / (cmin * amin * ratio)
    if tag in ("empty_many", "general"):
        return 7.0 * k * (amax + k - 1) * diam * 6.0**amax / (cmin * amin * ratio)
    raise ValueError(f"unknown case tag {tag!r}")


def comparison_constant(g: WeightedGraph, k: int) -> float:
    """Comparison constant dominating E_complete / E_graph for all functions."""
    met = metrics(g)
    return (21.0 * k * (met.alpha_max + k - 1) * g.n**2 * met.diameter
            * 6.0**met.alpha_max / (met.alpha_min * met.alpha_ratio * met.c_min))


# -- geodesic classes -------------------------------------------------------


def _background_tuples(n: int, free: list[int], j: int):
    """Occupation tuples with j particles on the listed sites, lexicographic."""
    if not free:
        if j == 0:
            yield (0,) * n
        return

    def rec(idx: int, left: int, acc: list[int]):
        if idx == len(free) - 1:
            acc2 = acc.copy()
            acc2[free[idx]] = left
            yield tuple(acc2)
            return
        for v in range(left + 1):
            acc2 = acc.copy()
            acc2[free[idx]] = v
            yield from rec(idx + 1, left - v, acc2)

    yield from rec(0, j, [0] * n)


def _geodesic_classes(g: WeightedGraph, k: int):
    """One representative (x, y, l, m, sigma) per geodesic class, with its size.

    The complete-graph terms are ordered pairs x < y outermost, then l, then
    sigma lexicographically, then m.  A class fixes (x, y, l, m), sigma on the
    interior of the x -> y geodesic and the number j of particles on the
    off-geodesic sites F.  Its representative is its first term in that order,
    with all j particles on the last site of F, and the class holds one term
    per spread of j particles over F: C(j + |F| - 1, |F| - 1) of them.
    Representatives come in the order of their terms.
    """
    for x, y in combinations(range(g.n), 2):
        geo = _geodesic(g, x, y)
        off = [v for v in range(g.n) if v not in geo]
        support = sorted(geo[1:-1] + off[-1:])
        for l in range(1, k + 1):
            for sigma in _background_tuples(g.n, support, k - l):
                size = math.comb(sigma[off[-1]] + len(off) - 1, len(off) - 1) if off else 1
                for m in range(1, l + 1):
                    yield x, y, l, m, sigma, size


def complete_reference(g: WeightedGraph) -> WeightedGraph:
    """Complete graph on the same vertices with unit conductances, same alpha."""
    n = g.n
    c = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(g.vertices, c, g.alpha)


# -- reports ----------------------------------------------------------------


@dataclass
class ComparisonReport:
    constant: float
    violations: int
    worst_ratio: float       # max E_K / E_G over the panel
    panel_size: int


PANEL_RANDOM = 50  # seeded uniform functions after the gap eigenfunction
PANEL_SEED = 11


def verify_key_ing(g: WeightedGraph, k: int) -> ComparisonReport:
    """Check E_complete(f) <= C(g, k) E_g(f) over a panel of functions.

    The panel is one (N, 1 + PANEL_RANDOM) block: the gap eigenfunction of
    the graph dynamics, then PANEL_RANDOM uniform functions on [-1, 1] drawn
    from a fixed seed.  Each generator evaluates its form on the whole block
    in one ``dirichlet_form`` call.
    """
    space = enumerate_configs(g, k)
    L_g = build_sip(g, k, space)
    L_k = build_sip(complete_reference(g), k, space)
    _, vecs = bottom_eigenpairs(L_g, 2)
    rng = np.random.default_rng(PANEL_SEED)
    panel = np.vstack([vecs[:, 1], rng.uniform(-1.0, 1.0, (PANEL_RANDOM, space.size))]).T
    constant = comparison_constant(g, k)
    e_g = dirichlet_form(L_g, panel)
    e_k = dirichlet_form(L_k, panel)
    positive = e_g > 0
    return ComparisonReport(
        constant=constant,
        violations=int(np.count_nonzero(e_k > constant * e_g + 1e-10)),
        worst_ratio=float((e_k[positive] / e_g[positive]).max(initial=0.0)),
        panel_size=panel.shape[1])


@dataclass
class CaseBoundReport:
    triples: int
    by_case: dict[str, int]
    violations: int
    worst_margin: float      # max cost / bound over all triples
    max_divergence: float
    overlaps: dict[tuple[int, int], int]  # per pair x < y: max triples charging one term


def case_bound_report(g: WeightedGraph, k: int) -> CaseBoundReport:
    """Build one transfer plan per geodesic class and check it.

    Each plan's cost is held against its per-case closed-form bound and its
    unit-flow divergence is measured; both count once per term of the class.
    The oriented gradient terms a plan charges are counted per pair x < y,
    and each pair keeps only its largest count.
    """
    bounds = {tag: case_bound(g, k, tag)
              for tag in ("connected", "occupied", "empty_few", "empty_many", "general")}
    cxy = g.conductances
    by_case: Counter = Counter()
    violations = 0
    worst = 0.0
    max_div = 0.0
    overlaps: dict[tuple[int, int], int] = {}
    for pair, classes in groupby(_geodesic_classes(g, k), key=itemgetter(0, 1)):
        charged: Counter = Counter()
        for x, y, l, m, sigma, size in classes:
            plan = build_plan(g, x, y, l, m, sigma)
            by_case[plan.case_tag] += size
            cost = plan_cost(plan, g)
            if plan.case_tag == "connected":
                # exact coefficient 1/c_xy
                ok = abs(cost * cxy[x, y] - 1.0) < 1e-9
                margin = cost * cxy[x, y]
            else:
                bound = bounds[plan.case_tag]
                ok = cost <= bound * (1 + 1e-12)
                margin = cost / bound
            if not ok:
                violations += size
            worst = max(worst, margin)
            max_div = max(max_div, plan.divergence_residual())
            charged.update({e.key() for e in plan.edges})
        overlaps[pair] = max(charged.values(), default=0)
    return CaseBoundReport(triples=sum(by_case.values()), by_case=dict(by_case),
                           violations=violations, worst_margin=worst,
                           max_divergence=max_div, overlaps=overlaps)


def overlap_histogram(g: WeightedGraph, k: int) -> dict[tuple[int, int], int]:
    """Max number of triples charging any one gradient term, per pair x < y."""
    return case_bound_report(g, k).overlaps


@dataclass
class AltBoundsReport:
    main_constant: float
    alt_exponential: float   # log-free route, exp(alpha_max (1 + log k)) factor
    alt_harmonic: float      # flow route for every stack, harmonic-sum factor
    empirical_worst_ratio: float
    all_dominate: bool


def alt_bounds_report(g: WeightedGraph, k: int, comparison: ComparisonReport) -> AltBoundsReport:
    """Alternative comparison constants assembled from the per-case pieces.

    Route one replaces the small-stack condition by the worst-case factor
    exp(alpha_max (1 + log k)); route two runs the two-dimensional flow for
    every stack size and keeps the harmonic-sum denominator.  Both are
    assembled exactly like the main constant: six overlaps per term and
    binom(|V|, 2) vertex pairs.
    """
    met = metrics(g)
    amax, amin, ratio, cmin, diam = (met.alpha_max, met.alpha_min,
                                     met.alpha_ratio, met.c_min, met.diameter)
    pairs = g.n * (g.n - 1) / 2.0
    base_pieces = [1.0 / cmin, 3.0 * diam * (amax + k - 1) ** 2 / cmin]
    exp_piece = ((2.0 * math.exp(amax * (1.0 + math.log(k))) + 0.5)
                 * k * (amax + k - 1) * diam / (cmin * amin * ratio))
    alt1 = 6.0 * pairs * max(base_pieces + [exp_piece])
    flow_pieces = [7.0 * k * (amax + k - 1) * diam / (cmin * amin * ratio)]
    for m in range(2, k + 1):
        flow_pieces.append(
            2.0 * k * (amax + k - 1) * 2.0**amax / (amin * cmin)
            + k * (k - 1) * 6.0**amax / (amin * cmin)
            + 4.0 * k * (amax + k - 1) * diam * 6.0**amax
            / (amin**2 * ratio * cmin * _harmonic(m - 1))
        )
    alt2 = 6.0 * pairs * max(base_pieces + flow_pieces)
    worst = comparison.worst_ratio
    return AltBoundsReport(
        main_constant=comparison_constant(g, k),
        alt_exponential=alt1,
        alt_harmonic=alt2,
        empirical_worst_ratio=worst,
        all_dominate=(alt1 >= worst and alt2 >= worst),
    )
