"""Which sipspectra functions are traced, and the per-layer metrics they yield.

Layer names follow the module that owns the work: ``comparison.plan`` is
``comparison.build_plan``, ``spectral.factor`` is the sparse LU factorization
as ``spectral`` calls it, and so on.  A traced name that the library no
longer defines stops the traced run with ``LookupError``: skipping it would
make its metrics read zero, which looks like a gain.
"""

from __future__ import annotations

import importlib

from tracer import Tracer, _CountingFactor, _ModuleProxy

PACKAGE = "sipspectra"

# layer name -> traced callables, as "module.function" or "module.Class.method"
SPANNED: dict[str, tuple[str, ...]] = {
    "comparison.plan": ("comparison.build_plan",),
    "comparison.cost": ("comparison.plan_cost",),
    "comparison.sweep": ("comparison.case_bound_report", "comparison.overlap_histogram"),
    "graphs.bfs": ("graphs.WeightedGraph.distances_from",),
    "graphs.shortest_path": ("graphs.shortest_path",),
    "graphs.metrics": ("graphs.metrics",),
    "generators.dirichlet": ("generators.dirichlet_form",),
    "generators.build": ("generators.build_sip", "generators.build_killed",
                         "generators.build_slow_fast"),
    "measures.mu": ("measures.mu",),
    "configspace.enumerate": ("configspace.enumerate_configs",),
    "spectral.symmetrize": ("spectral.symmetrized",),
    "spectral.expm": ("spectral.expm_action",),
    "metastable.projection": ("metastable.harmonic_projection",),
    "metastable.chain": ("metastable.build_chain",),
    "metastable.sector_eig": ("metastable.lambda_km",),
    "intertwiners.annihilation": ("intertwiners.annihilation",),
    "nonconservative.absorbing": ("nonconservative.build_absorbing_chain",),
    "nonconservative.survival": ("nonconservative.survival_domination",),
    "nonconservative.lift": ("nonconservative.eigen_lift_residual",),
    "experiments.bounds": ("experiments.bounds_report_rows",),
    "experiments.crossover": ("experiments.quadratic_crossover",),
    "reports.emit": ("reports.emit_report",),
}

# counted, not spanned: called per gradient evaluation or per kernel entry
COUNTED = {
    "generators.carrier": "generators.GeneratorMatrix.carrier",
    "nonconservative.kernel_evals": "nonconservative.duality_eval",
}

# modules whose view of scipy.sparse.linalg / numpy.linalg is traced
KERNEL_MODULES = ("spectral", "experiments")


def _graph_key(tr: Tracer, g, with_alpha: bool) -> int:
    # by content, not id(): temporary graphs are freed and their ids reused
    alpha = g.alpha.tobytes() if with_alpha else b""
    return tr.intern((g.conductances.tobytes(), alpha))


def _observe_plan(tr: Tracer, args, kwargs, plan) -> None:
    tr.counts["comparison.plan_edges"] += len(plan.edges)
    g, x, y, l, m, sigma = args[:6]
    # per request, so that repeating a request does not read as rebuilding plans
    tr.add_key("comparison.triples",
               (tr.outermost(), _graph_key(tr, g, True), x, y, l, m, tuple(sigma)))


def _observe_bfs(tr: Tracer, args, kwargs, result) -> None:
    g, source = args[0], args[1] if len(args) > 1 else kwargs["source"]
    tr.add_key("graphs.bfs.sources", (_graph_key(tr, g, False), int(source)))


def _observe_enumerate(tr: Tracer, args, kwargs, space) -> None:
    tr.counts["configspace.states"] += space.size
    tr.add_key("configspace.shapes", (space.n_sites, space.k))


def _observe_build(tr: Tracer, args, kwargs, result) -> None:
    gens = result if isinstance(result, tuple) else (result,)
    for L in gens:
        tr.counts["generators.states"] += L.size
        tr.counts["generators.nnz"] += L.rates.nnz
    tr.add_key("generators.structures", (_graph_key(tr, args[0], False), gens[0].space.k))


def _observe_dense(tr: Tracer, args, kwargs, result) -> None:
    n = args[0].shape[0]
    tr.counts["spectral.dense.flops"] += n ** 3


def _observe_emit(tr: Tracer, args, kwargs, text) -> None:
    tr.counts["reports.bytes"] += len(text)


OBSERVERS = {
    "comparison.plan": _observe_plan,
    "graphs.bfs": _observe_bfs,
    "configspace.enumerate": _observe_enumerate,
    "generators.build": _observe_build,
    "reports.emit": _observe_emit,
}


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _resolve(target: str):
    """(owner, attribute name, object) for ``module.function`` or ``module.Class.method``."""
    mod_name, *path, attr = target.split(".")
    owner = _module(mod_name)
    for name in path:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        raise LookupError(f"traced target {PACKAGE}.{target} does not exist")
    return owner, attr, getattr(owner, attr), bool(path)


def _wrap(tracer: Tracer, target: str, make) -> None:
    """Replace ``target`` by ``make(original)``, wherever sipspectra binds it."""
    owner, attr, original, is_method = _resolve(target)
    if is_method:  # patch the class
        tracer.patch(owner, attr, make(original))
    else:
        tracer.patch_everywhere(PACKAGE, original, make(original))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; ``tracer.restore()`` undoes all of it."""
    for layer, targets in SPANNED.items():
        for target in targets:
            _wrap(tracer, target,
                  lambda fn, layer=layer: tracer.span(layer, fn, OBSERVERS.get(layer)))
    for name, target in COUNTED.items():
        _wrap(tracer, target, lambda fn, name=name: tracer.counter(name, fn))
    _install_kernels(tracer)


def _install_kernels(tracer: Tracer) -> None:
    for mod_name in KERNEL_MODULES:
        module = _module(mod_name)
        missing = [name for name in ("spla", "np") if not hasattr(module, name)]
        if missing:
            raise LookupError(f"{PACKAGE}.{mod_name} no longer binds "
                              f"{', '.join(missing)}; its kernels cannot be traced")
        spla, np_mod = module.spla, module.np

        def factor(*args, _splu=spla.splu, **kwargs):
            return _CountingFactor(_splu(*args, **kwargs), tracer)

        tracer.patch(module, "spla", _ModuleProxy(spla, {
            "splu": tracer.span("spectral.factor", factor),
            "eigsh": tracer.span("spectral.eigsh", spla.eigsh),
        }))
        linalg = _ModuleProxy(np_mod.linalg, {
            "eigvalsh": tracer.span("spectral.dense", np_mod.linalg.eigvalsh,
                                    _observe_dense),
            "eigh": tracer.span("spectral.dense", np_mod.linalg.eigh, _observe_dense),
        })
        tracer.patch(module, "np", _ModuleProxy(np_mod, {"linalg": linalg}))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    t = tracer.totals()
    c = tracer.counts

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def distinct(name):
        return len(tracer.keys.get(name, ()))

    out: dict[str, tuple[float, str]] = {}
    for layer in ("comparison.plan", "graphs.bfs", "generators.dirichlet",
                  "spectral.factor", "spectral.eigsh", "spectral.symmetrize",
                  "spectral.dense", "configspace.enumerate", "generators.build",
                  "metastable.projection", "spectral.expm", "graphs.metrics"):
        out[f"{layer}.calls"] = (calls(layer), "count")
    for layer in ("comparison.plan", "comparison.cost", "comparison.sweep",
                  "graphs.bfs", "graphs.metrics", "generators.dirichlet",
                  "spectral.factor", "spectral.eigsh", "spectral.solve",
                  "spectral.symmetrize", "spectral.dense",
                  "configspace.enumerate", "generators.build", "measures.mu",
                  "metastable.projection", "metastable.chain",
                  "metastable.sector_eig", "intertwiners.annihilation",
                  "spectral.expm", "nonconservative.absorbing",
                  "nonconservative.survival", "nonconservative.lift",
                  "experiments.bounds", "experiments.crossover",
                  "reports.emit", "request"):
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    out["comparison.plans_per_triple"] = (
        _ratio(calls("comparison.plan"), distinct("comparison.triples")), "ratio")
    out["comparison.plan_edges"] = (c["comparison.plan_edges"], "count")
    out["graphs.bfs.reuse"] = (
        _ratio(tracer.count_under("graphs.bfs", "comparison.plan"),
               calls("comparison.plan")), "ratio")
    out["graphs.bfs.distinct_sources"] = (distinct("graphs.bfs.sources"), "count")
    out["graphs.shortest_path.calls"] = (calls("graphs.shortest_path"), "count")
    out["generators.carrier.calls"] = (c["generators.carrier"], "count")
    out["spectral.solves"] = (calls("spectral.solve"), "count")
    out["spectral.solves_per_eig"] = (
        _ratio(calls("spectral.solve"), calls("spectral.eigsh")), "ratio")
    out["spectral.solves_max"] = (tracer.max_children("spectral.solve", "spectral.eigsh"),
                                  "count")
    out["spectral.dense.flops"] = (c["spectral.dense.flops"], "flop")
    out["configspace.states"] = (c["configspace.states"], "count")
    out["configspace.enumerate.reuse"] = (
        _ratio(calls("configspace.enumerate"), distinct("configspace.shapes")), "ratio")
    out["generators.states"] = (c["generators.states"], "count")
    out["generators.nnz"] = (c["generators.nnz"], "count")
    out["generators.distinct_ratio"] = (
        _ratio(distinct("generators.structures"), calls("generators.build")), "ratio")
    out["nonconservative.kernel_evals"] = (c["nonconservative.kernel_evals"], "count")
    out["reports.bytes"] = (c["reports.bytes"], "byte")
    out["trace.spans"] = (tracer.span_count(), "count")
    return out
