"""Exact spectral analysis of the symmetric inclusion process on finite graphs.

Generator construction, spectral gaps, vanishing-diffusivity limit chains,
Dirichlet-form comparisons against the complete graph, and the open-system
duality machinery, packaged as a library with an experiment CLI.
"""

from .configspace import ConfigSpace, SpaceCapExceeded, enumerate_configs
from .generators import (
    CertificationError,
    GeneratorMatrix,
    build_killed,
    build_lookdown,
    build_sip,
    build_slow_fast,
    combine_slow_fast,
    dirichlet_form,
    open_generator_apply,
)
from .graphs import (
    GraphError,
    GraphMetrics,
    WeightedGraph,
    build_family,
    complete,
    h_shape,
    metrics,
    parse_graph,
    path_graph,
    shortest_path,
    torus,
)
from .measures import WeightedMeasure, mu
from .spectral import GapScan, Spectrum, expm_action, gap_sip, spectral_gap, spectrum

__version__ = "0.1.0"
