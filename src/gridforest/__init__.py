"""Recovery of radial distribution-grid structure, load statistics, and line
parameters from nodal voltage observations."""

from .errors import GridForestError
from .moments import MomentSet
from .network import (
    Line,
    Node,
    RadialForest,
    build_forest,
    line_param_map,
)
from .powerflow import (
    AnalyticMoments,
    InjectionModel,
    VoltageSamples,
    analytic_moments,
    sample_voltages,
    solve_lcpf,
)
from .lines import EdgeEstimate, estimate_edge, learn_structure_and_params
from .missing import (
    HiddenNodeInfo,
    MissingSpec,
    learn_with_missing,
    residual_match,
    validate_missing_spec,
)
from .structure import estimate_injection_stats, learn_structure
from .synth import FeederSpec, choose_hidden, preset, synth_feeder

__version__ = "0.1.0"

__all__ = [
    "AnalyticMoments",
    "EdgeEstimate",
    "FeederSpec",
    "GridForestError",
    "HiddenNodeInfo",
    "InjectionModel",
    "Line",
    "MissingSpec",
    "MomentSet",
    "Node",
    "RadialForest",
    "VoltageSamples",
    "analytic_moments",
    "build_forest",
    "choose_hidden",
    "estimate_edge",
    "estimate_injection_stats",
    "learn_structure",
    "learn_structure_and_params",
    "learn_with_missing",
    "line_param_map",
    "preset",
    "residual_match",
    "sample_voltages",
    "solve_lcpf",
    "synth_feeder",
    "validate_missing_spec",
]
