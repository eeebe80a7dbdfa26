"""Numerical geometry of graphs of maps between Riemannian manifolds.

The package computes, from exact metric and map jets on single coordinate
charts: intrinsic curvature, the product-space geometry, singular values
and adapted frames of a map's graph, its second fundamental form and mean
curvature, the residuals of the pointwise identities governing the shifted
deficit tensor, and the hypothesis gate of the rigidity dichotomy.
"""

from .chart_manifold import (
    ChartManifold,
    ChartPoint,
    MetricJet,
    christoffel_from_jet,
    constant_metric_chart,
    ricci_from_jet,
    riemann_from_jet,
    sectional_from_data,
    sphere_chart,
    sym_eigen,
)
from .errors import (
    CapabilityError,
    DegenerateMetricError,
    DegeneratePlaneError,
    FrameConstructionError,
    GraphGeoError,
    InvalidParameterError,
    OutOfChartError,
    PreconditionError,
    UnknownScenarioError,
)
from .extrinsic import (
    ExtrinsicData,
    GraphBlock,
    graph_block,
    second_fundamental_at,
    trace_s_at,
)
from .graph_map import GraphFrameData, MapJet, SmoothMap, adapted_frames_at
from .identities import (
    IdentityReport,
    PointData,
    decomposition_sides,
    elliptic_equation_residual,
    log_jacobian_residual_2d,
    normal_estimate_check,
    null_eigenvector_probe,
    point_rows,
    reaction_term_apply,
    run_identity_suite,
)
from .product_space import product_form
from .scenarios import Scenario, get, jets_selftest, registry
from .theorem_gate import (
    Classification,
    GridSweep,
    HypothesisReport,
    classify,
    evaluate_hypotheses,
    sweep_geometry,
    trace_rank_chain_check,
)

__version__ = "0.1.0"
