"""Intrinsic linking of graphs, decided combinatorially and spatially.

Three coordinated toolsets:

* graph machinery: multigraphs, circuit enumeration, minors with
  certificates, planarity with certificates, canonical forms for small
  graphs;
* the Delta-Y move and the seven-graph Petersen family, whose members
  are exactly the minor-minimal intrinsically linked graphs, held as
  pinned derivations that each load replays and checks;
* exact rational PL embeddings with regular projections, diagrammatic
  linking numbers, and the mod-2 invariant omega used to reproduce the
  classical K6 / K3,3,1 linking results numerically.
"""

from .canonical import VertexLimitExceeded, canonical_form
from .circuits import (
    Circuit,
    CircuitCapExceeded,
    disjoint_circuit_pairs,
    enumerate_circuits,
)
from .embedding import (
    EmbeddingError,
    RetryLimitExceeded,
    SpatialEmbedding,
    embedding_from_json_dict,
    embedding_to_json_dict,
    random_embedding,
    reroute_edge,
    straight_line_embedding,
)
from .experiments import (
    ExperimentReport,
    RerouteReport,
    conway_gordon_experiment,
    edge_swap_check,
)
from .minors import (
    DEFAULT_BUDGET,
    LinkVerdict,
    MinimalityReport,
    MinorModel,
    SearchBudgetExceeded,
    has_minor,
    is_intrinsically_linked,
    minor_minimality_report,
    minor_model_errors,
    verify_minor_model,
)
from .moves import FamilyMember, delta_y, petersen_family, triangles
from .multigraph import (
    Edge,
    GraphError,
    GraphParseError,
    MultiGraph,
    builtin_graph,
    complete_bipartite,
    complete_graph,
    format_edge_list,
    graph_from_pairs,
    grid_graph,
    k331_graph,
    parse_edge_list,
    parse_graph,
    petersen_graph,
)
from .omega import OmegaReport, omega_graph, regular_projection
from .planarity import PlanarCertificate, planar_certificate_errors, planar_rotation
from .projection import (
    NonRegularProjection,
    ProjectedDiagram,
    linking_number,
    omega_pair,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CircuitCapExceeded",
    "DEFAULT_BUDGET",
    "Edge",
    "EmbeddingError",
    "ExperimentReport",
    "FamilyMember",
    "GraphError",
    "GraphParseError",
    "LinkVerdict",
    "MinimalityReport",
    "MinorModel",
    "MultiGraph",
    "NonRegularProjection",
    "OmegaReport",
    "PlanarCertificate",
    "ProjectedDiagram",
    "RerouteReport",
    "RetryLimitExceeded",
    "SearchBudgetExceeded",
    "SpatialEmbedding",
    "VertexLimitExceeded",
    "builtin_graph",
    "canonical_form",
    "complete_bipartite",
    "complete_graph",
    "conway_gordon_experiment",
    "delta_y",
    "disjoint_circuit_pairs",
    "edge_swap_check",
    "embedding_from_json_dict",
    "embedding_to_json_dict",
    "enumerate_circuits",
    "format_edge_list",
    "graph_from_pairs",
    "grid_graph",
    "has_minor",
    "is_intrinsically_linked",
    "k331_graph",
    "linking_number",
    "minor_minimality_report",
    "minor_model_errors",
    "omega_graph",
    "omega_pair",
    "parse_edge_list",
    "parse_graph",
    "petersen_family",
    "petersen_graph",
    "planar_certificate_errors",
    "planar_rotation",
    "project",
    "random_embedding",
    "regular_projection",
    "reroute_edge",
    "straight_line_embedding",
    "triangles",
    "verify_minor_model",
]
