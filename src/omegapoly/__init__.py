"""Exact rational toolkit for clique polytopes of complete multipartite
graphs with two vertices per part.

The interesting object is the convex hull of the 0/1 points encoding the
n-cliques of such graphs.  Values are fractions.Fraction at the API and
the kernels underneath run on plain ints, so facet enumeration, linear
programming, face tests, edge certificates and the three-part case
analysis are exact and reproducible.
"""

from .graph2p import (Assignment, Graph2P, VertexRef, assignment_from_text,
                      complete_graph, enumerate_cliques, find_clique,
                      graph_from_json, graph_to_json, is_clique, solve_2sat,
                      to_2cnf, without_edges)
from .guards import ScaleGuardError
from .neighborly import (EdgeCertificate, certificate_from_json,
                         certificate_to_json, edge_certificate,
                         verify_certificate)
from .omega_core import (EqualityReport, OmegaPoint, ReducedPoint,
                         all_assignments, all_vertices, check_equalities,
                         independent_family, lift_point, omega_dimension,
                         reduce_point, reduced_vertex, reduced_vertex_vrep,
                         vertex_from_assignment)
from .omega3_census import (CaseReport, CensusReport, PairClass, analyze_pair,
                            census_to_json, classify_pair, edges_via_hull,
                            facet_census)
from .polyhedra import (FaceVerdict, HRep, LinearForm, LpResult, VRep,
                        affine_rank, convex_hull_facets, hrep_from_text,
                        hrep_to_text, is_face, linear_form, lp_solve,
                        regular_polytope, vrep_from_text, vrep_to_text)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CaseReport", "CensusReport", "EdgeCertificate",
    "EqualityReport", "FaceVerdict", "Graph2P", "HRep", "LinearForm",
    "LpResult", "OmegaPoint", "PairClass", "ReducedPoint", "ScaleGuardError",
    "VRep", "VertexRef", "affine_rank", "all_assignments", "all_vertices",
    "analyze_pair", "assignment_from_text", "census_to_json",
    "certificate_from_json", "certificate_to_json", "check_equalities",
    "classify_pair", "complete_graph", "convex_hull_facets",
    "edge_certificate", "edges_via_hull", "enumerate_cliques",
    "facet_census", "find_clique", "graph_from_json", "graph_to_json",
    "hrep_from_text", "hrep_to_text", "independent_family", "is_clique",
    "is_face", "lift_point", "linear_form", "lp_solve", "omega_dimension",
    "reduce_point", "reduced_vertex", "reduced_vertex_vrep",
    "regular_polytope", "solve_2sat", "to_2cnf", "verify_certificate",
    "vertex_from_assignment", "vrep_from_text", "vrep_to_text",
    "without_edges",
]
