"""Rolling stock scheduling models, solvers, and cross-validation tools."""

from .instance import (
    Composition,
    Connection,
    CostParams,
    Depot,
    Instance,
    Trip,
    UnitType,
    canonical,
    canonical_instances,
    closure_arcs,
    validate,
)
from .hypergraph import build, decompose_paths, enumerate_changes, project_base_flow
from .composition import contract
from .formulation import MilpModel, ModelOptions, assemble, export_lp_file, parse_lp_file
from .solver import enumerate_oracle, solve_ip, solve_lp

__version__ = "0.1.0"

__all__ = [
    "Composition", "Connection", "CostParams", "Depot", "Instance", "Trip",
    "UnitType", "canonical", "canonical_instances", "closure_arcs", "validate",
    "build", "decompose_paths", "enumerate_changes", "project_base_flow",
    "contract",
    "MilpModel", "ModelOptions", "assemble", "export_lp_file", "parse_lp_file",
    "enumerate_oracle", "solve_ip", "solve_lp",
]
