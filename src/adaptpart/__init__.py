"""Adaptive-partition solver for two-stage stochastic linear programs.

The package solves min c'x + E[Q(x, xi)] over a polyhedral first stage, where
Q is the value of a fixed-recourse second-stage LP whose rhs and technology
matrix may depend on the random element xi.  Instead of enumerating
scenarios, the solver maintains a partition of the uncertainty space, solves
an aggregated master over the cells' conditional means (a lower bound), and
refines cells guided by subproblem duals until the bounds meet.
"""

from .engine import (CONDITIONS, GAP, ITERATION_LIMIT, STABILIZED,
                     IterationRecord, SolveResult, SolverConfig,
                     check_conditions, relative_gap, run)
from .errors import (AdaptPartError, RecourseViolation, SolverFailure,
                     ValidationError)
from .instances import (cvar_document, document_to_model, document_to_space,
                        lands_document, load_document, validate_document,
                        write_document)
from .model import (Realization, RecourseModel, build_aggregated_master,
                    evaluate_subproblem)
from .refiners import (DualClusteringRefiner, HyperplaneRefiner, RangingRefiner,
                       RefineContext, Refiner, refiner_by_name, rhs_dual_breakpoints)
from .reporting import iteration_csv_text, partition_trace, run_summary, write_run_report
from .spaces import (Cell, DiscreteSpace, GaussianTechnologySpace, UncertaintySpace,
                     UniformRhsSpace)

__all__ = [
    "AdaptPartError", "RecourseViolation", "SolverFailure", "ValidationError",
    "Cell", "UncertaintySpace", "DiscreteSpace", "UniformRhsSpace",
    "GaussianTechnologySpace",
    "RecourseModel", "Realization",
    "build_aggregated_master", "evaluate_subproblem",
    "Refiner", "RefineContext", "DualClusteringRefiner", "RangingRefiner",
    "HyperplaneRefiner", "refiner_by_name", "rhs_dual_breakpoints",
    "SolverConfig", "SolveResult", "IterationRecord", "run", "check_conditions",
    "relative_gap",
    "GAP", "CONDITIONS", "STABILIZED", "ITERATION_LIMIT",
    "lands_document", "cvar_document", "document_to_model", "document_to_space",
    "load_document", "write_document", "validate_document",
    "iteration_csv_text", "partition_trace", "run_summary", "write_run_report",
]

__version__ = "0.1.0"
