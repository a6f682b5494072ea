"""l1linf: piecewise-linear solution paths for l1-minimization under a
sup-norm constraint ||Ax - b||_inf <= delta, computed by a primal-dual
homotopy in the bound delta with specialized active-set subsolvers."""

from .homotopy import (IndexSets, PathBreakpoint, ProblemInstance,
                       SolutionPath, check_alternatives, check_optimal_pair,
                       duality_gap, eval_path, solve_path)
from .instances import (GeneralizedBounds, GroundTruthInstance,
                        load_instance, make_ground_truth, random_bp_pair,
                        random_ground_truth, save_instance, to_linf_form)
from .linalg import IndexSet, SolveReport, solve_consistent

__all__ = [
    "IndexSet", "IndexSets", "SolveReport", "ProblemInstance",
    "PathBreakpoint", "SolutionPath", "GroundTruthInstance",
    "GeneralizedBounds", "solve_path", "eval_path", "check_optimal_pair",
    "check_alternatives", "duality_gap", "solve_consistent",
    "make_ground_truth", "random_bp_pair", "random_ground_truth",
    "to_linf_form", "save_instance", "load_instance",
]

__version__ = "0.1.0"
