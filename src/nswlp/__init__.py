"""Weighted Nash social welfare solver.

Approximation pipeline: configuration LP (column generation seeded from a
Fisher market and priced by an exact branch-and-bound pricer, stopped on a
Lagrangian bound that the exact vertex is checked against) followed by
value-ordered group rounding
with an exact convex decomposition into matchings.  Reference solvers
(brute force, positivity matching, one-item assignment baseline) certify
the approximation at desk scale.
"""

from .core import (
    Agent,
    Allocation,
    DecompositionFailure,
    EmptyAgent,
    EmptyInstance,
    Infeasible,
    Instance,
    InvalidInstance,
    NegativeValue,
    NumericalCollapse,
    OverlappingBundles,
    TooLarge,
    WeightSumError,
    as_fraction,
    check_ef1,
    log_nsw,
    make_instance,
    nsw,
    scale_values,
    validate,
)
from .configlp import (
    Column,
    ColumnSolution,
    EllipsoidRun,
    ellipsoid_run,
    full_enumeration_lp,
    separation_oracle,
    solve_configuration_lp,
    solve_restricted_primal,
)
from .reference import assignment_baseline, brute_force_opt, positivity_check
from .rounding import (
    MatchingCombination,
    allocation_from_matching,
    build_groups,
    decompose,
    marginals,
    round_best,
    round_combination,
)

__all__ = [
    "Agent",
    "Allocation",
    "Column",
    "ColumnSolution",
    "DecompositionFailure",
    "EllipsoidRun",
    "EmptyAgent",
    "EmptyInstance",
    "Infeasible",
    "Instance",
    "InvalidInstance",
    "MatchingCombination",
    "NegativeValue",
    "NumericalCollapse",
    "OverlappingBundles",
    "TooLarge",
    "WeightSumError",
    "allocation_from_matching",
    "as_fraction",
    "assignment_baseline",
    "brute_force_opt",
    "build_groups",
    "check_ef1",
    "decompose",
    "ellipsoid_run",
    "full_enumeration_lp",
    "log_nsw",
    "make_instance",
    "marginals",
    "nsw",
    "positivity_check",
    "round_best",
    "round_combination",
    "scale_values",
    "separation_oracle",
    "solve_configuration_lp",
    "solve_restricted_primal",
    "validate",
]

__version__ = "0.1.0"
