"""Correlation uncertainty on finite product probability spaces.

Exact-rational tooling for the set of all couplings of given marginals:
its linear system, kernel and dimension, extreme points, the lower-envelope
capacity with Choquet integration, mutual-information diagnostics,
independence on collections of subspaces, maxmin/Choquet act evaluation
with behavioral axiom checkers, and a scenario-file front end.
"""

from .errors import (
    ConsistencyError,
    CorrpolyError,
    GuardExceededError,
    InfeasibleError,
    MarginalMismatchError,
    NonlinearCollectionError,
    NotInCorrelationSetError,
    ScenarioError,
    SpaceMismatchError,
    UnboundedError,
)
from .space import (
    Act,
    Collection,
    Event,
    JointDistribution,
    Marginal,
    ProductSpace,
    cylinder,
    embed_act,
    embed_cylinder,
    event_from_mask,
    expectation,
    hamming_distance,
    independent_product,
    is_independent_of,
    marginalize,
)
from .polytope import (
    CorrelationSet,
    KernelBasis,
    MarginalSystem,
    build_correlation_set,
    contains,
    decompose,
    dimension,
    dimension_formula,
    enumerate_extreme_points,
    is_maximally_zero,
    kernel_basis_rectangles,
    mix,
    sample_member,
)
from .lp import (
    FeasibleStart,
    LinearProgram,
    LPSolution,
    feasible_start,
    in_convex_hull,
    solve_lp_min,
)
from .capacity import (
    Capacity,
    capacity_of,
    capacity_value,
    check_exactness,
    choquet_integral,
    cylinder_additivity_check,
    find_convexity_violation,
)
from .info import (
    MutualInformationReport,
    certify_local_max_mi,
    entropy,
    kl_divergence,
    mutual_information,
)
from .independence import (
    IndependenceVerdict,
    check_event_level_independence,
    inherited_collections,
    is_independent_on,
    partition_factorize,
    product_of_components,
    restricted_dimension,
    sample_partition_member,
)
from .preferences import (
    AxiomCounterexample,
    ConsistencyReport,
    PriorSet,
    ProductIdentityWitness,
    RevealedCorrelation,
    RiskUtility,
    SubspacePreference,
    UtilityAlignment,
    absolute_revealed_correlation,
    ceu_value,
    check_collection_independence_axiom,
    check_subspace_consistency,
    check_subspace_independence_axiom,
    compare_revealed_correlation,
    meu_minimizer,
    meu_value,
    more_correlation_averse,
    seu_subspace_value,
)
from .scenario import Scenario, load, loads, parse_collection_spec, parse_event, serialize
from .applications import (
    FinanceReport,
    InsuranceReport,
    InsuranceVerdict,
    ReportRow,
    decimal_string,
    run_climate,
    run_finance,
    run_insurance,
    sweep_csv,
    sweep_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
