"""Equilibrium engine for chains of strategic information intermediaries.

A sender designs an experiment about a hidden state; each intermediary in the
chain may garble what it receives before passing it on; a final receiver takes
a binary action.  The package computes subgame-perfect equilibrium outcomes in
closed form, cross-checks them against an exhaustive grid oracle, and finds
receiver-optimal points at which to insert an extra intermediary.
"""
from .core import (
    BinaryOutcome,
    BinaryPrior,
    ChainError,
    DimensionMismatch,
    Experiment,
    OrderViolation,
    PriorMismatch,
    UniformPrior,
    ZeroProbabilitySignal,
    as_ratio,
    compose,
    experiment,
    experiment_of_outcome,
    full_information,
    identity_experiment,
    is_mpc,
    make_outcome,
    mpc_feasible_uniform,
    no_information,
    outcome_of_experiment,
)
from .agents import (
    AgentClass,
    AgentSpec,
    DegenerateAgent,
    ExtremistReceiver,
    HierarchySpec,
    Kind,
    LinearUtility,
    NoConformist,
    PivotalReport,
    Relabeling,
    TableUtility,
    ThresholdCollision,
    ValidationError,
    canonicalize_receiver,
    classify_binary,
    classify_linear,
    classify_spec,
    conformist_table,
    contrarian_table,
    hierarchy,
    indifference_belief,
    linear_utility,
    one_extremist_table,
    pivotal_binary,
    pivotal_general,
    quadratic_loss_table,
    reclassify_under_support,
    relabel_hierarchy,
    sender_classes,
    receiver_class,
    receiver_rule,
    seat_values,
    split_value,
    table_utility,
    zero_extremist_table,
)
from .binary_solver import (
    EquilibriumKind,
    EquilibriumReport,
    NoInfoCause,
    solve_binary,
)
from .general_solver import (
    GeneralEquilibriumReport,
    GeneralKind,
    NotCovered,
    player1_value,
    solve_general_uniform,
    solve_subgame_given_support,
)
from .advisor import (
    NoImprovement,
    VpRecommendation,
    optimal_two_vps,
    optimal_vp_binary,
    optimal_vp_general,
)
from .oracle import (
    EmptyLevelSet,
    IcChain,
    IntervalCut,
    McReport,
    OutcomeGrid,
    SeedRequired,
    blackwell_maximal,
    breakpoint_grid,
    breakpoint_means,
    build_grid,
    ic_chain,
    monte_carlo,
    outcome_value,
    solve_general_grid,
    solve_spe_grid,
    verify_simple_equilibrium,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
