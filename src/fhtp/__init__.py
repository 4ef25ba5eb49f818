"""Finite-horizon rate scheduling for interfering transmitter-receiver pairs.

Decides whether an average-rate target is reachable within a fixed number of
slots and, when it is, produces the per-slot rate and power schedule. The
workhorse is A* over action multisets with an interference-free admissible
heuristic, restricted to Pareto-optimal power vectors; orderings of one
multiset reach the same residual backlog and are searched once.
"""

from .channel import ChannelModel, PowerVector
from .errors import InfeasibleError, ScenarioError, SizeLimitError
from .fading import (
    EbfStats,
    FadingConfig,
    ebf_experiment,
    nakagami_power_gain,
    sample_channel,
)
from .oracle import OracleResult, brute_force_min_time, residual_cost
from .policy import (
    AchievabilityReport,
    ComparisonReport,
    MaxWeightResult,
    Policy,
    VerificationReport,
    check_achievability,
    derive_policy,
    incompleteness_demo,
    max_weight_policy,
    maxweight_counterexample,
    verify_policy,
)
from .region import (
    CapacityPoint,
    RefinedPowerSet,
    capacity_set,
    enumerate_power_vectors,
    one_slot_membership,
    pareto_frontier,
    refined_power_set,
    weak_pareto_frontier,
)
from .scenario import Scenario, parse_scenario, scenario_from_dict, scenario_to_dict
from .solver import (
    SearchStats,
    Solution,
    SolverOptions,
    effective_branching_factor,
    heuristic,
    queue_update,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AchievabilityReport",
    "CapacityPoint",
    "ChannelModel",
    "ComparisonReport",
    "EbfStats",
    "FadingConfig",
    "InfeasibleError",
    "MaxWeightResult",
    "OracleResult",
    "Policy",
    "PowerVector",
    "RefinedPowerSet",
    "Scenario",
    "ScenarioError",
    "SearchStats",
    "SizeLimitError",
    "Solution",
    "SolverOptions",
    "VerificationReport",
    "brute_force_min_time",
    "capacity_set",
    "check_achievability",
    "derive_policy",
    "ebf_experiment",
    "effective_branching_factor",
    "enumerate_power_vectors",
    "heuristic",
    "incompleteness_demo",
    "max_weight_policy",
    "maxweight_counterexample",
    "nakagami_power_gain",
    "one_slot_membership",
    "pareto_frontier",
    "parse_scenario",
    "queue_update",
    "refined_power_set",
    "residual_cost",
    "sample_channel",
    "scenario_from_dict",
    "scenario_to_dict",
    "solve",
    "verify_policy",
    "weak_pareto_frontier",
]
