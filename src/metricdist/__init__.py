"""Worst-case distortion and fairness of voting rules under metric preferences.

The package models an election as a profile of strict rankings, treats the
unknown agent costs as a metric constrained only by those rankings, and
certifies worst-case cost ratios (distortion) and top-k fairness ratios by
solving linear programs over the polytope of ranking-consistent metrics.
"""

from metricdist.linprog import LinearProgram, LpOutcome, LpStatus, solve
from metricdist.metricspace import (
    CostMatrix,
    FullMetric,
    complete_metric,
    is_consistent,
    is_q_metric,
    percentile_cost,
    social_cost,
    top_k_cost,
)
from metricdist.profiles import (
    LabeledInstance,
    PreferenceProfile,
    coupling_instance,
    line_split_instance,
    parse_cost_matrix,
    parse_profile,
    percentile_gap_instance,
    random_line_instance,
    random_profile,
    ranked_pairs_hard_instance,
    serialize_cost_matrix,
    serialize_profile,
    symmetric_tournament_instance,
    top_choice_counts,
    warmup_instance,
)
from metricdist.tournament import (
    MajorityDigraph,
    WeightedTournament,
    build_majority,
    build_weighted,
)
from metricdist.rules import (
    RuleOutcome,
    copeland,
    randomized_dictatorship,
    ranked_pairs,
    schulze,
)
from metricdist.distortion import (
    BudgetExceededError,
    DistortionReport,
    FairnessRandReport,
    FairnessReport,
    MetricPolytope,
    a_det,
    a_rand,
    dist_det,
    dist_rand,
    fairness_det,
    fairness_rand,
    grid_oracle,
)
from metricdist.instanceopt import (
    ConvergenceError,
    CuttingPlaneState,
    OptDetResult,
    OptRandResult,
    OracleVerdict,
    candidate_response_value,
    opt_det,
    opt_rand,
    separation_oracle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
