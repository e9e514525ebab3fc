"""Privacy-preserving multi-agent path finding on grid maps.

Each agent hides its true start and goal inside a group of k published
(start, goal) pairs; a joint plan over all k*N pairs is broadcast, and
every agent follows its real path while the other k-1 stay plausible
decoys. The fov-aware variant additionally keeps groups outside each
other's square field of view, which makes safe-zone post-processing
possible: agents shorten their real paths inside regions no one else can
observe, without touching the broadcast plan.
"""

from .audit import (
    AuditError,
    ConflictReport,
    Metrics,
    MetricsError,
    audit,
    check_runtime_k_privacy,
    check_separated,
    metrics,
    path_cost,
    real_sum_of_costs,
)
from .dispatch import (
    AgentGroup,
    DispatchExhaustedError,
    InfeasibleInputError,
    dispatch_groups,
    no_collision_probability,
    no_collision_probability_blocked_set,
)
from .grid import (
    EmptyMapError,
    GridWorld,
    ParseError,
    ScenarioError,
    load_map,
    load_scenario,
    parse_map_text,
    parse_scenario_text,
    scenario_pairs,
)
from .instances import random_spaced_pairs
from .lacam import lacam_solve
from .pibt import SolveResult, SolverProblem, pibt_solve
from .pipeline import (
    MessageTrace,
    PipelineResult,
    PipelineSpec,
    check_k_privacy,
    compute_beliefs,
    run_pipeline,
)
from .plans import JointPlan, pad_paths
from .safezone import (
    PreconditionError,
    RefineResult,
    ReplanInfeasibleError,
    extend_safe_zones,
    initial_safe_zones,
    ppfpp,
    sipp_replan,
)

__version__ = "0.1.0"

__all__ = [
    "AgentGroup",
    "AuditError",
    "ConflictReport",
    "DispatchExhaustedError",
    "EmptyMapError",
    "GridWorld",
    "InfeasibleInputError",
    "JointPlan",
    "MessageTrace",
    "Metrics",
    "MetricsError",
    "ParseError",
    "PipelineResult",
    "PipelineSpec",
    "PreconditionError",
    "RefineResult",
    "ReplanInfeasibleError",
    "ScenarioError",
    "SolveResult",
    "SolverProblem",
    "audit",
    "check_k_privacy",
    "check_runtime_k_privacy",
    "check_separated",
    "compute_beliefs",
    "dispatch_groups",
    "extend_safe_zones",
    "initial_safe_zones",
    "lacam_solve",
    "load_map",
    "load_scenario",
    "metrics",
    "no_collision_probability",
    "no_collision_probability_blocked_set",
    "pad_paths",
    "parse_map_text",
    "parse_scenario_text",
    "path_cost",
    "pibt_solve",
    "ppfpp",
    "random_spaced_pairs",
    "real_sum_of_costs",
    "run_pipeline",
    "scenario_pairs",
    "sipp_replan",
]
