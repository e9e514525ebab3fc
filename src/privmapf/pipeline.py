"""End-to-end privacy pipeline: dispatch, publish once, solve, extract.

Flow: the dispatcher builds one k-pair group per agent and the groups are
broadcast exactly once; a designated planning agent (always group 0 here)
solves the joint k*N instance over all published pairs and broadcasts the
full plan; each agent privately extracts the single path matching its real
pair. Everything observable by other agents lives in the MessageTrace, and
nothing derived from a private real index may ever appear in it.

An observer's belief about agent i at time t is the set of vertices where
group i's sub-plans place any member at t (goal positions pad past each
path's end). The plan is k-private when every belief set keeps size >= k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import dispatch as dsp
from .grid import GridWorld
from .lacam import lacam_solve
from .pibt import SolveResult, SolverProblem, pibt_solve
from .plans import JointPlan


@dataclass(frozen=True)
class MessageTrace:
    """Everything broadcast during one pipeline run (and nothing more)."""

    published_groups: tuple[dsp.AgentGroup, ...]  # broadcast views, no real_index
    planner_group: int
    k: int
    fov_radius: int
    broadcast_plan: JointPlan | None

    def to_json(self, world: GridWorld) -> str:
        obj = {
            "planner_group": self.planner_group,
            "k": self.k,
            "fov_radius": self.fov_radius,
            "groups": [
                {
                    "group_id": g.group_id,
                    "pairs": [
                        list(world.coords(s)) + list(world.coords(t))
                        for s, t in g.pairs
                    ],
                }
                for g in self.published_groups
            ],
            "plan": None
            if self.broadcast_plan is None
            else [list(p) for p in self.broadcast_plan.paths],
        }
        return json.dumps(obj, indent=0, sort_keys=True)

    @staticmethod
    def from_json(world: GridWorld, text: str) -> "MessageTrace":
        obj = json.loads(text)
        groups = tuple(
            dsp.AgentGroup(
                g["group_id"],
                tuple(
                    (world.vertex_at(sx, sy), world.vertex_at(gx, gy))
                    for sx, sy, gx, gy in g["pairs"]
                ),
                None,
            )
            for g in obj["groups"]
        )
        plan = (
            None
            if obj["plan"] is None
            else JointPlan(tuple(tuple(p) for p in obj["plan"]))
        )
        return MessageTrace(groups, obj["planner_group"], obj["k"], obj["fov_radius"], plan)


@dataclass
class PipelineResult:
    solved: bool
    trace: MessageTrace
    groups: list[dsp.AgentGroup]  # private views, real_index present
    problem: SolverProblem
    solve: SolveResult
    plan: JointPlan | None
    real_paths: list[tuple[int, ...]] | None

    @property
    def reason(self) -> str | None:
        return self.solve.reason


def extract_real_path(plan: JointPlan, k: int, group: dsp.AgentGroup) -> tuple[int, ...]:
    """The path of the group's real pair, cross-checked by endpoint scan."""
    base = group.group_id * k
    path = plan.paths[base + group.real_index]
    matches = [
        j
        for j in range(base, base + k)
        if (plan.paths[j][0], plan.paths[j][-1]) == group.real_pair
    ]
    if matches != [base + group.real_index]:
        raise RuntimeError(
            f"group {group.group_id}: real pair does not map to exactly one path"
        )
    return path


SOLVERS = ("pibt", "lacam")


@dataclass(frozen=True)
class PipelineSpec:
    """Everything that selects how one pipeline run plans.

    The radius picks the rule at both ends: dispatch keeps groups outside
    each other's fov squares and the step builder clears them. Radius 0 is
    start/goal equality and the classical step rule, i.e. the k-anonymity
    pipeline (kPP); radius r >= 1 is the fov-aware pipeline (fPP).
    """

    k: int
    radius: int = 0
    solver: str = "pibt"
    budget_expansions: int = 10_000  # lacam only
    wall_clock_s: float | None = None  # lacam only; None keeps runs deterministic

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.wall_clock_s is not None and self.solver != "lacam":
            raise ValueError("wall-clock budgets need the lacam solver")
        if self.k < 1:
            raise dsp.InfeasibleInputError("k must be >= 1")
        if self.radius < 0:
            raise ValueError("fov radius must be >= 0")
        if type(self.budget_expansions) is not int or self.budget_expansions < 0:
            raise ValueError("the expansion budget must be an int >= 0")


def run_pipeline(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    spec: PipelineSpec,
    seed: int | str,
) -> PipelineResult:
    """Dispatch, publish the groups, solve the joint instance, extract."""
    groups = dsp.dispatch_groups(world, real_pairs, spec.k, spec.radius, seed)
    published = tuple(g.broadcast_view() for g in groups)
    problem = SolverProblem(world, list(published), spec.radius)
    if spec.solver == "pibt":
        result = pibt_solve(problem, seed)
    else:
        result = lacam_solve(
            problem, seed,
            budget_expansions=spec.budget_expansions, wall_clock_s=spec.wall_clock_s,
        )

    # groups are published before the solver runs: a failed solve still
    # leaks exactly the same messages, so the trace must carry them.
    trace = MessageTrace(published, 0, spec.k, spec.radius, result.plan)
    real_paths = None
    if result.solved:
        real_paths = [extract_real_path(result.plan, spec.k, g) for g in groups]
    return PipelineResult(
        result.solved, trace, groups, problem, result, result.plan, real_paths
    )


def kpp_solve(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    seed: int | str,
    solver: str = "pibt",
    budget_expansions: int = 10_000,
    wall_clock_s: float | None = None,
) -> PipelineResult:
    """k-anonymity pipeline: ``run_pipeline`` at radius 0."""
    spec = PipelineSpec(k, 0, solver, budget_expansions, wall_clock_s)
    return run_pipeline(world, real_pairs, spec, seed)


def fpp_solve(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    fov_radius: int,
    seed: int | str,
    solver: str = "pibt",
    budget_expansions: int = 10_000,
    wall_clock_s: float | None = None,
) -> PipelineResult:
    """Fov-aware pipeline: ``run_pipeline`` at ``fov_radius``."""
    spec = PipelineSpec(k, fov_radius, solver, budget_expansions, wall_clock_s)
    return run_pipeline(world, real_pairs, spec, seed)


def compute_beliefs(plan: JointPlan, group_of: list[int]) -> list[list[frozenset[int]]]:
    """beliefs[i][t]: where agent i might be at t, judging from the broadcast."""
    n_groups = max(group_of) + 1
    horizon = plan.horizon
    beliefs = []
    for i in range(n_groups):
        members = [j for j, g in enumerate(group_of) if g == i]
        beliefs.append(
            [
                frozenset(plan.position(j, t) for j in members)
                for t in range(horizon + 1)
            ]
        )
    return beliefs


def check_k_privacy(beliefs: list[list[frozenset[int]]], k: int) -> dict:
    """Every belief set must keep at least k candidate locations."""
    violations = [
        (i, t, len(b))
        for i, per_t in enumerate(beliefs)
        for t, b in enumerate(per_t)
        if len(b) < k
    ]
    return {"ok": not violations, "violations": violations}


def write_trace(trace: MessageTrace, world: GridWorld, path: str | Path) -> None:
    Path(path).write_text(trace.to_json(world) + "\n")


def read_trace(world: GridWorld, path: str | Path) -> MessageTrace:
    return MessageTrace.from_json(world, Path(path).read_text())
