"""End-to-end privacy pipeline: dispatch, publish once, solve, extract.

``run_pipeline(world, pairs, PipelineSpec(k, radius, ...), seed)`` is the one
entry point; the spec says how the run plans.

Flow: the dispatcher builds one k-pair group per agent and the groups are
broadcast exactly once; a designated planning agent (always group 0 here)
solves the joint k*N instance over all published pairs and broadcasts the
full plan; each agent privately extracts the single path matching its real
pair. Everything observable by other agents lives in the MessageTrace, and
nothing derived from a private real index may ever appear in it. Its JSON
form is the one broadcast file: ``privmapf solve`` writes it, and ``audit``
and ``ppfpp`` read the plan, k and the radius back from it.

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

    @property
    def group_of(self) -> list[int]:
        """The group of each plan row, group-major."""
        return [g.group_id for g in self.published_groups for _ in g.pairs]

    @staticmethod
    def from_json(world: GridWorld, text: str) -> "MessageTrace":
        """The trace ``to_json`` wrote; TraceError if the text is not one.

        Each group must hold k pairs on passable cells with distinct starts
        and goals, and a plan, when there is one, k rows per group of one
        length, each starting and ending at its published pair.
        """
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise TraceError(f"not JSON ({exc})") from None
        for key in ("planner_group", "k", "fov_radius", "groups", "plan"):
            if not isinstance(obj, dict) or key not in obj:
                raise TraceError(f"missing key {key!r}")
        k = _read_int(obj["k"], 1, "k")
        radius = _read_int(obj["fov_radius"], 0, "fov_radius")
        if not isinstance(obj["groups"], list):
            raise TraceError("groups is not a list")
        groups = tuple(_read_group(world, i, g, k) for i, g in enumerate(obj["groups"]))
        planner = _read_int(obj["planner_group"], 0, "planner_group")
        if planner >= len(groups):
            raise TraceError(f"planner_group {planner} is not one of the {len(groups)} groups")
        plan = None if obj["plan"] is None else _read_plan(obj["plan"], groups, k)
        return MessageTrace(groups, planner, k, radius, plan)


class TraceError(ValueError):
    """A message trace that is not one the pipeline could have broadcast."""


def _read_int(value, low: int, what: str) -> int:
    if type(value) is not int or value < low:
        raise TraceError(f"{what} is {value!r}, not an int >= {low}")
    return value


def _read_group(world: GridWorld, i: int, obj, k: int) -> dsp.AgentGroup:
    if not (isinstance(obj, dict) and obj.get("group_id") == i
            and isinstance(obj.get("pairs"), list)):
        raise TraceError(f'group {i}: expected {{"group_id": {i}, "pairs": [...]}}')
    if len(obj["pairs"]) != k:
        raise TraceError(f"group {i}: {len(obj['pairs'])} pairs, k is {k}")
    pairs = []
    for p in obj["pairs"]:
        if not (isinstance(p, list) and len(p) == 4 and all(type(c) is int for c in p)):
            raise TraceError(f"group {i}: pair {p!r} is not [sx, sy, gx, gy]")
        try:
            pairs.append((world.vertex_at(p[0], p[1]), world.vertex_at(p[2], p[3])))
        except ValueError as exc:
            raise TraceError(f"group {i}: {exc}") from None
    try:
        return dsp.AgentGroup(i, tuple(pairs), None)
    except dsp.InfeasibleInputError as exc:  # a repeated start or goal
        raise TraceError(str(exc)) from None


def _read_plan(rows, groups: tuple[dsp.AgentGroup, ...], k: int) -> JointPlan:
    if not isinstance(rows, list) or len(rows) != k * len(groups):
        raise TraceError(f"plan does not have k x groups = {k * len(groups)} rows")
    for j, row in enumerate(rows):
        if not (isinstance(row, list) and row and all(type(v) is int for v in row)):
            raise TraceError(f"plan row {j} is not a list of vertex ids")
        if (row[0], row[-1]) != groups[j // k].pairs[j % k]:
            raise TraceError(
                f"plan row {j} does not start and end at pair {j % k} of group {j // k}"
            )
    try:
        return JointPlan(tuple(tuple(row) for row in rows))
    except ValueError as exc:  # ragged rows
        raise TraceError(str(exc)) from None


@dataclass
class PipelineResult:
    trace: MessageTrace
    groups: list[dsp.AgentGroup]  # private views, real_index present
    problem: SolverProblem
    solve: SolveResult
    plan: JointPlan | None  # solve.plan, kept a field: dataclasses.replace can swap in another
    real_paths: list[tuple[int, ...]] | None

    @property
    def solved(self) -> bool:
        return self.solve.solved

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
    pipeline (kPP); radius r >= 1 is the fov-aware pipeline (fPP). The
    field defaults are the solver and budget defaults of the whole package:
    the CLI and the bench config read them from here.
    """

    k: int
    radius: int = 0
    solver: str = "lacam"
    budget_expansions: int = 10_000  # lacam only

    def __post_init__(self) -> None:
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
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
        result = lacam_solve(problem, seed, budget_expansions=spec.budget_expansions)

    # groups are published before the solver runs: a failed solve still
    # leaks exactly the same messages, so the trace must carry them.
    trace = MessageTrace(published, 0, spec.k, spec.radius, result.plan)
    real_paths = None
    if result.solved:
        real_paths = [extract_real_path(result.plan, spec.k, g) for g in groups]
    return PipelineResult(trace, groups, problem, result, result.plan, real_paths)


def kpp_solve(world, real_pairs, k, seed, **settings) -> PipelineResult:
    """``run_pipeline`` at radius 0, kept only for ``perfbench/workloads.py``,
    which passes ``solver`` and ``budget_expansions`` as ``settings``."""
    return run_pipeline(world, real_pairs, PipelineSpec(k, 0, **settings), seed)


def fpp_solve(world, real_pairs, k, fov_radius, seed, **settings) -> PipelineResult:
    """``run_pipeline`` at ``fov_radius``, kept only as ``kpp_solve`` is."""
    return run_pipeline(world, real_pairs, PipelineSpec(k, fov_radius, **settings), seed)


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
    """The trace in a file; TraceError, naming the file, if it is malformed."""
    try:
        return MessageTrace.from_json(world, Path(path).read_text())
    except (TraceError, UnicodeDecodeError) as exc:
        raise TraceError(f"{path}: {exc}") from None
