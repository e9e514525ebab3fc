"""End-to-end privacy pipeline: dispatch, publish once, solve, extract.

``run_pipeline(world, pairs, PipelineSpec(k, radius, ...), seed)`` is the one
entry point; the spec says how the run plans.

Flow: the dispatcher builds one k-pair group per agent and the groups are
broadcast exactly once; a designated planning agent (always group 0 here)
solves the joint k*N instance over all published pairs and broadcasts the
full plan once ``audit.audit_trace`` finds it clean (a plan that fails is a
bug, ``BroadcastAuditError``, and is never published); each agent privately
extracts the single path matching its real pair. Everything observable by
other agents lives in the MessageTrace, and nothing derived from a private
real index may ever appear in it. Its JSON form is the one broadcast file:
``privmapf solve`` writes it, and ``audit`` and ``ppfpp`` read the plan, k
and the radius back from it; ``read_real_paths`` joins it to the sidecars.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import dispatch as dsp
from .audit import TraceReport, audit_trace
from .grid import ConfigError, GridWorld, PrivmapfError, read_file, require_int
from .lacam import SolveResult, lacam_solve
from .pibt import SolverProblem
from .plans import JointPlan


class MessageTrace(NamedTuple):
    """Everything broadcast during one pipeline run (and nothing more)."""

    published_groups: tuple[dsp.AgentGroup, ...]  # broadcast views, no real_index
    k: int
    fov_radius: int
    broadcast_plan: JointPlan | None

    def to_json(self, world: GridWorld) -> str:
        obj = {
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


class TraceError(PrivmapfError, ValueError):
    """A message trace that is not one the pipeline could have broadcast."""


def _read_group(world: GridWorld, i: int, obj, k: int) -> dsp.AgentGroup:
    if not (isinstance(obj, dict) and type(obj.get("group_id")) is int
            and obj["group_id"] == i and isinstance(obj.get("pairs"), list)):
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


def _read_plan(world: GridWorld, rows, groups: tuple[dsp.AgentGroup, ...], k: int) -> JointPlan:
    if not isinstance(rows, list) or len(rows) != k * len(groups):
        raise TraceError(f"plan does not have k x groups = {k * len(groups)} rows")
    n = world.num_vertices
    for j, row in enumerate(rows):
        if not (isinstance(row, list) and row and all(type(v) is int and 0 <= v < n for v in row)):
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
    # solve.plan, kept a field so that dataclasses.replace can swap in
    # another: perfbench/selftest.py does, which is why this one record is
    # still a dataclass and not a named tuple (ROADMAP item 1b)
    plan: JointPlan | None
    real_paths: list[tuple[int, ...]] | None
    report: TraceReport | None = None  # the gate's audit; None when unsolved

    @property
    def solved(self) -> bool:
        return self.solve.solved

    @property
    def reason(self) -> str | None:
        return self.solve.reason


class BroadcastAuditError(RuntimeError):
    """A solved plan failed its audit: a solver bug, never published."""


def extract_real_path(plan: JointPlan, k: int, group_id: int, real_index: int) -> tuple[int, ...]:
    """The real path of group ``group_id``: plan row ``group_id * k + real_index``.

    No endpoint scan is needed: each row of a plan starts and ends at its
    own published pair (LaCAM plans every pair from its start to its goal,
    and ``read_trace`` checks it of a plan read back), and a
    group's starts are distinct (``AgentGroup``), so the indexed row is the
    one row of its group with the real pair's endpoints."""
    return plan.paths[group_id * k + real_index]


class PipelineSpec(namedtuple("PipelineSpec", "k radius budget_expansions",
                              defaults=(0, 10_000))):
    """Everything that selects how one pipeline run plans: the group size
    ``k``, the fov ``radius`` and LaCAM's ``budget_expansions``.

    The radius picks the rule at both ends: dispatch keeps groups outside
    each other's fov squares and the step builder clears them. Radius 0 is
    start/goal equality and the classical step rule, i.e. the k-anonymity
    pipeline (kPP); radius r >= 1 is the fov-aware pipeline (fPP). LaCAM
    plans every run, within ``budget_expansions``; the defaults are those
    of the whole package: the CLI and ``bench.suite`` read them from
    ``_field_defaults``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        require_int(self.k, 1, "k must be >= 1")
        require_int(self.radius, 0, "fov radius must be >= 0")
        require_int(self.budget_expansions, 0, "the expansion budget must be an int >= 0")
        return self


def run_pipeline(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    spec: PipelineSpec,
    seed: int | str,
) -> PipelineResult:
    """Dispatch, publish the groups, solve the joint instance, gate a solved
    plan on ``audit_trace`` (BroadcastAuditError if it fails), extract.

    Dispatch draws from ``seed``: a seeded run can be replayed, and the
    belief-set guarantee holds only while the seed is secret."""
    groups = dsp.dispatch_groups(world, real_pairs, spec.k, spec.radius, seed)
    published = tuple(g.broadcast_view() for g in groups)
    problem = SolverProblem(world, list(published), spec.radius)
    result = lacam_solve(problem, seed, budget_expansions=spec.budget_expansions)

    # groups are published before the solver runs: a failed solve still
    # leaks exactly the same messages, so the trace must carry them.
    trace = MessageTrace(published, spec.k, spec.radius, result.plan)
    real_paths = report = None
    if result.solved:
        report = audit_trace(world, trace)
        if not report.ok:
            raise BroadcastAuditError(f"solved plan fails its audit: {report.conflicts.summary()}"
                                      f"  belief sets below k: {len(report.below_k)}")
        real_paths = [extract_real_path(result.plan, spec.k, g.group_id, g.real_index)
                      for g in groups]
    return PipelineResult(trace, groups, problem, result, result.plan, real_paths, report)


def kpp_solve(world, real_pairs, k, seed, solver="lacam", **settings) -> PipelineResult:
    """``run_pipeline`` at radius 0, kept only for ``perfbench/workloads.py``,
    which passes ``solver="lacam"`` and ``budget_expansions`` as settings.
    LaCAM is the only solver, so any other ``solver`` is a ConfigError; the
    argument goes when the benchmark calls ``run_pipeline`` itself (ROADMAP
    item 1)."""
    return fpp_solve(world, real_pairs, k, 0, seed, solver, **settings)


def fpp_solve(world, real_pairs, k, fov_radius, seed, solver="lacam", **settings) -> PipelineResult:
    """``run_pipeline`` at ``fov_radius``, kept only as ``kpp_solve`` is."""
    if solver != "lacam":
        raise ConfigError(f"unknown solver {solver!r}: LaCAM is the only one")
    return run_pipeline(world, real_pairs, PipelineSpec(k, fov_radius, **settings), seed)


def write_trace(trace: MessageTrace, world: GridWorld, path: str | Path) -> None:
    Path(path).write_text(trace.to_json(world) + "\n", encoding="utf-8")


def read_trace(world: GridWorld, path: str | Path) -> MessageTrace:
    """The trace that ``MessageTrace.to_json`` wrote to a file; TraceError, naming the
    file, if it holds none. Each group must hold k pairs on passable cells with distinct
    starts and goals, and a plan, when there is one, k rows per group of one length, each
    a list of the map's vertex ids starting and ending at its published pair. Other keys
    are ignored, so a trace with a key this version no longer writes loads."""

    def parse(text: str) -> MessageTrace:
        obj = json.loads(text)
        for key in ("k", "fov_radius", "groups", "plan"):
            if not isinstance(obj, dict) or key not in obj:
                raise TraceError(f"missing key {key!r}")
        k = require_int(obj["k"], 1, f"k is {obj['k']!r}, not an int >= 1", TraceError)
        radius = require_int(obj["fov_radius"], 0,
                             f"fov_radius is {obj['fov_radius']!r}, not an int >= 0", TraceError)
        if not isinstance(obj["groups"], list):
            raise TraceError("groups is not a list")
        groups = tuple(_read_group(world, i, g, k) for i, g in enumerate(obj["groups"]))
        plan = None if obj["plan"] is None else _read_plan(world, obj["plan"], groups, k)
        return MessageTrace(groups, k, radius, plan)

    return read_file(path, parse, TraceError)


def read_real_paths(trace: MessageTrace, private_dir: str | Path) -> list[tuple[int, ...]]:
    """Each published group's real path: ``extract_real_path`` on the trace's
    plan at the index that the group's sidecar in ``private_dir`` holds.
    TraceError if the trace has no plan; SidecarError for a bad sidecar."""
    if trace.broadcast_plan is None:
        raise TraceError("the trace has no plan to extract real paths from")
    return [extract_real_path(trace.broadcast_plan, trace.k, g.group_id,
                              dsp.read_private_sidecar(private_dir, g.group_id, trace.k))
            for g in trace.published_groups]
