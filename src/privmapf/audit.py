"""Exhaustive plan auditing: conflicts, privacy checks, and cost metrics.

The auditor never samples; it judges every timestep and every agent pair,
so a clean report is a proof over the padded horizon. Padding positions
(agents resting at their goals after arrival) participate in vertex and fov
checks like any other position. LaCAM checks its start configuration with
the same ``audit`` call, so the conflict rule is written here only.

Pairs are scanned at timestep 0 and after each timestep with a conflict.
If t-1 has none, every conflict at t involves an agent that moved at t: two
agents that stayed put had a vertex or fov conflict at t-1 already, and
both agents of a swap move. So t is judged from its movers alone (their
vertex, the agent they swap with, their fov square), and by induction from
t = 0 a clean report still misses nothing.

An observer's belief about agent i at time t is the set of vertices where
group i's sub-plans place any member at t (goal positions pad past each
path's end). The plan is k-private when every belief set keeps size >= k.
``audit_trace`` is the one verdict on a broadcast: ``privmapf audit``
prints it and ``run_pipeline`` gates every solved plan on it.
Zone refinement reads the same table: a group's region at t is the union
of the fov squares around its belief set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .grid import GridWorld, PrivmapfError
from .plans import JointPlan

if TYPE_CHECKING:
    from .pipeline import MessageTrace
    from .safezone import ZoneTable


class AuditError(PrivmapfError, ValueError):
    """The audit cannot run: a vertex id off the map, or fov without groups."""


class MetricsError(ValueError):
    """Cost metrics requested for a path that does not end at its goal."""


@dataclass
class ConflictReport:
    """Every conflict found, as (agent_a, agent_b, t, vertices) tuples, and
    every move that is neither a wait nor a step, as (agent, t, (from, to))."""

    vertex_conflicts: list[tuple[int, int, int, tuple[int]]] = field(default_factory=list)
    swap_conflicts: list[tuple[int, int, int, tuple[int, int]]] = field(default_factory=list)
    fov_conflicts: list[tuple[int, int, int, tuple[int, int]]] = field(default_factory=list)
    invalid_moves: list[tuple[int, int, tuple[int, int]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total() == 0

    def total(self) -> int:
        return (len(self.vertex_conflicts) + len(self.swap_conflicts)
                + len(self.fov_conflicts) + len(self.invalid_moves))

    def summary(self) -> str:
        return (f"vertex conflicts: {len(self.vertex_conflicts)}  swap conflicts: "
                f"{len(self.swap_conflicts)}  fov conflicts: {len(self.fov_conflicts)}  "
                f"invalid moves: {len(self.invalid_moves)}")


def audit(
    world: GridWorld,
    plan: JointPlan,
    group_of: list[int] | None = None,
    fov_radius: int = 0,
    check_fov: bool = False,
) -> ConflictReport:
    """Every vertex, swap and fov conflict at every timestep, and every
    invalid move.

    Vertex and swap conflicts are checked between all sub-agents. Fov
    conflicts (positions of two agents within Chebyshev fov_radius) are only
    a conflict between agents of *different* groups; same-group overlap is
    exempt by definition. A vertex id off the map raises AuditError.

    A timestep whose movers show a conflict is scanned pair by pair too, so
    every conflict list keeps the pair scan's order; invalid moves are
    listed by agent, then by timestep.
    """
    if check_fov and group_of is None:
        raise AuditError("fov check needs the group_of mapping")
    n = plan.num_agents
    report = ConflictReport()
    adj, nv = world.adjacency, world.num_vertices
    for a, path in enumerate(plan.paths):
        if path and (min(path) < 0 or max(path) >= nv):
            t, v = next((t, v) for t, v in enumerate(path) if not 0 <= v < nv)
            raise AuditError(f"sub-agent {a} at t={t}: vertex {v} is not on the map")
    fov = world.fov_table(fov_radius) if check_fov else None
    scan = True  # pair by pair; True at t = 0
    prev = prev_at = None
    for t, pos in enumerate(zip(*plan.paths)):
        at = dict(zip(pos, range(n)))  # vertex -> its agent, one per vertex
        if prev is not None:
            scan = scan or len(at) < n  # a vertex conflict
            for a, u in enumerate(prev):
                v = pos[a]
                if u == v:
                    continue
                if v not in adj[u]:
                    report.invalid_moves.append((a, t, (u, v)))
                if scan:
                    continue
                b = prev_at.get(v)  # the agent on v at t - 1
                if b is not None and pos[b] == u:  # a swap
                    scan = True
                elif fov is not None:
                    ga = group_of[a]
                    for w in fov[v]:
                        b = at.get(w)
                        if b is not None and group_of[b] != ga:
                            scan = True
                            break
        if scan:
            found = report.total()
            for a in range(n):
                seen = fov[pos[a]] if check_fov else None
                for b in range(a + 1, n):
                    if pos[a] == pos[b]:
                        report.vertex_conflicts.append((a, b, t, (pos[a],)))
                    if prev is not None and pos[a] == prev[b] and pos[b] == prev[a] and pos[a] != pos[b]:
                        report.swap_conflicts.append((a, b, t, (prev[a], prev[b])))
                    if check_fov and group_of[a] != group_of[b] and pos[b] in seen:
                        report.fov_conflicts.append((a, b, t, (pos[a], pos[b])))
            scan = report.total() > found
        prev, prev_at = pos, at
    report.invalid_moves.sort()
    return report


def path_cost(path: list[int] | tuple[int, ...], goal: int) -> int:
    """Actions until the path reaches its goal *and stays there*.

    Trailing stays at the goal are free; leaving and coming back re-counts
    the intermediate rest. A path that never leaves its goal costs 0.
    """
    if path[-1] != goal:
        raise MetricsError(f"path ends at {path[-1]}, not its goal {goal}")
    last_off = -1
    for t, v in enumerate(path):
        if v != goal:
            last_off = t
    return last_off + 1


@dataclass(frozen=True)
class Metrics:
    path_costs: tuple[int, ...]
    soc: int
    makespan: int


def metrics(paths: list[list[int]] | tuple, goals: list[int]) -> Metrics:
    costs = tuple(path_cost(p, g) for p, g in zip(paths, goals))
    return Metrics(costs, sum(costs), max(costs))


def real_sum_of_costs(real_paths: list[list[int]], real_goals: list[int]) -> int:
    """Sum of path costs over the real agents only."""
    return metrics(real_paths, real_goals).soc


def check_separated(
    world: GridWorld, zones: ZoneTable, fov_radius: int
) -> list[tuple[int, int, int, int, int]]:
    """Violations of pairwise zone separation in a ``safezone.ZoneTable``:
    (t, i, j, v, u) with i < j, v in zone_i^t, u in zone_j^t and the two
    within fov of each other, ordered by t, then (i, j), then (v, u).

    Empty list means the zones are separated.
    """
    fov = world.fov_table(fov_radius)
    violations = []
    for t, owner in enumerate(zones.owners):
        found = []
        for v in zones.owned(t):
            i = owner[v]
            for u in fov[v]:
                if owner[u] > i:
                    found.append((t, i, owner[u], v, u))
        violations.extend(sorted(found))
    return violations


def compute_beliefs(plan: JointPlan, group_of: list[int]) -> list[list[frozenset[int]]]:
    """beliefs[i][t]: where agent i might be at t, judging from the broadcast:
    the set of its group's members' positions (empty for a group with none)."""
    members: list[list[tuple[int, ...]]] = [[] for _ in range(max(group_of) + 1)]
    for path, g in zip(plan.paths, group_of):
        members[g].append(path)
    empty = frozenset()
    return [list(map(frozenset, zip(*paths))) if paths else [empty] * (plan.horizon + 1)
            for paths in members]


def _below_k(plan: JointPlan, group_of: list[int], k: int,
             conflicts: ConflictReport) -> list[tuple[int, int, int]]:
    """(group, t, size) for every belief set with fewer than k candidate
    locations. A group of k rows or more has one only where two of its rows
    share a vertex, so the sets are built only if ``conflicts`` (the plan's
    audit) holds a vertex conflict or a group has fewer than k rows."""
    if not conflicts.vertex_conflicts and min(map(group_of.count, range(max(group_of) + 1))) >= k:
        return []
    return [(i, t, len(b)) for i, per_t in enumerate(compute_beliefs(plan, group_of))
            for t, b in enumerate(per_t) if len(b) < k]


@dataclass
class TraceReport:
    """The verdict on one broadcast: its conflicts and, as (group, t, size),
    every belief set below the trace's k."""

    conflicts: ConflictReport
    below_k: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return self.conflicts.ok and not self.below_k


def audit_trace(world: GridWorld, trace: MessageTrace) -> TraceReport:
    """Audit a trace's plan at the k and radius it records: every conflict,
    fov conflicts between groups when the radius is >= 1, and every belief
    set below k. With k rows per group, a belief set below k is always also
    a same-group vertex conflict. A trace with no plan raises AuditError."""
    plan, group_of = trace.broadcast_plan, trace.group_of
    if plan is None:
        raise AuditError("the trace has no plan to audit")
    conflicts = audit(world, plan, group_of, trace.fov_radius, trace.fov_radius >= 1)
    return TraceReport(conflicts, _below_k(plan, group_of, trace.k, conflicts))


def check_runtime_k_privacy(world: GridWorld, plan: JointPlan, group_of: list[int],
                            k: int, fov_radius: int) -> dict:
    """k-anonymous beliefs at every timestep AND zero inter-group fov overlap,
    at every radius; kept only until ``perfbench/`` calls ``audit_trace``
    (ROADMAP item 1b)."""
    conflicts = audit(world, plan, group_of, fov_radius=fov_radius, check_fov=True)
    below_k, fov = _below_k(plan, group_of, k, conflicts), conflicts.fov_conflicts
    return {"ok": not below_k and not fov, "fov_conflicts": fov,
            "privacy": {"ok": not below_k, "violations": below_k}}
