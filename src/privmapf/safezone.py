"""Safe-zone construction and in-zone replanning on top of a solved plan.

After the fov-aware pipeline produces a conflict-free broadcast plan, each
group owns a region of the map at every timestep: the union of the fov
squares around its k member positions. Inside that region sits the initial
safe zone -- the vertices whose own fov square is fully contained in the
region -- so an agent standing anywhere in its safe zone cannot be observed
by any other group (their plans keep them outside the region entirely, and
a peeking vertex would need a member of the other group within fov range,
which the solver already ruled out).

Zones are then extended greedily and fairly: timestep by timestep, groups
take turns claiming one frontier vertex each, rounds repeating until nobody
can grow. A claim must (1) touch the claimant's current zone, (2) not be in
any other group's zone at the same timestep, (3) not be in any other
group's zone at the previous timestep, and (4) keep its whole fov square
disjoint from every other zone at the same timestep. Rules 2-4 keep the
zones mutually unobservable and exchange-free over time.

Finally each agent replans its *real* path inside its own zone with a
safe-interval search. Waiting after the final goal arrival is free, so the
target is the earliest arrival into the goal's last safe interval (which
always runs to the plan horizon, because the original path rests there).
The original real path is itself zone-feasible, hence the refined cost
never exceeds the original one.
"""

from __future__ import annotations

import heapq
import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .audit import audit, check_separated, path_cost
from .grid import GridWorld
from .plans import JointPlan


class PreconditionError(Exception):
    """The input plan does not meet the requirements for zone building."""


class ReplanInfeasibleError(Exception):
    """No in-zone path reaches the goal's final safe interval."""


# zones[group][t] is the set of vertices group `group` owns at time t
ZoneTable = list[list[set[int]]]


def group_fov(world: GridWorld, positions: list[int] | tuple[int, ...], radius: int) -> set[int]:
    """Union of the fov squares around the given member positions."""
    fov = world.fov_table(radius)
    region: set[int] = set()
    for v in positions:
        region.update(fov[v])
    return region


def initial_safe_zones(
    world: GridWorld, plan: JointPlan, group_of: list[int], radius: int
) -> ZoneTable:
    """Per group and timestep: region vertices whose fov stays in the region."""
    n_groups = max(group_of) + 1
    members = [[j for j, g in enumerate(group_of) if g == i] for i in range(n_groups)]
    fov = world.fov_table(radius)
    zones: ZoneTable = []
    for i in range(n_groups):
        per_t: list[set[int]] = []
        for t in range(plan.horizon + 1):
            region = group_fov(world, [plan.position(j, t) for j in members[i]], radius)
            per_t.append({v for v in region if fov[v] <= region})
        zones.append(per_t)
    return zones


class ExtensionPick(NamedTuple):
    t: int
    group: int
    vertex: int
    round: int


def pop_choice(seq: list[int], getrandbits) -> int:
    """Remove and return ``Random.choice(seq)``: the same element from the
    same ``getrandbits`` draws (``_randbelow_with_getrandbits`` inlined)."""
    n = len(seq)
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return seq.pop(r)


def extend_safe_zones(
    world: GridWorld,
    zones: ZoneTable,
    radius: int,
    seed: int | str,
) -> list[ExtensionPick]:
    """Grow zones in place, one fair pick per group per round; returns the log.

    Timesteps are handled in ascending order so that rule 3 (no overlap with
    another group's *previous* zone) always reads finalised zones.

    Group i's frontier is the set of neighbours of its zone that lie outside
    the zone and outside every other group's dilation (the fov squares
    around its zone, rule 4) and previous zone (rule 3); rule 2 is implied
    because every zone lies inside its own dilation. Within one timestep
    these blocked sets only grow, so the frontiers and a per-vertex bitmask
    of blocking groups are built once per timestep and then updated per
    pick: the claimant's frontier gains the new vertex's free neighbours,
    and the vertices its fov square newly covers leave the other frontiers.
    Each frontier is kept as an ascending list, so a pick draws from it
    exactly as ``rng.choice(sorted(frontier))`` would.
    """
    n_groups = len(zones)
    horizon = len(zones[0]) - 1
    adj = world.adjacency
    fov = world.fov_table(radius)
    picks: list[ExtensionPick] = []
    new_pick = tuple.__new__  # ExtensionPick(...) without its Python-level __new__
    for t in range(horizon + 1):
        getrandbits = random.Random(f"extend:{seed}:{t}").getrandbits
        # bit j of blockers[v]: v lies in group j's dilation or zone at t-1;
        # v is open to group i iff no bit other than i's is set
        blockers = [0] * world.num_vertices
        for j in range(n_groups):
            bit = 1 << j
            for v in zones[j][t]:
                for w in fov[v]:
                    blockers[w] |= bit
            if t > 0:
                for v in zones[j][t - 1]:
                    blockers[v] |= bit
        # bit i of held[v]: v is in group i's zone or frontier
        held = [0] * world.num_vertices
        lanes = []
        for i in range(n_groups):
            zone, bit = zones[i][t], 1 << i
            for v in zone:
                held[v] |= bit
            frontier = sorted({
                u for v in zone for u in adj[v]
                if not held[u] & bit and blockers[u] | bit == bit
            })
            for u in frontier:
                held[u] |= bit
            lanes.append((i, frontier, zone, bit))
        frontiers = [lane[1] for lane in lanes]
        round_no = 0
        # a frontier only grows by its own group's picks, so an empty one
        # stays empty for the rest of the timestep
        while lanes := [lane for lane in lanes if lane[1]]:
            for i, frontier, zone, bit in lanes:
                if not frontier:  # emptied earlier in this round
                    continue
                choice = pop_choice(frontier, getrandbits)
                zone.add(choice)
                for u in adj[choice]:
                    if not held[u] & bit and blockers[u] | bit == bit:
                        held[u] |= bit
                        insort(frontier, u)
                for w in fov[choice]:
                    if blockers[w] & bit:
                        continue
                    blockers[w] |= bit
                    # w is in no other zone (rule 4), so these are frontiers
                    others = held[w] & ~bit
                    if others:
                        held[w] &= bit
                        while others:
                            low = others & -others
                            others ^= low
                            other = frontiers[low.bit_length() - 1]
                            del other[bisect_left(other, w)]
                picks.append(new_pick(ExtensionPick, (t, i, choice, round_no)))
            round_no += 1
    return picks


def vertex_intervals(zone_per_t: list[set[int]]) -> dict[int, list[tuple[int, int]]]:
    """Safe intervals per vertex, the maximal runs of consecutive timesteps
    it stays inside the zone, as ascending ``(start, end)`` pairs (end
    inclusive), from a single group's zones: only the vertices entering or
    leaving at each t are touched."""
    open_at: dict[int, int] = {}
    out: dict[int, list[tuple[int, int]]] = {}
    prev: set[int] = set()
    for t, zone in enumerate(zone_per_t):
        for v in prev - zone:
            out.setdefault(v, []).append((open_at.pop(v), t - 1))
        for v in zone - prev:
            open_at[v] = t
        prev = zone
    last = len(zone_per_t) - 1
    for v, a in open_at.items():
        out.setdefault(v, []).append((a, last))
    return out


def sipp_replan(
    world: GridWorld, zone_per_t: list[set[int]], start: int, goal: int
) -> tuple[tuple[int, ...], int]:
    """Earliest-arrival path from start into the goal's final safe interval.

    The agent moves only through vertices of its own zone; waiting inside a
    safe interval is always allowed. Returns the full path over [0, horizon]
    (resting at the goal once arrived) and the arrival time.
    """
    horizon = len(zone_per_t) - 1
    intervals = vertex_intervals(zone_per_t)
    if start not in intervals or intervals[start][0][0] != 0:
        raise ReplanInfeasibleError("start vertex is not safe at t=0")
    if goal not in intervals or intervals[goal][-1][1] != horizon:
        raise ReplanInfeasibleError("goal vertex is not safe at the horizon")
    goal_state = (goal, len(intervals[goal]) - 1)
    adj = world.adjacency

    best: dict[tuple[int, int], int] = {(start, 0): 0}
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
    heap: list[tuple[int, int, int]] = [(0, start, 0)]
    while heap:
        arrival, v, idx = heapq.heappop(heap)
        state = (v, idx)
        if arrival > best.get(state, 1 << 30):
            continue
        if state == goal_state:
            return _rebuild(parent, state, start, goal, horizon), arrival
        leave_by = intervals[v][idx][1]
        earliest = arrival + 1
        for u in adj[v]:
            for jdx, (lo, hi) in enumerate(intervals.get(u, ())):
                if lo > leave_by + 1:
                    break
                step_t = earliest if earliest > lo else lo
                if step_t > hi or step_t - 1 > leave_by:
                    continue
                nxt = (u, jdx)
                if step_t < best.get(nxt, 1 << 30):
                    best[nxt] = step_t
                    parent[nxt] = (state, step_t)
                    heapq.heappush(heap, (step_t, u, jdx))
    raise ReplanInfeasibleError("goal's final safe interval is unreachable")


def _rebuild(
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]],
    state: tuple[int, int],
    start: int,
    goal: int,
    horizon: int,
) -> tuple[int, ...]:
    hops: list[tuple[int, int]] = []  # (enter_time, vertex)
    while state in parent:
        prev, enter_t = parent[state]
        hops.append((enter_t, state[0]))
        state = prev
    hops.reverse()
    path = [start] * (horizon + 1)
    for enter_t, v in hops:
        for t in range(enter_t, horizon + 1):
            path[t] = v
    return tuple(path)


@dataclass
class RefineResult:
    zones: ZoneTable
    radius: int
    picks: list[ExtensionPick]
    refined_paths: list[tuple[int, ...]]
    costs_before: list[int]
    costs_after: list[int]
    rsoc_before: int = field(init=False)
    rsoc_after: int = field(init=False)

    def __post_init__(self) -> None:
        self.rsoc_before = sum(self.costs_before)
        self.rsoc_after = sum(self.costs_after)

    @property
    def improvement_pct(self) -> float:
        if self.rsoc_before == 0:
            return 0.0
        return 100.0 * (self.rsoc_before - self.rsoc_after) / self.rsoc_before


def ppfpp(
    world: GridWorld,
    plan: JointPlan,
    group_of: list[int],
    real_paths: list[tuple[int, ...]],
    fov_radius: int,
    seed: int | str,
) -> RefineResult:
    """Post-process a fov-conflict-free plan: build zones, replan inside them."""
    if fov_radius < 1:
        raise PreconditionError("zone refinement needs fov radius >= 1")
    rows = {}
    for j, g in enumerate(group_of):
        rows.setdefault(g, []).append(plan.paths[j])
    for i, rp in enumerate(real_paths):
        if tuple(rp) not in rows.get(i, []):
            raise PreconditionError(f"real path of agent {i} is not a row of its group")
    report = audit(world, plan, group_of=group_of, fov_radius=fov_radius, check_fov=True)
    if not report.ok:
        raise PreconditionError(
            f"plan has {report.total()} conflicts; refinement needs a clean fov-aware plan"
        )

    zones = initial_safe_zones(world, plan, group_of, fov_radius)
    if check_separated(world, zones, fov_radius):
        raise PreconditionError("initial zones are not fov-separated")
    picks = extend_safe_zones(world, zones, fov_radius, seed)

    goals = [rp[-1] for rp in real_paths]
    refined: list[tuple[int, ...]] = []
    arrivals: list[int] = []
    for i, rp in enumerate(real_paths):
        path, arrival = sipp_replan(world, zones[i], rp[0], goals[i])
        refined.append(path)
        arrivals.append(arrival)
    before = [path_cost(rp, goals[i]) for i, rp in enumerate(real_paths)]
    after = [path_cost(p, goals[i]) for i, p in enumerate(refined)]
    for i, (b, a) in enumerate(zip(before, after)):
        if a != arrivals[i] or a > b:
            raise RuntimeError(f"agent {i}: refined cost {a} inconsistent (was {b})")
    return RefineResult(zones, fov_radius, picks, refined, before, after)


def write_zones(result_zones: ZoneTable, radius: int, world: GridWorld, path: str | Path) -> None:
    obj = {
        "radius": radius,
        "horizon": len(result_zones[0]) - 1,
        "zones": [
            [[list(world.coords(v)) for v in sorted(zone)] for zone in per_t]
            for per_t in result_zones
        ],
    }
    Path(path).write_text(json.dumps(obj) + "\n")

