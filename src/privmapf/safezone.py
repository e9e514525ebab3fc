"""Safe-zone construction and in-zone replanning on top of a solved plan.

After the fov-aware pipeline produces a conflict-free broadcast plan, each
group owns a region of the map at every timestep: the union of the fov
squares around its belief set (``audit.compute_beliefs``, the vertices
where its k members stand). Inside that region sits the initial
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
zones mutually unobservable and exchange-free over time. A claim scans only
the part of its fov square outside the square of ``via``, the zone vertex
that put it on the frontier, and claims are logged as ints (``PickLog``).

Both the initial and the extended zones are kept as one owner per vertex
per timestep (``ZoneTable``), not as a vertex set per group and timestep:
the extended zones cover most of the free map. That is exact because the
zones at one timestep are disjoint: the initial zones are fov-separated (a
vertex two initial zones claim is a ``PreconditionError``), and rule 2
keeps every claim out of the other zones.

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
from array import array
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq, ne
from pathlib import Path
from typing import NamedTuple

# check_separated is not called here: perfbench/tracing.py's patch list names it
from .audit import audit, check_separated, compute_beliefs, path_cost
from .grid import ConfigError, GridWorld, PrivmapfError
from .plans import JointPlan


class PreconditionError(PrivmapfError):
    """The input plan does not meet the requirements for zone building."""


class ReplanInfeasibleError(PrivmapfError):
    """No in-zone path reaches the goal's final safe interval."""


# intervals[v]: a vertex's safe intervals in one group's zones, ascending
# (start, end) pairs with end inclusive
Intervals = dict[int, list[tuple[int, int]]]

# translates each byte of an owner array to 1, or to 0 where it is 0xFF
_OWNED_BYTES = bytes(int(b != 0xFF) for b in range(256))


class ZoneTable:
    """Every group's zone at every timestep, kept as one owner array per
    timestep: ``owners[t][v]`` is the group whose zone holds v at t, or -1.

    Zones at one timestep are disjoint (see the module docstring), so one
    owner per vertex holds them exactly, in one byte per vertex
    (``array('b')``; ``array('i')`` from 128 groups on) instead of a set
    slot per zone vertex. The initial and the extended zones are both kept
    so. ``owned(t)`` lists the vertices some zone holds at t; it is the one
    reader of the arrays' bytes. Iterating reads the table group-major: per
    group, its zone at each timestep as an ascending list of vertices.
    """

    def __init__(self, num_groups: int) -> None:
        """An empty table; ``append`` adds its timesteps in order."""
        self.num_groups = num_groups
        self.typecode = "b" if num_groups < 128 else "i"
        self.owners: list[array] = []

    def append(self, owner: list[int] | array) -> None:
        """Add a copy of the next timestep's owners, -1 where no zone lies."""
        self.owners.append(array(self.typecode, owner))

    def owned(self, t: int) -> list[int]:
        """The vertices some zone holds at t, ascending.

        -1 is the only owner whose bytes are all 0xFF, so a vertex is owned
        iff one of its bytes is not; ``bytes.find`` jumps from one such byte
        to the next, which costs per owned vertex rather than per vertex.
        That pays on sparse rows only. On the 10 ``refine`` benchmark
        instances (2-vCPU Xeon, Python 3.11.7, best of 5), their 650 initial
        rows take 2.2 ms against 13.1 ms for ``[v for v, o in enumerate(row)
        if o >= 0]``, but their 650 extended rows, which cover most of the
        map, take 74.2 ms against 18.4 ms. Only untimed readers (the
        benchmark's gate and the tests) pass it extended rows.
        """
        owner = self.owners[t]
        data = owner.tobytes().translate(_OWNED_BYTES)
        size = owner.itemsize
        out = []
        p = data.find(1)
        while p >= 0:
            v = p // size
            out.append(v)
            p = data.find(1, (v + 1) * size)
        return out

    def __iter__(self) -> Iterator[list[list[int]]]:
        vertices = range(len(self.owners[0]))
        for group in range(self.num_groups):
            yield [list(compress(vertices, map(eq, row, repeat(group)))) for row in self.owners]


def initial_safe_zones(
    world: GridWorld, plan: JointPlan, group_of: list[int], radius: int
) -> ZoneTable:
    """Per group and timestep: the vertices of the group's region (the fov
    squares around its belief set) whose own fov square stays in the region.
    A vertex in two groups' zones at one timestep is a PreconditionError.

    The zones of a plan with no FoV conflict are fov-separated: if v in group
    i's zone is within r of u in group j's, v is in fov(u), inside j's region,
    so a member p of j is within r of v; then p is in fov(v), inside i's
    region, so p is within r of a member of i: a FoV conflict."""
    fov = world.fov_table(radius)
    beliefs = compute_beliefs(plan, group_of)
    table = ZoneTable(len(beliefs))
    blank = array(table.typecode, [-1]) * world.num_vertices
    for t in range(plan.horizon + 1):
        owner = blank[:]
        for i, per_t in enumerate(beliefs):
            region = set().union(*map(fov.__getitem__, per_t[t]))
            for v in region:
                if fov[v] <= region:
                    if owner[v] >= 0:
                        raise PreconditionError(
                            f"initial zones are not fov-separated: vertex {v} is in the "
                            f"zones of groups {owner[v]} and {i} at t={t}"
                        )
                    owner[v] = i
        table.append(owner)
    return table


class ExtensionPick(NamedTuple):
    t: int
    group: int
    vertex: int
    round: int


class PickLog:
    """The picks as int columns: each pick's vertex, and each timestep's end
    index into them. A pick's group is ``table.owners[t][vertex]`` in the
    extended table: it claimed an unowned vertex, whose owner nothing changes
    again at that timestep. A round's live groups pick in ascending order, and
    a group that misses its turn never picks again at that timestep, so a
    round opens at each pick whose group is not above the last pick's. ``len``
    builds no pick; iterating, repeatably, yields ``ExtensionPick``s."""

    def __init__(self, table: ZoneTable) -> None:
        """An empty log of the extension that fills ``table``."""
        self.owners = table.owners
        self.vertices, self.t_end = array("i"), array("i")

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[ExtensionPick]:
        start = 0
        for t, end in enumerate(self.t_end):
            owner, round_no, prev = self.owners[t], 0, -1
            for vertex in self.vertices[start:end]:
                group = owner[vertex]
                round_no += group <= prev
                yield ExtensionPick(t, group, vertex, round_no)
                prev = group
            start = end


def extend_safe_zones(
    world: GridWorld,
    initial: ZoneTable,
    radius: int,
    seed: int | str,
) -> tuple[ZoneTable, PickLog]:
    """Grow the initial zones, one fair pick per group per round; returns the
    extended zones and the log. The initial table is left as it is.

    Timesteps are handled in ascending order so that rule 3 (no overlap with
    another group's *previous* zone) always reads finalised zones. Each
    timestep's owners start as a list copy of the initial row and take its
    picks, then are appended to the table; the next timestep's blockers
    start from that list, one bit per owned vertex.

    Group i's frontier is the set of neighbours of its zone that lie outside
    the zone and outside every other group's dilation (the fov squares
    around its zone, rule 4) and previous zone (rule 3); rule 2 is implied
    because every zone lies inside its own dilation. Within one timestep
    these blocked sets only grow, so the frontiers and a per-vertex bitmask
    of blocking groups are built once per timestep, from the initial row's
    owned vertices, and then updated per pick: the claimant's frontier gains
    the new vertex's free neighbours, and the vertices its fov square newly
    covers leave the other frontiers. Those lie in
    ``fov_ring_table(radius)[choice][via[choice]]``, where ``via`` is a zone
    vertex that put the choice on the frontier: every zone vertex's square
    is already marked with its group's bit. Each frontier is kept as an
    ascending list, so a pick draws from it exactly as
    ``rng.choice(sorted(frontier))`` would; the draw is the ``getrandbits``
    loop of ``Random.choice``, inlined, and it pops the index it draws.

    The log keeps one int per pick, its vertex, and one end index per
    timestep; the pick's group and round are read back (``PickLog``).
    """
    from bisect import bisect_left, insort  # locals, as the pick loop calls them

    n_groups = initial.num_groups
    adj = world.adjacency
    fov = world.fov_table(radius)
    rings = world.fov_ring_table(radius)
    table = ZoneTable(n_groups)
    log = PickLog(table)
    log_vertex = log.vertices.append
    via = [0] * world.num_vertices  # read only for vertices on a frontier
    bits = [1 << j for j in range(n_groups)] + [0]  # bits[-1]: no owner
    owner = [-1] * world.num_vertices  # the owners at t-1 (none before t=0)
    for t, row in enumerate(initial.owners):
        getrandbits = random.Random(f"extend:{seed}:{t}").getrandbits
        # bit j of blockers[v]: v lies in group j's dilation or zone at t-1;
        # v is open to group i iff no bit other than i's is set. Bit i of
        # held[v]: v is in group i's zone or frontier
        blockers = list(map(bits.__getitem__, owner))
        owner = [-1] * world.num_vertices  # the initial row's copy; the picks complete it
        held = [0] * world.num_vertices
        owned = initial.owned(t)
        for v in owned:
            owner[v] = row[v]
            held[v] = bit = bits[row[v]]
            for w in fov[v]:
                blockers[w] |= bit
        frontiers = [[] for _ in range(n_groups)]
        for v in owned:
            i = owner[v]
            bit, frontier = bits[i], frontiers[i]
            for u in adj[v]:
                if not held[u] & bit and blockers[u] | bit == bit:
                    held[u] |= bit
                    via[u] = v
                    frontier.append(u)
        for frontier in frontiers:
            frontier.sort()
        # a frontier only grows by its own group's picks, so a lane found
        # empty stays empty for the rest of the timestep: it is skipped
        # without a draw, and dropped after the round that met it
        lanes = [(i, frontier, bits[i]) for i, frontier in enumerate(frontiers) if frontier]
        while lanes:
            emptied = False
            for i, frontier, bit in lanes:
                n = len(frontier)
                if not n:  # emptied by a pick, its own or another group's
                    emptied = True
                    continue
                # rng.choice(frontier), popped: Random._randbelow inlined
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = frontier.pop(r)
                owner[choice] = i
                for u in adj[choice]:
                    if not held[u] & bit and blockers[u] | bit == bit:
                        held[u] |= bit
                        via[u] = choice
                        insort(frontier, u)
                for w in rings[choice][via[choice]]:
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
                log_vertex(choice)
            if emptied:
                lanes = [lane for lane in lanes if lane[1]]
        log.t_end.append(len(log.vertices))
        table.append(owner)
    return table, log


def vertex_intervals(table: ZoneTable) -> list[Intervals]:
    """Every group's safe intervals per vertex: the maximal runs of
    consecutive timesteps the vertex stays inside the group's zone.

    One pass over the timesteps touches only the vertices whose owner
    changes, found by a C-level diff of consecutive owner arrays; a blank
    array after the horizon closes the intervals still open there.
    """
    out: list[Intervals] = [{} for _ in range(table.num_groups)]
    vertices = range(len(table.owners[0]))
    entered = [0] * len(vertices)  # the timestep v's current owner took it
    blank = array(table.typecode, [-1]) * len(vertices)
    prev = blank
    for t, cur in enumerate(chain(table.owners, (blank,))):
        for v in compress(vertices, map(ne, prev, cur)):
            if prev[v] >= 0:
                out[prev[v]].setdefault(v, []).append((entered[v], t - 1))
            if cur[v] >= 0:
                entered[v] = t
        prev = cur
    return out


def sipp_replan(
    world: GridWorld, intervals: Intervals, horizon: int, start: int, goal: int
) -> tuple[tuple[int, ...], int]:
    """Earliest-arrival path from start into the goal's final safe interval.

    The agent moves only through vertices of its own zone, whose safe
    intervals up to ``horizon`` are ``intervals`` (``vertex_intervals``);
    waiting inside a safe interval is always allowed. Returns the full path
    over [0, horizon] (resting at the goal once arrived) and the arrival time.

    A state (vertex, safe interval) is pushed once, at its first push:
    states pop in non-decreasing time, and a step into an interval lands
    at ``max(arrival + 1, lo)``, which never falls as the arrival rises, so
    no later push could reach the state earlier.
    """
    if start not in intervals or intervals[start][0][0] != 0:
        raise ReplanInfeasibleError("start vertex is not safe at t=0")
    if goal not in intervals or intervals[goal][-1][1] != horizon:
        raise ReplanInfeasibleError("goal vertex is not safe at the horizon")
    goal_state = (goal, len(intervals[goal]) - 1)
    adj = world.adjacency

    seen = {(start, 0)}
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
    heap: list[tuple[int, int, int]] = [(0, start, 0)]
    while heap:
        arrival, v, idx = heapq.heappop(heap)
        state = (v, idx)
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
                if nxt not in seen:
                    seen.add(nxt)
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
    picks: PickLog  # every extension pick, in order
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
    if type(fov_radius) is not int:
        raise ConfigError("fov radius must be >= 0")
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

    # a clean audit makes the initial zones fov-separated (initial_safe_zones)
    initial = initial_safe_zones(world, plan, group_of, fov_radius)
    zones, picks = extend_safe_zones(world, initial, fov_radius, seed)

    intervals = vertex_intervals(zones)
    goals = [rp[-1] for rp in real_paths]
    refined: list[tuple[int, ...]] = []
    arrivals: list[int] = []
    for i, rp in enumerate(real_paths):
        path, arrival = sipp_replan(world, intervals[i], plan.horizon, rp[0], goals[i])
        refined.append(path)
        arrivals.append(arrival)
    before = [path_cost(rp, goals[i]) for i, rp in enumerate(real_paths)]
    after = [path_cost(p, goals[i]) for i, p in enumerate(refined)]
    for i, (b, a) in enumerate(zip(before, after)):
        if a != arrivals[i] or a > b:
            raise RuntimeError(f"agent {i}: refined cost {a} inconsistent (was {b})")
    # what makes the refined paths mutually invisible, with the zones'
    # separation: each keeps its real pair, moves by waits and steps, and
    # stays in its own group's zone at every t
    adj = world.adjacency
    for i, (rp, path) in enumerate(zip(real_paths, refined)):
        if (len(path) != len(zones.owners) or (path[0], path[-1]) != (rp[0], rp[-1])
                or any(u != v and v not in adj[u] for u, v in zip(path, path[1:]))
                or any(owner[v] != i for owner, v in zip(zones.owners, path))):
            raise RuntimeError(f"agent {i}: refined path leaves its pair, the moves or its zone")
    return RefineResult(zones, picks, refined, before, after)


def write_zones(zones: ZoneTable, radius: int, world: GridWorld, path: str | Path) -> None:
    """Write the zones as JSON, each zone a list of ``[x, y]`` in vertex
    order, one group and timestep at a time."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f'{{"radius": {radius}, "horizon": {len(zones.owners) - 1}, "zones": [')
        for i, group in enumerate(zones):
            f.write(", [" if i else "[")
            for t, zone in enumerate(group):
                f.write(", " if t else "")
                f.write(json.dumps([list(world.coords(v)) for v in zone]))
            f.write("]")
        f.write("]}\n")
