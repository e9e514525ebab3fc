import random
from array import array
from collections import deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import privmapf
from privmapf import lacam
from privmapf.audit import AuditError, ConflictReport
from privmapf.dispatch import AgentGroup
from privmapf.grid import load_map, parse_map_text
from privmapf.lacam import SolveResult, clean_start, node_data
from privmapf.pibt import SolverProblem, StepContext, build_step
from privmapf.plans import JointPlan
from privmapf.safezone import ZoneTable, sipp_replan, vertex_intervals

ASSETS = Path(privmapf.__file__).parent / "assets"

OPEN4 = """type octile
height 4
width 4
map
....
....
....
....
"""

# three passable cells in a row with a pocket below the right end; the
# passable region is a simple path, so two agents can never pass each other
POCKET = """type octile
height 2
width 3
map
...
@@.
"""

# two 4x3 rooms either side of a wall column: two connected components
TWO_ROOMS = """type octile
height 3
width 9
map
....@....
....@....
....@....
"""


@pytest.fixture(scope="session")
def open16():
    return load_map(f"{ASSETS}/maps/open16.map")


@pytest.fixture(scope="session")
def random32():
    return load_map(f"{ASSETS}/maps/random-32-32-20.map")


@pytest.fixture(scope="session")
def room32():
    return load_map(f"{ASSETS}/maps/room-32-32-4.map")


@pytest.fixture
def open4():
    return parse_map_text(OPEN4)


@pytest.fixture
def pocket():
    return parse_map_text(POCKET)


@pytest.fixture
def two_rooms():
    return parse_map_text(TWO_ROOMS)


@pytest.fixture
def placement_worlds(open16, random32, room32, two_rooms):
    """The bundled maps and a two-component map, by name."""
    return {"open16": open16, "random-32-32-20": random32, "room-32-32-4": room32,
            "two-rooms": two_rooms}


def zone_table(zones, num_vertices):
    """The ``ZoneTable`` of nested vertex sets ``zones[i][t]``, which must be
    disjoint at each t."""
    table = ZoneTable(len(zones))
    for t in range(len(zones[0])):
        owner = [-1] * num_vertices
        for i, group in enumerate(zones):
            for v in group[t]:
                assert owner[v] < 0, f"vertex {v} is in the zones of groups {owner[v]} and {i} at t={t}"
                owner[v] = i
        table.append(owner)
    return table


def replay_picks(world, initial, radius, picks):
    """Replay an extension log on a copy of the initial table's owners.

    Each pick is checked against the owners as they stood just before it:
    (1) the vertex is new to the claimant's zone and touches it, (2) it is
    in no other zone at t, (3) nor in another zone at t - 1, and (4) its fov
    square meets no other zone at t. Then it is applied. Returns the
    replayed owner arrays and the picks that broke a rule. The log must run
    in ascending timestep order, as the extension makes it, so every rule-3
    check reads a finished previous timestep.
    """
    assert [p.t for p in picks] == sorted(p.t for p in picks)
    owners = [array(row.typecode, row) for row in initial.owners]
    breaks = []
    for pick in picks:
        t, i, v = pick.t, pick.group, pick.vertex
        owner = owners[t]
        ok = (owner[v] == -1  # rules 1 and 2
              and any(owner[u] == i for u in world.adjacency[v])  # rule 1
              and (t == 0 or owners[t - 1][v] in (-1, i))  # rule 3
              and all(owner[u] in (-1, i) for u in world.fov(v, radius)))  # rule 4
        if not ok:
            breaks.append(pick)
        owner[v] = i
    return owners, breaks


def pad_paths(paths):
    """A joint plan of the paths, each extended with trailing stays to the
    longest one's length."""
    target = max(len(p) for p in paths)
    return JointPlan(tuple(tuple(p) + (p[-1],) * (target - len(p)) for p in paths))


def random_zone_table(world, rng, growth, horizon):
    """One group's zones over timesteps 0..horizon, as a list of sets.

    A random vertex grows by ``rng.randrange(*growth)`` frontier steps into
    the first zone; each later timestep adds a frontier vertex with
    probability 0.7, then drops a vertex with probability 0.3 while more
    than two remain. ``horizon`` is an int, or a ``(start, stop)`` range to
    draw it from after the growth.
    """
    zone = {rng.randrange(world.num_vertices)}
    for _ in range(rng.randrange(*growth)):
        frontier = sorted({u for v in zone for u in world.adjacency[v]} - zone)
        zone.add(rng.choice(frontier))
    if not isinstance(horizon, int):
        horizon = rng.randrange(*horizon)
    table = []
    for t in range(horizon + 1):
        if t:
            if rng.random() < 0.7:
                frontier = sorted({u for v in zone for u in world.adjacency[v]} - zone)
                if frontier:
                    zone = zone | {rng.choice(frontier)}
            if rng.random() < 0.3 and len(zone) > 2:
                zone = zone - {rng.choice(sorted(zone))}
        table.append(set(zone))
    return table


def replan_in_zones(world, zone_per_t, start, goal):
    """``sipp_replan`` inside one group's zones given as a list of sets."""
    intervals = vertex_intervals(zone_table([zone_per_t], world.num_vertices))[0]
    return sipp_replan(world, intervals, len(zone_per_t) - 1, start, goal)


def bfs_earliest_arrival(world, zone_per_t, start, goal):
    """Reference arrival on the time-expanded graph, or None.

    Earliest reachable (goal, t) that can rest in-zone through the horizon.
    """
    horizon = len(zone_per_t) - 1
    if goal not in zone_per_t[horizon]:
        return None
    rest_from = horizon
    while rest_from > 0 and goal in zone_per_t[rest_from - 1]:
        rest_from -= 1
    if start not in zone_per_t[0]:
        return None
    seen = {(start, 0)}
    queue = deque([(start, 0)])
    while queue:
        v, t = queue.popleft()
        if v == goal and t >= rest_from:
            return t
        if t == horizon:
            continue
        for u in (v, *world.adjacency[v]):
            if u in zone_per_t[t + 1] and (u, t + 1) not in seen:
                seen.add((u, t + 1))
                queue.append((u, t + 1))
    return None


def brute_force_no_collision(n_vertices, k, n_agents):
    """Exact probability by enumerating every mock draw for the documented
    sampler: each agent's mock starts are a uniform (k-1)-subset of the
    other vertices, goals likewise, agents independent; success means no
    shared start and no shared goal anywhere (real endpoints spaced apart).
    The oracle of ``dispatch.no_collision_probability``."""
    reals = list(range(n_agents))  # agent i: start i, goal i (disjoint by design)
    # starts and goals behave identically and independently
    per_agent = [list(combinations([v for v in range(n_vertices) if v != reals[i]], k - 1))
                 for i in range(n_agents)]

    def rec(i, used):
        if i == n_agents:
            return Fraction(1)
        hit = Fraction(0)
        options = per_agent[i]
        for mocks in options:
            if used.isdisjoint(mocks):
                hit += rec(i + 1, used | set(mocks))
        return hit / len(options)

    p = rec(0, set(reals))
    return p * p


def audit_oracle(world, plan, group_of=None, fov_radius=0, check_fov=False):
    """``audit`` as one scan of every path and of every agent pair at every
    timestep: its oracle, down to the order of each list and the first
    off-map vertex it raises on."""
    if check_fov and group_of is None:
        raise AuditError("fov check needs the group_of mapping")
    n = plan.num_agents
    horizon = plan.horizon
    report = ConflictReport([], [], [], [])
    adj, nv = world.adjacency, world.num_vertices
    for a, path in enumerate(plan.paths):
        if path and (min(path) < 0 or max(path) >= nv):
            t, v = next((t, v) for t, v in enumerate(path) if not 0 <= v < nv)
            raise AuditError(f"sub-agent {a} at t={t}: vertex {v} is not on the map")
        for t in range(1, horizon + 1):
            u, v = path[t - 1], path[t]
            if u != v and v not in adj[u]:
                report.invalid_moves.append((a, t, (u, v)))
    fov = world.fov_table(fov_radius) if check_fov else None
    for t in range(horizon + 1):
        pos = [plan.paths[a][t] for a in range(n)]
        prev = [plan.paths[a][t - 1] for a in range(n)] if t > 0 else None
        for a in range(n):
            seen = fov[pos[a]] if check_fov else None
            for b in range(a + 1, n):
                if pos[a] == pos[b]:
                    report.vertex_conflicts.append((a, b, t, (pos[a],)))
                if prev is not None and pos[a] == prev[b] and pos[b] == prev[a] and pos[a] != pos[b]:
                    report.swap_conflicts.append((a, b, t, (prev[a], prev[b])))
                if check_fov and group_of[a] != group_of[b] and pos[b] in seen:
                    report.fov_conflicts.append((a, b, t, (pos[a], pos[b])))
    return report


def singleton_problem(world, pairs, fov_radius=0):
    """A k=1 problem: every agent is its own group."""
    groups = [AgentGroup(i, (p,), 0) for i, p in enumerate(pairs)]
    return SolverProblem(world, groups, fov_radius)


# The priority bookkeeping spelled out, as the oracle for ``lacam.node_data``'s
# one-pass integer keys.


def update_etas(problem, config, etas):
    """Advance the off-goal counters by one configuration."""
    return [0 if config[a] == problem.goals[a] else etas[a] + 1
            for a in range(problem.num_agents)]


def priority_order(problem, config, etas):
    """Sub-agents sorted by the tuples ``(at_goal, -eta, dist, agent)``."""
    goals, dists = problem.goals, problem.dists
    keys = sorted((config[a] == goals[a], -etas[a], dists[a][config[a]], a)
                  for a in range(problem.num_agents))
    return [key[3] for key in keys]


def one_shot_pibt(problem, seed):
    """The step builder run once from the start, with no search around it:
    plain PIBT, on the RNG stream LaCAM draws from. It is the oracle of
    LaCAM's first depth-first dive, which must reproduce it.

    Failures: ``horizon`` (``8 * (width + height)`` steps spent),
    ``livelock`` (visited configurations keep recurring with no distance
    progress) and ``invalid_start``.
    """
    horizon = 8 * (problem.world.width + problem.world.height)
    if not clean_start(problem):
        return SolveResult(None, "invalid_start")
    rng = random.Random(f"pibt:{seed}")
    goals, dists = problem.goals, problem.dists
    goal_cfg = tuple(goals)
    config = tuple(problem.starts)
    etas, order = node_data(goals, dists, config, [0] * problem.num_agents)
    best_total = sum(dists[a][c] for a, c in enumerate(config))
    configs = [config]
    visited = {config}
    stagnation = 0
    # small teams legitimately revisit configurations while one agent waves
    # the other through, so the give-up threshold gets a floor
    stagnation_limit = max(16, 2 * problem.num_agents)
    for _ in range(horizon):
        if config == goal_cfg:
            break
        config = tuple(build_step(problem, StepContext(problem, config, order), rng))
        etas, order = node_data(goals, dists, config, etas)
        total = sum(dists[a][c] for a, c in enumerate(config))
        configs.append(config)
        if total < best_total:
            best_total = total
            stagnation = 0
        elif config in visited:
            stagnation += 1
            if stagnation >= stagnation_limit:
                return SolveResult(None, "livelock")
        else:
            stagnation = 0
        visited.add(config)
    if config != goal_cfg:
        return SolveResult(None, "horizon")
    return SolveResult(JointPlan.from_configs([list(c) for c in configs]))


class CountingRandom(random.Random):
    """A Random that counts the words it draws and fails the test once more
    than ``limit`` are drawn since ``words`` was last reset."""

    def __init__(self, seed):
        super().__init__(seed)
        self.limit = self.words = 0

    def getrandbits(self, k):
        self.words += 1
        if self.words > self.limit:
            raise AssertionError(f"a step drew more than {self.limit} words")
        return super().getrandbits(k)


def bound_step_draws(monkeypatch, seed):
    """Runs the search's steps (``lacam.build_step``) on a CountingRandom
    seeded as ``lacam_solve`` seeds its own, so the stream is the search's.
    Fails the test when a step of n agents leaves a claim behind or draws
    more than 16 (9 n + 64) words, so an unbounded step fails instead of
    hanging: within its budget of 8 n + 64 agent entries, however long its
    push chain, each entered agent and each agent resting on its goal
    shuffles at most 5 candidates, about 7 words on average. Returns a list
    of one ``(words drawn, step succeeded)`` per step, filled as the search
    runs."""
    rng, steps = CountingRandom(f"pibt:{seed}"), []
    build_step = lacam.build_step

    def bounded_step(problem, ctx, _rng):
        rng.words, rng.limit = 0, 16 * (9 * problem.num_agents + 64)
        q_new = build_step(problem, ctx, rng)
        steps.append((rng.words, q_new is not None))
        assert max(problem.claimed) == -1
        return q_new

    monkeypatch.setattr(lacam, "build_step", bounded_step)
    return steps


def step_every_constraint(monkeypatch):
    """Makes the search call the step builder for every constraint it takes:
    ``lacam.build_step`` clears the failure report, so no failed pin prefix
    is skipped. Its results are those of the search that skips them."""
    build_step = lacam.build_step

    def every_step(problem, ctx, rng):
        q_new = build_step(problem, ctx, rng)
        ctx.failed_pin = -1
        return q_new

    monkeypatch.setattr(lacam, "build_step", every_step)
