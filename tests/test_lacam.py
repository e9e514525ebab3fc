"""Anytime joint-configuration search.

Optimality is checked against an independent joint Dijkstra over
(configuration, finished-mask) states. That oracle prices plans by exact
final-arrival sums — the metric the solver reports — not by the solver's
internal edge surrogate, so agreement is meaningful.
"""

import gc
import heapq
import itertools
import random
from collections import Counter, deque

import pytest

from privmapf import lacam
from privmapf.audit import audit, metrics
from privmapf.bench import TaskSpec, load_world
from privmapf.dispatch import dispatch_groups
from privmapf.grid import GridWorld, parse_map_text
from privmapf.instances import random_spaced_pairs
from privmapf.lacam import _extract, _key_packing, _move_cost, lacam_solve, node_data
from privmapf.pibt import UNREACHABLE, SolverProblem, StepContext, build_step
from privmapf.pipeline import PipelineSpec
from privmapf.plans import JointPlan

from conftest import (one_shot_pibt, priority_order, singleton_problem, step_every_constraint,
                      update_etas)

# a 5x3 ring: two agents can always trade places by going around
RING = """type octile
height 3
width 5
map
.....
.@@@.
.....
"""


def true_optimal_soc(world, starts, goals):
    """Exact minimal sum of final-arrival times over collision-free plans.

    Dijkstra over (config, finished-mask). A finished agent is pinned at its
    goal and rides free; an active agent pays 1 per step — including waits
    at its own goal, since it may still leave again. Finishing is a free
    flip available only while standing on the goal, so trailing waits are
    never billed but departure-and-return is.
    """
    n = len(starts)
    init = (tuple(starts), 0)
    full = (1 << n) - 1
    dist = {init: 0}
    heap = [(0, init)]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        cfg, mask = state
        if mask == full:
            return d
        for a in range(n):
            if not mask >> a & 1 and cfg[a] == goals[a]:
                s = (cfg, mask | 1 << a)
                if d < dist.get(s, 1 << 60):
                    dist[s] = d
                    heapq.heappush(heap, (d, s))
        active = [a for a in range(n) if not mask >> a & 1]
        options = [(cfg[a], *world.adjacency[cfg[a]]) for a in active]
        for moves in itertools.product(*options):
            new = list(cfg)
            for a, v in zip(active, moves):
                new[a] = v
            if len(set(new)) != n:
                continue
            if any(
                new[a] == cfg[b] and new[b] == cfg[a] and a != b
                for a in range(n)
                for b in range(n)
                if new[a] != cfg[a]
            ):
                continue
            s = (tuple(new), mask)
            nd = d + len(active)
            if nd < dist.get(s, 1 << 60):
                dist[s] = nd
                heapq.heappush(heap, (nd, s))
    return None


# a wall splits the map in two, so agents can stand where their goal is
# unreachable
SPLIT = """type octile
height 4
width 7
map
...@...
...@...
...@...
...@...
"""


@pytest.fixture
def ring():
    return parse_map_text(RING)


def hand_cases(open4, ring):
    def v(world, x, y):
        return world.vertex_at(x, y)

    return [
        ("swap row ends", open4,
         [(v(open4, 0, 0), v(open4, 3, 0)), (v(open4, 3, 0), v(open4, 0, 0))]),
        ("crossing diagonals", open4,
         [(v(open4, 0, 0), v(open4, 3, 3)), (v(open4, 3, 0), v(open4, 0, 3))]),
        ("head-on around the ring", ring,
         [(v(ring, 0, 1), v(ring, 4, 1)), (v(ring, 4, 1), v(ring, 0, 1))]),
        ("three-way rotation", open4,
         [(v(open4, 0, 0), v(open4, 1, 0)), (v(open4, 1, 0), v(open4, 2, 0)),
          (v(open4, 2, 0), v(open4, 0, 0))]),
        ("yield then pass", ring,
         [(v(ring, 0, 1), v(ring, 2, 0)), (v(ring, 2, 0), v(ring, 0, 1))]),
    ]


def test_matches_exact_optimum_on_hand_instances(open4, ring):
    for name, world, pairs in hand_cases(open4, ring):
        problem = singleton_problem(world, pairs)
        opt = true_optimal_soc(world, problem.starts, problem.goals)
        result = lacam_solve(problem, seed=0, budget_expansions=20_000)
        assert result.solved, name
        assert metrics(result.plan.paths, problem.goals).soc == opt, name
        assert audit(world, result.plan).ok, name


def test_matches_exact_optimum_on_random_pairs(open4):
    for seed in range(10):
        rng = random.Random(f"instance:opt{seed}")
        cells = list(range(open4.num_vertices))
        pairs = list(zip(rng.sample(cells, 2), rng.sample(cells, 2)))
        problem = singleton_problem(open4, pairs)
        opt = true_optimal_soc(open4, problem.starts, problem.goals)
        result = lacam_solve(problem, seed=seed, budget_expansions=20_000)
        assert result.solved
        assert metrics(result.plan.paths, problem.goals).soc == opt


def test_first_dive_reproduces_one_shot_run(open16):
    # same seed string, same RNG stream: budgeting exactly the one-shot
    # step count must reproduce that run bit for bit
    for seed in range(8):
        pairs = random_spaced_pairs(open16, 4, seed, min_separation=3)
        problem = singleton_problem(open16, pairs)
        one_shot = one_shot_pibt(problem, seed)
        assert one_shot.solved
        dive = lacam_solve(problem, seed, budget_expansions=one_shot.plan.horizon)
        assert dive.solved
        assert dive.plan.paths == one_shot.plan.paths


def test_first_dive_reproduces_one_shot_run_fov(open16):
    # seeds whose one-shot run never revisits a configuration; revisits are
    # deduplicated by the search (the dive continues from the stored node),
    # which is exactly where the two runs may legitimately part ways
    for seed in (0, 1, 2, 3, 4, 6):
        pairs = random_spaced_pairs(open16, 4, seed, min_separation=3)
        groups = dispatch_groups(open16, pairs, 2, 1, seed)
        problem = SolverProblem(open16, groups, fov_radius=1)
        one_shot = one_shot_pibt(problem, seed)
        assert one_shot.solved
        dive = lacam_solve(problem, seed, budget_expansions=one_shot.plan.horizon)
        assert dive.solved
        assert dive.plan.paths == one_shot.plan.paths


def test_deterministic_for_seed_and_budget(random32):
    pairs = random_spaced_pairs(random32, 8, 0, min_separation=5)
    groups = dispatch_groups(random32, pairs, 2, 1, 0)
    problem = SolverProblem(random32, groups, fov_radius=1)
    a = lacam_solve(problem, seed=0, budget_expansions=400)
    b = lacam_solve(problem, seed=0, budget_expansions=400)
    assert a.solved and b.solved
    assert a.plan.paths == b.plan.paths
    assert a.expansions == b.expansions


def test_more_budget_never_hurts(random32):
    for seed in (0, 1):
        pairs = random_spaced_pairs(random32, 8, seed, min_separation=5)
        groups = dispatch_groups(random32, pairs, 2, 1, seed)
        problem = SolverProblem(random32, groups, fov_radius=1)
        best = None
        for budget in (150, 400, 1000):
            result = lacam_solve(problem, seed, budget_expansions=budget)
            assert result.solved
            soc = metrics(result.plan.paths, problem.goals).soc
            if best is not None:
                assert soc <= best
            best = soc


def test_exhaustion_proves_pocket_infeasible(pocket):
    a = (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0))
    b = (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))
    problem = singleton_problem(pocket, [a, b])
    result = lacam_solve(problem, seed=0, budget_expansions=100_000)
    assert not result.solved
    assert result.reason == "exhausted"
    # the joint search space of this map is tiny; exhaustion comes fast
    assert result.expansions < 1000


def test_timeout_when_budget_too_small(open16):
    pairs = random_spaced_pairs(open16, 4, 0, min_separation=3)
    problem = singleton_problem(open16, pairs)
    result = lacam_solve(problem, seed=0, budget_expansions=2)
    assert not result.solved
    assert result.reason == "timeout"
    assert result.expansions == 2


def test_rescues_fov_livelock(random32):
    # at k=3, radius 1, the greedy one-shot run wedges itself into a mutual
    # push cycle; the backtracking search finds a schedule anyway
    pairs = random_spaced_pairs(random32, 8, 0, min_separation=5)
    groups = dispatch_groups(random32, pairs, 3, 1, 0)
    problem = SolverProblem(random32, groups, fov_radius=1)
    one_shot = one_shot_pibt(problem, seed=0)
    assert not one_shot.solved
    assert one_shot.reason == "livelock"
    result = lacam_solve(problem, seed=0, budget_expansions=1500)
    assert result.solved
    report = audit(random32, result.plan, problem.group_of, fov_radius=1, check_fov=True)
    assert report.ok


def _published_groups(map_name, n, k, seed, radius):
    """The map and the groups that dispatch publishes for a bench run's n
    seeded pairs at k, ``seed`` and ``radius``: ROADMAP item 18's witnesses
    are scale-grid runs."""
    task = TaskSpec(map_name, n, seed, PipelineSpec(k, radius))
    world = load_world(map_name)
    return world, [g.broadcast_view()
                   for g in dispatch_groups(world, task.pairs(), k, radius, seed)]


def _stepped_dive(problem):
    """The one-shot run stepped by hand on its RNG stream: its configurations
    from the start, one per step, without end."""
    rng = random.Random("pibt:0")  # one_shot_pibt's stream
    goals, dists = problem.goals, problem.dists
    config = tuple(problem.starts)
    etas, order = node_data(goals, dists, config, [0] * problem.num_agents)
    while True:
        yield config
        config = tuple(build_step(problem, StepContext(problem, config, order), rng))
        etas, order = node_data(goals, dists, config, etas)


def _fixed_point(problem):
    """The first step t, within 8 (width + height) steps, whose configuration
    the next step keeps with a sub-agent off its goal; None if there is none."""
    world, goals = problem.world, tuple(problem.goals)
    prev = None
    for t, config in enumerate(itertools.islice(_stepped_dive(problem),
                                                8 * (world.width + world.height) + 1)):
        if config == prev:
            return t - 1 if config != goals else None
        prev = config
    return None


def _shrunk(world, groups):
    """The groups left after dropping whole groups in ascending id, pass
    after pass, while the r=1 dive still reaches a fixed point."""
    kept, shrinking = list(groups), True
    while shrinking:
        shrinking = False
        for g in list(kept):
            fewer = [h for h in kept if h is not g]
            if _fixed_point(SolverProblem(world, fewer, 1)) is not None:
                kept, shrinking = fewer, True
    return kept


def test_fpp_first_dive_stops_at_a_fixed_point_on_room32():
    # today's behaviour, frozen: a fixed point of the fPP step rule. At
    # r=1 the one-shot run livelocks, and stepped by hand its configuration
    # after step 58 is the one after step 57, with most sub-agents off
    # their goals; dispatched and solved at r=0, the same pairs need no
    # search at all
    world, groups = _published_groups("room-32-32-4", 24, 3, 0, 1)
    problem = SolverProblem(world, groups, 1)
    assert one_shot_pibt(problem, 0).reason == "livelock"
    configs = list(itertools.islice(_stepped_dive(problem), 65))
    assert len(set(configs[:58])) == 58  # no configuration repeats before step 58
    assert configs[57:] == [configs[57]] * 8  # and none moves after
    assert problem.num_agents == 72
    assert sum(v != g for v, g in zip(configs[58], problem.goals)) == 61
    assert _fixed_point(problem) == 57

    dive = one_shot_pibt(SolverProblem(*_published_groups("room-32-32-4", 24, 3, 0, 0), 0), 0)
    assert dive.solved and dive.plan.horizon == 78


def test_the_room32_fixed_point_shrinks_to_two_sub_agents_head_on():
    # ROADMAP item 18, step 1: the witness above, shrunk by dropping whole
    # published groups in ascending id, pass after pass, while the r=1 dive
    # still reaches a fixed point. Groups 20, 22 and 23 are left, and
    # dropping any one of them ends it. Two sub-agents of different groups
    # stand head-on, two cells apart in column 8 of one 4x4 room: (8, 20),
    # bound for (8, 26) through the door below, and (8, 22), bound for
    # (12, 8) through the door at (9, 20). The one step that brings either
    # nearer its goal is (8, 21), between them and in the other's fov
    # square, and every other sub-agent rests on its goal, so all wait for
    # good. The same groups solve at r=0
    world, groups = _published_groups("room-32-32-4", 24, 3, 0, 1)
    kept = _shrunk(world, groups)
    assert [g.group_id for g in kept] == [20, 22, 23]

    problem = SolverProblem(world, kept, 1)
    assert one_shot_pibt(problem, 0).reason == "livelock"
    t = _fixed_point(problem)
    assert t == 42
    config = next(itertools.islice(_stepped_dive(problem), t, None))
    off = [(a, world.coords(v), world.coords(g))
           for a, (v, g) in enumerate(zip(config, problem.goals)) if v != g]
    assert off == [(1, (8, 20), (8, 26)), (5, (8, 22), (12, 8))]
    assert problem.group_of[1] != problem.group_of[5]
    assert world.chebyshev(config[1], config[5]) == 2  # one more than r
    for a in (1, 5):
        v, d = config[a], problem.dists[a]
        assert [u for u in world.adjacency[v] if d[u] < d[v]] == [world.vertex_at(8, 21)]
    dive = one_shot_pibt(SolverProblem(world, kept, 0), 0)
    assert dive.solved and dive.plan.horizon == 46


def test_a_random32_fixed_point_shrinks_to_a_sub_agent_in_a_dead_end():
    # ROADMAP item 18, step 1: a second witness, a search timeout of the
    # scale grid's r=1 cell random-32-32-20, 16 agents, k=3, seed 0, shrunk
    # by the rule above to groups 12 and 13. One sub-agent is left off its
    # goal: (5, 16), bound for (0, 22), whose one improving step is (4, 16).
    # That cell is in the fov square of a sub-agent of the other group
    # resting on its goal (3, 15), the end of a dead end. Its one exit
    # (3, 16) is in the same square, so no one step clears it, and all
    # wait for good. The same groups solve at r=0
    world, groups = _published_groups("random-32-32-20", 16, 3, 0, 1)
    problem = SolverProblem(world, groups, 1)
    assert one_shot_pibt(problem, 0).reason == "livelock"
    assert lacam_solve(problem, 0, budget_expansions=5000).reason == "timeout"
    kept = _shrunk(world, groups)
    assert [g.group_id for g in kept] == [12, 13]

    problem = SolverProblem(world, kept, 1)
    assert one_shot_pibt(problem, 0).reason == "livelock"
    t = _fixed_point(problem)
    assert t == 32
    config = next(itertools.islice(_stepped_dive(problem), t, None))
    off = [(a, world.coords(v), world.coords(g))
           for a, (v, g) in enumerate(zip(config, problem.goals)) if v != g]
    assert off == [(5, (5, 16), (0, 22))]
    v, d, step = config[5], problem.dists[5], world.vertex_at(4, 16)
    assert [u for u in world.adjacency[v] if d[u] < d[v]] == [step]
    dead_end = world.vertex_at(3, 15)
    resting = config.index(dead_end)
    assert problem.goals[resting] == dead_end
    assert problem.group_of[resting] != problem.group_of[5]
    assert world.adjacency[dead_end] == (world.vertex_at(3, 16),)
    for u in (dead_end, *world.adjacency[dead_end]):
        assert world.chebyshev(u, step) == 1  # within r of the step
    dive = one_shot_pibt(SolverProblem(world, kept, 0), 0)
    assert dive.solved and dive.plan.horizon == 32


def _escape(problem, config):
    """The shortest way out of ``config``: a breadth-first search over the
    joint moves of the sub-agents off their goals, every other sub-agent
    held where it stands, under audit's vertex, swap and fov rules. Returns
    the stuck sub-agents, their positions after each step of the escape and
    the number of joint states the search saw."""
    world, goals, group_of = problem.world, problem.goals, problem.group_of
    fov, adj = world.fov_table(problem.fov_radius), world.adjacency
    stuck = [a for a, (v, g) in enumerate(zip(config, goals)) if v != g]
    # a held sub-agent bars its own square to its group-mates, and its fov
    # square to the sub-agents of other groups
    barred = {a: set() for a in stuck}
    for h, v in enumerate(config):
        for a in stuck:
            if h not in stuck:
                barred[a] |= fov[v] if group_of[h] != group_of[a] else {v}
    pairs = list(itertools.combinations(range(len(stuck)), 2))
    start, target = tuple(config[a] for a in stuck), tuple(goals[a] for a in stuck)
    parent, queue = {start: None}, deque([start])
    while (state := queue.popleft()) != target:
        options = [[u for u in (v, *adj[v]) if u not in barred[a]] for a, v in zip(stuck, state)]
        for nxt in itertools.product(*options):
            if nxt not in parent and not any(
                    nxt[i] == nxt[j] or (nxt[i], nxt[j]) == (state[j], state[i])
                    or group_of[stuck[i]] != group_of[stuck[j]] and nxt[j] in fov[nxt[i]]
                    for i, j in pairs):
                parent[nxt] = state
                queue.append(nxt)
    escape = [target]
    while parent[escape[-1]] is not None:
        escape.append(parent[escape[-1]])
    return stuck, escape[-2::-1], len(parent)


@pytest.mark.parametrize("map_name,n,kept,stuck,dists,steps,seen", [
    # the dead end: the stuck sub-agent detours round the resting agent's
    # square, 17 steps against its 11 hops
    ("random-32-32-20", 16, [12, 13], [5], [11], 17, 276),
    # head-on: one of the two steps two cells aside, away from its goal, so the
    # other can pass; 21 joint steps against 6 and 20 hops
    ("room-32-32-4", 24, [20, 22, 23], [1, 5], [6, 20], 21, 163_097),
], ids=["dead end", "head-on"])
def test_each_fixed_point_witness_has_an_escape_that_audits_clean(map_name, n, kept, stuck,
                                                                   dists, steps, seen):
    # ROADMAP item 18, step 1: each witness's shortest way out of its fixed
    # point, frozen. The dive up to the fixed point, then the escape, is a
    # joint plan that ends with every sub-agent on its goal and audits clean
    world, groups = _published_groups(map_name, n, 3, 0, 1)
    problem = SolverProblem(world, [g for g in groups if g.group_id in kept], 1)
    dive = list(itertools.islice(_stepped_dive(problem), _fixed_point(problem) + 1))
    config = dive[-1]
    got_stuck, escape, got_seen = _escape(problem, config)
    assert got_stuck == stuck
    assert [problem.dists[a][config[a]] for a in stuck] == dists
    assert (len(escape), got_seen) == (steps, seen)
    configs = dive + [tuple(state[stuck.index(a)] if a in stuck else v
                            for a, v in enumerate(config)) for state in escape]
    assert configs[-1] == tuple(problem.goals)
    plan = JointPlan.from_configs(configs)
    assert audit(world, plan, problem.group_of, fov_radius=1, check_fov=True).ok


def test_trivial_instance_already_at_goal(open4):
    pairs = [(0, 0), (5, 5)]
    problem = singleton_problem(open4, pairs)
    result = lacam_solve(problem, seed=0, budget_expansions=0)  # nothing to search
    assert result.solved
    assert result.plan.horizon == 0
    assert metrics(result.plan.paths, problem.goals).soc == 0


class _Constraint:
    """A constraint as a BFS queue of the tree holds it: the agents pinned
    and their vertices, by depth. The search's index walk must yield these."""

    def __init__(self, who=(), where=()):
        self.who, self.where = who, where

    def extend(self, agent, vertex):
        return _Constraint(self.who + (agent,), self.where + (vertex,))

    @property
    def depth(self):
        return len(self.who)


class _RefNode:
    def __init__(self, config, g, h, parent, order, etas):
        self.config, self.g, self.h, self.parent = config, g, h, parent
        self.order, self.etas = order, etas
        self.tree = deque([_Constraint()])
        self.edges = {}


def _reference_lacam(problem, seed, budget):
    """The search with its per-node work spelled out: ``update_etas``, the
    heuristic, ``priority_order`` and the edge cost as separate passes, and
    the incumbent re-scored on every goal rewire. Every node gets its etas,
    order and tree when it is created, and every step a fresh context.
    Returns (plan, expansions, nodes created, distinct configurations
    expanded, returns to a node expanded before but not last)."""
    goals, n, dists = problem.goals, problem.num_agents, problem.dists
    goal_cfg = tuple(goals)
    rng = random.Random(f"pibt:{seed}")

    def new_node(cfg, g, parent, etas):
        etas = update_etas(problem, list(cfg), etas)
        h = sum(dists[a][cfg[a]] for a in range(n))
        return _RefNode(cfg, g, h, parent, priority_order(problem, list(cfg), etas), etas)

    def edge_cost(q_from, q_to):
        return sum(1 for a, g in enumerate(goals) if not (q_from[a] == g and q_to[a] == g))

    init = new_node(tuple(problem.starts), 0, None, [0] * n)
    stack, explored = [init], {init.config: init}
    goal_node = best = best_soc = None
    expansions = 0
    expanded = set()
    last, returns = None, 0

    def consider():
        nonlocal best, best_soc
        if goal_node is not None:
            plan = _extract(goal_node, tuple)  # the reference keeps tuple configurations
            soc = metrics(plan.paths, goals).soc
            if best_soc is None or soc < best_soc:
                best, best_soc = plan, soc

    while stack:
        node = stack[-1]
        if (node.config == goal_cfg or not node.tree
                or (goal_node is not None and goal_node.g <= node.g + node.h)):
            stack.pop()
            continue
        if expansions >= budget:
            break
        expansions += 1
        returns += node is not last and node.config in expanded
        last = node
        expanded.add(node.config)
        constraint = node.tree.popleft()
        if constraint.depth < n:
            agent = node.order[constraint.depth]
            cur = node.config[agent]
            for u in sorted((cur, *problem.world.adjacency[cur]),
                            key=lambda v: (dists[agent][v], v)):
                node.tree.append(constraint.extend(agent, u))
        forced = list(zip(constraint.who, constraint.where))
        ctx = StepContext(problem, list(node.config), node.order, forced)
        q_new = build_step(problem, ctx, rng)
        if q_new is None:
            continue
        q_new = tuple(q_new)
        cost = edge_cost(node.config, q_new)
        known = explored.get(q_new)
        if known is None:
            child = new_node(q_new, node.g + cost, node, node.etas)
            node.edges[child] = cost
            explored[q_new] = child
            stack.append(child)
            if q_new == goal_cfg:
                goal_node = child
                consider()
            continue
        if known is not node:
            node.edges[known] = min(cost, node.edges.get(known, cost))
        stack.append(known)
        if node.g + cost < known.g:
            known.g, known.parent = node.g + cost, node
            queue = deque([known])
            while queue:
                x = queue.popleft()
                for y, c in x.edges.items():
                    if x.g + c < y.g:
                        y.g, y.parent = x.g + c, x
                        queue.append(y)
            consider()
    return best, expansions, len(explored), len(expanded), returns


def test_matches_reference_search(open16, random32, pocket):
    cases = [  # world, agents, k, radius, separation, budget
        (open16, 4, 2, 0, 3, 600),
        (open16, 4, 3, 1, 3, 1500),
        (random32, 8, 2, 1, 5, 1500),
        (random32, 6, 2, 0, 5, 800),
        (random32, 12, 2, 0, 5, 1500),  # kPP-shaped: most nodes are never expanded
        (open16, 4, 2, 2, 5, 1500),
        (random32, 8, 3, 1, 5, 1500),  # search-shaped: it returns to half-walked nodes
    ]
    rewired = 0
    unexpanded = []  # nodes created per distinct configuration expanded
    returns = Counter()  # returns to half-walked nodes, per case
    for world, agents, k, radius, separation, budget in cases:
        for seed in range(3):
            pairs = random_spaced_pairs(world, agents, seed, min_separation=separation)
            problem = SolverProblem(world, dispatch_groups(world, pairs, k, radius, seed), radius)
            got = lacam_solve(problem, seed, budget_expansions=budget)
            plan, expansions, created, expanded, back = _reference_lacam(problem, seed, budget)
            assert got.expansions == expansions
            assert (got.plan.paths if got.solved else None) == (plan.paths if plan else None)
            rewired += got.solved and got.expansions == budget
            unexpanded.append(created / expanded)
            returns[agents, k, radius] += back
    assert rewired > 0  # some searches run on past their first goal hit
    # the search rebuilds a node's context and pins when it comes back to it
    assert returns[8, 3, 1] > 0, returns
    # and some create many nodes they never expand, where deferral matters
    assert max(unexpanded) >= 10, unexpanded
    # the pocket has no plan: every tree is walked to its end
    a = (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0))
    b = (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))
    problem = singleton_problem(pocket, [a, b])
    got = lacam_solve(problem, 0, budget_expansions=100_000)
    plan, expansions, *_ = _reference_lacam(problem, 0, 100_000)
    assert not got.solved and plan is None
    assert got.expansions == expansions


def test_matches_reference_search_above_65536_vertices():
    # vertex ids past 2**16 - 1 do not fit array('H'), so the search keys
    # its configurations as array('I') bytes
    world = GridWorld(["." * 260] * 260)
    assert world.num_vertices > 1 << 16
    y = 259
    pairs = [(world.vertex_at(250, y), world.vertex_at(258, y)),
             (world.vertex_at(258, y), world.vertex_at(250, y))]
    assert min(v for pair in pairs for v in pair) >= 1 << 16
    problem = singleton_problem(world, pairs)
    got = lacam_solve(problem, 0, budget_expansions=300)
    plan, expansions, *_ = _reference_lacam(problem, 0, 300)
    assert got.solved and got.expansions == expansions
    assert got.plan.paths == plan.paths


@pytest.mark.parametrize("num_vertices, width", [(1 << 16, 16), ((1 << 16) + 1, 32)])
def test_move_cost_read_from_the_packed_keys(num_vertices, width):
    # the off-goal words' nonzero fields are the agents off their goal: the
    # cost is n minus the agents on their goal at both ends, also for fields
    # whose XOR is only the top bit or every bit, and all-at-goal ends
    rng = random.Random(f"keys{width}")
    top, full = 1 << (width - 1), (1 << width) - 1
    special = [top, full, top - 1, 1, top | 1]
    for n in (1, 2, 5, 32):
        for _ in range(300):
            goals = rng.sample(range(1 << width), n)
            packing, low, high = _key_packing(n, num_vertices)
            assert packing.size == n * width // 8
            goal_int = int.from_bytes(packing.pack(*goals), "little")

            def config(p_home):
                return [g if rng.random() < p_home else
                        g ^ (rng.choice(special) if rng.random() < 0.5 else rng.randint(1, full))
                        for g in goals]

            p_home = rng.choice([0.0, 0.5, 0.9, 1.0])
            qa, qb = config(p_home), config(p_home)
            off_a, off_b = (int.from_bytes(packing.pack(*q), "little") ^ goal_int
                            for q in (qa, qb))
            both = sum(1 for a, g in enumerate(goals) if qa[a] == g == qb[a])
            assert _move_cost(off_a, off_b, low, high) == n - both
            assert _move_cost(off_a, off_a, low, high) == sum(map(int.__ne__, qa, goals))
    # every field is only the top bit off its goal
    goals = list(range(32))
    packing, low, high = _key_packing(32, num_vertices)
    off = (int.from_bytes(packing.pack(*(g ^ top for g in goals)), "little")
           ^ int.from_bytes(packing.pack(*goals), "little"))
    assert _move_cost(off, 0, low, high) == 32 and _move_cost(0, 0, low, high) == 0


def _pin_trees():
    """Constraint trees as the search grows them: candidate lists of lengths
    1-5 for up to 4 agents, and the priority order."""
    rng = random.Random("pins")
    for _ in range(200):
        n = rng.randint(1, 4)
        yield rng.sample(range(n), n), [rng.sample(range(50), rng.randint(1, 5)) for _ in range(n)]


def _bfs_queue(order, cands):
    """The constraints of the tree over ``cands`` in the order a BFS queue
    takes them: depth by depth, a depth-d constraint's children pinning
    agent ``order[d]`` to each vertex of ``cands[d]`` in turn."""
    queue = deque([()])
    while queue:
        pins = queue.popleft()
        yield pins
        if len(pins) < len(order):
            queue.extend(pins + ((order[len(pins)], u),) for u in cands[len(pins)])


def test_index_walk_is_the_bfs_queue():
    # one pin list stepped by _advance from [], gaining each new depth's
    # first pin when _advance reports the depth spent, walks the queue's
    # constraints in its order, one per step; _advance reports exactly each
    # depth's end
    for order, cands in _pin_trees():
        expected = list(_bfs_queue(order, cands))
        walked, pins, grown = [], [], []
        while True:
            walked.append(tuple(pins))
            at_end = len(walked) == len(expected) or len(expected[len(walked)]) > len(pins)
            assert lacam._advance(pins, grown) == at_end
            if at_end:
                if len(grown) == len(order):
                    break
                grown.append(cands[len(grown)])
                pins.append((order[len(pins)], grown[-1][0]))
        assert walked == expected


def _stepped_queue(queue, failed):
    """The constraints of ``queue`` the search steps: after a step that
    fails at pin j (``failed[pins]``, -1 or absent if none did), none of
    the later constraints of its depth that keep its pins 0..j."""
    prefix = depth = None
    for pins in queue:
        if prefix is not None and len(pins) == depth and pins[:len(prefix)] == prefix:
            continue
        yield pins
        j = failed.get(pins, -1)
        prefix, depth = (pins[:j + 1], len(pins)) if j >= 0 else (None, None)


def test_a_returning_search_resumes_each_walk(random32, monkeypatch):
    # the search leaves nodes half-walked and comes back to them; the steps
    # from one configuration take its BFS queue's constraints in order, each
    # once, less the rest of each failed pin prefix's suffix, so a return
    # resumes the walk where it stopped
    pairs = random_spaced_pairs(random32, 8, 0, min_separation=5)
    problem = SolverProblem(random32, dispatch_groups(random32, pairs, 3, 1, 0), 1)
    walks, failed, orders, returns, last = {}, {}, {}, 0, None
    build_step = lacam.build_step

    def recorded_step(problem, ctx, rng):
        nonlocal returns, last
        config, pins = tuple(ctx.config), tuple(ctx.pins)
        returns += config != last and config in walks
        walks.setdefault(config, []).append(pins)
        orders[config], last = ctx.order, config
        q_new = build_step(problem, ctx, rng)
        failed[config, pins] = ctx.failed_pin
        return q_new

    monkeypatch.setattr(lacam, "build_step", recorded_step)
    result = lacam_solve(problem, 0, budget_expansions=1500)
    adj, dists = random32.adjacency, problem.dists
    skips = 0
    for config, walk in walks.items():
        order = orders[config]
        cands = [sorted((config[a], *adj[config[a]]), key=lambda v: (dists[a][v], v))
                 for a in order]
        by_pins = {pins: failed[config, pins] for pins in walk}
        assert walk == list(itertools.islice(_stepped_queue(_bfs_queue(order, cands), by_pins),
                                             len(walk)))
        assert len(set(walk)) == len(walk)
        skips += walk != list(itertools.islice(_bfs_queue(order, cands), len(walk)))
    assert result.solved and returns > 0 and skips > 0


def _stepped_solve(problem, seed, budget, every):
    """``lacam_solve``, and the ``(config, pins)`` of each step it calls;
    with ``every``, the search steps every constraint it takes."""
    steps, build_step = [], lacam.build_step

    def recorded_step(problem, ctx, rng):
        steps.append((tuple(ctx.config), tuple(ctx.pins)))
        return build_step(problem, ctx, rng)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lacam, "build_step", recorded_step)
        if every:
            step_every_constraint(mp)
        return lacam_solve(problem, seed, budget_expansions=budget), steps


@pytest.mark.parametrize("world_name, separation", [
    ("open16", 3), ("random32", 5), ("room32", 5),
])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_skipping_a_failed_pin_prefix_changes_nothing(request, world_name, separation, radius):
    # the constraints after a step that failed at a pin, and that keep its
    # pin prefix, are taken without a step; the search must end as the one
    # that steps every constraint (plan, reason and expansions) at every
    # small budget, and at budgets that run out inside a skipped suffix and
    # exactly at its end
    world = request.getfixturevalue(world_name)
    inside, at_end = [], []
    for seed in range(3):
        pairs = random_spaced_pairs(world, 6, seed, min_separation=separation)
        problem = SolverProblem(world, dispatch_groups(world, pairs, 3, radius, seed), radius)
        full, walk = _stepped_solve(problem, seed, 1500, every=True)
        _, stepped = _stepped_solve(problem, seed, 1500, every=False)
        assert len(walk) == full.expansions
        # the skipping search's steps are the walk's constraints in order,
        # less the skipped ones (a (config, pins) pair is taken once)
        left = iter(stepped)
        step = next(left, None)
        skipped = []
        for constraint in walk:
            skipped.append(constraint != step)
            if not skipped[-1]:
                step = next(left, None)
        assert step is None
        inside.append([b for b in range(1, len(walk)) if skipped[b - 1] and skipped[b]])
        at_end.append([b for b in range(1, len(walk)) if skipped[b - 1] and not skipped[b]])
        budgets = [*range(40 if seed == 0 else 0), *inside[-1][:3], *at_end[-1][:3], 1500]
        for budget in budgets:
            got, _ = _stepped_solve(problem, seed, budget, every=False)
            assert got == _stepped_solve(problem, seed, budget, every=True)[0], (seed, budget)
    assert any(inside) and any(at_end)


def _recorded_solve(monkeypatch, problem, seed, budget):
    """``lacam_solve`` with ``node_data`` and ``build_step`` wrapped, as the
    benchmark's tracer wraps them. Returns the result, the configurations
    passed to each, and the 1-based step at which the goal was first
    reached (None if never)."""
    steps, passes, goal_hit = [], [], []
    node_data, build_step = lacam.node_data, lacam.build_step

    def counted_node_data(goals, dists, cfg, etas):
        passes.append(tuple(cfg))
        return node_data(goals, dists, cfg, etas)

    def counted_build_step(problem, ctx, rng):
        steps.append(tuple(ctx.config))
        q_new = build_step(problem, ctx, rng)
        if q_new == problem.goals and not goal_hit:
            goal_hit.append(len(steps))
        return q_new

    monkeypatch.setattr(lacam, "node_data", counted_node_data)
    monkeypatch.setattr(lacam, "build_step", counted_build_step)
    result = lacam_solve(problem, seed, budget_expansions=budget)
    return result, steps, passes, goal_hit[0] if goal_hit else None


@pytest.mark.parametrize("agents,k,radius,seed", [
    (12, 2, 0, 0), (12, 2, 0, 1), (8, 2, 1, 0), (8, 2, 1, 1),
])
def test_node_data_runs_once_per_expanded_configuration(random32, monkeypatch,
                                                        agents, k, radius, seed):
    # a discovered node gets its etas, order and tree at its first
    # expansion, so one that is pruned before it costs no pass
    pairs = random_spaced_pairs(random32, agents, seed, min_separation=5)
    problem = SolverProblem(random32, dispatch_groups(random32, pairs, k, radius, seed), radius)
    result, steps, passes, goal_hit = _recorded_solve(monkeypatch, problem, seed, 1500)
    assert result.solved and goal_hit < len(steps)  # on past the first goal hit
    assert sorted(passes) == sorted(set(steps))


@pytest.mark.parametrize("agents,k,radius", [(16, 2, 0), (8, 3, 1)])
def test_search_graph_is_freed_without_gc(random32, monkeypatch, agents, k, radius):
    # the edge cut at the end of the search leaves no reference cycle, nor
    # does the step builder's stack: memory returns on return
    pairs = random_spaced_pairs(random32, agents, 0, min_separation=5)
    problem = SolverProblem(random32, dispatch_groups(random32, pairs, k, radius, 0), radius)
    gc.collect()
    gc.disable()
    try:
        result, steps, _, goal_hit = _recorded_solve(monkeypatch, problem, 0, 1500)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert result.solved and goal_hit < len(steps)  # on past the first goal hit
    assert garbage == 0


def test_node_order_matches_priority_order():
    # the search sorts one integer per agent; it must rank exactly as
    # priority_order's (at_goal, -eta, dist, agent) tuples, also for huge
    # etas, agents on their goals and unreachable goals
    world = parse_map_text(SPLIT)
    cells = range(world.num_vertices)
    seen = {"huge": 0, "home": 0, "unreachable": 0}
    for seed in range(300):
        rng = random.Random(f"order:{seed}")
        n = rng.randint(1, world.num_vertices // 2)
        ends = rng.sample(cells, 2 * n)
        problem = singleton_problem(world, list(zip(ends[:n], ends[n:])))
        goals, dists = problem.goals, problem.dists
        home = rng.sample(range(n), rng.randint(0, n))
        free = [v for v in cells if v not in {goals[a] for a in home}]
        placed = iter(rng.sample(free, n - len(home)))
        cfg = [goals[a] if a in home else next(placed) for a in range(n)]
        prev = [rng.choice([0, 1, 2, 5, 10**6, 10**6 + 1, 10**9, 1 << 40]) for _ in range(n)]
        etas, order = node_data(goals, dists, tuple(cfg), prev)
        assert etas == update_etas(problem, cfg, prev)
        assert order == priority_order(problem, cfg, etas)
        seen["huge"] += any(e >= 10**6 for e in etas)
        seen["home"] += bool(home) and len(home) < n
        seen["unreachable"] += any(dists[a][cfg[a]] == UNREACHABLE for a in range(n))
    assert min(seen.values()) > 0, seen
