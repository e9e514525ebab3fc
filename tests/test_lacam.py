"""Anytime joint-configuration search.

Optimality is checked against an independent joint Dijkstra over
(configuration, finished-mask) states. That oracle prices plans by exact
final-arrival sums — the metric the solver reports — not by the solver's
internal edge surrogate, so agreement is meaningful.
"""

import heapq
import itertools
import random
from collections import deque

import pytest

from privmapf.audit import audit, metrics
from privmapf.dispatch import AgentGroup, dispatch_groups
from privmapf.grid import parse_map_text
from privmapf.instances import random_spaced_pairs
from privmapf.lacam import _extract, lacam_solve
from privmapf.pibt import UNREACHABLE, SolverProblem, build_step, node_data, pibt_solve

from conftest import priority_order, singleton_problem, update_etas

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
        options = [(cfg[a], *world.neighbors(cfg[a])) for a in active]
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
        one_shot = pibt_solve(problem, seed)
        assert one_shot.solved
        dive = lacam_solve(problem, seed, budget_expansions=one_shot.steps)
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
        one_shot = pibt_solve(problem, seed)
        assert one_shot.solved
        dive = lacam_solve(problem, seed, budget_expansions=one_shot.steps)
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
    one_shot = pibt_solve(problem, seed=0)
    assert not one_shot.solved
    assert one_shot.reason == "livelock"
    result = lacam_solve(problem, seed=0, budget_expansions=1500)
    assert result.solved
    report = audit(random32, result.plan, problem.group_of, fov_radius=1, check_fov=True)
    assert report.ok


def test_trivial_instance_already_at_goal(open4):
    pairs = [(0, 0), (5, 5)]
    problem = singleton_problem(open4, pairs)
    result = lacam_solve(problem, seed=0, budget_expansions=0)  # nothing to search
    assert result.solved
    assert result.plan.horizon == 0
    assert metrics(result.plan.paths, problem.goals).soc == 0


class _Constraint:
    """The constraint as the search kept it before pins became tuples."""

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
    the incumbent re-scored on every goal rewire. Returns (plan, expansions)."""
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

    def consider():
        nonlocal best, best_soc
        if goal_node is not None:
            plan = _extract(goal_node)
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
        constraint = node.tree.popleft()
        if constraint.depth < n:
            agent = node.order[constraint.depth]
            cur = node.config[agent]
            for u in sorted((cur, *problem.world.neighbors(cur)),
                            key=lambda v: (dists[agent][v], v)):
                node.tree.append(constraint.extend(agent, u))
        forced = list(zip(constraint.who, constraint.where))
        q_new = build_step(problem, list(node.config), rng, forced=forced, order=node.order)
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
    return best, expansions


def test_matches_reference_search(open16, random32):
    cases = [  # world, agents, k, radius, separation, budget
        (open16, 4, 2, 0, 3, 600),
        (open16, 4, 3, 1, 3, 1500),
        (random32, 8, 2, 1, 5, 1500),
        (random32, 6, 2, 0, 5, 800),
    ]
    rewired = 0
    for world, agents, k, radius, separation, budget in cases:
        for seed in range(3):
            pairs = random_spaced_pairs(world, agents, seed, min_separation=separation)
            problem = SolverProblem(world, dispatch_groups(world, pairs, k, radius, seed), radius)
            got = lacam_solve(problem, seed, budget_expansions=budget)
            plan, expansions = _reference_lacam(problem, seed, budget)
            assert got.expansions == expansions
            assert (got.plan.paths if got.solved else None) == (plan.paths if plan else None)
            rewired += got.solved and got.expansions == budget
    assert rewired > 0  # some searches run on past their first goal hit


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
        etas, h, order, at_goal = node_data(goals, dists, tuple(cfg), prev)
        assert etas == update_etas(problem, cfg, prev)
        assert order == priority_order(problem, cfg, etas)
        assert h == sum(dists[a][cfg[a]] for a in range(n))
        assert at_goal == sum(1 << a for a in range(n) if cfg[a] == goals[a])
        seen["huge"] += any(e >= 10**6 for e in etas)
        seen["home"] += bool(home) and len(home) < n
        seen["unreachable"] += any(dists[a][cfg[a]] == UNREACHABLE for a in range(n))
    assert min(seen.values()) > 0, seen
