"""Lazy-constraints anytime search over joint configurations.

Two-level scheme: the high level is a depth-first search over configuration
nodes, each carrying a lazily grown constraint tree; the low level walks
that tree in BFS order, pinning one agent per depth to a concrete vertex.
A constraint is the tuple of its ``(agent, vertex)`` pins, ordered by depth.
Successor configurations come from the priority-inheritance step builder,
which takes that tuple as its forced assignments. Because the root
constraint is empty, the first depth-first dive reproduces the plain
one-shot run of the step builder (same RNG stream), and everything after
the first goal hit is anytime improvement: known configurations are rewired
Dijkstra-style whenever a cheaper path to them appears.

There is no swap operation on top of the step builder; escaping local
minima is left to the constraint tree.

The edge cost charges 1 per agent not resting at its goal across the move
(n minus the agents on their goal at both ends), which matches sum-of-costs
as long as no agent leaves its goal again; the incumbent plan is therefore
re-scored with the exact path-cost metric and only replaced when that true
cost improves.
"""

from __future__ import annotations

import random
from collections import deque

from .audit import metrics
from .pibt import SolveResult, SolverProblem, build_step, node_data, valid_configuration
from .plans import JointPlan


class _Node:
    __slots__ = ("config", "g", "h", "parent", "tree", "order", "etas", "at_goal", "edges")

    def __init__(self, config, g, h, parent, order, etas, at_goal):
        self.config = config
        self.g = g
        self.h = h
        self.parent = parent
        self.tree = deque([()])  # constraints: tuples of (agent, vertex) pins
        self.order = order
        self.etas = etas  # off-goal counters frozen at first discovery
        self.at_goal = at_goal  # bit a: agent a stands on its goal
        self.edges: dict[_Node, int] | None = {}  # None once the search ends


def _extract(node: _Node) -> JointPlan:
    configs = []
    while node is not None:
        configs.append(list(node.config))
        node = node.parent
    configs.reverse()
    return JointPlan.from_configs(configs)


def lacam_solve(problem: SolverProblem, seed: int | str, budget_expansions: int) -> SolveResult:
    """Anytime joint-configuration search, budgeted in expansions (calls of
    the step builder), so a seed fixes the result on any machine.
    Steps clear the problem's fov radius; at radius 0 the rule is classical.

    Failures: ``timeout`` (budget spent), ``exhausted`` (no plan exists) and
    ``invalid_start`` (the start breaks the step rules, as in ``pibt_solve``).
    """
    if not valid_configuration(problem, problem.starts):
        return SolveResult(False, None, "invalid_start")
    adj, goals = problem.world.adjacency, problem.goals
    goal_cfg = tuple(goals)
    rng = random.Random(f"pibt:{seed}")
    n, dists = problem.num_agents, problem.dists

    start_cfg = tuple(problem.starts)
    if start_cfg == goal_cfg:
        plan = JointPlan.from_configs([list(start_cfg)])
        return SolveResult(True, plan, None, steps=0, expansions=0)
    etas, h, order, at_goal = node_data(goals, dists, start_cfg, [0] * n)
    init = _Node(start_cfg, 0, h, None, order, etas, at_goal)
    open_stack: list[_Node] = [init]
    explored: dict[tuple[int, ...], _Node] = {start_cfg: init}
    goal_node: _Node | None = None
    best_plan: JointPlan | None = None
    best_soc: int | None = None
    scored_g: int | None = None  # goal_node.g when its plan was last scored
    expansions = 0

    def consider_incumbent():
        nonlocal best_plan, best_soc, scored_g
        # A rewire sets a parent only while strictly lowering g, and lowers
        # g along ``edges`` onward, so the goal's parent chain (its plan)
        # can change only when goal_node.g drops.
        if goal_node is None or (scored_g is not None and goal_node.g >= scored_g):
            return
        scored_g = goal_node.g
        plan = _extract(goal_node)
        soc = metrics(plan.paths, goals).soc
        if best_soc is None or soc < best_soc:
            best_plan, best_soc = plan, soc

    while open_stack:
        node = open_stack[-1]
        if (node.config == goal_cfg or not node.tree
                or (goal_node is not None and goal_node.g <= node.g + node.h)):
            open_stack.pop()
            continue
        if expansions >= budget_expansions:
            break
        expansions += 1

        pins = node.tree.popleft()
        if len(pins) < n:
            agent = node.order[len(pins)]
            cur = node.config[agent]
            cands = sorted((cur, *adj[cur]))
            cands.sort(key=dists[agent].__getitem__)  # stable: by (distance, vertex)
            node.tree.extend([pins + ((agent, u),) for u in cands])

        q_new = build_step(problem, node.config, rng, forced=pins, order=node.order)
        if q_new is None:
            continue
        q_new = tuple(q_new)
        known = explored.get(q_new)
        if known is None:
            etas, h, order, at_goal = node_data(goals, dists, q_new, node.etas)
            cost = n - (node.at_goal & at_goal).bit_count()
            child = _Node(q_new, node.g + cost, h, node, order, etas, at_goal)
            node.edges[child] = cost
            explored[q_new] = child
            open_stack.append(child)
            if q_new == goal_cfg:
                goal_node = child
                consider_incumbent()
        else:
            cost = n - (node.at_goal & known.at_goal).bit_count()
            if known is not node:  # self-loops cannot improve anything
                node.edges[known] = min(cost, node.edges.get(known, cost))
            open_stack.append(known)
            if node.g + cost < known.g:
                known.g = node.g + cost
                known.parent = node
                queue = deque([known])
                while queue:
                    x = queue.popleft()
                    for y, c in x.edges.items():
                        if x.g + c < y.g:
                            y.g = x.g + c
                            y.parent = x
                            queue.append(y)
                consider_incumbent()

    # cut the parent/edges cycles, so the graph is freed on return, not by gc
    for node in explored.values():
        node.edges = None
    if best_plan is not None:
        return SolveResult(True, best_plan, None, steps=best_plan.horizon, expansions=expansions)
    reason = "timeout" if open_stack else "exhausted"
    return SolveResult(False, None, reason, expansions=expansions)
