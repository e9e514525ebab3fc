"""Lazy-constraints anytime search over joint configurations.

Two-level scheme: the high level is a depth-first search over configuration
nodes, each carrying a lazily grown constraint tree; the low level walks
that tree in BFS order, pinning one agent per depth to a concrete vertex.
A constraint is the list of its ``(agent, vertex)`` pins, ordered by depth.
Successor configurations come from the priority-inheritance step builder,
which takes that list as its forced assignments. The tree is complete (a
depth-d constraint has one child per candidate of agent ``order[d]``, a
list fixed by the node's configuration), so BFS takes each depth in
mixed-radix counting order, and the walk is one pin list stepped in place
(``_advance``), not a queue.
An expansion is a constraint taken from the walk. When a step fails at pin
j (the step builder's ``failed_pin``), every later constraint that keeps
pins 0..j fails there too, drawing nothing, so the rest of the suffix
counter j+1.. is taken at once, uncalled; plans and counts are unchanged.
Because the root constraint is empty, the first depth-first dive
reproduces the plain one-shot run of the step builder (same RNG stream),
and everything after the first goal hit is anytime improvement: known
configurations are rewired Dijkstra-style whenever a cheaper path to them
appears.

There is no swap operation on top of the step builder; escaping local
minima is left to the constraint tree.

The search owns what the step builder does not need: its result
(``SolveResult``, with the failure reasons), its start check
(``clean_start``, one ``audit`` call) and the pass it makes once per
expanded configuration (``node_data``: the etas and the priority order).

A node's search state is its configuration and its walk. Most discovered
configurations are pruned before they are expanded, so a discovered node
holds only what pruning reads: its configuration, g, the heuristic h and
the discovering parent's etas. The configuration is packed bytes, one
little-endian 16-bit field per agent (32-bit above 65 536 vertices), which
is also its key among the discovered; at 32 sub-agents that is 97 B against
a 296 B tuple. Its own etas, its priority order, its candidate lists, its
pins (the constraint its next expansion takes) and its out-edges are built
at its first expansion, from those etas; a rewire changes the parent and g,
never the etas source. Every successor, new or known, is pushed, and the
loop's pop test alone decides whether the top node is expanded: a successor
it rejects (the goal, a spent walk, or a node no cheaper than the incumbent)
is popped at the next iteration, before the budget is read.

A node is usually expanded several times in a row, once per constraint, so
the search keeps one step context (``pibt.StepContext``): the configuration
seen through the step builder's eyes, with each goal-resting agent's draws
and watch list. It is built, from the configuration unpacked afresh, when
the search expands a node other than the one it expanded last, and reused
for that node's following expansions. The context holds the node's pin
list by reference, so a step reads the constraint the node is at, also when
the search returns to a half-walked node.

The edge cost charges 1 per agent not resting at its goal across the move
(n minus the agents on their goal at both ends), which matches sum-of-costs
as long as no agent leaves its goal again; the incumbent plan is therefore
re-scored with the exact path-cost metric and only replaced when that true
cost improves. It is read from the keys: a key's off-goal word, the key as
a little-endian int XOR the goal's, has field a zero exactly when agent a
is on its goal, so the cost is the number of nonzero fields of the two
ends' words ORed (``_move_cost``). The parent's word is computed once per
step context, the child's from its key.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from struct import Struct

from .audit import audit, metrics
from .grid import ConfigError
from .pibt import SolverProblem, StepContext, build_step
from .plans import JointPlan


@dataclass
class SolveResult:
    plan: JointPlan | None
    # timeout | exhausted | invalid_start (clean_start failed)
    reason: str | None = None
    expansions: int = 0

    @property
    def solved(self) -> bool:
        return self.plan is not None


def node_data(goals, dists, cfg: tuple[int, ...], etas: list[int]):
    """The pass the search makes once per expanded configuration, at its
    first expansion: the off-goal counters (eta, reset to 0 on the goal)
    and the priority order.

    The order ranks sub-agents by ``(at_goal, -eta, dist, agent)``, highest
    priority first: whoever has been off its goal longest (which breaks
    mutual-push oscillations), then the nearer to its goal, then the lower
    id. Eta is 0 exactly on the goal, so ``(dist - eta * 2**31) * 2**shift
    + agent`` (dist <= ``pibt.UNREACHABLE`` < 2**31) is one integer key per
    agent that sorts the same way."""
    n = len(cfg)
    shift = n.bit_length()
    mask = (1 << shift) - 1
    new_etas, keys = [], []
    for a in range(n):
        v = cfg[a]
        e = 0 if v == goals[a] else etas[a] + 1
        new_etas.append(e)
        keys.append((dists[a][v] - (e << 31)) << shift | a)
    keys.sort()
    return new_etas, [key & mask for key in keys]


def clean_start(problem: SolverProblem) -> bool:
    """The start configuration breaks no step rule: no two sub-agents on one
    vertex, none inside another group's fov square. At radius 0 a cross-group
    fov hit is a vertex conflict, so one audit call serves every radius."""
    starts = JointPlan.from_configs([problem.starts])
    return audit(problem.world, starts, problem.group_of, problem.fov_radius, check_fov=True).ok


class _Node:
    __slots__ = ("config", "g", "h", "parent", "order", "cands", "pins", "etas", "edges")

    def __init__(self, config, g, h, parent, etas):
        self.config = config  # packed bytes, the node's key in ``explored``
        self.g = g
        self.h = h
        self.parent = parent
        # off-goal counters: the discovering parent's until the first
        # expansion, which derives the node's own from them
        self.etas = etas
        self.order = None  # priority order, built at the first expansion
        self.cands = None  # likewise; cands[j] lists agent order[j]'s candidates
        # the constraint the next expansion takes, one (agent, vertex) pin per
        # list of ``cands``: () before the first expansion, None once depth n
        # is spent
        self.pins: list[tuple[int, int]] | tuple | None = ()
        self.edges: dict[_Node, int] | None = None  # out-edge costs once expanded


def _key_packing(n: int, num_vertices: int) -> tuple[Struct, int, int]:
    """The packing of n-agent configurations, little-endian 16-bit fields
    (32-bit above 2**16 vertices; Struct packs 32 ints in 40% of the time
    array('H') takes), and the masks ``_move_cost`` reads keys with:
    ``low`` holds each field's bits but its top one, ``high`` its top bit."""
    fmt = "H" if num_vertices <= 1 << 16 else "I"
    packing = Struct(f"<{n}{fmt}")
    top = 0x8000 if fmt == "H" else 0x80000000
    low, high = (int.from_bytes(packing.pack(*[mask] * n), "little") for mask in (top - 1, top))
    return packing, low, high


def _move_cost(off_a: int, off_b: int, low: int, high: int) -> int:
    """The edge cost between two configurations given their off-goal words
    (key int XOR goal int): the fields nonzero in either, i.e. n minus the
    agents on their goal at both ends. Adding ``low`` to a field's low bits
    sets its top bit iff they are nonzero, and never carries out of it."""
    z = off_a | off_b
    return (((z & low) + low | z) & high).bit_count()


def _advance(pins: list[tuple[int, int]], cands: list[list[int]]) -> bool:
    """Steps ``pins`` in place to the next constraint of their depth, in BFS
    order: a mixed-radix counter whose digit j is pin j's place in
    ``cands[j]``, the last fastest. True when every digit has wrapped to 0,
    that is, when the depth is spent (at once at depth 0)."""
    for j in range(len(pins) - 1, -1, -1):
        a, v = pins[j]
        vs = cands[j]
        i = vs.index(v) + 1
        if i < len(vs):
            pins[j] = (a, vs[i])
            return False
        pins[j] = (a, vs[0])
    return True


def _extract(node: _Node, unpack) -> JointPlan:
    configs = []
    while node is not None:
        configs.append(unpack(node.config))
        node = node.parent
    configs.reverse()
    return JointPlan.from_configs(configs)


def lacam_solve(problem: SolverProblem, seed: int | str, budget_expansions: int) -> SolveResult:
    """Anytime joint-configuration search, budgeted in expansions
    (constraints taken from the walk), so a seed fixes the result on any
    machine.
    Steps clear the problem's fov radius; at radius 0 the rule is classical.

    Failures: ``timeout`` (budget spent), ``exhausted`` (no plan exists) and
    ``invalid_start`` (``clean_start`` fails: the start configuration already
    breaks a step rule). A budget that is not an int >= 0 is a ConfigError.
    """
    if type(budget_expansions) is not int or budget_expansions < 0:
        raise ConfigError("the expansion budget must be an int >= 0")
    if not clean_start(problem):
        return SolveResult(None, "invalid_start")
    adj, goals = problem.world.adjacency, problem.goals
    rng = random.Random(f"pibt:{seed}")
    n, dists = problem.num_agents, problem.dists

    if problem.starts == goals:
        plan = JointPlan.from_configs([list(goals)])
        return SolveResult(plan)
    packing, low, high = _key_packing(n, problem.world.num_vertices)
    pack, unpack = packing.pack, packing.unpack
    goal_cfg = pack(*goals)
    from_bytes = int.from_bytes
    goal_int = from_bytes(goal_cfg, "little")  # XOR a key's int: its off-goal word

    start_cfg = pack(*problem.starts)
    init = _Node(start_cfg, 0, sum(map(list.__getitem__, dists, problem.starts)), None, [0] * n)
    open_stack: list[_Node] = [init]
    explored: dict[bytes, _Node] = {start_cfg: init}
    goal_node: _Node | None = None
    best_plan, best_soc = None, float("inf")
    # goal_node.g when its plan was last scored. A rewire sets a parent only
    # while strictly lowering g, and lowers g along ``edges`` onward, so the
    # goal's parent chain (its plan) can change only when goal_node.g drops.
    scored_g = float("inf")
    expansions = 0
    ctx_node: _Node | None = None  # the node ``ctx``, ``q`` and ``off`` belong to

    while open_stack:
        node = open_stack[-1]
        if (node.config == goal_cfg or node.pins is None
                or (goal_node is not None and goal_node.g <= node.g + node.h)):
            open_stack.pop()
            continue
        if expansions >= budget_expansions:
            break
        expansions += 1
        if node is not ctx_node:  # one context at a time, for the node being expanded
            q = unpack(node.config)
            if node.cands is None:  # first expansion: its own etas, order and walk
                node.etas, node.order = node_data(goals, dists, q, node.etas)
                node.cands, node.pins, node.edges = [], [], {}
            ctx, ctx_node = StepContext(problem, q, node.order, node.pins), node
            off = from_bytes(node.config, "little") ^ goal_int  # its off-goal word
        q_new = build_step(problem, ctx, rng)
        cands, pins = node.cands, node.pins
        if ctx.failed_pin >= 0:
            # the rest of the failed pin prefix's suffix fails there too:
            # take it at once, its digits set to their last candidates
            left = 0
            for j in range(ctx.failed_pin + 1, len(pins)):
                vs = cands[j]
                left = left * len(vs) + len(vs) - 1 - vs.index(pins[j][1])
                pins[j] = (pins[j][0], vs[-1])
            if left > budget_expansions - expansions:  # the budget ends among them
                expansions = budget_expansions
                continue
            expansions += left
        if _advance(pins, cands):  # the depth is spent
            if len(cands) < n:  # on to the next, at its first constraint
                agent = node.order[len(cands)]
                cur = q[agent]
                vs = sorted((cur, *adj[cur]))
                vs.sort(key=dists[agent].__getitem__)  # stable: by (distance, vertex)
                cands.append(vs)
                pins.append((agent, vs[0]))
            else:
                node.pins = None
        if q_new is None:
            continue
        key = pack(*q_new)
        cost = _move_cost(off, from_bytes(key, "little") ^ goal_int, low, high)
        succ = explored.get(key)
        if succ is None:  # reached at g = node.g + cost, so never rewired below
            h = sum(map(list.__getitem__, dists, q_new))
            succ = explored[key] = _Node(key, node.g + cost, h, node, node.etas)
            if key == goal_cfg:
                goal_node = succ
        if succ is not node:  # self-loops cannot improve anything
            node.edges[succ] = cost
        if node.g + cost < succ.g:
            succ.g = node.g + cost
            succ.parent = node
            queue = deque([succ])
            while queue:
                x = queue.popleft()
                if x.edges is None:  # never expanded, so no out-edges
                    continue
                for y, c in x.edges.items():
                    if x.g + c < y.g:
                        y.g = x.g + c
                        y.parent = x
                        queue.append(y)
        if goal_node is not None and goal_node.g < scored_g:  # re-score the incumbent
            scored_g = goal_node.g
            plan = _extract(goal_node, unpack)
            soc = metrics(plan.paths, goals).soc
            if soc < best_soc:
                best_plan, best_soc = plan, soc
        open_stack.append(succ)  # new or known: the pop test decides its expansion

    # cut the parent/edges cycles, so the graph is freed on return, not by gc
    for node in explored.values():
        node.edges = None
    if best_plan is not None:
        return SolveResult(best_plan, expansions=expansions)
    reason = "timeout" if open_stack else "exhausted"
    return SolveResult(None, reason, expansions=expansions)
