"""Priority-inheritance configuration generation, with fov clearing:
LaCAM's configuration generator.

It holds what a step reads and does: the problem (``SolverProblem``, with
its BFS distance tables), one configuration seen through the step's eyes
(``StepContext``) and the step (``build_step``). The search that calls it,
with its start check, per-node priority pass and result, is ``lacam``.

One transactional step builder serves every fov radius of the problem. An
agent claiming vertex v must displace (a) the current occupant of v and,
at radius r >= 1, (b) every not-yet-decided agent of another group whose
current position lies inside the square fov of v. The displaced agents
run with the claimant's inherited priority and displace others in turn;
if any of them cannot move, every tentative assignment made under that
candidate is rolled back and the claimant tries its next vertex. At
radius 0 the fov set degenerates to {v}: the rule is the classical one.
The push chain runs on an explicit stack, so a step has one bound: one
that spends its budget of agent entries fails as unrealisable.

The builder's state is indexed by vertex, -1 for none. ``at[v]``, the
agent on v, depends only on the configuration: ``StepContext`` builds it
once and no step writes it, so one context serves every step from its
configuration. ``claimed[v]``, the agent moving to v, is allocated once per
problem and each call resets what it claimed, so a problem runs one step at
a time. At radius r >= 1, one scan of a tried vertex's (2r+1)^2 fov square
(the problem's ``fov`` table) decides both whether another group's claim
blocks it and which agents it pushes, whatever the number of agents; at
radius 0 the only pushee, ``at[v]``, is read without a scan.
An entered agent shuffles its candidates inline with ``Random.shuffle``'s
draws (table ``_DRAWS``).

An agent resting on its unclaimed goal g only draws the shuffle's words and
keeps the goal unless an agent b of another group is in its square: b's
vertex, ``config[b]`` while b is undecided and ``target[b]`` once it is,
lies in fov_r(g). If none is, the stable sort by distance puts the goal
first whatever the draws, and nothing blocks or is pushed, so entering it
would claim the goal at once. Only the agents standing in fov_r(g) or next
to it can ever be in the way, because every claim is the claimant's vertex
or a neighbour of it (pins are checked to be steps). ``StepContext`` lists
those agents per resting agent (its watch list) once per configuration,
from the problem's per-vertex ``watchers``, so each step reads a few agents
where it scanned the square, and decides exactly as that scan. A pushee
never qualifies (its claimant has claimed its vertex or one in its square),
so the claim sits in the top-level loop, with no undo entry.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from .dispatch import AgentGroup, InfeasibleInputError
from .grid import ConfigError, GridWorld

UNREACHABLE = 1 << 30


def bfs_distances(world: GridWorld, source: int) -> list[int]:
    """Hop distances from ``source``, UNREACHABLE off its component; one
    layer of the BFS at a time."""
    adj = world.adjacency
    dist = [UNREACHABLE] * world.num_vertices
    dist[source] = 0
    layer, d = [source], 0
    while layer:
        d += 1
        nxt = []
        for v in layer:
            for u in adj[v]:
                if dist[u] == UNREACHABLE:
                    dist[u] = d
                    nxt.append(u)
        layer = nxt
    return dist


# _DRAWS[m]: (i, i + 1, bits) per swap of Random.shuffle on m <= 5 items
_DRAWS = tuple(
    tuple((i, i + 1, (i + 1).bit_length()) for i in range(m - 1, 0, -1)) for m in range(6)
)


class SolverProblem:
    """A joint instance over the sub-agents of published groups.

    Sub-agents are ordered group-major: sub-agent j = group j//k, pair j%k.
    """

    def __init__(self, world: GridWorld, groups: list[AgentGroup], fov_radius: int = 0):
        if type(fov_radius) is not int or fov_radius < 0:  # before any BFS
            raise ConfigError("fov radius must be >= 0")
        if not groups:
            raise InfeasibleInputError("no groups")
        ks = {g.k for g in groups}
        if len(ks) != 1:
            raise InfeasibleInputError(f"groups have mixed sizes {sorted(ks)}")
        self.world = world
        self.fov_radius = fov_radius
        self.k = groups[0].k
        self.starts: list[int] = []
        self.goals: list[int] = []
        self.group_of: list[int] = []
        for gi, g in enumerate(groups):
            for s, t in g.pairs:
                self.starts.append(s)
                self.goals.append(t)
                self.group_of.append(gi)
        # the starts are checked by lacam.clean_start: a repeated one is a vertex conflict
        if len(set(self.goals)) != len(self.goals):
            raise InfeasibleInputError("sub-agent goals are not pairwise distinct")
        self.num_agents = len(self.starts)
        self.dists = [bfs_distances(world, g) for g in self.goals]
        # what an agent resting on its goal g needs: the shuffle's draws, one
        # (n, k) per swap (draw k bits until the word is below n), and, at
        # radius >= 1, watchers[v], the agents whose fov_r(g) holds v or a
        # neighbour of v (from v, one step claims a vertex of fov_r(g))
        self.goal_draws = [tuple((n, k) for _, n, k in _DRAWS[len(world.adjacency[g]) + 1])
                           for g in self.goals]
        self.fov = self.watchers = None  # radius 0: the classical rule
        if fov_radius:
            self.fov = fov = world.fov_table(fov_radius)
            watchers: list[list[int]] = [[] for _ in range(world.num_vertices)]
            for a, g in enumerate(self.goals):
                for v in fov[g].union(*map(world.adjacency.__getitem__, fov[g])):
                    watchers[v].append(a)
            self.watchers = [tuple(w) for w in watchers]
        # build_step's claims (the agent moving to v): -1 between calls
        self.claimed = [-1] * world.num_vertices


class StepContext:
    """What ``build_step`` reads of one configuration besides the problem:
    ``config``, the priority ``order``, the ``pins`` (the forced
    ``(agent, vertex)`` assignments, kept by reference: the search advances
    them in place between steps), ``at``, the occupant array (``at[v]`` is
    the agent on v, -1 for none; read-only to ``build_step``), and
    ``steps``, one ``(agent, vertex, draws, watch)`` per agent of ``order``.
    ``draws`` is None unless the agent rests on its goal g; then it is the
    problem's ``goal_draws`` entry, and ``watch`` lists the other groups'
    agents standing in fov_r(g) or next to it (none at radius 0). The module
    docstring gives the rule they serve. Every caller of ``build_step``
    builds its context here, so there is one resting-agent path.
    ``failed_pin``, the one field ``build_step`` writes, is the index of
    the pin its last step failed at, -1 when every pin held."""

    __slots__ = ("config", "order", "pins", "at", "steps", "failed_pin")

    def __init__(self, problem: SolverProblem, config: Sequence[int], order: list[int],
                 pins: Sequence[tuple[int, int]] = ()):
        self.config, self.order, self.pins = config, order, pins
        self.failed_pin = -1
        self.at = at = [-1] * problem.world.num_vertices
        for a, v in enumerate(config):
            at[v] = a
        goals, group_of, watchers = problem.goals, problem.group_of, problem.watchers
        watch: dict[int, list[int]] = {}  # resting agent -> the agents it watches
        if watchers is not None:
            for b, v in enumerate(config):
                gb = group_of[b]
                for a in watchers[v]:
                    if group_of[a] != gb and config[a] == goals[a]:
                        watch.setdefault(a, []).append(b)
        draws = problem.goal_draws
        self.steps = [(a, v, draws[a], watch.get(a, ())) if (v := config[a]) == goals[a]
                      else (a, v, None, ()) for a in order]


def build_step(problem: SolverProblem, ctx: StepContext, rng: random.Random) -> list[int] | None:
    """One configuration step from ``ctx.config``, deciding agents in
    ``ctx.order`` after the pins; None when the step is unrealisable or
    enters agents (draws their candidates) more than ``8 n + 64`` times (n
    agents), its one bound. Unpinned from a valid configuration it always
    succeeds within it: every agent may wait. Without it a crowded map takes
    exponential time, as a failed push is undone and its agent entered again
    from later branches. The search stays complete: a constraint at depth n
    pins every agent, and its step enters none.

    The pins are checked in order before any draw, pin j's check reading
    only ``pins[0..j]`` and the configuration; ``ctx.failed_pin`` reports
    the pin a step failed at (else -1), where any constraint that keeps
    ``pins[0..j]`` fails too.

    An agent waiting on a pushee is one stack frame (agent, candidate
    iterator, swap, undo mark, pushee iterator): it goes on to its next
    pushee once that one holds a vertex, or undoes back to its mark and
    claims its next candidate once that one runs out of candidates.

    An agent resting on its goal keeps it without being entered unless an
    agent on its watch list has its vertex (``config[b]`` while undecided,
    ``target[b]`` once decided) in the goal's fov square; the module
    docstring gives the rule and why it is exactly the square scan.

    It only reads ``ctx`` but for that report, so a context serves any
    number of steps. The claims live on the problem and are reset on the
    way out, also on a raise; so a problem runs one step at a time (no
    re-entry, no threads)."""
    config = ctx.config
    at, claimed, adj, dists, group_of, fov = (ctx.at, problem.claimed,
        problem.world.adjacency, problem.dists, problem.group_of, problem.fov)
    getrandbits = rng.getrandbits
    target: list[int | None] = [None] * problem.num_agents
    undo: list[int] = []  # the assigned agents, for rollback
    stack: list[tuple] = []  # the frames of the agents waiting on a pushee
    budget = 8 * problem.num_agents + 64  # agent entries left
    try:
        for j, (a, v) in enumerate(ctx.pins):
            ctx.failed_pin = j  # until pin j holds
            cur = config[a]
            # first, so that v is a vertex id before claimed[v] is read
            if v != cur and v not in adj[cur]:
                return None
            b = claimed[cur]
            if target[a] is not None or claimed[v] >= 0 or (b >= 0 and config[b] == v):
                return None
            if fov is not None:
                ga = group_of[a]
                for u in fov[v]:
                    b = claimed[u]
                    if b >= 0 and group_of[b] != ga:
                        return None
            target[a], claimed[v] = v, a
        ctx.failed_pin = -1
        for a, cur, draws, watch in ctx.steps:
            if target[a] is not None:
                continue
            if draws is not None and claimed[cur] < 0:  # resting on its goal
                for b in watch:
                    v = target[b]
                    if (config[b] if v is None else v) in fov[cur]:
                        break
                else:
                    for n, k in draws:  # the shuffle's draws
                        while getrandbits(k) >= n:
                            pass
                    target[a], claimed[cur] = cur, a
                    continue
            while stack or target[a] is None:  # enter a: draw its candidates
                budget -= 1
                if budget < 0:
                    return None
                cur = config[a]
                cand = [cur, *adj[cur]]
                for i, n, k in _DRAWS[len(cand)]:
                    j = getrandbits(k)
                    while j >= n:
                        j = getrandbits(k)
                    cand[i], cand[j] = cand[j], cand[i]
                cand.sort(key=dists[a].__getitem__)
                cands, pushees = iter(cand), None  # a holds no vertex
                # claimed[cur] holds for every candidate; following its agent is an exchange
                b = claimed[cur]
                swap = config[b] if b >= 0 else -1
                while True:
                    if pushees is None:  # a claims its next candidate
                        for v in cands:
                            if claimed[v] >= 0 or v == swap:
                                continue
                            if fov is None:  # radius 0: the pushee is v's occupant
                                b = at[v]
                                pushees = iter((b,) if b >= 0 else ())
                            else:
                                # one scan of v's square: v is blocked if another group's
                                # agent claimed a vertex in it (fov is symmetric); else the
                                # pushees are v's occupant and the undecided agents of
                                # other groups in it
                                ga, found = group_of[a], []
                                for u in fov[v]:
                                    b = claimed[u]
                                    if b >= 0 and group_of[b] != ga:
                                        break
                                    b = at[u]
                                    if b >= 0 and b != a and target[b] is None and (
                                            u == v or group_of[b] != ga):
                                        found.append(b)
                                else:
                                    pushees = iter(sorted(found))
                                if pushees is None:  # v is blocked
                                    continue
                            mark = len(undo)
                            target[a], claimed[v] = v, a
                            undo.append(a)
                            break
                        else:  # a is out of candidates: its claimant's vertex fails
                            if not stack:
                                return None
                            a, cands, swap, mark, _ = stack.pop()  # pushees stays None
                            for c in undo[mark:]:
                                claimed[target[c]] = -1
                                target[c] = None
                            del undo[mark:]
                            continue
                    for b in pushees:
                        if target[b] is None:  # it may have moved for an earlier pushee
                            stack.append((a, cands, swap, mark, pushees))
                            a = b
                            break
                    else:  # every pushee moved: a holds its vertex
                        if stack:
                            a, cands, swap, mark, pushees = stack.pop()
                            continue
                    break
        return target
    finally:
        for v in target:
            if v is not None:
                claimed[v] = -1
