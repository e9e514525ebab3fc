"""Priority-inheritance configuration generation, with fov clearing:
LaCAM's configuration generator.

``lacam_solve`` orders each expanded configuration's agents with
``node_data``, one pass that yields the etas and the priority order, and
takes its steps from ``build_step``.

One transactional step builder serves every fov radius of the problem. An
agent claiming vertex v must recursively displace (a) the current occupant
of v and, at radius r >= 1, (b) every not-yet-decided agent of another
group whose current position lies inside the square fov of v. The
displaced agents run with the claimant's inherited priority (the recursion
itself); if any of them cannot move, every tentative assignment made under
that candidate is rolled back and the claimant tries its next vertex. At
radius 0 the fov set degenerates to {v}: the rule is the classical one.

The builder's state is indexed by vertex (``at[v]``, ``claimed[v]``: the
agent on v and the agent moving to v, -1 for none). It is allocated once
per problem and each call resets what it touched, so a problem runs one
step at a time. At radius r >= 1, one scan of a tried vertex's (2r+1)^2
fov square decides both whether another group's claim blocks it and which
agents it pushes, whatever the number of agents; an undo log tracks the
pushees. At radius 0 the only pushee is ``at[v]``. ``attempt`` shuffles
candidates inline with ``Random.shuffle``'s draws (table ``_DRAWS``).

An agent resting on its unclaimed goal, whose square holds no other
group's claim or undecided agent, only draws the shuffle's words and keeps
the goal: the stable sort by distance puts the goal first whatever the
draws, and nothing blocks or is pushed, so ``attempt`` would claim it at
once. A pushee never qualifies (its claimant has claimed its vertex or
one in its square), so the claim sits in the top-level loop, with no undo
entry.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .audit import audit
from .dispatch import AgentGroup, InfeasibleInputError
from .grid import ConfigError, GridWorld
from .plans import JointPlan

UNREACHABLE = 1 << 30


def bfs_distances(world: GridWorld, source: int) -> list[int]:
    adj = world.adjacency
    dist = [UNREACHABLE] * world.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] == UNREACHABLE:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


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
        # the starts are checked by clean_start: a repeated one is a vertex conflict
        if len(set(self.goals)) != len(self.goals):
            raise InfeasibleInputError("sub-agent goals are not pairwise distinct")
        self.num_agents = len(self.starts)
        self.dists = [bfs_distances(world, g) for g in self.goals]
        # build_step's state (the agent on v, the agent moving to v): -1 between calls
        self.at = [-1] * world.num_vertices
        self.claimed = [-1] * world.num_vertices


def node_data(goals, dists, cfg: tuple[int, ...], etas: list[int]):
    """The pass the search makes once per expanded configuration, at its
    first expansion: the off-goal counters (eta, reset to 0 on the goal)
    and the priority order.

    The order ranks sub-agents by ``(at_goal, -eta, dist, agent)``, highest
    priority first: whoever has been off its goal longest (which breaks
    mutual-push oscillations), then the nearer to its goal, then the lower
    id. Eta is 0 exactly on the goal, so ``(dist - eta * 2**31) * 2**shift
    + agent`` (dist <= UNREACHABLE < 2**31) is one integer key per agent
    that sorts the same way."""
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


# _DRAWS[m]: (i, i + 1, bits) per swap of Random.shuffle on m <= 5 items
_DRAWS = tuple(
    tuple((i, i + 1, (i + 1).bit_length()) for i in range(m - 1, 0, -1)) for m in range(6)
)


def build_step(
    problem: SolverProblem,
    config: Sequence[int],
    rng: random.Random,
    order: list[int],
    forced: Sequence[tuple[int, int]] = (),
) -> list[int] | None:
    """One configuration step, deciding agents in ``order`` after the
    ``forced`` assignments; None when the step is unrealisable. Unforced
    from a valid configuration it always succeeds: every agent may wait.

    An agent resting on its goal keeps it without an ``attempt`` call when
    nothing can move it; the module docstring gives the rule and why it is exact.

    The vertex-indexed state lives on the problem and is reset on the way out, also
    on a raise; so a problem runs one step at a time (no re-entry, no threads)."""
    at, claimed, adj, dists, group_of, goals = (problem.at, problem.claimed,
        problem.world.adjacency, problem.dists, problem.group_of, problem.goals)
    r, getrandbits = problem.fov_radius, rng.getrandbits
    fov = problem.world.fov_table(r) if r else None  # radius 0: the classical rule
    target: list[int | None] = [None] * problem.num_agents
    undo: list[int] = []  # assigned agents (radius >= 1)

    # state bound as defaults: read as fast locals, quicker than closure cells
    def attempt(a, config=config, adj=adj, dists=dists, getrandbits=getrandbits, claimed=claimed,
                at=at, target=target, fov=fov, group_of=group_of, undo=undo):
        cur = config[a]
        cand = [cur, *adj[cur]]
        for i, n, k in _DRAWS[len(cand)]:
            j = getrandbits(k)
            while j >= n:
                j = getrandbits(k)
            cand[i], cand[j] = cand[j], cand[i]
        cand.sort(key=dists[a].__getitem__)
        # claimed[cur] holds for every candidate; following its agent is an exchange
        b = claimed[cur]
        swap = config[b] if b >= 0 else -1
        # radius 0 keeps its own loop: fov_table(0) squares plan alike, but kPP steps ~20% slower
        if fov is None:
            for v in cand:
                if claimed[v] >= 0 or v == swap:
                    continue
                target[a] = v
                claimed[v] = a
                b = at[v]
                if b < 0 or b == a or target[b] is not None or attempt(b):
                    return True
                # a failed attempt left nothing assigned
                target[a] = None
                claimed[v] = -1
            return False
        ga = group_of[a]
        for v in cand:
            if claimed[v] >= 0 or v == swap:
                continue
            # one scan of v's square: v is blocked if another group's agent
            # has claimed a vertex in it (fov is symmetric, so this covers
            # both directions); else the pushees are v's occupant, whatever
            # its group, and the undecided agents of other groups in it
            pushees = []
            for u in fov[v]:
                b = claimed[u]
                if b >= 0 and group_of[b] != ga:
                    break
                b = at[u]
                if b >= 0 and b != a and target[b] is None and (u == v or group_of[b] != ga):
                    pushees.append(b)
            else:
                mark = len(undo)
                target[a] = v
                claimed[v] = a
                undo.append(a)
                pushees.sort()
                for b in pushees:
                    # b may have been decided while clearing an earlier pushee
                    if target[b] is None and not attempt(b):
                        break
                else:
                    return True
                for c in undo[mark:]:
                    claimed[target[c]] = -1
                    target[c] = None
                del undo[mark:]
        return False

    try:
        for a, v in enumerate(config):
            at[v] = a
        for a, v in forced:
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
            target[a] = v
            claimed[v] = a
        for a in order:
            if target[a] is not None:
                continue
            cur = config[a]
            if cur == goals[a] and claimed[cur] < 0:  # resting on its goal
                ga = group_of[a]
                for u in fov[cur] if fov is not None else ():
                    b, c = claimed[u], at[u]
                    if (b >= 0 and group_of[b] != ga
                            or c >= 0 and target[c] is None and group_of[c] != ga):
                        break
                else:
                    for i, n, k in _DRAWS[len(adj[cur]) + 1]:  # the shuffle's draws
                        j = getrandbits(k)
                        while j >= n:
                            j = getrandbits(k)
                    target[a], claimed[cur] = cur, a
                    continue
            if not attempt(a):
                return None
        return target
    finally:
        for v in config:
            at[v] = -1
        for v in target:
            if v is not None:
                claimed[v] = -1
        del attempt  # it refers to itself: free it now, not in the next gc pass


@dataclass
class SolveResult:
    solved: bool
    plan: JointPlan | None
    # timeout | exhausted | invalid_start (clean_start failed)
    reason: str | None = None
    expansions: int = 0
