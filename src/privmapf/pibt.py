"""Priority-inheritance configuration generation, with optional fov clearing.

One transactional step builder serves both the classical solver and the
fov-aware variant. An agent claiming vertex v must recursively displace
(a) the current occupant of v and, in fov mode, (b) every not-yet-decided
agent of another group whose current position lies inside the square fov of
v. The displaced agents run with the claimant's inherited priority (the
recursion itself); if any of them cannot move, every tentative assignment
made under that candidate is rolled back and the claimant tries its next
vertex. With radius 0 the fov set degenerates to {v}, so fov mode and
classical mode share control flow and consume the RNG identically.

The builder's state is indexed by vertex (``at[v]``, ``claimed[v]``: the
agent on v and the agent moving to v, -1 for none), so both fov checks on
a tried vertex walk only its (2r+1)^2 fov square, whatever the number of
agents and groups.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .dispatch import AgentGroup
from .grid import GridWorld
from .plans import JointPlan

UNREACHABLE = 1 << 30


def bfs_distances(world: GridWorld, source: int) -> list[int]:
    dist = [UNREACHABLE] * world.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in world.neighbors(v):
            if dist[u] == UNREACHABLE:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


class SolverProblem:
    """A joint instance over the sub-agents of published groups.

    Sub-agents are ordered group-major: sub-agent j = group j//k, pair j%k.
    """

    def __init__(self, world: GridWorld, groups: list[AgentGroup], fov_radius: int = 0):
        if not groups:
            raise ValueError("no groups")
        ks = {g.k for g in groups}
        if len(ks) != 1:
            raise ValueError(f"groups have mixed sizes {sorted(ks)}")
        self.world = world
        self.groups = list(groups)
        self.fov_radius = fov_radius
        self.k = groups[0].k
        self.n_groups = len(groups)
        self.starts: list[int] = []
        self.goals: list[int] = []
        self.group_of: list[int] = []
        for gi, g in enumerate(self.groups):
            for s, t in g.pairs:
                self.starts.append(s)
                self.goals.append(t)
                self.group_of.append(gi)
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("sub-agent starts are not pairwise distinct")
        if len(set(self.goals)) != len(self.goals):
            raise ValueError("sub-agent goals are not pairwise distinct")
        self.num_agents = len(self.starts)
        self.dists = [bfs_distances(world, g) for g in self.goals]


@dataclass(frozen=True)
class PriorityState:
    """Sort key for one sub-agent at one timestep; lower sorts first.

    Agents already on their goal never outrank agents that are not (an
    off-goal agent always has ``stuck_for >= 1``). Among the rest, whoever
    has been away from its goal longest wins -- that counter is what breaks
    the mutual-push oscillations -- then smaller distance-to-goal, then the
    agent id as the final strict tiebreak.
    """

    at_goal: bool
    stuck_for: int
    dist_to_goal: int
    agent: int

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (1 if self.at_goal else 0, -self.stuck_for, self.dist_to_goal, self.agent)


def update_etas(problem: SolverProblem, config: list[int], etas: list[int]) -> list[int]:
    """Advance the off-goal counters by one configuration."""
    return [
        0 if config[a] == problem.goals[a] else etas[a] + 1
        for a in range(problem.num_agents)
    ]


def compute_priorities(
    problem: SolverProblem, config: list[int], etas: list[int] | None = None
) -> list[PriorityState]:
    if etas is None:
        etas = update_etas(problem, config, [0] * problem.num_agents)
    return [
        PriorityState(
            config[a] == problem.goals[a], etas[a], problem.dists[a][config[a]], a
        )
        for a in range(problem.num_agents)
    ]


def priority_order(
    problem: SolverProblem, config: list[int], etas: list[int] | None = None
) -> list[int]:
    # sorts PriorityState.key tuples without building the states
    if etas is None:
        etas = update_etas(problem, config, [0] * problem.num_agents)
    goals, dists = problem.goals, problem.dists
    keys = sorted(
        (config[a] == goals[a], -etas[a], dists[a][config[a]], a)
        for a in range(problem.num_agents)
    )
    return [key[3] for key in keys]


def valid_configuration(problem: SolverProblem, config: list[int], fov_mode: bool) -> bool:
    if len(set(config)) != len(config):
        return False
    if fov_mode:
        r = problem.fov_radius
        for a in range(problem.num_agents):
            fset = problem.world.fov(config[a], r)
            for b in range(a + 1, problem.num_agents):
                if problem.group_of[a] != problem.group_of[b] and config[b] in fset:
                    return False
    return True


def shuffle(x: list, getrandbits) -> None:
    """``Random.shuffle(x)`` inlined: the same swaps from the same draws."""
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


class _StepBuilder:
    def __init__(self, problem, config, rng, fov_mode):
        world = problem.world
        self.problem = problem
        self.config = config
        self.rng = rng
        self.fov_mode = fov_mode
        self.dists = problem.dists
        self.group_of = problem.group_of
        self.adj = world.adjacency
        self.fov = world.fov_table(problem.fov_radius) if fov_mode else None
        self.target: list[int | None] = [None] * problem.num_agents
        self.claimed = [-1] * world.num_vertices
        self.at = [-1] * world.num_vertices
        for a, v in enumerate(config):
            self.at[v] = a
        self.undo: list[int] = []

    def _assign(self, a, v):
        self.target[a] = v
        self.claimed[v] = a
        self.undo.append(a)

    def _rollback(self, mark):
        undo, target, claimed = self.undo, self.target, self.claimed
        while len(undo) > mark:
            a = undo.pop()
            claimed[target[a]] = -1
            target[a] = None

    def _candidates(self, a):
        cur = self.config[a]
        cand = [cur, *self.adj[cur]]
        shuffle(cand, self.rng.getrandbits)
        cand.sort(key=self.dists[a].__getitem__)
        return cand

    def _fov_blocked(self, a, v):
        # v must stay clear of every decided target of other groups; fov is
        # symmetric, so scanning v's square covers both directions.
        claimed, group_of = self.claimed, self.group_of
        ga = group_of[a]
        for u in self.fov[v]:
            b = claimed[u]
            if b >= 0 and group_of[b] != ga:
                return True
        return False

    def _swap(self, a, v):
        b = self.claimed[self.config[a]]
        return b >= 0 and b != a and self.config[b] == v

    def _pushees(self, a, v):
        # the occupant of v whatever its group; in fov mode also every
        # agent of another group inside v's square
        at, target = self.at, self.target
        if not self.fov_mode:
            b = at[v]
            return [b] if b >= 0 and b != a and target[b] is None else []
        group_of = self.group_of
        ga = group_of[a]
        out = []
        for u in self.fov[v]:
            b = at[u]
            if b >= 0 and b != a and target[b] is None and (u == v or group_of[b] != ga):
                out.append(b)
        out.sort()
        return out

    def _attempt(self, a) -> bool:
        claimed, target = self.claimed, self.target
        for v in self._candidates(a):
            if claimed[v] >= 0 or self._swap(a, v):
                continue
            if self.fov_mode and self._fov_blocked(a, v):
                continue
            mark = len(self.undo)
            self._assign(a, v)
            for b in self._pushees(a, v):
                # b may have been decided while clearing an earlier pushee
                if target[b] is None and not self._attempt(b):
                    self._rollback(mark)
                    break
            else:
                return True
        return False

    def run(
        self,
        forced: list[tuple[int, int]] | None = None,
        order: list[int] | None = None,
    ) -> list[int] | None:
        if forced:
            for a, v in forced:
                cur = self.config[a]
                # first, so that v is a vertex id before claimed[v] is read
                if v != cur and v not in self.adj[cur]:
                    return None
                if self.target[a] is not None:
                    return None
                if self.claimed[v] >= 0 or self._swap(a, v):
                    return None
                if self.fov_mode and self._fov_blocked(a, v):
                    return None
                self._assign(a, v)
        if order is None:
            order = priority_order(self.problem, self.config)
        for a in order:
            if self.target[a] is None and not self._attempt(a):
                return None
        return list(self.target)


def build_step(
    problem: SolverProblem,
    config: list[int],
    rng: random.Random,
    fov_mode: bool,
    forced: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
) -> list[int] | None:
    """One configuration step; None when the (forced) step is unrealisable."""
    return _StepBuilder(problem, config, rng, fov_mode).run(forced, order)


def pibt_step(
    problem: SolverProblem,
    config: list[int],
    rng: random.Random,
    fov_mode: bool = False,
    order: list[int] | None = None,
) -> list[int]:
    """Unforced step; falls back to all-wait instead of failing.

    From a valid configuration the fallback is unreachable (waiting is
    always admissible when nothing has been forced), but it keeps the
    contract total.
    """
    out = build_step(problem, config, rng, fov_mode, order=order)
    return list(config) if out is None else out


@dataclass
class SolveResult:
    solved: bool
    plan: JointPlan | None
    reason: str | None = None  # horizon | livelock | timeout | exhausted | invalid_start
    steps: int = 0
    expansions: int = 0


def default_horizon(world: GridWorld) -> int:
    return 8 * (world.width + world.height)


def pibt_solve(
    problem: SolverProblem,
    seed: int | str,
    horizon: int | None = None,
    fov_mode: bool = False,
) -> SolveResult:
    """Run the step builder to the goal configuration or a failure.

    Failures: ``horizon`` (step budget exhausted), ``livelock`` (visited
    configurations keep recurring with no distance progress), and
    ``invalid_start`` (the initial configuration already violates the
    constraints it is supposed to maintain).
    """
    if horizon is None:
        horizon = default_horizon(problem.world)
    if not valid_configuration(problem, problem.starts, fov_mode):
        return SolveResult(False, None, "invalid_start")
    rng = random.Random(f"pibt:{seed}")
    config = list(problem.starts)
    goals = problem.goals
    etas = update_etas(problem, config, [0] * problem.num_agents)
    configs = [tuple(config)]
    visited = {tuple(config)}
    best_total = sum(problem.dists[a][config[a]] for a in range(problem.num_agents))
    stagnation = 0
    # small teams legitimately revisit configurations while one agent waves
    # the other through, so the give-up threshold gets a floor
    stagnation_limit = max(16, 2 * problem.num_agents)
    for _ in range(horizon):
        if config == goals:
            break
        order = priority_order(problem, config, etas)
        config = pibt_step(problem, config, rng, fov_mode, order=order)
        etas = update_etas(problem, config, etas)
        key = tuple(config)
        configs.append(key)
        total = sum(problem.dists[a][config[a]] for a in range(problem.num_agents))
        if total < best_total:
            best_total = total
            stagnation = 0
        elif key in visited:
            stagnation += 1
            if stagnation >= stagnation_limit:
                return SolveResult(False, None, "livelock", steps=len(configs) - 1)
        else:
            stagnation = 0
        visited.add(key)
    if config != goals:
        return SolveResult(False, None, "horizon", steps=len(configs) - 1)
    plan = JointPlan.from_configs([list(c) for c in configs])
    return SolveResult(True, plan, None, steps=plan.horizon)
