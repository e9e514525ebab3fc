"""The step builder, LaCAM's configuration generator.

The single-step oracle re-validates every produced configuration from
first principles (moves are stay-or-adjacent, vertices unique, no
exchanges, and at radius r >= 1 no inter-group visibility), so the transactional
push/rollback machinery is checked against the rules it must maintain, not
against its own bookkeeping. The vertex-indexed builder is also compared,
result and RNG state, with a reference that keeps its state in dicts and
per-group target sets and scans every agent for fov pushees, also from
configurations at or near the goals, where most agents keep their goal
without being entered. Its claims live on the problem and its occupant
array on the step context: every step, rejected, failed, taken or cut
short by a raising draw, must leave both as it found them and act as on a
fresh problem and context. A step plans and draws alike however deep its
caller's stack is. LaCAM's start check (``lacam.clean_start``),
an audit call, is compared with the hand-written rule it replaced. The
generator imports neither the auditor, the plans nor the search.
"""

import os
import random
import subprocess
import sys
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

import pytest

from privmapf import lacam, pibt
from privmapf.audit import audit
from privmapf.dispatch import AgentGroup, InfeasibleInputError, dispatch_groups
from privmapf.grid import ConfigError, load_map, parse_map_text
from privmapf.instances import random_spaced_pairs
from privmapf.lacam import clean_start, lacam_solve, node_data
from privmapf.pibt import UNREACHABLE, SolverProblem, StepContext, bfs_distances, build_step
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.plans import JointPlan

from conftest import ASSETS, bound_step_draws, singleton_problem

BUDGET = 1500


def step(problem, config, rng, order, forced=()):
    """``build_step`` from a fresh context, as a caller outside the search makes it."""
    return build_step(problem, StepContext(problem, config, order, forced), rng)


def step_is_legal(problem, before, after):
    n = problem.num_agents
    if sorted(set(after)) != sorted(after):
        return False
    for a in range(n):
        u, v = before[a], after[a]
        if v != u and v not in problem.world.adjacency[u]:
            return False
    for a in range(n):
        for b in range(a + 1, n):
            if after[a] == before[b] and after[b] == before[a] and before[a] != before[b]:
                return False
    after_plan = JointPlan.from_configs([after])
    return audit(problem.world, after_plan, problem.group_of, problem.fov_radius, check_fov=True).ok


@pytest.mark.parametrize("radius", [0, 1])
def test_every_step_obeys_the_rules(open16, radius):
    for seed in range(5):
        rng = random.Random(seed)
        reals = [(i * 37 % 200, (i * 53 + 90) % 230) for i in range(4)]
        groups = dispatch_groups(open16, reals, 2, radius, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], radius)
        config = list(problem.starts)
        etas = [0] * problem.num_agents
        for _ in range(40):
            etas, order = node_data(problem.goals, problem.dists, config, etas)
            # unforced from a valid configuration, a step always exists
            after = step(problem, config, rng, order)
            assert after is not None and step_is_legal(problem, config, after)
            config = after


def test_pocket_push_semantics(pocket):
    """Higher priority walks forward; the blocker is pushed into the pocket."""
    a = (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0))
    b = (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))
    problem = singleton_problem(pocket, [a, b])
    rng = random.Random("pibt:0")
    after = step(problem, list(problem.starts), rng, [0, 1])
    assert [pocket.coords(v) for v in after] == [(2, 0), (2, 1)]


def test_radius_zero_solves_match_the_reference(open16, monkeypatch):
    # at radius 0 whole solves match the reference under either rule
    def reference_step(fov_rule):
        def ref_step(problem, ctx, rng):
            ref = _ReferenceStepBuilder(problem, list(ctx.config), rng, fov_rule)
            return ref.run(ctx.pins, ctx.order)
        return ref_step

    for seed in range(6):
        reals = [(i * 31 % 250, (i * 67 + 40) % 250) for i in range(4)]
        groups = dispatch_groups(open16, reals, 2, 0, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], 0)
        built = lacam_solve(problem, seed, budget_expansions=BUDGET)
        with monkeypatch.context() as m:
            m.setattr(lacam, "build_step", reference_step(False))
            plain = lacam_solve(problem, seed, budget_expansions=BUDGET)
            m.setattr(lacam, "build_step", reference_step(True))
            fov = lacam_solve(problem, seed, budget_expansions=BUDGET)
        assert plain.solved and fov.solved and built.solved
        assert plain.plan.paths == fov.plan.paths == built.plan.paths


@pytest.mark.parametrize("radius", [1, 2])
def test_fov_radius_solves_match_the_reference(open16, monkeypatch, radius):
    # at radius r >= 1, whole solves match the reference through the anytime
    # phase, where most agents rest on their goals: plans and expansions
    for seed in range(4):
        reals = [(i * 31 % 250, (i * 67 + 40) % 250) for i in range(6)]
        if radius == 2:  # two of those pairs see each other at radius 2
            reals = random_spaced_pairs(open16, 6, seed, min_separation=5)
        groups = dispatch_groups(open16, reals, 2, radius, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], radius)
        built = lacam_solve(problem, seed, budget_expansions=BUDGET)
        goal_hits = []

        def reference_step(problem, ctx, rng):
            ref = _ReferenceStepBuilder(problem, list(ctx.config), rng, True)
            out = ref.run(ctx.pins, ctx.order)
            goal_hits.append(out == problem.goals)
            return out

        with monkeypatch.context() as m:
            m.setattr(lacam, "build_step", reference_step)
            ref = lacam_solve(problem, seed, budget_expansions=BUDGET)
        assert built.solved and ref.solved
        assert (built.plan.paths, built.expansions) == (ref.plan.paths, ref.expansions)
        assert goal_hits.index(True) < len(goal_hits) // 2  # well past the first goal hit


def test_same_group_members_may_touch(open4):
    # both members belong to one group: fov clearing must not apply inside
    pairs = ((open4.vertex_at(0, 0), open4.vertex_at(3, 0)),
             (open4.vertex_at(3, 0), open4.vertex_at(0, 0)))
    problem = SolverProblem(open4, [AgentGroup(0, pairs, 0)], 1)
    result = lacam_solve(problem, seed=2, budget_expansions=BUDGET)
    assert result.solved
    dists = [open4.chebyshev(u, v) for u, v in zip(*result.plan.paths)]
    assert min(dists) <= 1  # they really do pass close by


def test_forced_moves_are_respected_or_rejected(open4):
    v00, v10, v20 = open4.vertex_at(0, 0), open4.vertex_at(1, 0), open4.vertex_at(2, 0)
    v01 = open4.vertex_at(0, 1)
    problem = singleton_problem(open4, [(v00, v20), (v10, v00)])
    rng = random.Random(0)

    order = [0, 1]
    out = step(problem, [v00, v10], rng, order, forced=[(0, v01)])
    assert out is not None and out[0] == v01

    # forcing both into the same vertex is unrealisable
    assert step(problem, [v00, v10], rng, order, forced=[(0, v10), (1, v10)]) is None
    # a forced exchange is unrealisable
    assert step(problem, [v00, v10], rng, order, forced=[(0, v10), (1, v00)]) is None
    # teleports are unrealisable
    assert step(problem, [v00, v10], rng, order, forced=[(0, v20)]) is None


def test_forced_fov_violation_rejected(open16):
    rng = random.Random(0)
    # groups start far apart; moving them onto diagonal-adjacent cells is a
    # radius-1 violation and must be unrealisable
    a = (open16.vertex_at(3, 4), open16.vertex_at(10, 0))
    b = (open16.vertex_at(5, 5), open16.vertex_at(0, 5))
    problem = singleton_problem(open16, [a, b], fov_radius=1)
    far = [(0, open16.vertex_at(2, 4)), (1, open16.vertex_at(5, 4))]
    assert step(problem, list(problem.starts), rng, [0, 1], forced=far) is not None
    close = [(0, open16.vertex_at(4, 4)), (1, open16.vertex_at(5, 4))]
    assert step(problem, list(problem.starts), rng, [0, 1], forced=close) is None


def test_invalid_start_reported(open4):
    a = (open4.vertex_at(0, 0), open4.vertex_at(3, 3))
    b = (open4.vertex_at(1, 1), open4.vertex_at(0, 3))  # inside fov(a) at r=1
    c = (open4.vertex_at(0, 0), open4.vertex_at(0, 3))  # a's start: a vertex conflict
    for problem in (singleton_problem(open4, [a, b], fov_radius=1),
                    singleton_problem(open4, [a, c])):
        # the start is refused before any search, so the budget does not matter
        result = lacam_solve(problem, seed=0, budget_expansions=0)
        assert (result.solved, result.plan, result.reason) == (False, None, "invalid_start")


def test_priorities_at_goal_sorts_last(open16):
    pairs = [(0, 0), (5, 100)]  # agent 0 already home
    problem = singleton_problem(open16, pairs)
    _, order = node_data(problem.goals, problem.dists, problem.starts, [0, 0])
    assert order[-1] == 0


def test_eta_counters_grow_and_reset(open4):
    problem = singleton_problem(open4, [(0, 3)])
    goals, dists = problem.goals, problem.dists
    etas, _ = node_data(goals, dists, (0,), [0])
    assert etas == [1]
    etas, _ = node_data(goals, dists, (1,), etas)
    assert etas == [2]
    etas, _ = node_data(goals, dists, (3,), etas)
    assert etas == [0]


def test_longest_stuck_agent_outranks(open4):
    problem = singleton_problem(open4, [(0, 5), (1, 6)])
    etas, ranked = node_data(problem.goals, problem.dists, (2, 3), [3, 8])
    assert etas == [4, 9]
    assert ranked[0] == 1


@pytest.mark.parametrize("pairs,message", [
    ((), "no groups"),
    ((((0, 5),), ((1, 6), (2, 7))), "groups have mixed sizes"),
    ((((0, 5),), ((1, 5),)), "sub-agent goals are not pairwise distinct"),
])
def test_problem_rejects_bad_groups(open16, pairs, message):
    # an input error, so the CLI and the bench sweep report it as one
    groups = [AgentGroup(i, p, None) for i, p in enumerate(pairs)]
    with pytest.raises(InfeasibleInputError, match=message):
        SolverProblem(open16, groups)


def _no_bfs(world, source):
    raise AssertionError("BFS ran")


# an exact int: 1.5 would fail later in lacam_solve with a bare TypeError,
# '1' at once with one, and True would act as 1
@pytest.mark.parametrize("radius", [1.5, "1", True, None])
def test_problem_rejects_non_int_fov_radius(open16, monkeypatch, radius):
    monkeypatch.setattr(pibt, "bfs_distances", _no_bfs)
    groups = [AgentGroup(0, ((0, 5),), None)]
    with pytest.raises(ConfigError, match="fov radius must be >= 0"):
        SolverProblem(open16, groups, fov_radius=radius)


def _deque_bfs(world, source):
    dist = [UNREACHABLE] * world.num_vertices
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in world.adjacency[v]:
            if dist[u] == UNREACHABLE:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


@pytest.mark.parametrize("path", sorted((ASSETS / "maps").glob("*.map")), ids=lambda p: p.stem)
def test_bfs_distances_match_a_queue_bfs(path):
    # the layer-by-layer walk against the textbook queue, on every bundled map
    world = load_map(path)
    for source in range(0, world.num_vertices, 37):
        assert bfs_distances(world, source) == _deque_bfs(world, source)


def test_bfs_distances_unreachable():
    w = parse_map_text("type octile\nheight 1\nwidth 5\nmap\n..@..\n")
    d = bfs_distances(w, 0)
    assert d == _deque_bfs(w, 0)
    assert d[1] == 1
    assert d[w.vertex_at(3, 0)] == UNREACHABLE


def test_solved_plan_reaches_goals_and_audits_clean(open16):
    for seed in range(4):
        reals = [(i * 41 % 230, (i * 59 + 7) % 251) for i in range(6)]
        groups = dispatch_groups(open16, reals, 2, 0, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], 0)
        result = lacam_solve(problem, seed, budget_expansions=BUDGET)
        assert result.solved
        assert [p[-1] for p in result.plan.paths] == list(problem.goals)
        assert audit(open16, result.plan).ok


# ------------------------------------------------ state between steps

# one 14-cell row: its right end is a dead end
CORRIDOR = "type octile\nheight 1\nwidth 14\nmap\n" + "." * 14 + "\n"


class _Drawn(Exception):
    pass


class _FailingRandom(random.Random):
    """A Random whose ``getrandbits`` raises after ``draws`` calls (never,
    for None)."""

    def __init__(self, state, draws):
        super().__init__()
        self.setstate(state)
        self.draws = draws

    def getrandbits(self, k):
        if self.draws == 0:
            raise _Drawn
        if self.draws is not None:
            self.draws -= 1
        return super().getrandbits(k)


def _step(problem, ctx, state, draws):
    """The result ("raised" for a failed draw) and the RNG state after it."""
    rng = _FailingRandom(state, draws)
    try:
        out = build_step(problem, ctx, rng)
    except _Drawn:
        out = "raised"
    return out, rng.getstate()


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_no_state_leaks_between_steps(radius):
    # group 0 = agents 0-2, group 1 = agents 3-5; the goals only rank moves
    world = parse_map_text(CORRIDOR)
    groups = [AgentGroup(0, ((11, 0), (12, 1), (13, 2)), None),
              AgentGroup(1, ((0, 11), (1, 12), (2, 13)), None)]
    problem = SolverProblem(world, groups, radius)
    ends = [11, 12, 13, 0, 1, 2]  # group 0 in the dead end, group 1 far off
    apart = [0, 1, 2, 4 + radius, 5 + radius, 6 + radius]  # agents 2 and 3 r + 2 apart
    order, back = list(range(6)), [2, 1, 0, 3, 4, 5]
    rejected = [
        (ends, order, [(0, 5)]),  # not a step
        (ends, order, [(0, 12), (2, 12)]),  # 12 is already claimed
        (ends, order, [(0, 12), (1, 11)]),  # an exchange
        (apart, order, [(2, 3), (3, 3 + radius)]),  # inside each other's fov
        # agent 1 tries 13 and pushes agent 2, which has nowhere to go: rolled back
        (ends, order, [(0, 12)]),
    ]
    taken = [(ends, order, ()), (apart, back, ()), (ends, back, [(1, 11)])]
    calls = [(*call, None, None) for call in rejected]
    calls += [(*call, None, "step") for call in taken]
    # agent 2 claims 12 and pushes agent 1, which pushes agent 0: the draws
    # run out with up to two claims made
    calls += [(ends, back, (), draws, "raised") for draws in (0, 2, 4, 6)]
    # everyone rests on its goal, far from the other group: each agent is
    # kept after the shuffle's draws. Agents 0 and 5 sit on the row's ends,
    # one draw each, so the draws run out with 0, 1 or 2 agents kept; the
    # last row keeps agent 0 after agent 1's pin
    home, ends_first = [0, 1, 2, 11, 12, 13], [0, 5, 1, 2, 3, 4]
    calls += [(home, ends_first, (), draws, "raised") for draws in (0, 1, 2)]
    calls += [(home, order, (), None, "step"), (home, ends_first, [(1, 1)], 1, "raised")]
    # one context per call, reused by its repeats, as the search reuses one
    calls = [(StepContext(problem, *call[:3]), *call) for call in calls]
    calls = calls[::2] + calls[1::2] + calls  # each call after several others
    state = random.Random("leaks").getstate()
    for ctx, config, step_order, forced, draws, expected in calls:
        fresh = SolverProblem(world, groups, radius)
        out, after = _step(problem, ctx, state, draws)
        assert problem.claimed == [-1] * world.num_vertices
        assert ctx.at == StepContext(problem, config, step_order, forced).at
        fresh_ctx = StepContext(fresh, config, step_order, forced)
        assert (out, after) == _step(fresh, fresh_ctx, state, draws)
        assert ("step" if isinstance(out, list) else out) == expected
        state = after


# ------------------------------------------------ reference step builder


class _ReferenceStepBuilder:
    """The step builder with dict occupancy and claims, one target set per
    group, a scan over every agent for fov pushees and ``Random.shuffle``;
    it counts the pushes of agents that do not stand on the tried vertex.

    ``fov_rule`` picks the rule as two separate code paths: False is the
    classical rule (no fov checks at all), True the fov rule at the
    problem's radius, which at radius 0 must step exactly as the classical
    one. The builder under test has no such switch: the radius alone
    decides."""

    def __init__(self, problem, config, rng, fov_rule):
        self.problem = problem
        self.world = problem.world
        self.config = config
        self.rng = rng
        self.fov_rule = fov_rule
        self.radius = problem.fov_radius
        n = problem.num_agents
        self.target = [None] * n
        self.claimed = {}
        self.at = {v: a for a, v in enumerate(config)}
        self.group_targets = [set() for _ in range(max(problem.group_of) + 1)]
        self.undo = []
        self.square_pushes = 0

    def _assign(self, a, v):
        self.target[a] = v
        self.claimed[v] = a
        self.group_targets[self.problem.group_of[a]].add(v)
        self.undo.append((a, v))

    def _rollback(self, mark):
        while len(self.undo) > mark:
            a, v = self.undo.pop()
            self.target[a] = None
            del self.claimed[v]
            self.group_targets[self.problem.group_of[a]].discard(v)

    def _candidates(self, a):
        cand = [self.config[a], *self.world.adjacency[self.config[a]]]
        self.rng.shuffle(cand)
        cand.sort(key=self.problem.dists[a].__getitem__)
        return cand

    def _fov_blocked(self, a, v):
        fset = self.world.fov(v, self.radius)
        ga = self.problem.group_of[a]
        for g, targets in enumerate(self.group_targets):
            if g != ga and targets and not fset.isdisjoint(targets):
                return True
        return False

    def _swap(self, a, v):
        b = self.claimed.get(self.config[a])
        return b is not None and b != a and self.config[b] == v

    def _pushees(self, a, v):
        out = set()
        occ = self.at.get(v)
        if occ is not None and occ != a and self.target[occ] is None:
            out.add(occ)
        if self.fov_rule:
            ga = self.problem.group_of[a]
            fset = self.world.fov(v, self.radius)
            for b, cur in enumerate(self.config):
                if (
                    b != a
                    and self.target[b] is None
                    and self.problem.group_of[b] != ga
                    and cur in fset
                ):
                    out.add(b)
        return sorted(out)

    def _attempt(self, a):
        for v in self._candidates(a):
            if v in self.claimed:
                continue
            if self._swap(a, v):
                continue
            if self.fov_rule and self._fov_blocked(a, v):
                continue
            mark = len(self.undo)
            self._assign(a, v)
            ok = True
            for b in self._pushees(a, v):
                if self.target[b] is not None:
                    continue
                self.square_pushes += self.config[b] != v
                if not self._attempt(b):
                    ok = False
                    break
            if ok:
                return True
            self._rollback(mark)
        return False

    def run(self, forced, order):
        if forced:
            for a, v in forced:
                if self.target[a] is not None:
                    return None
                if v in self.claimed or self._swap(a, v):
                    return None
                if v != self.config[a] and v not in self.world.adjacency[self.config[a]]:
                    return None
                if self.fov_rule and self._fov_blocked(a, v):
                    return None
                self._assign(a, v)
        for a in order:
            if self.target[a] is None and not self._attempt(a):
                return None
        return list(self.target)


def _grouped_problem(world, rng, n_groups, k, radius):
    cells = rng.sample(range(world.num_vertices), 2 * n_groups * k)
    groups = [
        AgentGroup(g, tuple(zip(cells[g * k:(g + 1) * k], cells[(n_groups + g) * k:(n_groups + g + 1) * k])), 0)
        for g in range(n_groups)
    ]
    return SolverProblem(world, groups, radius)


def _crowded_config(world, rng, n):
    """n distinct vertices inside one 6x6 window: fov squares overlap a lot."""
    x0 = rng.randrange(world.width - 5)
    y0 = rng.randrange(world.height - 5)
    window = [v for v in range(world.num_vertices)
              if x0 <= world.coords(v)[0] < x0 + 6 and y0 <= world.coords(v)[1] < y0 + 6]
    return rng.sample(window, n) if len(window) >= n else None


def _forced(problem, config, order, rng):
    """LaCAM-style pins on a prefix of the order: stay or step, now and
    then a two-cell jump, which no builder may realise."""
    out = []
    for a in order[:rng.randrange(4)]:
        cur = config[a]
        cands = [cur, *problem.world.adjacency[cur]]
        if rng.random() < 0.1:
            cands = [u for u in range(problem.world.num_vertices)
                     if problem.world.chebyshev(cur, u) == 2]
        out.append((a, rng.choice(cands)))
    return out


def _matches_reference(ref, rng, order, forced):
    """Runs ``ref`` and build_step from copies of ``rng``'s state, checks
    that both give one result and leave one RNG state, and returns it."""
    state = rng.getstate()
    ref.rng, new_rng = random.Random(), random.Random()
    ref.rng.setstate(state)
    new_rng.setstate(state)
    expected = ref.run(forced, order)
    got = step(ref.problem, list(ref.config), new_rng, order, forced)
    assert got == expected
    assert new_rng.getstate() == ref.rng.getstate()
    return got


# (False, r >= 1) would be the classical reference at a fov radius, a
# combination the builder under test cannot take any more
@pytest.mark.parametrize("fov_rule,radius", [(False, 0), (True, 0), (True, 1), (True, 2)])
def test_builder_matches_reference(open16, random32, fov_rule, radius):
    square_pushes = nones = steps = 0
    for case, world in enumerate((open16, random32)):
        rng = random.Random(f"builder:{case}:{radius}:{fov_rule}")
        for _ in range(4):
            problem = _grouped_problem(world, rng, rng.randint(3, 6), rng.randint(1, 3), radius)
            n = problem.num_agents
            configs = [list(problem.starts)]
            configs += [c for c in (_crowded_config(world, rng, n) for _ in range(4)) if c]
            for config in configs:
                etas, order = node_data(problem.goals, problem.dists, config, [0] * n)
                for _ in range(6):
                    forced = _forced(problem, config, order, rng)
                    ref = _ReferenceStepBuilder(problem, list(config), None, fov_rule)
                    got = _matches_reference(ref, rng, order, forced)
                    square_pushes += ref.square_pushes
                    steps += 1
                    if got is None:
                        nones += 1
                        continue
                    config = got
                    etas, order = node_data(problem.goals, problem.dists, config, etas)
    assert nones > 0 and nones < steps
    if radius > 0:
        assert square_pushes > 0


class _GoalCountingReference(_ReferenceStepBuilder):
    """The reference, counting what build_step's goal check finds for each
    agent on its goal that the top-level loop hands to ``_attempt``: the
    goal kept, a claim in the way (on the goal, or another group's in its
    square) or another group's undecided agent in its square. A claim in
    the square while no other group's agent stands in it is also counted as
    a claim from outside: only an agent one step outside the square made
    it, which a watch list of the square's agents alone would miss."""

    def __init__(self, problem, config, seen):
        super().__init__(problem, config, None, True)
        self.seen = seen
        self.depth = 0

    def _attempt(self, a):
        cur = self.config[a]
        if self.depth == 0 and cur == self.problem.goals[a]:
            group_of = self.problem.group_of
            square = self.world.fov(cur, self.radius)
            inside = [b for b, v in enumerate(self.config)
                      if group_of[b] != group_of[a] and v in square]
            if cur in self.claimed or self._fov_blocked(a, cur):
                self.seen["claim"] += 1
                self.seen["claim from outside"] += cur not in self.claimed and not inside
            elif any(self.target[b] is None for b in inside):
                self.seen["undecided"] += 1
            else:
                self.seen["kept"] += 1
        self.depth += 1
        try:
            return super()._attempt(a)
        finally:
            self.depth -= 1


def _goal_problem(world, rng, radius, crowded):
    """Random starts; the goals at random or, when ``crowded``, inside one
    6x6 window, so that they lie in other groups' squares."""
    n_groups, k = rng.randint(3, 6), rng.randint(1, 3)
    n = n_groups * k
    goals = _crowded_config(world, rng, n) if crowded else rng.sample(range(world.num_vertices), n)
    if goals is None:
        return None
    starts = rng.sample(range(world.num_vertices), n)
    groups = [AgentGroup(g, tuple(zip(starts[g * k:(g + 1) * k], goals[g * k:(g + 1) * k])), 0)
              for g in range(n_groups)]
    return SolverProblem(world, groups, radius)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_goal_resting_steps_match_reference(open16, random32, radius):
    # the goal configuration with a few agents displaced, then the steps from it
    seen = Counter()
    for case, world in enumerate((open16, random32)):
        rng = random.Random(f"resting:{case}:{radius}")
        for crowded in (False, True) * 6:
            problem = _goal_problem(world, rng, radius, crowded)
            if problem is None:
                continue
            n = problem.num_agents
            config = list(problem.goals)
            # each displaced agent lands near another agent's goal, where its
            # pins (_forced pins the displaced first) claim in their way
            for a in rng.sample(range(n), rng.randint(1, 3)):
                near = world.fov(problem.goals[rng.randrange(n)], radius + 1)
                config[a] = rng.choice(sorted(near - set(config)))
            etas, order = node_data(problem.goals, problem.dists, config, [0] * n)
            for _ in range(6):
                forced = _forced(problem, config, order, rng)
                ref = _GoalCountingReference(problem, list(config), seen)
                got = _matches_reference(ref, rng, order, forced)
                if got is not None:
                    config = got
                    etas, order = node_data(problem.goals, problem.dists, config, etas)
    kinds = ["kept", "claim"] + (["undecided", "claim from outside"] if radius else [])
    assert all(seen[kind] for kind in kinds), seen


# ------------------------------------------------ reference start check


def _reference_valid_configuration(problem, config):
    """The hand-written start rule that ``clean_start``'s audit call replaced."""
    if len(set(config)) != len(config):
        return False
    r = problem.fov_radius
    if r:
        for a in range(problem.num_agents):
            fset = problem.world.fov(config[a], r)
            for b in range(a + 1, problem.num_agents):
                if problem.group_of[a] != problem.group_of[b] and config[b] in fset:
                    return False
    return True


def _clustered_problem(world, rng, radius):
    """Groups whose starts share a 3x3 square, at random places; now and
    then a start copied from an earlier group (a cross-group repeat)."""
    k, n_groups = rng.randint(1, 3), rng.randint(2, 4)
    goals = rng.sample(range(world.num_vertices), k * n_groups)
    groups, taken = [], []
    for g in range(n_groups):
        square = sorted(world.fov(rng.randrange(world.num_vertices), 1))
        starts = rng.sample(square, min(k, len(square)))
        if taken and rng.random() < 0.2:
            copy = rng.choice(taken)
            if copy not in starts:
                starts[0] = copy
        if len(starts) < k:
            return None
        taken += starts
        groups.append(AgentGroup(g, tuple(zip(starts, goals[g * k:(g + 1) * k])), 0))
    return SolverProblem(world, groups, radius)


@pytest.mark.parametrize("k", [254, 256])
def test_a_crowded_map_spends_the_step_budget(open16, monkeypatch, k):
    # one agent with k sub-agents on the 256 vertices of open16: a failed
    # push is retried from every later branch, so without the budget the
    # first step succeeds after drawing 4.5 million words at k=254, and at
    # k=256 the second does not end
    steps = bound_step_draws(monkeypatch, 0)
    spec = PipelineSpec(k=k, radius=0, budget_expansions=20)
    result = run_pipeline(open16, random_spaced_pairs(open16, 1, 0), spec, 0)
    assert (result.solved, result.reason, len(steps)) == (False, "timeout", 20)
    assert steps[0][1] is False  # the first step spends its budget


@pytest.mark.parametrize("radius", [0, 1])
def test_a_step_does_not_depend_on_the_callers_stack_depth(radius):
    # one group of 300 sub-agents on a 1x600 row, each goal 300 cells to its
    # right: agent 0 pushes the other 299 along in one chain. Called from
    # under 700 frames of this test's own recursion, the step plans and
    # draws as at the top level: the attempt budget is its only bound
    row = parse_map_text("type octile\nheight 1\nwidth 600\nmap\n" + "." * 600 + "\n")
    group = AgentGroup(0, tuple((v, v + 300) for v in range(300)), 0)
    problem = SolverProblem(row, [group], radius)
    ctx = StepContext(problem, problem.starts, list(range(300)))

    def run(depth):
        if depth:
            return run(depth - 1)
        rng = random.Random("deep")
        return build_step(problem, ctx, rng), rng.getstate()

    top = run(0)
    assert top[0] == list(range(1, 301))
    assert run(700) == top


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_clean_start_matches_reference(open16, random32, radius):
    seen = Counter()
    for case, world in enumerate((open16, random32)):
        rng = random.Random(f"clean_start:{case}:{radius}")
        for _ in range(200):
            problem = _clustered_problem(world, rng, radius)
            if problem is None:
                continue
            starts, group_of = problem.starts, problem.group_of
            expected = _reference_valid_configuration(problem, starts)
            assert clean_start(problem) == expected
            close = [group_of[a] == group_of[b]
                     for a, b in combinations(range(problem.num_agents), 2)
                     if world.chebyshev(starts[a], starts[b]) <= radius]
            repeated = len(set(starts)) < len(starts)
            seen[expected] += 1
            seen["repeated vertex"] += repeated
            seen["cross-group pair in fov, no repeat"] += not repeated and not all(close)
            seen["same-group pair in fov, clean"] += expected and any(close)
    kinds = [True, False, "repeated vertex"]
    if radius:  # at radius 0 the fov is the vertex itself
        kinds += ["cross-group pair in fov, no repeat", "same-group pair in fov, clean"]
    assert all(seen[kind] for kind in kinds), seen


def test_the_generator_imports_no_search_module():
    # what only the search needs (its start check's auditor, its plans and
    # the search itself) stays out of a fresh interpreter that imports pibt
    src = str(Path(pibt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, privmapf.pibt; "
            "print(*sorted(m for m in sys.modules if m.startswith('privmapf')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    loaded = run.stdout.split()
    assert "privmapf.pibt" in loaded
    assert not {"privmapf.audit", "privmapf.plans", "privmapf.lacam"} & set(loaded), loaded
