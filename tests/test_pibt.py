"""Step builder and one-shot solver.

The single-step oracle re-validates every produced configuration from
first principles (moves are stay-or-adjacent, vertices unique, no
exchanges, and at radius r >= 1 no inter-group visibility), so the transactional
push/rollback machinery is checked against the rules it must maintain, not
against its own bookkeeping. The vertex-indexed builder is also compared,
result and RNG state, with a reference that keeps its state in dicts and
per-group target sets and scans every agent for fov pushees.
"""

import random
from functools import partial

import pytest

from privmapf import pibt
from privmapf.dispatch import AgentGroup, dispatch_groups
from privmapf.grid import parse_map_text
from privmapf.lacam import lacam_solve
from privmapf.pibt import (
    SolverProblem,
    bfs_distances,
    build_step,
    node_data,
    pibt_solve,
    valid_configuration,
)

from conftest import singleton_problem


def step_is_legal(problem, before, after):
    n = problem.num_agents
    if sorted(set(after)) != sorted(after):
        return False
    for a in range(n):
        u, v = before[a], after[a]
        if v != u and v not in problem.world.neighbors(u):
            return False
    for a in range(n):
        for b in range(a + 1, n):
            if after[a] == before[b] and after[b] == before[a] and before[a] != before[b]:
                return False
    return valid_configuration(problem, after)


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
            etas, _, order, _ = node_data(problem.goals, problem.dists, config, etas)
            # unforced from a valid configuration, a step always exists
            after = build_step(problem, config, rng, order=order)
            assert after is not None and step_is_legal(problem, config, after)
            config = after


def test_pocket_push_semantics(pocket):
    """Higher priority walks forward; the blocker is pushed into the pocket."""
    a = (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0))
    b = (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))
    problem = singleton_problem(pocket, [a, b])
    rng = random.Random("pibt:0")
    after = build_step(problem, list(problem.starts), rng, order=[0, 1])
    assert [pocket.coords(v) for v in after] == [(2, 0), (2, 1)]


def test_pocket_instance_fails_honestly(pocket):
    # the passable cells form a simple path, so these two agents can never
    # trade sides; the solver must say so rather than return nonsense
    a = (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0))
    b = (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))
    problem = singleton_problem(pocket, [a, b])
    result = pibt_solve(problem, seed=0)
    assert not result.solved
    assert result.reason in ("livelock", "horizon")
    assert result.plan is None


def test_fov_mode_radius_zero_is_bit_identical(open16, monkeypatch):
    # at radius 0 whole solves match the reference under either rule
    def reference_step(fov_rule):
        def step(problem, config, rng, forced=None, order=None):
            return _ReferenceStepBuilder(problem, list(config), rng, fov_rule).run(forced, order)
        return step

    for seed in range(6):
        reals = [(i * 31 % 250, (i * 67 + 40) % 250) for i in range(4)]
        groups = dispatch_groups(open16, reals, 2, 0, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], 0)
        built = pibt_solve(problem, seed)
        with monkeypatch.context() as m:
            m.setattr(pibt, "build_step", reference_step(False))
            plain = pibt_solve(problem, seed)
            m.setattr(pibt, "build_step", reference_step(True))
            fov = pibt_solve(problem, seed)
        assert plain.solved and fov.solved and built.solved
        assert plain.plan.paths == fov.plan.paths == built.plan.paths


def test_same_group_members_may_touch(open4):
    # both members belong to one group: fov clearing must not apply inside
    pairs = ((open4.vertex_at(0, 0), open4.vertex_at(3, 0)),
             (open4.vertex_at(3, 0), open4.vertex_at(0, 0)))
    problem = SolverProblem(open4, [AgentGroup(0, pairs, 0)], 1)
    result = pibt_solve(problem, seed=2)
    assert result.solved
    dists = [open4.chebyshev(result.plan.position(0, t), result.plan.position(1, t))
             for t in range(result.plan.horizon + 1)]
    assert min(dists) <= 1  # they really do pass close by


def test_forced_moves_are_respected_or_rejected(open4):
    v00, v10, v20 = open4.vertex_at(0, 0), open4.vertex_at(1, 0), open4.vertex_at(2, 0)
    v01 = open4.vertex_at(0, 1)
    problem = singleton_problem(open4, [(v00, v20), (v10, v00)])
    rng = random.Random(0)

    order = [0, 1]
    out = build_step(problem, [v00, v10], rng, order, forced=[(0, v01)])
    assert out is not None and out[0] == v01

    # forcing both into the same vertex is unrealisable
    assert build_step(problem, [v00, v10], rng, order, forced=[(0, v10), (1, v10)]) is None
    # a forced exchange is unrealisable
    assert build_step(problem, [v00, v10], rng, order, forced=[(0, v10), (1, v00)]) is None
    # teleports are unrealisable
    assert build_step(problem, [v00, v10], rng, order, forced=[(0, v20)]) is None


def test_forced_fov_violation_rejected(open16):
    rng = random.Random(0)
    # groups start far apart; moving them onto diagonal-adjacent cells is a
    # radius-1 violation and must be unrealisable
    a = (open16.vertex_at(3, 4), open16.vertex_at(10, 0))
    b = (open16.vertex_at(5, 5), open16.vertex_at(0, 5))
    problem = singleton_problem(open16, [a, b], fov_radius=1)
    far = [(0, open16.vertex_at(2, 4)), (1, open16.vertex_at(5, 4))]
    assert build_step(problem, list(problem.starts), rng, [0, 1], forced=far) is not None
    close = [(0, open16.vertex_at(4, 4)), (1, open16.vertex_at(5, 4))]
    assert build_step(problem, list(problem.starts), rng, [0, 1], forced=close) is None


# the start is refused before any search, so lacam's budget does not matter
@pytest.mark.parametrize("solve", [pibt_solve, partial(lacam_solve, budget_expansions=0)],
                         ids=["pibt_solve", "lacam_solve"])
def test_invalid_start_reported(open4, solve):
    a = (open4.vertex_at(0, 0), open4.vertex_at(3, 3))
    b = (open4.vertex_at(1, 1), open4.vertex_at(0, 3))  # inside fov(a) at r=1
    problem = singleton_problem(open4, [a, b], fov_radius=1)
    result = solve(problem, seed=0)
    assert (result.solved, result.plan, result.reason) == (False, None, "invalid_start")


def test_horizon_failure(open16):
    pairs = [(open16.vertex_at(0, 0), open16.vertex_at(15, 15))]
    problem = singleton_problem(open16, pairs)
    result = pibt_solve(problem, seed=0, horizon=3)
    assert not result.solved and result.reason == "horizon"


def test_priorities_at_goal_sorts_last(open16):
    pairs = [(0, 0), (5, 100)]  # agent 0 already home
    problem = singleton_problem(open16, pairs)
    _, _, order, at_goal = node_data(problem.goals, problem.dists, problem.starts, [0, 0])
    assert order[-1] == 0
    assert at_goal == 0b01


def test_eta_counters_grow_and_reset(open4):
    problem = singleton_problem(open4, [(0, 3)])
    goals, dists = problem.goals, problem.dists
    etas, h, _, _ = node_data(goals, dists, (0,), [0])
    assert (etas, h) == ([1], 3)
    etas, h, _, _ = node_data(goals, dists, (1,), etas)
    assert (etas, h) == ([2], 2)
    etas, h, _, _ = node_data(goals, dists, (3,), etas)
    assert (etas, h) == ([0], 0)


def test_longest_stuck_agent_outranks(open4):
    problem = singleton_problem(open4, [(0, 5), (1, 6)])
    etas, _, ranked, _ = node_data(problem.goals, problem.dists, (2, 3), [3, 8])
    assert etas == [4, 9]
    assert ranked[0] == 1


def test_bfs_distances_unreachable():
    w = parse_map_text("type octile\nheight 1\nwidth 5\nmap\n..@..\n")
    d = bfs_distances(w, 0)
    assert d[1] == 1
    assert d[w.vertex_at(3, 0)] > 10**6


def test_solved_plan_reaches_goals_and_audits_clean(open16):
    from privmapf.audit import audit

    for seed in range(4):
        reals = [(i * 41 % 230, (i * 59 + 7) % 251) for i in range(6)]
        groups = dispatch_groups(open16, reals, 2, 0, seed)
        problem = SolverProblem(open16, [g.broadcast_view() for g in groups], 0)
        result = pibt_solve(problem, seed)
        assert result.solved
        assert [p[-1] for p in result.plan.paths] == list(problem.goals)
        assert audit(open16, result.plan).ok


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
        self.group_targets = [set() for _ in range(problem.n_groups)]
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
        cand = [self.config[a], *self.world.neighbors(self.config[a])]
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
                if v != self.config[a] and v not in self.world.neighbors(self.config[a]):
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
        cands = [cur, *problem.world.neighbors(cur)]
        if rng.random() < 0.1:
            cands = [u for u in range(problem.world.num_vertices)
                     if problem.world.chebyshev(cur, u) == 2]
        out.append((a, rng.choice(cands)))
    return out


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
                etas, _, order, _ = node_data(problem.goals, problem.dists, config, [0] * n)
                for _ in range(6):
                    forced = _forced(problem, config, order, rng)
                    state = rng.getstate()
                    ref_rng, new_rng = random.Random(), random.Random()
                    ref_rng.setstate(state)
                    new_rng.setstate(state)
                    ref = _ReferenceStepBuilder(problem, list(config), ref_rng, fov_rule)
                    expected = ref.run(forced, order)
                    got = build_step(problem, list(config), new_rng, order, forced)
                    assert got == expected
                    assert new_rng.getstate() == ref_rng.getstate()
                    square_pushes += ref.square_pushes
                    steps += 1
                    if got is None:
                        nones += 1
                        continue
                    config = got
                    etas, _, order, _ = node_data(problem.goals, problem.dists, config, etas)
    assert nones > 0 and nones < steps
    if radius > 0:
        assert square_pushes > 0
