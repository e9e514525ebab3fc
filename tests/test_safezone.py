"""Zone construction, fair extension, and in-zone replanning.

The replanner is checked against a brute-force search on the time-expanded
graph. Every extension pick is re-validated from first principles by
replaying the pick log (acceptance guarantee 2), and the extension as a
whole is compared with a reference that rebuilds each frontier from
scratch on every pick, so the incremental bookkeeping (per-group frontiers, per-vertex blocker bitmask)
is never trusted on its own word: a sound pick from an incomplete frontier
would still change the RNG draw and fail the comparison.
"""

import gc
import json
import random
import tracemalloc

import pytest

from privmapf import safezone
from privmapf.audit import audit, check_separated
from privmapf.grid import ConfigError
from privmapf.instances import default_separation, random_spaced_pairs
from privmapf.pibt import bfs_distances
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.plans import JointPlan
from privmapf.safezone import (
    ExtensionPick,
    PreconditionError,
    RefineResult,
    ReplanInfeasibleError,
    ZoneTable,
    extend_safe_zones,
    initial_safe_zones,
    ppfpp,
    vertex_intervals,
    write_zones,
)

from conftest import (
    bfs_earliest_arrival,
    pad_paths,
    random_zone_table,
    replan_in_zones,
    zone_table,
)


def fpp_fixture(world, n, sep, k, seed, budget=1500):
    reals = random_spaced_pairs(world, n, seed, min_separation=sep)
    result = run_pipeline(world, reals, PipelineSpec(k, 1, budget_expansions=budget), seed)
    assert result.solved
    return result


# ---------------------------------------------------------------- zones


def test_single_member_zone_is_the_member_position(open16):
    # away from walls, the only vertex whose fov square fits inside a
    # single fov square is its centre -- at any radius
    path = (open16.vertex_at(8, 8), open16.vertex_at(8, 9), open16.vertex_at(8, 10))
    plan = pad_paths([path])
    for radius in (1, 2):
        zones = initial_safe_zones(open16, plan, [0], radius)
        assert list(zones) == [[[v] for v in path]]


def test_two_member_zone_interior(open16):
    # members two apart: the union of their fov squares is a 3x5 box whose
    # interior is the middle row between them
    a, b = open16.vertex_at(5, 5), open16.vertex_at(7, 5)
    plan = pad_paths([(a,), (b,)])
    zones = initial_safe_zones(open16, plan, [0, 0], 1)
    assert list(zones)[0][0] == [a, open16.vertex_at(6, 5), b]


def test_initial_zones_claimed_twice_are_rejected(open16):
    # group 0 stands left and right of (6, 5), group 1 above and below it,
    # each member within view of the other group's: both regions hold the
    # fov square of (6, 5), so both initial zones claim it
    plan = pad_paths([(open16.vertex_at(x, y),) for x, y in ((5, 5), (7, 5), (6, 4), (6, 6))])
    with pytest.raises(PreconditionError, match=(
        rf"initial zones are not fov-separated: vertex {open16.vertex_at(6, 5)} "
        r"is in the zones of groups 0 and 1 at t=0"
    )):
        initial_safe_zones(open16, plan, [0, 0, 1, 1], 1)


def test_extension_is_deterministic(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=1)
    a = ppfpp(open16, result.plan, result.problem.group_of, result.real_paths, 1, seed=9)
    b = ppfpp(open16, result.plan, result.problem.group_of, result.real_paths, 1, seed=9)
    assert list(a.picks) == list(b.picks)
    assert a.refined_paths == b.refined_paths


def _reference_extend(world, zones, radius, seed, rule3=True, kept=None):
    """The extension by its definition: every group's frontier is rebuilt
    from its whole zone on every pick (the slow original algorithm).
    ``kept``, if given, gets one bool per pick: whether the claimant's
    frontier was still non-empty right after its pick."""
    n_groups = len(zones)
    horizon = len(zones[0]) - 1
    picks = []
    for t in range(horizon + 1):
        rng = random.Random(f"extend:{seed}:{t}")
        dilation = [{u for v in zones[j][t] for u in world.fov(v, radius)} for j in range(n_groups)]

        def frontier_of(i):
            zone = zones[i][t]
            frontier = set()
            for v in zone:
                frontier.update(world.adjacency[v])
            frontier -= zone
            for j in range(n_groups):
                if j == i:
                    continue
                frontier -= dilation[j]
                frontier -= zones[j][t]
                if t > 0 and rule3:
                    frontier -= zones[j][t - 1]
            return frontier

        round_no = 0
        while True:
            grew = False
            for i in range(n_groups):
                frontier = frontier_of(i)
                if not frontier:
                    continue
                choice = rng.choice(sorted(frontier))
                zones[i][t].add(choice)
                dilation[i] |= world.fov(choice, radius)
                picks.append(ExtensionPick(t, i, choice, round_no))
                if kept is not None:
                    kept.append(bool(frontier_of(i)))
                grew = True
            if not grew:
                break
            round_no += 1
    return picks


def spread_group_zones(world, rng, n_groups, k, radius, horizon, gap):
    """Random-walking groups whose members stay at least ``gap`` apart from
    other groups': their plan, group_of and initial zones. Any gap above
    the radius leaves the plan with no FoV conflict, and so its initial
    zones fov-separated (``initial_safe_zones``' docstring proves it)."""
    members = []  # (group, vertex)
    while len(members) < n_groups * k:
        v = rng.randrange(world.num_vertices)
        g = len(members) // k
        if all(h == g or world.chebyshev(v, u) >= gap for h, u in members):
            members.append((g, v))
    group_of = [g for g, _ in members]
    paths = [[v] for _, v in members]
    for _ in range(horizon):
        for a, path in enumerate(paths):
            v = path[-1]
            step = rng.choice((v,) + world.adjacency[v])
            if all(group_of[b] == group_of[a] or world.chebyshev(step, other[-1]) >= gap
                   for b, other in enumerate(paths)):
                v = step
            path.append(v)
    plan = pad_paths(paths)
    report = audit(world, plan, group_of, fov_radius=radius, check_fov=True)
    assert report.fov_conflicts == []
    zones = initial_safe_zones(world, plan, group_of, radius)
    assert check_separated(world, zones, radius) == []
    return plan, group_of, zones


SPREAD_CASES = [  # map, groups, members, radius, horizon
    ("open16", 2, 2, 1, 6),
    ("open16", 4, 1, 2, 5),
    ("open16", 8, 1, 1, 4),
    ("random32", 3, 3, 2, 6),
    ("random32", 6, 2, 1, 8),
    ("random32", 8, 2, 2, 4),
]


def test_initial_zones_of_a_plan_with_no_fov_conflict_are_separated(request):
    # why ppfpp makes no separation re-check after its audit: groups kept only
    # the audit's own gap, r + 1, apart (not 3r + 1, which keeps their regions
    # apart too) still get fov-separated initial zones; spread_group_zones
    # checks both. The plans must bring other groups' members within 3r
    near = 0
    for case, (name, n_groups, k, radius, horizon) in enumerate(SPREAD_CASES):
        world = request.getfixturevalue(name)
        for sample in range(4):
            rng = random.Random(f"separation:{case}:{sample}")
            plan, group_of, _ = spread_group_zones(world, rng, n_groups, k, radius, horizon,
                                                   gap=radius + 1)
            for config in zip(*plan.paths):
                near += sum(group_of[a] != group_of[b] and world.chebyshev(u, v) <= 3 * radius
                            for a, u in enumerate(config) for b, v in enumerate(config) if a < b)
    assert near > 0


def copy_zones(zones):
    """Nested sets ``zones[i][t]`` of a ``ZoneTable`` or of nested sets."""
    return [[set(zone) for zone in per_t] for per_t in zones]


def test_extension_matches_frontier_rebuild(request, open16):
    instances = []
    for case, (name, n_groups, k, radius, horizon) in enumerate(SPREAD_CASES):
        world = request.getfixturevalue(name)
        rng = random.Random(f"equivalence:{case}")
        _, _, zones = spread_group_zones(world, rng, n_groups, k, radius, horizon,
                                         gap=3 * radius + 1)
        instances.append((world, radius, zones))
    solved = fpp_fixture(open16, 4, 3, 2, seed=0)
    instances.append((open16, 1, initial_safe_zones(open16, solved.plan, solved.problem.group_of, 1)))

    stalled_early = emptied_by_others = rule3_matters = 0
    for case, (world, radius, zones) in enumerate(instances):
        expected_zones, kept = copy_zones(zones), []
        expected = _reference_extend(world, expected_zones, radius, seed=case, kept=kept)
        initial = [list(row) for row in zones.owners]
        got_zones, got = extend_safe_zones(world, zones, radius, seed=case)
        assert list(got) == expected
        assert got_zones.owners == zone_table(expected_zones, world.num_vertices).owners
        assert all(got_zones.owners[p.t][p.vertex] == p.group for p in expected)
        # the extension leaves its input alone
        assert [list(row) for row in zones.owners] == initial
        assert check_separated(world, got_zones, radius) == []
        # coverage: a group stops growing while another still picks; a
        # group's frontier, non-empty after its own pick, is emptied by the
        # others before its next turn (the lane the pick loop must skip
        # without a draw); and the previous-timestep zones (rule 3) change
        # the outcome
        last = {}  # (t, group): the group's last round at t
        for p in expected:
            last[p.t, p.group] = p.round
        for t in range(len(zones.owners)):
            rounds = [last.get((t, i), -1) for i in range(zones.num_groups)]
            stalled_early += min(rounds) < max(rounds)
        emptied_by_others += sum(left and p.round == last[p.t, p.group]
                                 for p, left in zip(expected, kept))
        rule3_matters += _reference_extend(world, copy_zones(zones), radius, case, rule3=False) != expected
    assert stalled_early > 0
    assert emptied_by_others > 0
    assert rule3_matters > 0


def test_pick_log_counts_and_numbers_rounds_per_timestep(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    zones = initial_safe_zones(open16, result.plan, result.problem.group_of, 1)
    _, log = extend_safe_zones(open16, zones, 1, seed=0)
    picks = list(log)
    assert len(log) == len(picks) > 0
    assert list(log) == picks  # iterating again yields the same
    # one end index per timestep of the table, the last one past every
    # pick; each pick claims a vertex that no initial zone held at its
    # timestep
    assert len(log.t_end) == len(zones.owners)
    assert all(a <= b for a, b in zip(log.t_end, log.t_end[1:]))
    assert log.t_end[-1] == len(log)
    assert all(zones.owners[pick.t][pick.vertex] == -1 for pick in picks)
    assert picks[0].round == 0
    restarts = 0
    for prev, pick in zip(picks, picks[1:]):
        if pick.t != prev.t:
            assert pick.t > prev.t and pick.round == 0
            restarts += 1
        elif pick.round == prev.round:
            assert pick.group > prev.group  # one pick per group per round
        else:
            assert pick.round == prev.round + 1
    assert restarts > 0


def test_extension_log_keeps_no_object_per_pick(random32):
    # a tracked object per pick (tuples are never untracked with gc off)
    # would keep the collector busy through extension and SIPP; the zones
    # leave one tracked object per timestep, its owner array, and none per
    # group (a set per zone would)
    result = fpp_fixture(random32, 4, 5, 3, seed=0)
    zones = initial_safe_zones(random32, result.plan, result.problem.group_of, 1)
    extend_safe_zones(random32, zones, 1, seed=0)  # fills the fov caches
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        table, log = extend_safe_zones(random32, zones, 1, seed=0)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    bound = len(zones.owners) + 8  # an array per timestep, the table and the log
    assert table.num_groups == zones.num_groups > 1
    assert len(log) > 10 * bound * zones.num_groups
    assert grown <= bound, (grown, len(log))


# ------------------------------------------------------------- replanning


def test_sipp_matches_time_expanded_search_on_random_tables(open4):
    agree = 0
    for case in range(60):
        rng = random.Random(f"sipp:{case}")
        table = random_zone_table(open4, rng, (1, 10), rng.randrange(3, 14))
        start = rng.choice(sorted(table[0]))
        goal = rng.choice(sorted(set().union(*table)))
        expected = bfs_earliest_arrival(open4, table, start, goal)
        try:
            path, arrival = replan_in_zones(open4, table, start, goal)
        except ReplanInfeasibleError:
            assert expected is None
            continue
        assert arrival == expected
        assert len(path) == len(table)
        assert path[0] == start and path[-1] == goal
        for t, v in enumerate(path):
            assert v in table[t]
        assert all(path[t] == goal for t in range(arrival, len(table)))
        agree += 1
    assert agree >= 20  # the generator must not be producing only dead ends


def test_sipp_waits_for_a_late_corridor(open4):
    # the corridor to the goal only becomes safe at t=3; the agent shifts to
    # the pocket's inner cell and waits there, entering the moment it opens
    a, b = open4.vertex_at(0, 0), open4.vertex_at(1, 0)
    rest = [open4.vertex_at(x, 0) for x in (2, 3)]
    table = [{a, b}, {a, b}, {a, b}, {a, b, *rest}, {a, b, *rest}, {a, b, *rest}]
    path, arrival = replan_in_zones(open4, table, a, rest[-1])
    assert arrival == 4
    assert path == (a, b, b, rest[0], rest[1], rest[1])


def test_sipp_rejects_unsafe_start_and_goal(open4):
    a, b, c = (open4.vertex_at(x, 0) for x in (0, 1, 2))
    with pytest.raises(ReplanInfeasibleError, match="start"):
        replan_in_zones(open4, [{a, b}, {a, b}], c, a)
    # goal drops out of the zone before the horizon
    with pytest.raises(ReplanInfeasibleError, match="goal"):
        replan_in_zones(open4, [{a, b}, {a, b}, {a}], a, b)


def _reference_vertex_intervals(zone_per_t):
    """Safe intervals by rescanning every open vertex at every timestep."""
    open_at, out = {}, {}
    for t, zone in enumerate(zone_per_t):
        for v in zone:
            open_at.setdefault(v, t)
        for v in list(open_at):
            if v not in zone:
                out.setdefault(v, []).append((open_at.pop(v), t - 1))
    last = len(zone_per_t) - 1
    for v, a in open_at.items():
        out.setdefault(v, []).append((a, last))
    for ivls in out.values():
        ivls.sort()
    return out


def test_vertex_intervals_match_rescan():
    reentries = late_entries = 0
    for case in range(200):
        rng = random.Random(f"intervals:{case}")
        pool = range(rng.randrange(1, 12))
        stay = rng.random()
        table = [{v for v in pool if rng.random() < stay} for _ in range(rng.randrange(1, 16))]
        expected = _reference_vertex_intervals(table)
        assert vertex_intervals(zone_table([table], 12)) == [expected]
        reentries += sum(len(ivls) > 1 for ivls in expected.values())
        late_entries += sum(ivls[0][0] > 0 for ivls in expected.values())
    assert reentries > 100 and late_entries > 100


def test_vertex_intervals_merge_consecutive_timesteps(open4):
    a, b = open4.vertex_at(0, 0), open4.vertex_at(1, 0)
    table = [{a}, {a, b}, {a}, {a, b}, {a, b}]
    ivls, = vertex_intervals(zone_table([table], open4.num_vertices))
    assert ivls[a] == [(0, 4)]
    assert ivls[b] == [(1, 1), (3, 4)]


def test_vertex_intervals_of_all_groups_in_one_pass():
    # owners drawn per timestep and vertex, so a vertex often passes
    # straight from one group to another; each group's intervals must be
    # those of its own zones alone
    handovers = 0
    for case in range(100):
        rng = random.Random(f"group-intervals:{case}")
        n_groups, n_vertices = rng.randrange(1, 5), rng.randrange(1, 12)
        stay = rng.random()
        owners = [[rng.randrange(-1, n_groups) for _ in range(n_vertices)]]
        for _ in range(rng.randrange(15)):
            owners.append([o if rng.random() < stay else rng.randrange(-1, n_groups)
                           for o in owners[-1]])
        zones = [[{v for v, o in enumerate(row) if o == i} for row in owners]
                 for i in range(n_groups)]
        table = zone_table(zones, n_vertices)
        assert [list(row) for row in table.owners] == owners
        assert vertex_intervals(table) == [_reference_vertex_intervals(z) for z in zones]
        handovers += sum(a != b and a >= 0 and b >= 0
                         for prev, row in zip(owners, owners[1:]) for a, b in zip(prev, row))
    assert handovers > 100


def test_zone_table_reads_like_nested_sets():
    zones = [[{i, 300 + i}, {i}] for i in range(128)]
    wide = zone_table(zones, 428)
    narrow = zone_table(zones[:127], 428)
    # 128 groups no longer fit a signed byte
    assert {row.typecode for row in wide.owners} == {"i"}
    assert {row.typecode for row in narrow.owners} == {"b"}
    # group-major: per group, its zone at each timestep in ascending order
    for table, expected in ((wide, zones), (narrow, zones[:127])):
        assert table.num_groups == len(expected)
        assert list(table) == [[sorted(zone) for zone in per_t] for per_t in expected]
    assert list(wide)[-1] == [[127, 427], [127]]


def test_zone_table_owned_of_both_owner_typecodes():
    # -1 is the only owner whose bytes are all 0xFF; 255 and 65535 hold
    # 0xFF bytes too, so each is owned
    narrow, wide, wider = ZoneTable(127), ZoneTable(128), ZoneTable(65536)
    narrow.append([-1, 0, 126, -1, 5])
    narrow.append([-1] * 9)
    wide.append([127, -1, -1, 0])
    wider.append([-1, 255, -1, 0, 65535, -1, 128])
    wider.append([])
    assert (narrow.typecode, wide.typecode, wider.typecode) == ("b", "i", "i")
    assert [narrow.owned(0), narrow.owned(1)] == [[1, 2, 4], []]
    assert wide.owned(0) == [0, 3]
    assert [wider.owned(0), wider.owned(1)] == [[1, 3, 4, 6], []]


# ------------------------------------------------------------------ ppfpp


def test_refinement_never_worsens_and_stays_in_zone(open16):
    for seed in range(4):
        result = fpp_fixture(open16, 4, 3, 2, seed=seed)
        refined = ppfpp(open16, result.plan, result.problem.group_of,
                        result.real_paths, 1, seed=seed)
        for i, path in enumerate(refined.refined_paths):
            assert refined.costs_after[i] <= refined.costs_before[i]
            for t, v in enumerate(path):
                assert refined.zones.owners[t][v] == i
        # separated zones make the refined joint plan conflict-free by
        # construction; hold the auditor to that
        joint = JointPlan(tuple(refined.refined_paths))
        report = audit(open16, joint, list(range(len(refined.refined_paths))),
                       fov_radius=1, check_fov=True)
        assert report.ok


def _in_zone(intervals, v, t):
    return any(lo <= t <= hi for lo, hi in intervals.get(v, ()))


def _walk(world, a, b):
    """A shortest path from a to b."""
    to_b = bfs_distances(world, b)
    path = [a]
    while path[-1] != b:
        path.append(min(world.adjacency[path[-1]], key=to_b.__getitem__))
    return path


def _detour_outside(world, intervals, path, arrival):
    """A path with ``path``'s length, endpoints and arrival that waits, at
    some t < arrival, on a vertex outside the zone; None if there is none."""
    start, goal = path[0], path[-1]
    from_start, to_goal = bfs_distances(world, start), bfs_distances(world, goal)
    for t in range(1, arrival):
        for w in range(world.num_vertices):
            if (from_start[w] <= t and 1 <= to_goal[w] <= arrival - t
                    and not _in_zone(intervals, w, t)):
                out = _walk(world, start, w)
                out += [w] * (arrival - to_goal[w] - len(out) + 1) + _walk(world, w, goal)[1:]
                return tuple(out + [goal] * (len(path) - len(out)))
    return None


def test_refinement_checks_where_each_path_goes(open16, monkeypatch):
    # a same-cost path that leaves the zone, or that jumps, is caught
    # before it is handed out; each breaks only the check it targets
    sipp = safezone.sipp_replan
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    detours = []

    def leaving(world, intervals, horizon, start, goal):
        path, arrival = sipp(world, intervals, horizon, start, goal)
        detour = _detour_outside(world, intervals, path, arrival)
        detours.append(detour)
        return (path if detour is None else detour), arrival

    monkeypatch.setattr(safezone, "sipp_replan", leaving)
    with pytest.raises(RuntimeError, match="refined path leaves"):
        ppfpp(open16, result.plan, result.problem.group_of, result.real_paths, 1, seed=0)
    assert any(detours)

    # one group alone: its zone grows over the whole map, so only the move breaks
    single = fpp_fixture(open16, 1, 3, 1, seed=0)
    jumps = []

    def jumping(world, intervals, horizon, start, goal):
        path, arrival = sipp(world, intervals, horizon, start, goal)
        assert arrival >= 3 and path[2] not in (path[0], *world.adjacency[path[0]])
        jump = (path[0], path[2], *path[2:])
        assert all(_in_zone(intervals, v, t) for t, v in enumerate(jump))
        jumps.append(jump)
        return jump, arrival

    monkeypatch.setattr(safezone, "sipp_replan", jumping)
    with pytest.raises(RuntimeError, match="refined path leaves"):
        ppfpp(open16, single.plan, single.problem.group_of, single.real_paths, 1, seed=0)
    assert len(jumps) == 1


def test_refinement_finds_a_shortcut(open16):
    # frozen example where the solver's detours are provably recoverable
    result = fpp_fixture(open16, 4, 3, 3, seed=4)
    refined = ppfpp(open16, result.plan, result.problem.group_of,
                    result.real_paths, 1, seed=4)
    assert refined.rsoc_before == 66
    assert refined.rsoc_after == 56
    assert refined.improvement_pct == pytest.approx(100 * 10 / 66)


def test_fov_blind_plans_leak_and_are_rejected(open16):
    # the refiner's precondition is exactly what the fov-aware pipeline
    # guarantees and the fov-blind one does not
    for seed in range(6):
        reals = random_spaced_pairs(open16, 4, seed, min_separation=3)
        kpp = run_pipeline(open16, reals, PipelineSpec(2, 0, budget_expansions=1500), seed)
        fpp = run_pipeline(open16, reals, PipelineSpec(2, 1, budget_expansions=1500), seed)
        assert kpp.solved and fpp.solved
        leaks = audit(open16, kpp.plan, kpp.problem.group_of,
                      fov_radius=1, check_fov=True)
        assert len(leaks.fov_conflicts) > 0
        assert audit(open16, fpp.plan, fpp.problem.group_of,
                     fov_radius=1, check_fov=True).ok
        with pytest.raises(PreconditionError, match="conflict"):
            ppfpp(open16, kpp.plan, kpp.problem.group_of,
                  kpp.real_paths, 1, seed=seed)


def test_precondition_radius_and_padding(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    with pytest.raises(PreconditionError, match="radius"):
        ppfpp(open16, result.plan, result.problem.group_of,
              result.real_paths, 0, seed=0)
    # a ragged plan cannot be built (test_plans.py::test_is_padded), so ppfpp never sees one


# checked before the radius is compared: '1' would raise a bare TypeError,
# True would refine at radius 1 and 1.5 fail later with a TypeError
@pytest.mark.parametrize("radius", ["1", True, 1.5])
def test_ppfpp_rejects_non_int_radius(open16, radius):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    with pytest.raises(ConfigError, match="fov radius must be >= 0"):
        ppfpp(open16, result.plan, result.problem.group_of,
              result.real_paths, radius, seed=0)


def test_precondition_real_path_must_be_a_group_row(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    fake = list(result.real_paths)
    fake[0] = tuple(reversed(fake[0]))
    with pytest.raises(PreconditionError, match="row"):
        ppfpp(open16, result.plan, result.problem.group_of, fake, 1, seed=0)


def test_improvement_percentage_arithmetic(open16):
    r = RefineResult(zones=ZoneTable(2), picks=[],
                     refined_paths=[(0,), (0,)],
                     costs_before=[4, 6], costs_after=[3, 5])
    assert r.rsoc_before == 10
    assert r.rsoc_after == 8
    assert r.improvement_pct == pytest.approx(20.0)
    # every agent starts on its goal: 0.0, not a division by zero
    v = open16.vertex_at(5, 5)
    r = ppfpp(open16, JointPlan(((v, v),)), [0], [(v, v)], 1, seed=0)
    assert (r.rsoc_before, r.rsoc_after, r.improvement_pct) == (0, 0, 0.0)


def test_zone_file_round_trip(open16, tmp_path):
    result = fpp_fixture(open16, 4, 3, 2, seed=2)
    refined = ppfpp(open16, result.plan, result.problem.group_of,
                    result.real_paths, 1, seed=2)
    out = tmp_path / "zones.json"
    write_zones(refined.zones, 1, open16, out)
    text = out.read_text()
    obj = json.loads(text)
    assert obj["radius"] == 1
    assert obj["horizon"] == len(refined.zones.owners) - 1
    # each zone in ascending vertex order
    zones = [[[open16.vertex_at(x, y) for x, y in zone] for zone in per_t]
             for per_t in obj["zones"]]
    assert zones == list(refined.zones)
    # streamed, the file is the one dump of the whole object, byte for byte
    assert text == json.dumps(obj) + "\n"


def test_ppfpp_traced_peak_on_a_long_horizon(random32):
    # the benchmark's refine shape, seed 0, instance 2: 134 timesteps and
    # 89 763 picks; a set per zone peaks at 6.0 MB, owner arrays at 2.25 MB
    seed = "refine:0:2"
    reals = random_spaced_pairs(random32, 4, seed, min_separation=default_separation(random32))
    result = run_pipeline(random32, reals, PipelineSpec(3, 1, budget_expansions=1500), seed)
    assert result.solved and result.plan.horizon == 133
    random32.fov_ring_table(1)  # cached on the map, not ppfpp's own
    tracemalloc.start()
    try:
        refined = ppfpp(random32, result.plan, result.problem.group_of,
                        result.real_paths, 1, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(refined.picks) == 89763
    assert peak < 3.5e6, peak
