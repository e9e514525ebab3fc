"""Zone construction, fair extension, and in-zone replanning.

The replanner is checked against a brute-force search on the time-expanded
graph. Every extension pick is re-validated from first principles by
replaying the pick log, and the extension as a whole is compared with a
reference that rebuilds each frontier from scratch on every pick, so the
incremental bookkeeping (per-group frontiers, per-vertex blocker bitmask)
is never trusted on its own word: a sound pick from an incomplete frontier
would still change the RNG draw and fail the comparison.
"""

import json
import random
from collections import deque

import pytest

from privmapf.audit import audit, check_separated
from privmapf.instances import random_spaced_pairs
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.plans import JointPlan, pad_paths
from privmapf.safezone import (
    ExtensionPick,
    PreconditionError,
    RefineResult,
    ReplanInfeasibleError,
    extend_safe_zones,
    group_fov,
    initial_safe_zones,
    pop_choice,
    ppfpp,
    sipp_replan,
    vertex_intervals,
    write_zones,
)

from conftest import replay_picks


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
        assert zones[0] == [{v} for v in path]


def test_two_member_zone_interior(open16):
    # members two apart: the union of their fov squares is a 3x5 box whose
    # interior is the middle row between them
    a, b = open16.vertex_at(5, 5), open16.vertex_at(7, 5)
    plan = pad_paths([(a,), (b,)])
    zones = initial_safe_zones(open16, plan, [0, 0], 1)
    assert zones[0][0] == {a, open16.vertex_at(6, 5), b}


def test_group_fov_is_union_of_member_squares(open16):
    a, b = open16.vertex_at(2, 2), open16.vertex_at(10, 3)
    region = group_fov(open16, [a, b], 1)
    assert region == open16.fov(a, 1) | open16.fov(b, 1)


def test_extension_picks_obey_all_four_rules(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    group_of = result.problem.group_of
    refined = ppfpp(open16, result.plan, group_of, result.real_paths, 1, seed=0)
    initial = initial_safe_zones(open16, result.plan, group_of, 1)
    zones, breaks = replay_picks(open16, initial, 1, refined.picks)
    assert breaks == []
    assert zones == refined.zones  # the log holds every pick
    assert len(refined.picks) > 0


def test_extension_is_deterministic(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=1)
    a = ppfpp(open16, result.plan, result.problem.group_of, result.real_paths, 1, seed=9)
    b = ppfpp(open16, result.plan, result.problem.group_of, result.real_paths, 1, seed=9)
    assert a.picks == b.picks
    assert a.refined_paths == b.refined_paths


def test_zones_stay_separated_after_extension(open16, random32):
    for world, n, sep, k, seed in [
        (open16, 4, 3, 2, 0),
        (open16, 4, 3, 3, 1),
        (random32, 8, 5, 2, 0),
    ]:
        result = fpp_fixture(world, n, sep, k, seed)
        refined = ppfpp(world, result.plan, result.problem.group_of,
                        result.real_paths, 1, seed=seed)
        assert check_separated(world, refined.zones, 1) == []


def _reference_extend(world, zones, radius, seed, rule3=True):
    """The extension by its definition: every group's frontier is rebuilt
    from its whole zone on every pick (the slow original algorithm)."""
    n_groups = len(zones)
    horizon = len(zones[0]) - 1
    picks = []
    for t in range(horizon + 1):
        rng = random.Random(f"extend:{seed}:{t}")
        dilation = [group_fov(world, sorted(zones[j][t]), radius) for j in range(n_groups)]
        round_no = 0
        while True:
            grew = False
            for i in range(n_groups):
                zone = zones[i][t]
                frontier = set()
                for v in zone:
                    frontier.update(world.neighbors(v))
                frontier -= zone
                for j in range(n_groups):
                    if j == i:
                        continue
                    frontier -= dilation[j]
                    frontier -= zones[j][t]
                    if t > 0 and rule3:
                        frontier -= zones[j][t - 1]
                if not frontier:
                    continue
                choice = rng.choice(sorted(frontier))
                zone.add(choice)
                dilation[i] |= world.fov(choice, radius)
                picks.append(ExtensionPick(t, i, choice, round_no))
                grew = True
            if not grew:
                break
            round_no += 1
    return picks


def spread_group_zones(world, rng, n_groups, k, radius, horizon):
    """Initial zones of random-walking groups whose members stay more than
    3*radius apart from other groups, so the zones start fov-separated."""
    gap = 3 * radius + 1
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
            step = rng.choice((v,) + world.neighbors(v))
            if all(group_of[b] == group_of[a] or world.chebyshev(step, other[-1]) >= gap
                   for b, other in enumerate(paths)):
                v = step
            path.append(v)
    zones = initial_safe_zones(world, pad_paths(paths), group_of, radius)
    assert check_separated(world, zones, radius) == []
    return zones


def copy_zones(zones):
    return [[set(zone) for zone in per_t] for per_t in zones]


def test_extension_matches_frontier_rebuild(open16, random32):
    cases = [  # map, groups, members, radius, horizon
        (open16, 2, 2, 1, 6),
        (open16, 4, 1, 2, 5),
        (open16, 8, 1, 1, 4),
        (random32, 3, 3, 2, 6),
        (random32, 6, 2, 1, 8),
        (random32, 8, 2, 2, 4),
    ]
    instances = []
    for case, (world, n_groups, k, radius, horizon) in enumerate(cases):
        rng = random.Random(f"equivalence:{case}")
        instances.append((world, radius, spread_group_zones(world, rng, n_groups, k, radius, horizon)))
    solved = fpp_fixture(open16, 4, 3, 2, seed=0)
    instances.append((open16, 1, initial_safe_zones(open16, solved.plan, solved.problem.group_of, 1)))

    stalled_early = rule3_matters = 0
    for case, (world, radius, zones) in enumerate(instances):
        expected_zones = copy_zones(zones)
        expected = _reference_extend(world, expected_zones, radius, seed=case)
        got_zones = copy_zones(zones)
        got = extend_safe_zones(world, got_zones, radius, seed=case)
        assert got == expected
        assert got_zones == expected_zones
        assert check_separated(world, got_zones, radius) == []
        # coverage: a group stops growing while another still picks, and
        # the previous-timestep zones (rule 3) change the outcome
        for t in range(len(zones[0])):
            last = [max((p.round for p in expected if p.t == t and p.group == i), default=-1)
                    for i in range(len(zones))]
            stalled_early += min(last) < max(last)
        rule3_matters += _reference_extend(world, copy_zones(zones), radius, case, rule3=False) != expected
    assert stalled_early > 0
    assert rule3_matters > 0


def test_pop_choice_matches_random_choice():
    for n in range(1, 71):
        for seed in range(60):
            seq = list(range(100, 100 + n))
            ref_rng, rng = random.Random(seed), random.Random(seed)
            expected = ref_rng.choice(seq)
            assert pop_choice(seq, rng.getrandbits) == expected
            assert expected not in seq and len(seq) == n - 1
            assert rng.getstate() == ref_rng.getstate()


# ------------------------------------------------------------- replanning


def bfs_earliest_arrival(world, zone_per_t, start, goal):
    """Reference arrival on the time-expanded graph, or None.

    Earliest reachable (goal, t) that can rest in-zone through the horizon.
    """
    horizon = len(zone_per_t) - 1
    if goal not in zone_per_t[horizon]:
        return None
    rest_from = horizon
    while rest_from > 0 and goal in zone_per_t[rest_from - 1]:
        rest_from -= 1
    if start not in zone_per_t[0]:
        return None
    seen = {(start, 0)}
    queue = deque([(start, 0)])
    while queue:
        v, t = queue.popleft()
        if v == goal and t >= rest_from:
            return t
        if t == horizon:
            continue
        for u in (v, *world.neighbors(v)):
            if u in zone_per_t[t + 1] and (u, t + 1) not in seen:
                seen.add((u, t + 1))
                queue.append((u, t + 1))
    return None


def random_zone_table(world, rng, horizon):
    zone = {rng.randrange(world.num_vertices)}
    for _ in range(rng.randrange(1, 10)):
        frontier = sorted({u for v in zone for u in world.neighbors(v)} - zone)
        zone.add(rng.choice(frontier))
    table = []
    for t in range(horizon + 1):
        if t:
            if rng.random() < 0.7:
                frontier = sorted({u for v in zone for u in world.neighbors(v)} - zone)
                if frontier:
                    zone = zone | {rng.choice(frontier)}
            if rng.random() < 0.3 and len(zone) > 2:
                zone = zone - {rng.choice(sorted(zone))}
        table.append(set(zone))
    return table


def test_sipp_matches_time_expanded_search_on_random_tables(open4):
    agree = 0
    for case in range(60):
        rng = random.Random(f"sipp:{case}")
        table = random_zone_table(open4, rng, horizon=rng.randrange(3, 14))
        start = rng.choice(sorted(table[0]))
        goal = rng.choice(sorted(set().union(*table)))
        expected = bfs_earliest_arrival(open4, table, start, goal)
        try:
            path, arrival = sipp_replan(open4, table, start, goal)
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
    path, arrival = sipp_replan(open4, table, a, rest[-1])
    assert arrival == 4
    assert path == (a, b, b, rest[0], rest[1], rest[1])


def test_sipp_rejects_unsafe_start_and_goal(open4):
    a, b, c = (open4.vertex_at(x, 0) for x in (0, 1, 2))
    with pytest.raises(ReplanInfeasibleError, match="start"):
        sipp_replan(open4, [{a, b}, {a, b}], c, a)
    # goal drops out of the zone before the horizon
    with pytest.raises(ReplanInfeasibleError, match="goal"):
        sipp_replan(open4, [{a, b}, {a, b}, {a}], a, b)


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
        assert vertex_intervals(table) == expected
        reentries += sum(len(ivls) > 1 for ivls in expected.values())
        late_entries += sum(ivls[0][0] > 0 for ivls in expected.values())
    assert reentries > 100 and late_entries > 100


def test_vertex_intervals_merge_consecutive_timesteps(open4):
    a, b = open4.vertex_at(0, 0), open4.vertex_at(1, 0)
    table = [{a}, {a, b}, {a}, {a, b}, {a, b}]
    ivls = vertex_intervals(table)
    assert ivls[a] == [(0, 4)]
    assert ivls[b] == [(1, 1), (3, 4)]


# ------------------------------------------------------------------ ppfpp


def test_refinement_never_worsens_and_stays_in_zone(open16):
    for seed in range(4):
        result = fpp_fixture(open16, 4, 3, 2, seed=seed)
        refined = ppfpp(open16, result.plan, result.problem.group_of,
                        result.real_paths, 1, seed=seed)
        for i, path in enumerate(refined.refined_paths):
            assert refined.costs_after[i] <= refined.costs_before[i]
            for t, v in enumerate(path):
                assert v in refined.zones[i][t]
        # separated zones make the refined joint plan conflict-free by
        # construction; hold the auditor to that
        joint = JointPlan(tuple(refined.refined_paths))
        report = audit(open16, joint, list(range(len(refined.refined_paths))),
                       fov_radius=1, check_fov=True)
        assert report.ok


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
    # a ragged plan cannot be built, so ppfpp never sees one
    with pytest.raises(ValueError, match="ragged plan"):
        JointPlan(((1, 2, 3), (4, 5)))


def test_precondition_real_path_must_be_a_group_row(open16):
    result = fpp_fixture(open16, 4, 3, 2, seed=0)
    fake = list(result.real_paths)
    fake[0] = tuple(reversed(fake[0]))
    with pytest.raises(PreconditionError, match="row"):
        ppfpp(open16, result.plan, result.problem.group_of, fake, 1, seed=0)


def test_improvement_percentage_arithmetic():
    r = RefineResult(zones=[[set()]], radius=1, picks=[],
                     refined_paths=[(0,), (0,)],
                     costs_before=[4, 6], costs_after=[3, 5])
    assert r.rsoc_before == 10
    assert r.rsoc_after == 8
    assert r.improvement_pct == pytest.approx(20.0)


def test_zone_file_round_trip(open16, tmp_path):
    result = fpp_fixture(open16, 4, 3, 2, seed=2)
    refined = ppfpp(open16, result.plan, result.problem.group_of,
                    result.real_paths, 1, seed=2)
    out = tmp_path / "zones.json"
    write_zones(refined.zones, 1, open16, out)
    obj = json.loads(out.read_text())
    assert obj["radius"] == 1
    assert obj["horizon"] == len(refined.zones[0]) - 1
    zones = [[{open16.vertex_at(x, y) for x, y in zone} for zone in per_t]
             for per_t in obj["zones"]]
    assert zones == refined.zones
