"""Conflict auditing and the path-cost metric.

Cost counts actions until the agent is at its goal for good: trailing waits
at the goal are free, but leaving the goal re-opens the meter, so a
departure-and-return pays for the excursion and the rewind.
"""

import json
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from privmapf.audit import (
    AuditError,
    MetricsError,
    audit,
    check_runtime_k_privacy,
    check_separated,
    compute_beliefs,
    metrics,
    path_cost,
    real_sum_of_costs,
)
from privmapf.cli import main
from privmapf.grid import load_map
from privmapf.plans import JointPlan

from conftest import ASSETS, audit_oracle, zone_table

MAPS = {name: load_map(f"{ASSETS}/maps/{name}.map") for name in ("open16", "random-32-32-20")}


def test_path_cost_frozen_examples():
    assert path_cost((4,), 4) == 0
    assert path_cost((1, 2, 3), 3) == 2
    assert path_cost((1, 2, 3, 3, 3), 3) == 2  # trailing waits are free
    assert path_cost((1, 1, 2, 3), 3) == 3  # waiting before arrival is paid
    # arrive at t=2, wander off, return at t=6: the whole excursion counts
    assert path_cost((1, 2, 3, 3, 2, 2, 3), 3) == 6


def test_path_cost_requires_final_goal():
    with pytest.raises(MetricsError, match=r"^path ends at 2, not its goal 3$"):
        path_cost((1, 2), 3)


def test_metrics_sum_and_makespan():
    m = metrics(((1, 2, 3, 3), (5, 5, 5, 5)), [3, 5])
    assert m.path_costs == (2, 0)
    assert m.soc == 2
    assert m.makespan == 2


def test_real_sum_of_costs():
    assert real_sum_of_costs([(1, 2), (4, 4)], [2, 4]) == 1


def test_audit_clean_plan(open4):
    a = (open4.vertex_at(0, 0), open4.vertex_at(1, 0))
    b = (open4.vertex_at(3, 3), open4.vertex_at(2, 3))
    plan = JointPlan((a, b))
    report = audit(open4, plan)
    assert report.ok
    assert report.total() == 0


def test_audit_vertex_conflict(open4):
    v = open4.vertex_at(1, 1)
    plan = JointPlan(((open4.vertex_at(0, 1), v), (open4.vertex_at(2, 1), v)))
    report = audit(open4, plan)
    assert not report.ok
    assert report.vertex_conflicts == [(0, 1, 1, (v,))]


def test_audit_swap_conflict(open4):
    u, v = open4.vertex_at(0, 0), open4.vertex_at(1, 0)
    plan = JointPlan(((u, v), (v, u)))
    report = audit(open4, plan)
    assert len(report.swap_conflicts) == 1
    assert not report.vertex_conflicts


def test_shared_stay_is_vertex_not_swap(open4):
    v = open4.vertex_at(2, 2)
    plan = JointPlan(((v, v), (v, v)))
    report = audit(open4, plan)
    assert report.vertex_conflicts and not report.swap_conflicts


def test_audit_fov_conflict_is_inter_group_only(open4):
    a = open4.vertex_at(0, 0)
    b = open4.vertex_at(1, 1)  # diagonal, inside radius-1 fov
    plan = JointPlan(((a, a), (b, b)))
    same_group = audit(open4, plan, group_of=[0, 0], fov_radius=1, check_fov=True)
    assert same_group.ok
    cross_group = audit(open4, plan, group_of=[0, 1], fov_radius=1, check_fov=True)
    assert len(cross_group.fov_conflicts) == 2  # both timesteps
    r0 = audit(open4, plan, group_of=[0, 1], fov_radius=0, check_fov=True)
    assert r0.ok


def test_audit_requires_group_of_for_fov(open4):
    plan = JointPlan(((0, 0),))
    with pytest.raises(AuditError):
        audit(open4, plan, fov_radius=1, check_fov=True)


def test_check_separated_flags_fov_overlap(open4):
    # two disjoint zones, within view of each other at t=0 only
    za = [{open4.vertex_at(0, 0)}, {open4.vertex_at(0, 0)}]
    zb = [{open4.vertex_at(1, 1)}, {open4.vertex_at(3, 3)}]
    table = zone_table([za, zb], open4.num_vertices)
    v, u = open4.vertex_at(0, 0), open4.vertex_at(1, 1)
    assert check_separated(open4, table, 1) == [(0, 0, 1, v, u)]  # (0,0) sees (1,1)
    assert check_separated(open4, table, 0) == []


@pytest.mark.parametrize("world_name", ["open16", "random32"])
@pytest.mark.parametrize("radius", [1, 2])
def test_check_separated_matches_brute_force(request, world_name, radius):
    # seeded random zone tables, some zones empty and the zones at one
    # timestep disjoint (one owner per vertex), against a scan of every
    # (t, i < j, v in zone i, u in zone j) within Chebyshev r, in that order
    world = request.getfixturevalue(world_name)
    rng = random.Random(f"separated:{world_name}:{radius}")
    n_groups, horizon = 4, 6
    zones = [[] for _ in range(n_groups)]
    for _ in range(horizon + 1):
        sizes = [rng.choice([0, 0, 3, 12, 40]) for _ in range(n_groups)]
        drawn = rng.sample(range(world.num_vertices), sum(sizes))
        for zone, size in zip(zones, sizes):
            zone.append(set(drawn[:size]))
            del drawn[:size]
    expected = [
        (t, i, j, v, u)
        for t in range(horizon + 1)
        for i in range(n_groups)
        for j in range(i + 1, n_groups)
        for v in sorted(zones[i][t])
        for u in sorted(zones[j][t])
        if world.chebyshev(v, u) <= radius
    ]
    assert any(not zone for per_t in zones for zone in per_t)
    assert len({(t, i, j) for t, i, j, _, _ in expected}) > 1
    assert check_separated(world, zone_table(zones, world.num_vertices), radius) == expected


def test_audit_reports_moves_that_are_not_wait_or_step(open4):
    v00, v10, v20 = open4.vertex_at(0, 0), open4.vertex_at(1, 0), open4.vertex_at(2, 0)
    v33 = open4.vertex_at(3, 3)
    plan = JointPlan(((v00, v10, v10, v00), (v33, v20, v20, v33)))
    report = audit(open4, plan)
    assert report.invalid_moves == [(1, 1, (v33, v20)), (1, 3, (v20, v33))]
    assert not report.ok
    assert report.total() == 2


def test_invalid_moves_are_listed_by_agent_then_timestep(tmp_path, capsys):
    # the movers walk meets agent 1's teleport (t=1) before agent 0's (t=2);
    # the report, and the audit command's lines, list agent 0's first
    world = MAPS["open16"]
    v = world.vertex_at
    plan = JointPlan(((v(0, 0), v(1, 0), v(5, 5)), (v(15, 15), v(10, 10), v(10, 10))))
    expected = [(0, 2, (v(1, 0), v(5, 5))), (1, 1, (v(15, 15), v(10, 10)))]
    assert audit(world, plan).invalid_moves == expected
    trace = {"k": 1, "fov_radius": 0, "plan": [list(p) for p in plan.paths],
             "groups": [{"group_id": 0, "pairs": [[0, 0, 5, 5]]},
                        {"group_id": 1, "pairs": [[15, 15, 10, 10]]}]}
    (tmp_path / "trace.json").write_text(json.dumps(trace))
    assert main(["audit", "--map", "open16", "--trace", str(tmp_path / "trace.json")]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("invalid move:")]
    assert lines == [f"invalid move: sub-agent {a} at t={t}: {u} -> {w} is neither a wait nor a "
                     "step" for a, t, (u, w) in expected]


@pytest.mark.parametrize("bad", [-1, 16])
def test_audit_rejects_vertex_ids_off_the_map(open4, bad):
    plan = JointPlan(((0, 1, 2), (5, bad, 5)))
    with pytest.raises(AuditError, match=f"sub-agent 1 at t=1: vertex {bad} "):
        audit(open4, plan)


def test_audit_names_the_off_map_vertex_after_vertex_zero(open16):
    # vertex 0 is on the map, so the error names the vertex after it
    with pytest.raises(AuditError, match=r"^sub-agent 0 at t=1: vertex 999 is not on the map$"):
        audit(open16, JointPlan(((0, 999),)))


def test_beliefs_of_a_group_with_no_rows_are_empty():
    # group_of skips group 1: an observer places it nowhere, at every t
    plan = JointPlan(((1, 2, 3), (4, 4, 5)))
    assert compute_beliefs(plan, [0, 2]) == [[{1}, {2}, {3}], [set()] * 3, [{4}, {4}, {5}]]


def test_runtime_privacy_reports_a_same_group_vertex_conflict(open4):
    # the belief sets are built only when a vertex conflict or a group short
    # of k rows can put one below k: group 0's two rows meet at t=1, out of
    # group 1's sight, and a group of one row is below k=2 throughout
    v = open4.vertex_at
    plan = JointPlan(((v(0, 0), v(0, 1)), (v(0, 2), v(0, 1)),
                      (v(3, 3), v(3, 3)), (v(3, 2), v(3, 2))))
    met = check_runtime_k_privacy(open4, plan, [0, 0, 1, 1], 2, 1)
    assert met["privacy"]["violations"] == [(0, 1, 1)]
    assert met["fov_conflicts"] == [] and not met["ok"]
    short = check_runtime_k_privacy(open4, JointPlan(plan.paths[2:]), [0, 1], 2, 1)
    assert short["privacy"]["violations"] == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    clean = check_runtime_k_privacy(open4, JointPlan(plan.paths[2:]), [0, 0], 2, 1)
    assert clean["ok"]


@st.composite
def audited_plans(draw):
    """A bundled map and a plan on it that mixes waits, steps and teleports,
    its agents starting near one vertex so that they meet and swap; some
    follow another agent from a late timestep on (a conflict that starts
    late and persists), and a few plans hold a vertex off the map."""
    world = MAPS[draw(st.sampled_from(sorted(MAPS)))]
    adj, nv = world.adjacency, world.num_vertices
    n, horizon = draw(st.integers(1, 8)), draw(st.integers(0, 12))
    hub = draw(st.integers(0, nv - 1))

    def near():
        v = hub
        for _ in range(draw(st.integers(0, 6))):
            v = draw(st.sampled_from((v, *adj[v])))
        return v

    paths = []
    for _ in range(n):
        path = [near()]
        for _ in range(horizon):
            v, move = path[-1], draw(st.sampled_from(["wait", "step", "step", "teleport"]))
            if move == "step":
                v = draw(st.sampled_from((v, *adj[v])))
            elif move == "teleport":
                v = near() if draw(st.booleans()) else draw(st.integers(0, nv - 1))
            path.append(v)
        paths.append(path)
    for b in range(n):
        if draw(st.integers(0, 3)) == 0:
            a, t = draw(st.integers(0, n - 1)), draw(st.integers(0, horizon))
            paths[b][t:] = paths[a][t:]
    if draw(st.integers(0, 19)) == 0:
        a, t = draw(st.integers(0, n - 1)), draw(st.integers(0, horizon))
        paths[a][t] = draw(st.sampled_from([-1, nv, nv + 7]))
    group_of = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return world, JointPlan(tuple(map(tuple, paths))), group_of


@given(case=audited_plans(), radius=st.integers(0, 2), check_fov=st.booleans(),
       k=st.integers(1, 3))
@settings(max_examples=400, deadline=None)
def test_audit_matches_the_pairwise_oracle(case, radius, check_fov, k):
    # the movers scan reports what the scan of every pair at every timestep
    # does, lists and order, and raises the same error on an off-map vertex;
    # the belief sets below k are those of the full belief table
    world, plan, group_of = case
    try:
        expected = audit_oracle(world, plan, group_of, radius, check_fov)
    except AuditError as exc:
        with pytest.raises(AuditError) as raised:
            audit(world, plan, group_of, radius, check_fov)
        assert str(raised.value) == str(exc)
        event("off the map")
        return
    report = audit(world, plan, group_of, radius, check_fov)
    assert report == expected
    below_k = [(i, t, len(b)) for i, per_t in enumerate(compute_beliefs(plan, group_of))
               for t, b in enumerate(per_t) if len(b) < k]
    assert check_runtime_k_privacy(world, plan, group_of, k, radius)["privacy"]["violations"] == below_k
    event("clean" if report.ok else "conflicts")
    found = {c[2] for c in report.vertex_conflicts + report.swap_conflicts + report.fov_conflicts}
    if any(t - 1 not in found for t in found if t):
        event("a conflict after a timestep with none")
