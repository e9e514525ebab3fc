"""Publish-once pipelines: what gets broadcast, what stays private.

The trace hygiene tests treat the serialized trace as the complete record
of everything an observer sees; privacy claims are checked on those bytes,
never on in-process objects.
"""

import json

import pytest

from privmapf.audit import audit
from privmapf.instances import random_spaced_pairs
from privmapf.pipeline import (
    MessageTrace,
    PipelineSpec,
    check_k_privacy,
    compute_beliefs,
    extract_real_path,
    fpp_solve,
    kpp_solve,
    read_trace,
    run_pipeline,
    write_trace,
)


def test_kpp_end_to_end(open16):
    reals = random_spaced_pairs(open16, 4, "e2e", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, solver="pibt"), 0)
    assert result.solved
    assert result.plan.num_agents == 8
    assert audit(open16, result.plan).ok
    for path, (s, g) in zip(result.real_paths, reals):
        assert path[0] == s and path[-1] == g
    beliefs = compute_beliefs(result.plan, result.problem.group_of)
    assert check_k_privacy(beliefs, 2)["ok"]


def test_fpp_end_to_end(open16):
    reals = random_spaced_pairs(open16, 4, "e2e", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, 1, budget_expansions=1500), 0)
    assert result.solved
    report = audit(open16, result.plan, result.problem.group_of,
                   fov_radius=1, check_fov=True)
    assert report.ok
    beliefs = compute_beliefs(result.plan, result.problem.group_of)
    assert check_k_privacy(beliefs, 2)["ok"]


def test_extraction_picks_the_indexed_row(open16):
    reals = random_spaced_pairs(open16, 4, "extract", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(3, solver="pibt"), 1)
    assert result.solved
    for g in result.groups:
        path = extract_real_path(result.plan, 3, g)
        assert path == result.plan.paths[g.group_id * 3 + g.real_index]
        assert (path[0], path[-1]) == g.real_pair


def test_trace_round_trip(open16, tmp_path):
    reals = random_spaced_pairs(open16, 4, "trip", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, solver="pibt"), 0)
    out = tmp_path / "trace.json"
    write_trace(result.trace, open16, out)
    back = read_trace(open16, out)
    assert back.k == 2
    assert back.fov_radius == 0
    assert back.planner_group == result.trace.planner_group
    assert back.broadcast_plan.paths == result.plan.paths
    assert len(back.published_groups) == 4
    for mine, theirs in zip(result.trace.published_groups, back.published_groups):
        assert theirs.group_id == mine.group_id
        assert theirs.pairs == mine.pairs
        assert theirs.real_index is None


def test_trace_bytes_carry_no_private_fields(open16, tmp_path):
    reals = random_spaced_pairs(open16, 4, "hygiene", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, solver="pibt"), 3)
    text = result.trace.to_json(open16)
    assert "real" not in text
    obj = json.loads(text)
    assert set(obj) == {"planner_group", "k", "fov_radius", "groups", "plan"}
    for g in obj["groups"]:
        assert set(g) == {"group_id", "pairs"}
        assert len(g["pairs"]) == 2


def test_trace_is_deterministic(open16):
    reals = random_spaced_pairs(open16, 4, "determinism", min_separation=3)
    spec = PipelineSpec(2, solver="pibt")
    a = run_pipeline(open16, reals, spec, 7)
    b = run_pipeline(open16, reals, spec, 7)
    assert a.trace.to_json(open16) == b.trace.to_json(open16)


def test_beliefs_from_recovered_trace_match_direct(open16, tmp_path):
    reals = random_spaced_pairs(open16, 4, "beliefs", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, 1, budget_expansions=1500), 0)
    assert result.solved
    out = tmp_path / "trace.json"
    write_trace(result.trace, open16, out)
    back = read_trace(open16, out)
    group_of = result.problem.group_of
    assert compute_beliefs(back.broadcast_plan, group_of) == compute_beliefs(
        result.plan, group_of
    )


def test_failed_solve_still_publishes_groups(pocket):
    # the groups go out before the solver runs; failure leaks the same bytes
    reals = [
        (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0)),
        (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0)),
    ]
    result = run_pipeline(pocket, reals, PipelineSpec(1, solver="pibt"), 0)
    assert not result.solved
    assert result.real_paths is None
    assert result.trace.broadcast_plan is None
    assert len(result.trace.published_groups) == 2
    text = result.trace.to_json(pocket)
    assert json.loads(text)["plan"] is None


def test_kpp_treats_fov_radius_as_zero(open16):
    # kPP has no radius of its own: it is the spec's default radius, 0
    reals = random_spaced_pairs(open16, 4, "parity", min_separation=3)
    spec = PipelineSpec(2, solver="pibt")
    assert spec == PipelineSpec(2, 0, "pibt")
    a = run_pipeline(open16, reals, spec, 5)
    assert a.solved
    assert json.loads(a.trace.to_json(open16))["fov_radius"] == 0


def test_kpp_is_fpp_at_radius_zero(open16, pocket):
    # kpp_solve and fpp_solve only forward to run_pipeline; the pocket
    # instance is unsolvable, so failure reasons are compared too
    stuck = [(pocket.vertex_at(1, 0), pocket.vertex_at(2, 0)),
             (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))]
    unsolved = 0
    for solver in ("pibt", "lacam"):
        for seed in range(4):
            for world, reals, k in (
                (open16, random_spaced_pairs(open16, 4, seed, min_separation=3), 2),
                (pocket, stuck, 1),
            ):
                kpp = kpp_solve(world, reals, k, seed, solver=solver, budget_expansions=1500)
                fpp = fpp_solve(world, reals, k, 0, seed, solver=solver, budget_expansions=1500)
                spec = PipelineSpec(k, 0, solver, budget_expansions=1500)
                for out in (fpp, run_pipeline(world, reals, spec, seed)):
                    assert out.plan == kpp.plan
                    assert out.trace.to_json(world) == kpp.trace.to_json(world)
                    assert out.reason == kpp.reason
                unsolved += not kpp.solved
    assert unsolved == 8


def test_unknown_solver_rejected(open16):
    reals = random_spaced_pairs(open16, 2, "solver", min_separation=3)
    with pytest.raises(ValueError, match="solver"):
        run_pipeline(open16, reals, PipelineSpec(2, solver="astar"), 0)


@pytest.mark.parametrize("fields,message", [
    (dict(k=2, solver="astar"), "unknown solver 'astar'"),
    (dict(k=0), "k must be >= 1"),
    (dict(k=2, radius=-1), "fov radius must be >= 0"),
    (dict(k=2, budget_expansions=-1), "the expansion budget must be an int >= 0"),
    (dict(k=2, budget_expansions=None), "the expansion budget must be an int >= 0"),
])
def test_spec_rejects_bad_settings(fields, message):
    with pytest.raises(ValueError, match=message):
        PipelineSpec(**fields)


def test_check_k_privacy_reports_small_beliefs():
    beliefs = [
        [frozenset({1, 2}), frozenset({3})],
        [frozenset({4, 5}), frozenset({6, 7})],
    ]
    report = check_k_privacy(beliefs, 2)
    assert not report["ok"]
    assert report["violations"] == [(0, 1, 1)]
    assert check_k_privacy(beliefs, 1)["ok"]


def test_beliefs_pad_with_goal_positions(open4):
    # one group's paths end early; its belief at late t keeps the goal set
    reals = [(open4.vertex_at(0, 0), open4.vertex_at(1, 0)),
             (open4.vertex_at(3, 3), open4.vertex_at(0, 3))]
    result = run_pipeline(open4, reals, PipelineSpec(2, solver="pibt"), 2)
    assert result.solved
    beliefs = compute_beliefs(result.plan, result.problem.group_of)
    horizon = result.plan.horizon
    for i, per_t in enumerate(beliefs):
        members = [j for j, g in enumerate(result.problem.group_of) if g == i]
        goal_set = frozenset(result.problem.goals[j] for j in members)
        assert per_t[horizon] == goal_set
