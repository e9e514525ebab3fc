"""Publish-once pipelines: what gets broadcast, what stays private.

The trace hygiene tests treat the serialized trace as the complete record
of everything an observer sees; privacy claims are checked on those bytes,
never on in-process objects.
"""

import dataclasses
import json

import pytest

from privmapf import cli, pipeline
from privmapf.audit import AuditError, audit_trace, compute_beliefs
from privmapf.bench import TaskSpec
from privmapf.dispatch import AgentGroup, SidecarError
from privmapf.grid import ConfigError
from privmapf.instances import random_spaced_pairs
from privmapf.plans import JointPlan
from privmapf.pipeline import (
    BroadcastAuditError,
    MessageTrace,
    PipelineSpec,
    TraceError,
    extract_real_path,
    fpp_solve,
    kpp_solve,
    read_real_paths,
    read_trace,
    run_pipeline,
    write_trace,
)


def test_kpp_end_to_end(open16):
    reals = random_spaced_pairs(open16, 4, "e2e", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, budget_expansions=1500), 0)
    assert result.solved
    assert result.plan.num_agents == 8
    for path, (s, g) in zip(result.real_paths, reals):
        assert path[0] == s and path[-1] == g
    report = audit_trace(open16, result.trace)
    assert report.ok
    assert report == result.report


def test_fpp_end_to_end(open16):
    reals = random_spaced_pairs(open16, 4, "e2e", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, 1, budget_expansions=1500), 0)
    assert result.solved
    report = audit_trace(open16, result.trace)
    assert report.ok
    assert report == result.report


def test_extraction_picks_the_indexed_row(open16):
    reals = random_spaced_pairs(open16, 4, "extract", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(3, budget_expansions=1500), 1)
    assert result.solved
    for g in result.groups:
        path = extract_real_path(result.plan, 3, g.group_id, g.real_index)
        assert path == result.plan.paths[g.group_id * 3 + g.real_index]
        assert (path[0], path[-1]) == g.pairs[g.real_index]


def solve_to_files(tmp_path):
    """The README run through ``privmapf solve``: its trace file and sidecar folder."""
    trace_file, priv = tmp_path / "trace.json", tmp_path / "private"
    assert cli.main(["solve", "--map", "open16", "--agents", "4", "--k", "3", "--radius", "1",
                     "--seed", "4", "--out", str(trace_file), "--private-dir", str(priv)]) == 0
    return trace_file, priv


def test_real_paths_read_back_from_the_files_are_the_pipelines(open16, tmp_path):
    # what an agent reads back from the broadcast and its own sidecar is the
    # path the pipeline extracted in process
    trace_file, priv = solve_to_files(tmp_path)
    task = TaskSpec("open16", 4, 4, PipelineSpec(3, 1))
    result = run_pipeline(open16, task.pairs(), task.spec, task.seed)
    assert result.solved
    assert read_real_paths(read_trace(open16, trace_file), priv) == result.real_paths


def test_real_paths_need_a_plan_and_the_groups_own_sidecars(open16, tmp_path):
    trace_file, priv = solve_to_files(tmp_path)
    trace = read_trace(open16, trace_file)
    obj = json.loads(trace_file.read_text())
    obj["plan"] = None
    trace_file.write_text(json.dumps(obj))
    with pytest.raises(TraceError, match="no plan"):
        read_real_paths(read_trace(open16, trace_file), priv)
    (priv / "agent_002.json").write_text('{"group_id": 3, "real_index": 0}\n')
    with pytest.raises(SidecarError, match="agent_002.json: holds group 3, not group 2"):
        read_real_paths(trace, priv)


def test_trace_round_trip(open16, tmp_path):
    reals = random_spaced_pairs(open16, 4, "trip", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, budget_expansions=1500), 0)
    out = tmp_path / "trace.json"
    write_trace(result.trace, open16, out)
    back = read_trace(open16, out)
    assert back.k == 2
    assert back.fov_radius == 0
    assert back.broadcast_plan.paths == result.plan.paths
    assert len(back.published_groups) == 4
    for mine, theirs in zip(result.trace.published_groups, back.published_groups):
        assert theirs.group_id == mine.group_id
        assert theirs.pairs == mine.pairs
        assert theirs.real_index is None


def test_trace_bytes_carry_no_private_fields(open16, tmp_path):
    reals = random_spaced_pairs(open16, 4, "hygiene", min_separation=3)
    result = run_pipeline(open16, reals, PipelineSpec(2, budget_expansions=1500), 3)
    text = result.trace.to_json(open16)
    assert "real" not in text
    obj = json.loads(text)
    assert set(obj) == {"k", "fov_radius", "groups", "plan"}
    for g in obj["groups"]:
        assert set(g) == {"group_id", "pairs"}
        assert len(g["pairs"]) == 2


def test_trace_is_deterministic(open16):
    reals = random_spaced_pairs(open16, 4, "determinism", min_separation=3)
    spec = PipelineSpec(2, budget_expansions=1500)
    a = run_pipeline(open16, reals, spec, 7)
    b = run_pipeline(open16, reals, spec, 7)
    assert a.trace.to_json(open16) == b.trace.to_json(open16)


def test_failed_solve_still_publishes_groups(pocket):
    # the groups go out before the solver runs; failure leaks the same bytes
    reals = [
        (pocket.vertex_at(1, 0), pocket.vertex_at(2, 0)),
        (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0)),
    ]
    result = run_pipeline(pocket, reals, PipelineSpec(1, budget_expansions=1500), 0)
    assert not result.solved
    assert result.real_paths is None
    assert result.report is None
    assert result.trace.broadcast_plan is None
    with pytest.raises(AuditError, match="no plan"):
        audit_trace(pocket, result.trace)
    assert len(result.trace.published_groups) == 2
    text = result.trace.to_json(pocket)
    assert json.loads(text)["plan"] is None


def test_kpp_treats_fov_radius_as_zero(open16):
    # kPP has no radius of its own: it is the spec's default radius, 0
    reals = random_spaced_pairs(open16, 4, "parity", min_separation=3)
    spec = PipelineSpec(2, budget_expansions=1500)
    assert spec == PipelineSpec(2, 0, 1500)
    a = run_pipeline(open16, reals, spec, 5)
    assert a.solved
    assert json.loads(a.trace.to_json(open16))["fov_radius"] == 0


def test_kpp_is_fpp_at_radius_zero(open16, pocket):
    # kpp_solve and fpp_solve only forward to run_pipeline; the pocket
    # instance is unsolvable, so failure reasons are compared too
    stuck = [(pocket.vertex_at(1, 0), pocket.vertex_at(2, 0)),
             (pocket.vertex_at(2, 0), pocket.vertex_at(0, 0))]
    unsolved = 0
    for seed in range(8):
        for world, reals, k in (
            (open16, random_spaced_pairs(open16, 4, seed, min_separation=3), 2),
            (pocket, stuck, 1),
        ):
            kpp = kpp_solve(world, reals, k, seed, solver="lacam", budget_expansions=1500)
            fpp = fpp_solve(world, reals, k, 0, seed, solver="lacam", budget_expansions=1500)
            spec = PipelineSpec(k, 0, budget_expansions=1500)
            for out in (fpp, run_pipeline(world, reals, spec, seed)):
                assert out.plan == kpp.plan
                assert out.trace.to_json(world) == kpp.trace.to_json(world)
                assert out.reason == kpp.reason
            unsolved += not kpp.solved
    assert unsolved == 8


def test_forwarders_take_only_lacam(open16):
    # the benchmark still names its solver; LaCAM is the only one
    reals = random_spaced_pairs(open16, 2, "solver", min_separation=3)
    with pytest.raises(ConfigError, match="unknown solver 'pibt'"):
        kpp_solve(open16, reals, 2, 0, solver="pibt")
    with pytest.raises(ConfigError, match="unknown solver 'pibt'"):
        fpp_solve(open16, reals, 2, 1, 0, solver="pibt")


@pytest.mark.parametrize("fields,message", [
    (dict(k=2, budget_expansions=True), "the expansion budget must be an int >= 0"),
    (dict(k=0), "k must be >= 1"),
    (dict(k=2, radius=-1), "fov radius must be >= 0"),
    (dict(k=2, budget_expansions=-1), "the expansion budget must be an int >= 0"),
    (dict(k=2, budget_expansions=None), "the expansion budget must be an int >= 0"),
    (dict(k=True), "k must be >= 1"),
    (dict(k=2.5), "k must be >= 1"),
    (dict(k=2, radius=True), "fov radius must be >= 0"),
    (dict(k=2, radius=None), "fov radius must be >= 0"),
])
def test_spec_rejects_bad_settings(fields, message):
    with pytest.raises(ValueError, match=message):
        PipelineSpec(**fields)


def test_audit_trace_reports_small_beliefs(open4):
    # group 1's two rows meet at t=1: one belief set of size k-1, which with
    # k rows per group is also a same-group vertex conflict
    v = open4.vertex_at
    groups = (AgentGroup(0, ((v(0, 0), v(0, 1)), (v(1, 0), v(1, 1))), None),
              AgentGroup(1, ((v(2, 3), v(3, 2)), (v(3, 2), v(2, 3))), None))
    plan = JointPlan(((v(0, 0), v(0, 1), v(0, 1)), (v(1, 0), v(1, 1), v(1, 1)),
                      (v(2, 3), v(3, 3), v(3, 2)), (v(3, 2), v(3, 3), v(2, 3))))
    report = audit_trace(open4, MessageTrace(groups, 2, 0, plan))
    assert not report.ok
    assert report.below_k == [(1, 1, 1)]
    assert report.conflicts.vertex_conflicts == [(2, 3, 1, (v(3, 3),))]


def _conflicting_solve(monkeypatch):
    """Patch the pipeline's solver so its plan moves sub-agent 1 onto
    sub-agent 0's vertex at t=1."""
    solve = pipeline.lacam_solve

    def broken(*args, **kwargs):
        result = solve(*args, **kwargs)
        paths = [list(p) for p in result.plan.paths]
        paths[1][1] = paths[0][1]
        return dataclasses.replace(result, plan=JointPlan(tuple(map(tuple, paths))))

    monkeypatch.setattr(pipeline, "lacam_solve", broken)


def test_gate_refuses_a_conflicting_plan(open16, monkeypatch):
    reals = random_spaced_pairs(open16, 2, "gate", min_separation=3)
    spec = PipelineSpec(2, budget_expansions=1500)
    clean = run_pipeline(open16, reals, spec, 0)
    assert clean.report.ok
    assert clean.report == audit_trace(open16, clean.trace)
    _conflicting_solve(monkeypatch)
    with pytest.raises(BroadcastAuditError, match="vertex conflicts: 1 "):
        run_pipeline(open16, reals, spec, 0)


def test_solve_writes_no_trace_for_a_conflicting_plan(open16, monkeypatch, tmp_path, capsys):
    # a bug signal, not a PrivmapfError: it leaves main with its traceback
    _conflicting_solve(monkeypatch)
    out = tmp_path / "trace.json"
    with pytest.raises(BroadcastAuditError):
        cli.main(["solve", "--map", "open16", "--agents", "2", "--k", "2", "--out", str(out)])
    assert not out.exists()
    assert capsys.readouterr() == ("", "")


def test_beliefs_pad_with_goal_positions(open4):
    # one group's paths end early; its belief at late t keeps the goal set
    reals = [(open4.vertex_at(0, 0), open4.vertex_at(1, 0)),
             (open4.vertex_at(3, 3), open4.vertex_at(0, 3))]
    result = run_pipeline(open4, reals, PipelineSpec(2, budget_expansions=1500), 2)
    assert result.solved
    beliefs = compute_beliefs(result.plan, result.problem.group_of)
    horizon = result.plan.horizon
    for i, per_t in enumerate(beliefs):
        members = [j for j, g in enumerate(result.problem.group_of) if g == i]
        goal_set = frozenset(result.problem.goals[j] for j in members)
        assert per_t[horizon] == goal_set
