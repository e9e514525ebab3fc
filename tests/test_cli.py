"""End-to-end runs of the console entry point (in-process, via main())."""

import json
from itertools import combinations

import pytest

from privmapf import bench, cli
from privmapf.cli import main
from privmapf.dispatch import InfeasibleInputError
from privmapf.pipeline import PipelineSpec

from conftest import ASSETS

POCKET = "type octile\nheight 2\nwidth 3\nmap\n...\n@@.\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("privmapf ")


def test_solve_audit_refine_round_trip(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    refined_file = tmp_path / "refined.txt"
    zones_file = tmp_path / "zones.json"
    priv = tmp_path / "private"

    rc = main([
        "solve", "--map", "open16", "--agents", "2", "--k", "2",
        "--radius", "1", "--seed", "0",
        "--out", str(trace_file), "--private-dir", str(priv),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solved:" in out
    assert f"trace written to {trace_file}" in out
    assert len(list(priv.iterdir())) == 2

    # whatever was broadcast must never mention which pair is real
    assert "real" not in trace_file.read_text()

    # k and the radius come from the trace
    rc = main(["audit", "--map", "open16", "--trace", str(trace_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out
    assert "belief 2-privacy: ok" in out

    rc = main([
        "ppfpp", "--map", "open16", "--trace", str(trace_file),
        "--private-dir", str(priv), "--seed", "0",
        "--out", str(refined_file), "--zones", str(zones_file),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rsoc" in out
    assert refined_file.exists() and zones_file.exists()
    # one refined path per agent, marked as the real one
    lines = refined_file.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(line.split()[1] == "real" for line in lines)
    assert json.loads(zones_file.read_text())["radius"] == 1


def test_audit_flags_a_tampered_plan(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    rc = main([
        "solve", "--map", "open16", "--agents", "2", "--k", "2",
        "--radius", "1", "--seed", "0",
        "--out", str(trace_file),
    ])
    assert rc == 0
    capsys.readouterr()

    # sub-agent 1 jumps onto sub-agent 0's vertex at t=1; both rows still
    # start and end at their published pairs, so the trace reads fine
    obj = json.loads(trace_file.read_text())
    assert len(obj["plan"][0]) > 2
    obj["plan"][1][1] = obj["plan"][0][1]
    trace_file.write_text(json.dumps(obj))

    rc = main(["audit", "--map", "open16", "--trace", str(trace_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "vertex conflicts: 0" not in out
    assert "violations found" in out


def test_solve_failure_exits_nonzero_but_still_traces(tmp_path, capsys):
    pocket = tmp_path / "pocket.map"
    pocket.write_text(POCKET)
    trace_file = tmp_path / "trace.json"
    rc = main([
        "solve", "--map", str(pocket), "--agents", "2", "--separation", "1",
        "--k", "1", "--seed", "0", "--out", str(trace_file),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unsolved" in out
    # the groups went out before the solver gave up; the trace records that
    obj = json.loads(trace_file.read_text())
    assert len(obj["groups"]) == 2
    assert obj["plan"] is None


def test_solve_from_scenario_file(capsys):
    rc = main([
        "solve", "--map", "open16",
        "--scen", str(ASSETS / "scens" / "open16.scen"),
        "--agents", "3", "--k", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solved:" in out


def test_solve_flags_default_to_the_spec(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_solve", lambda args: seen.append(args) or 0)
    assert main(["solve", "--map", "open16"]) == 0
    (args,) = seen
    spec = PipelineSpec(args.k, args.radius)
    assert (args.solver, args.budget_expansions) == (spec.solver, spec.budget_expansions)
    assert args.separation is None  # random_spaced_pairs' map default


def test_solve_places_the_pairs_bench_places(monkeypatch, random32):
    # on a map wider than 16 the default separation is 5, not the old fixed 3
    placed = []

    def stop_after_placement(world, pairs, spec, seed):
        placed.append(pairs)
        raise InfeasibleInputError("placement seen")

    monkeypatch.setattr(cli, "run_pipeline", stop_after_placement)
    monkeypatch.setattr(bench, "run_pipeline", stop_after_placement)
    assert main(["solve", "--map", "random-32-32-20", "--agents", "6", "--seed", "3"]) == 2
    map_path = str(bench.resolve_map("random-32-32-20"))
    task = bench.TaskSpec("random-32-32-20", map_path, 6, 3, PipelineSpec(2), None)
    assert not bench.run_one(task).solved
    from_solve, from_bench = placed
    assert from_solve == from_bench
    for (s1, g1), (s2, g2) in combinations(from_solve, 2):
        assert random32.chebyshev(s1, s2) >= 5 and random32.chebyshev(g1, g2) >= 5


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "suite.yaml"
    cfg.write_text(
        "maps: [open16]\nagents: [2]\nk: [2]\nradius: [1]\nseeds: 2\n"
        "budget_expansions: 300\nmin_separation: 3\n"
    )
    out_csv = tmp_path / "results.csv"
    rc = main(["bench", "--config", str(cfg), "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 records written" in out
    assert "open16" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert len(lines) == 4  # comment, header, two rows


# a 4x3 map whose cell (1, 1) is blocked; vertex ids run row-major over the
# passable cells: (0,0)=0 (3,0)=3 (0,2)=7 (2,2)=9 (3,2)=10
WALLED = "type octile\nheight 3\nwidth 4\nmap\n....\n.@..\n....\n"


def trace_obj(k, radius, groups, plan):
    """A message trace as ``MessageTrace.to_json`` lays it out; groups list
    each group's pairs as [sx, sy, gx, gy]."""
    return {
        "planner_group": 0, "k": k, "fov_radius": radius, "plan": plan,
        "groups": [{"group_id": i, "pairs": pairs} for i, pairs in enumerate(groups)],
    }


def walled_trace():
    """Two k=2 groups resting at the corners of WALLED, fov radius 1."""
    groups = [[[0, 0, 0, 0], [3, 0, 3, 0]], [[0, 2, 0, 2], [3, 2, 3, 2]]]
    return trace_obj(2, 1, groups, [[0], [3], [7], [10]])


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(obj):
        for step in path:
            obj = obj[step]
        obj[key] = value
    return mutate


MALFORMED_TRACES = {
    "not JSON": (b"{", "not JSON"),
    "not UTF-8": (b"\xff{}", "can't decode byte 0xff"),
    "missing key": (lambda obj: obj.pop("k"), "missing key 'k'"),
    "k of 0": (_set("k", 0), "k is 0, not an int >= 1"),
    "k not an int": (_set("k", "2"), "k is '2', not an int >= 1"),
    "negative radius": (_set("fov_radius", -1), "fov_radius is -1, not an int >= 0"),
    "pair off the map": (_set("groups", 0, "pairs", 0, [4, 0, 0, 0]),
                         "group 0: (4,0) outside 4x3 map"),
    "pair on a blocked cell": (_set("groups", 1, "pairs", 1, [3, 2, 1, 1]),
                               "group 1: (1,1) is blocked"),
    "repeated start": (_set("groups", 0, "pairs", 1, [0, 0, 3, 0]),
                       "group 0: duplicate start vertex"),
    "group without k pairs": (lambda obj: obj["groups"][1]["pairs"].pop(),
                              "group 1: 1 pairs, k is 2"),
    "too few plan rows": (lambda obj: obj["plan"].pop(),
                          "plan does not have k x groups = 4 rows"),
    "row off its pair": (_set("plan", 2, [7, 4]),
                         "plan row 2 does not start and end at pair 0 of group 1"),
    "ragged rows": (_set("plan", 3, [10, 9, 10]), "ragged plan"),
    "plan null": (_set("plan", None), "no plan, the solve that wrote this trace failed"),
}


@pytest.mark.parametrize("case", MALFORMED_TRACES)
@pytest.mark.parametrize("command", ["audit", "ppfpp"])
def test_malformed_trace_is_one_error_line(tmp_path, capsys, command, case):
    bad, where = MALFORMED_TRACES[case]
    trace_file = tmp_path / "trace.json"
    if isinstance(bad, bytes):
        trace_file.write_bytes(bad)
    else:
        obj = walled_trace()
        bad(obj)
        trace_file.write_text(json.dumps(obj))
    (tmp_path / "walled.map").write_text(WALLED)
    argv = [command, "--map", str(tmp_path / "walled.map"), "--trace", str(trace_file)]
    if command == "ppfpp":
        argv += ["--private-dir", str(tmp_path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {trace_file}: ")
    assert where in lines[0]


def test_the_walled_trace_itself_is_clean(tmp_path, capsys):
    # the malformed cases above each break one thing in this trace
    (tmp_path / "walled.map").write_text(WALLED)
    (tmp_path / "trace.json").write_text(json.dumps(walled_trace()))
    rc = main(["audit", "--map", str(tmp_path / "walled.map"),
               "--trace", str(tmp_path / "trace.json")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["belief 2-privacy: ok", "clean"]


def test_audit_checks_fov_and_privacy_at_the_traced_values(tmp_path, capsys):
    # two k=2 groups on open16 whose first members stand side by side at
    # radius 1: one fov conflict at each of t=0 and t=1, with no flag given
    groups = [[[0, 0, 0, 0], [5, 5, 5, 5]], [[1, 0, 1, 0], [10, 10, 10, 10]]]
    plan = [[0, 0], [85, 85], [1, 1], [170, 170]]
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace_obj(2, 1, groups, plan)))
    rc = main(["audit", "--map", "open16", "--trace", str(trace_file)])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == ("vertex conflicts: 0  swap conflicts: 0  "
                      "fov conflicts: 2  invalid moves: 0")
    assert out[1:] == ["belief 2-privacy: ok", "violations found"]


def test_audit_of_dev_null_is_one_error_line(capsys):
    rc = main(["audit", "--map", "open16", "--trace", "/dev/null"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: /dev/null: not JSON (Expecting value: line 1 column 1 (char 0))\n"


def test_audit_reports_teleports(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    # one k=1 group from (0,0) to (1,1): 0 -> 200 -> 17, two non-adjacent moves
    trace_file.write_text(json.dumps(trace_obj(1, 0, [[[0, 0, 1, 1]]], [[0, 200, 17]])))
    rc = main(["audit", "--map", "open16", "--trace", str(trace_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "invalid moves: 2" in out
    assert "invalid move: sub-agent 0 at t=1: 0 -> 200" in out
    assert "invalid move: sub-agent 0 at t=2: 200 -> 17" in out
    assert out.splitlines()[-1] == "violations found"


MAP_WITH_BAD_TERRAIN = "type octile\nheight 2\nwidth 2\nmap\n.x\n..\n"
MAP_WITHOUT_PASSABLE_CELL = "type octile\nheight 1\nwidth 2\nmap\n@@\n"


@pytest.mark.parametrize("error,argv,where", [
    ("OSError", ["audit", "--map", "open16", "--trace", "{tmp}/missing.json"],
     "No such file or directory"),
    ("ConfigError", ["solve", "--map", "nosuch"], "unknown map 'nosuch'"),
    ("ParseError", ["audit", "--map", "{tmp}/bad.map", "--trace", "{tmp}/trace.json"],
     "unknown terrain 'x'"),
    ("EmptyMapError", ["audit", "--map", "{tmp}/empty.map", "--trace", "{tmp}/trace.json"],
     "no passable cell"),
    ("ScenarioError",
     ["solve", "--map", "open16", "--agents", "2",
      "--scen", str(ASSETS / "scens" / "random-32-32-20.scen")],
     "scenario is for a 32x32 map"),
    ("AuditError", ["audit", "--map", "open16", "--trace", "{tmp}/off_map.json"],
     "vertex 99999 is not on the map"),
    ("InfeasibleInputError",
     ["solve", "--map", "open16", "--radius", "3"],
     "collide under rule r=3"),
    # a parse error names the file, so --map and --scen can be told apart
    ("ParseError", ["audit", "--map", "{tmp}/bad.map", "--trace", "{tmp}/trace.json"],
     "bad.map: line 5: unknown terrain 'x'"),
    ("ParseError", ["solve", "--map", "open16", "--scen", "{tmp}/bad.scen"],
     "bad.scen: line 1: missing 'version' header"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}"],
     "agent_000.json: no private sidecar for group 0"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/not_json"],
     "not_json/agent_000.json: not a JSON sidecar"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/no_index"],
     'no_index/agent_000.json: expected {"group_id": <int>, "real_index": <int>}'),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/off_range"],
     "off_range/agent_000.json: real_index 1 is not in [0, 1)"),
    # a kPP trace (radius 0) has no safe zones to refine in
    ("PreconditionError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/kpp.json",
                           "--private-dir", "{tmp}/in_range"],
     "zone refinement needs fov radius >= 1"),
    ("DispatchExhaustedError", ["solve", "--map", "open16", "--k", "40", "--agents", "8"],
     "group 6: mock pair 6 keeps colliding (after 1000 attempts)"),
    ("ConfigError", ["solve", "--map", "open16", "--radius", "-1"],
     "fov radius must be >= 0"),
    ("PlacementError", ["solve", "--map", "open16", "--agents", "10", "--separation", "6"],
     "could not place 10 spaced pairs on 16x16 map"),
    ("ConfigError", ["solve", "--map", "open16", "--agents", "0"],
     "the agent count must be >= 1"),
    ("ScenarioError",
     ["solve", "--map", "open16", "--agents", "13",
      "--scen", str(ASSETS / "scens" / "open16.scen")],
     "open16.scen: scenario has only 12 entries, 13 agents requested"),
    ("ConfigError", ["solve", "--map", "open16", "--separation", "-1"],
     "the separation must be >= 1"),
    ("ConfigError", ["solve", "--map", "open16", "--separation", "0"],
     "the separation must be >= 1"),
    # JSON true is not the index 1
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/bool_index"],
     'bool_index/agent_000.json: expected {"group_id": <int>, "real_index": <int>}'),
])
def test_input_errors_are_one_error_line(tmp_path, capsys, error, argv, where):
    (tmp_path / "bad.map").write_text(MAP_WITH_BAD_TERRAIN)
    (tmp_path / "bad.scen").write_text("0 open16 16 16 0 0 1 1 2\n")
    (tmp_path / "empty.map").write_text(MAP_WITHOUT_PASSABLE_CELL)
    # one k=1 group resting at (0,0), vertex 0
    (tmp_path / "trace.json").write_text(json.dumps(trace_obj(1, 1, [[[0, 0, 0, 0]]], [[0]])))
    (tmp_path / "kpp.json").write_text(json.dumps(trace_obj(1, 0, [[[0, 0, 0, 0]]], [[0]])))
    (tmp_path / "off_map.json").write_text(
        json.dumps(trace_obj(1, 0, [[[0, 0, 0, 0]]], [[0, 99999, 0]])))
    for name, sidecar in [("not_json", "{"), ("no_index", '{"group_id": 0}'),
                          ("bool_index", '{"group_id": 0, "real_index": true}'),
                          ("off_range", '{"group_id": 0, "real_index": 1}'),
                          ("in_range", '{"group_id": 0, "real_index": 0}')]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "agent_000.json").write_text(sidecar)
    rc = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2, error
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert where in lines[0]
