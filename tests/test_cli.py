"""End-to-end runs of the console entry point (in-process, via main())."""

import json

import pytest

from privmapf.cli import main
from privmapf.plans import read_plan_file, write_plan_file, JointPlan

from conftest import ASSETS

POCKET = "type octile\nheight 2\nwidth 3\nmap\n...\n@@.\n"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("privmapf ")


def test_solve_audit_refine_round_trip(tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    trace_file = tmp_path / "trace.json"
    refined_file = tmp_path / "refined.txt"
    zones_file = tmp_path / "zones.json"
    priv = tmp_path / "private"

    rc = main([
        "solve", "--map", "open16", "--agents", "2", "--k", "2",
        "--radius", "1", "--seed", "0",
        "--out", str(plan_file), "--trace", str(trace_file),
        "--private-dir", str(priv),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solved:" in out
    assert plan_file.exists() and trace_file.exists()
    assert len(list(priv.iterdir())) == 2

    # whatever was broadcast must never mention which pair is real
    assert "real" not in trace_file.read_text()
    assert "real" not in plan_file.read_text()

    rc = main([
        "audit", "--map", "open16", "--plan", str(plan_file),
        "--radius", "1", "--k", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out
    assert "belief 2-privacy: ok" in out

    rc = main([
        "ppfpp", "--map", "open16", "--plan", str(plan_file),
        "--private-dir", str(priv), "--radius", "1", "--seed", "0",
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
    plan_file = tmp_path / "plan.txt"
    rc = main([
        "solve", "--map", "open16", "--agents", "2", "--k", "2",
        "--radius", "1", "--seed", "0",
        "--out", str(plan_file),
    ])
    assert rc == 0
    capsys.readouterr()

    plan, _ = read_plan_file(plan_file)
    doctored = JointPlan((plan.paths[1],) + plan.paths[1:])
    write_plan_file(doctored, 2, plan_file)

    rc = main(["audit", "--map", "open16", "--plan", str(plan_file), "--radius", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violations found" in out


def test_solve_failure_exits_nonzero_but_still_traces(tmp_path, capsys):
    pocket = tmp_path / "pocket.map"
    pocket.write_text(POCKET)
    trace_file = tmp_path / "trace.json"
    rc = main([
        "solve", "--map", str(pocket), "--agents", "2", "--separation", "1",
        "--k", "1", "--seed", "0", "--trace", str(trace_file),
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


@pytest.mark.parametrize("text,where", [
    ("", "empty plan"),
    ("0 0 17 18 19\n0 1 20 x 22\n", ":2: non-integer token"),
    ("0 0 17 18 19\n\n0 1\n", ":3: expected <group> <index> <v0>"),
])
@pytest.mark.parametrize("command", ["audit", "ppfpp"])
def test_malformed_plan_file_is_one_error_line(tmp_path, capsys, text, where, command):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(text)
    argv = [command, "--map", "open16", "--plan", str(plan_file), "--radius", "1"]
    if command == "ppfpp":
        argv += ["--private-dir", str(tmp_path)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {plan_file}")
    assert where in lines[0]


def test_audit_of_dev_null_is_one_error_line(capsys):
    rc = main(["audit", "--map", "open16", "--plan", "/dev/null"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: /dev/null: empty plan, no sub-agent lines\n"


def test_audit_reports_teleports(tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("0 0 0 200 17\n")  # 0 -> 200 -> 17: two non-adjacent moves
    rc = main(["audit", "--map", "open16", "--plan", str(plan_file)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "invalid moves: 2" in out
    assert "invalid move: sub-agent 0 at t=1: 0 -> 200" in out
    assert "invalid move: sub-agent 0 at t=2: 200 -> 17" in out
    assert out.splitlines()[-1] == "violations found"


MAP_WITH_BAD_TERRAIN = "type octile\nheight 2\nwidth 2\nmap\n.x\n..\n"
MAP_WITHOUT_PASSABLE_CELL = "type octile\nheight 1\nwidth 2\nmap\n@@\n"


@pytest.mark.parametrize("error,argv,where", [
    ("OSError", ["audit", "--map", "open16", "--plan", "{tmp}/missing.txt"],
     "No such file or directory"),
    ("ConfigError", ["solve", "--map", "nosuch"], "unknown map 'nosuch'"),
    ("ParseError", ["audit", "--map", "{tmp}/bad.map", "--plan", "{tmp}/plan.txt"],
     "unknown terrain 'x'"),
    ("EmptyMapError", ["audit", "--map", "{tmp}/empty.map", "--plan", "{tmp}/plan.txt"],
     "no passable cell"),
    ("ScenarioError",
     ["solve", "--map", "open16", "--agents", "2",
      "--scen", str(ASSETS / "scens" / "random-32-32-20.scen")],
     "scenario is for a 32x32 map"),
    ("AuditError", ["audit", "--map", "open16", "--plan", "{tmp}/off_map.txt"],
     "vertex 99999 is not on the map"),
    ("InfeasibleInputError",
     ["solve", "--map", "open16", "--radius", "3"],
     "collide under rule r=3"),
    # a parse error names the file, so --map and --scen can be told apart
    ("ParseError", ["audit", "--map", "{tmp}/bad.map", "--plan", "{tmp}/plan.txt"],
     "bad.map: line 5: unknown terrain 'x'"),
    ("ParseError", ["solve", "--map", "open16", "--scen", "{tmp}/bad.scen"],
     "bad.scen: line 1: missing 'version' header"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--plan", "{tmp}/plan.txt",
                      "--private-dir", "{tmp}", "--radius", "1"],
     "agent_000.json: no private sidecar for group 0"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--plan", "{tmp}/plan.txt",
                      "--private-dir", "{tmp}/not_json", "--radius", "1"],
     "not_json/agent_000.json: not a JSON sidecar"),
    ("SidecarError", ["ppfpp", "--map", "open16", "--plan", "{tmp}/plan.txt",
                      "--private-dir", "{tmp}/no_index", "--radius", "1"],
     'no_index/agent_000.json: expected {"group_id": <int>, "real_index": <int>}'),
    ("SidecarError", ["ppfpp", "--map", "open16", "--plan", "{tmp}/plan.txt",
                      "--private-dir", "{tmp}/off_range", "--radius", "1"],
     "off_range/agent_000.json: real_index 1 is not in [0, 1)"),
    ("PreconditionError", ["ppfpp", "--map", "open16", "--plan", "{tmp}/plan.txt",
                           "--private-dir", "{tmp}/in_range", "--radius", "0"],
     "zone refinement needs fov radius >= 1"),
    ("DispatchExhaustedError", ["solve", "--map", "open16", "--k", "40", "--agents", "8"],
     "group 6: mock pair 6 keeps colliding (after 1000 attempts)"),
    ("ConfigError", ["solve", "--map", "open16", "--radius", "-1"],
     "fov radius must be >= 0"),
    ("PlacementError", ["solve", "--map", "open16", "--agents", "10", "--separation", "6"],
     "could not place 10 spaced pairs on 16x16 map"),
    ("ConfigError", ["solve", "--map", "open16", "--agents", "0"],
     "the agent count must be >= 1"),
])
def test_input_errors_are_one_error_line(tmp_path, capsys, error, argv, where):
    (tmp_path / "bad.map").write_text(MAP_WITH_BAD_TERRAIN)
    (tmp_path / "bad.scen").write_text("0 open16 16 16 0 0 1 1 2\n")
    (tmp_path / "empty.map").write_text(MAP_WITHOUT_PASSABLE_CELL)
    (tmp_path / "plan.txt").write_text("0 0 0\n")
    (tmp_path / "off_map.txt").write_text("0 0 99999 99999\n")
    for name, sidecar in [("not_json", "{"), ("no_index", '{"group_id": 0}'),
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
