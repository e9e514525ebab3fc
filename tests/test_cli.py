"""End-to-end runs of the console entry point (in-process via main(), or as a child process)."""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from privmapf import bench, cli
from privmapf.cli import main
from privmapf.dispatch import InfeasibleInputError
from privmapf.grid import PrivmapfError
from privmapf.pipeline import PipelineSpec

from conftest import ASSETS, bound_step_draws


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("privmapf ")


def test_the_package_root_imports_no_submodule():
    # the root holds only __version__: each name is imported from its module,
    # and no root name shadows a submodule such as privmapf.audit
    code = (
        "import sys\n"
        "import privmapf\n"
        "loaded = [m for m in sys.modules if m.startswith('privmapf.')]\n"
        "assert not loaded, loaded\n"
        "import privmapf.audit as m\n"
        "assert m.__name__ == 'privmapf.audit', m\n"
        "assert callable(m.metrics)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
        "--private-dir", str(priv),
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


@pytest.mark.parametrize("stray", [
    lambda mock: json.dumps({"group_id": 0, "real_index": mock}),
    lambda mock: "{",
], ids=["group 0's mock index", "not JSON"])
def test_a_sidecar_of_no_published_group_is_never_read(tmp_path, capsys, stray):
    trace_file, refined_file, priv = tmp_path / "trace.json", tmp_path / "refined.txt", tmp_path / "p"
    assert main(["solve", "--map", "open16", "--agents", "2", "--k", "2", "--radius", "1",
                 "--out", str(trace_file), "--private-dir", str(priv)]) == 0
    refine = ["ppfpp", "--map", "open16", "--trace", str(trace_file),
              "--private-dir", str(priv), "--out", str(refined_file)]
    capsys.readouterr()
    assert main(refine) == 0
    alone = capsys.readouterr(), refined_file.read_text()
    mock = 1 - json.loads((priv / "agent_000.json").read_text())["real_index"]
    (priv / "agent_005.json").write_text(stray(mock))
    assert main(refine) == 0
    assert (capsys.readouterr(), refined_file.read_text()) == alone


def run_with_stdout_closed(argv, cwd):
    """Run the console entry point in a child whose stdout pipe has no reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        return subprocess.run([sys.executable, "-m", "privmapf.cli", *argv], cwd=cwd, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_every_file_and_the_exit_status(tmp_path, monkeypatch, capsys):
    # `privmapf ppfpp ... | head -0`: the reader is gone before the first line
    runs = [
        (["solve", "--map", "open16", "--agents", "4", "--k", "3", "--radius", "1", "--seed", "4",
          "--out", "trace.json", "--private-dir", "private"], 0),
        (["audit", "--map", "open16", "--trace", "trace.json"], 0),
        (["ppfpp", "--map", "open16", "--trace", "trace.json", "--private-dir", "private",
          "--out", "refined.txt", "--zones", "zones.json"], 0),
        (["solve", "--map", "open16", "--agents", "2", "--k", "1", "--budget-expansions", "0",
          "--out", "unsolved.json"], 1),
    ]
    closed, piped = tmp_path / "closed", tmp_path / "piped"
    closed.mkdir(), piped.mkdir()
    monkeypatch.chdir(piped)
    for argv, status in runs:
        child = run_with_stdout_closed(argv, closed)
        assert (child.returncode, child.stderr) == (status, ""), argv
        assert main(argv) == status, argv
    capsys.readouterr()
    written = sorted(p.relative_to(piped) for p in piped.rglob("*") if p.is_file())
    assert len(written) == 8  # two traces, four sidecars, the refined plan and the zones
    assert sorted(p.relative_to(closed) for p in closed.rglob("*") if p.is_file()) == written
    for name in written:
        assert (closed / name).read_bytes() == (piped / name).read_bytes(), name


def test_every_file_is_read_and_written_as_utf8_whatever_the_locale(tmp_path):
    # -X warn_default_encoding flags each text read or write that leaves the
    # encoding to the locale, and -W error makes the flag a traceback: the
    # map, the scenario, the trace, the sidecars, the refined plan, the
    # zones, the YAML suite and the CSV all name UTF-8
    (tmp_path / "one.yaml").write_text("maps: [open16]\nagents: [1]\nseeds: 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in (["solve", "--map", "open16", "--agents", "4", "--k", "2", "--radius", "1",
                  "--scen", str(ASSETS / "scens" / "open16.scen"),
                  "--out", "trace.json", "--private-dir", "private"],
                 ["audit", "--map", "open16", "--trace", "trace.json"],
                 ["ppfpp", "--map", "open16", "--trace", "trace.json", "--private-dir", "private",
                  "--out", "refined.txt", "--zones", "zones.json"],
                 ["bench", "--config", "one.yaml", "--out", "bench.csv"]):
        child = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "privmapf.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, ""), argv


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
    trace_file = tmp_path / "trace.json"
    rc = main([
        "solve", "--map", "open16", "--agents", "2", "--k", "1",
        "--budget-expansions", "0", "--seed", "0", "--out", str(trace_file),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "unsolved: timeout" in out
    # the groups went out before the solver gave up; the trace records that
    obj = json.loads(trace_file.read_text())
    assert len(obj["groups"]) == 2
    assert obj["plan"] is None


def test_a_long_push_chain_plans_and_the_expansion_budget_ends_the_run(tmp_path, monkeypatch,
                                                                      capsys):
    # 1299 sub-agents on a 1x1300 open row: a step pushes them along in one
    # chain, far deeper than the interpreter's recursion limit; the step
    # builder walks it on its own stack, so every step plans, and the run
    # ends when its 3 expansions are spent
    line = tmp_path / "line1300.map"
    line.write_text("type octile\nheight 1\nwidth 1300\nmap\n" + "." * 1300 + "\n")
    steps = bound_step_draws(monkeypatch, 0)
    rc = main(["solve", "--map", str(line), "--agents", "1", "--k", "1299",
               "--budget-expansions", "3"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (1, "unsolved: timeout\n", "")
    assert len(steps) == 3 and all(ok for _, ok in steps)


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
    spec = PipelineSpec(args.k)
    assert (args.radius, args.budget_expansions) == (spec.radius, spec.budget_expansions)


def test_the_removed_separation_flag_is_refused(capsys):
    # random pairs are always spaced by the map's default: an old invocation
    # fails instead of running at some other spacing
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", "open16", "--separation", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --separation 3" in captured.err


@pytest.mark.parametrize("flag", [["--budget", "0"], ["--rad", "1"]])
def test_flags_are_never_abbreviated(capsys, flag):
    # a prefix of --budget-expansions or --radius is not taken for the flag
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--map", "open16", "--agents", "2", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_solve_places_the_pairs_bench_places(monkeypatch, random32):
    # on a map wider than 16 the default separation is 5, not the old fixed 3
    placed = []

    def stop_after_placement(world, pairs, spec, seed):
        placed.append(pairs)
        raise InfeasibleInputError("placement seen")

    monkeypatch.setattr(cli, "run_pipeline", stop_after_placement)
    monkeypatch.setattr(bench, "run_pipeline", stop_after_placement)
    assert main(["solve", "--map", "random-32-32-20", "--agents", "6", "--seed", "3"]) == 2
    task = bench.TaskSpec("random-32-32-20", 6, 3, PipelineSpec(2))
    assert not bench.run_one(task).solved
    from_solve, from_bench = placed
    assert from_solve == from_bench
    for (s1, g1), (s2, g2) in combinations(from_solve, 2):
        assert random32.chebyshev(s1, s2) >= 5 and random32.chebyshev(g1, g2) >= 5


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "suite.yaml"
    cfg.write_text(
        "maps: [open16]\nagents: [2]\nk: [2]\nradius: [1]\nseeds: 2\n"
        "budget_expansions: 300\n"
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
        "k": k, "fov_radius": radius, "plan": plan,
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
    # JSON true and 0.0 compare equal to the ids 1 and 0, but are not ints
    "group id true": (_set("groups", 1, "group_id", True),
                      'group 1: expected {"group_id": 1, "pairs": [...]}'),
    "group id 0.0": (_set("groups", 0, "group_id", 0.0),
                     'group 0: expected {"group_id": 0, "pairs": [...]}'),
    "pair off the map": (_set("groups", 0, "pairs", 0, [4, 0, 0, 0]),
                         "group 0: (4,0) outside 4x3 map"),
    "pair not four ints": (_set("groups", 0, "pairs", 0, [0, 0, 0]),
                           "group 0: pair [0, 0, 0] is not [sx, sy, gx, gy]"),
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
    # WALLED has the 11 vertex ids 0..10
    "vertex id past the map": (_set("plan", 0, [0, 11, 0]),
                               "plan row 0 is not a list of vertex ids"),
    "negative vertex id": (_set("plan", 1, [3, -1, 3]), "plan row 1 is not a list of vertex ids"),
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
    # the malformed cases above each break one thing in this trace; older
    # traces also carry a planner_group key, which is read and ignored
    (tmp_path / "walled.map").write_text(WALLED)
    for trace in (walled_trace(), {**walled_trace(), "planner_group": 0}):
        (tmp_path / "trace.json").write_text(json.dumps(trace))
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
DEEP = "[" * 10_000 + "]" * 10_000  # JSON and YAML nested 10 000 deep
LONG_INT = "1" * 5_000  # past the 4300 digits an int may be read with


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
    # a plan vertex off the map is a malformed trace, so the error names the file
    ("TraceError", ["audit", "--map", "open16", "--trace", "{tmp}/off_map.json"],
     "off_map.json: plan row 0"),
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
     "not_json/agent_000.json: not JSON (Expecting property name"),
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
    # open16 holds 36 blocks of its default spacing 3, at most one start each
    ("PlacementError", ["solve", "--map", "open16", "--agents", "37"],
     "could not place 37 spaced pairs on 16x16 map"),
    ("ConfigError", ["solve", "--map", "open16", "--agents", "0"],
     "the agent count must be >= 1"),
    ("ScenarioError",
     ["solve", "--map", "open16", "--agents", "13",
      "--scen", str(ASSETS / "scens" / "open16.scen")],
     "open16.scen: scenario has only 12 entries, 13 agents requested"),
    # every run is spaced by its map's default, so a suite that sets the
    # spacing fails instead of running at another one
    ("ConfigError", ["bench", "--config", "{tmp}/minsep.yaml"],
     "minsep.yaml: unknown config keys: ['min_separation']"),
    # ppfpp reads the trace as audit does
    ("TraceError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/off_map.json",
                    "--private-dir", "{tmp}/in_range"],
     "off_map.json: plan row 0"),
    # JSON true is not the index 1
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/bool_index"],
     'bool_index/agent_000.json: expected {"group_id": <int>, "real_index": <int>}'),
    # a file that is not YAML or not text names itself, with the line where there is one
    ("ConfigError", ["bench", "--config", "{tmp}/bad.yaml"],
     "bad.yaml: line 2: expected ',' or ']', but got '<stream end>'"),
    ("ConfigError", ["bench", "--config", "{tmp}/binary.yaml"],
     "binary.yaml: 'utf-8' codec can't decode byte 0xff"),
    ("ParseError", ["audit", "--map", "{tmp}/binary.map", "--trace", "{tmp}/trace.json"],
     "binary.map: 'utf-8' codec can't decode byte 0xff"),
    ("ParseError", ["solve", "--map", "open16", "--scen", "{tmp}/binary.scen"],
     "binary.scen: 'utf-8' codec can't decode byte 0xff"),
    ("ConfigError", ["solve", "--map", "open16", "--k", "0"], "k must be >= 1"),
    ("ConfigError", ["solve", "--map", "open16", "--budget-expansions", "-1"],
     "the expansion budget must be an int >= 0"),
    ("ConfigError", ["bench", "--config", "{tmp}/one.yaml", "--threads", "0"],
     "threads must be >= 1"),
    ("ConfigError", ["bench", "--config", "{tmp}/one.yaml", "--threads", "-3"],
     "threads must be >= 1"),
    # a sidecar is read by its file's group, so one naming another group is wrong
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/other_group"],
     "other_group/agent_000.json: holds group 1, not group 0"),
    # a map name is a bundled map's name, never a path into or out of their folder
    ("ConfigError", ["solve", "--map", "../maps/open16"], "unknown map '../maps/open16'"),
    # a file nested deeper than its parser recurses names itself; where the
    # JSON decoder reads that deep, the trace's or sidecar's schema check does
    ("TraceError", ["audit", "--map", "open16", "--trace", "{tmp}/deep.json"], "/deep.json: "),
    ("TraceError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/deep.json",
                    "--private-dir", "{tmp}/in_range"], "/deep.json: "),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/deep"], "/deep/agent_000.json: "),
    ("ConfigError", ["bench", "--config", "{tmp}/deep.yaml"], "/deep.yaml: "),
    # YAML refuses a control character in a two-line message; its first line is kept
    ("ConfigError", ["bench", "--config", "{tmp}/nul.yaml"],
     "nul.yaml: unacceptable character #x0000: special characters are not allowed"),
    # a value the parser cannot build (an int of over 4300 digits, month 13) names its file
    ("TraceError", ["audit", "--map", "open16", "--trace", "{tmp}/long_int.json"],
     "/long_int.json: "),
    ("TraceError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/long_int.json",
                    "--private-dir", "{tmp}/in_range"], "/long_int.json: "),
    ("SidecarError", ["ppfpp", "--map", "open16", "--trace", "{tmp}/trace.json",
                      "--private-dir", "{tmp}/long_int"], "/long_int/agent_000.json: "),
    ("ConfigError", ["bench", "--config", "{tmp}/long_int.yaml"], "/long_int.yaml: "),
    ("ConfigError", ["bench", "--config", "{tmp}/month13.yaml"],
     "month13.yaml: month must be in 1..12"),
    # a scenario entry that cannot be placed on the map names its file and line
    ("ScenarioError", ["solve", "--map", "open16", "--agents", "2", "--scen", "{tmp}/off_map.scen"],
     "off_map.scen: line 3: entry 1: (99,1) outside 16x16 map"),
    ("ScenarioError", ["solve", "--map", "random-32-32-20", "--agents", "1",
                       "--scen", "{tmp}/blocked.scen"],
     "blocked.scen: line 2: entry 0: (1,0) is blocked"),
    ("ScenarioError",
     ["solve", "--map", "open16", "--agents", "2",
      "--scen", str(ASSETS / "scens" / "random-32-32-20.scen")],
     "random-32-32-20.scen: line 2: entry 0: scenario is for a 32x32 map, world is 16x16"),
    # LaCAM is the only solver, so a suite that names one fails too
    ("ConfigError", ["bench", "--config", "{tmp}/solver.yaml"],
     "solver.yaml: unknown config keys: ['solver']"),
    # unknown keys of mixed type are sorted by their text: 1 < 'foo' would raise
    ("ConfigError", ["bench", "--config", "{tmp}/mixed.yaml"],
     "mixed.yaml: unknown config keys: [1, 'foo']"),
    ("ConfigError", ["bench", "--config", "{tmp}/nomap.yaml"], "nomap.yaml: unknown map 'nosuch'"),
    ("ParseError", ["solve", "--map", "{tmp}/badheight.map"],
     "badheight.map: line 2: bad height header"),
])
def test_input_errors_are_one_error_line(tmp_path, capsys, error, argv, where):
    (tmp_path / "bad.map").write_text(MAP_WITH_BAD_TERRAIN)
    (tmp_path / "bad.scen").write_text("0 open16 16 16 0 0 1 1 2\n")
    (tmp_path / "off_map.scen").write_text(
        "version 1\n0 open16.map 16 16 0 0 1 1 2\n1 open16.map 16 16 99 1 5 5 8\n")
    (tmp_path / "blocked.scen").write_text("version 1\n0 random-32-32-20.map 32 32 0 0 1 0 1\n")
    (tmp_path / "empty.map").write_text(MAP_WITHOUT_PASSABLE_CELL)
    (tmp_path / "bad.yaml").write_text("maps: [open16\n")
    (tmp_path / "one.yaml").write_text("maps: [open16]\nagents: [1]\nseeds: 1\n")
    (tmp_path / "minsep.yaml").write_text(
        "maps: [open16]\nagents: [1]\nseeds: 1\nmin_separation: 3\n")
    (tmp_path / "solver.yaml").write_text("maps: [open16]\nagents: [1]\nseeds: 1\nsolver: lacam\n")
    (tmp_path / "mixed.yaml").write_text("1: x\nfoo: y\nmaps: [open16]\nagents: [2]\n")
    (tmp_path / "nomap.yaml").write_text("maps: [nosuch]\nagents: [1]\nseeds: 1\n")
    (tmp_path / "badheight.map").write_text("type octile\nheight x\nwidth 2\nmap\n..\n")
    for name in ("binary.yaml", "binary.map", "binary.scen"):
        (tmp_path / name).write_bytes(b"\xff\xfe\x00version 1\n")
    (tmp_path / "deep.json").write_text(DEEP)
    (tmp_path / "deep.yaml").write_text(f"maps: {DEEP}\nagents: [1]\n")
    (tmp_path / "nul.yaml").write_text("maps: [open16]\x00\nagents: [1]\n")
    (tmp_path / "long_int.yaml").write_text(f"maps: [open16]\nagents: [1]\nseeds: {LONG_INT}\n")
    (tmp_path / "month13.yaml").write_text("maps: [open16]\nagents: [1]\nseeds: 2001-13-01\n")
    # one k=1 group resting at (0,0), vertex 0
    trace = json.dumps(trace_obj(1, 1, [[[0, 0, 0, 0]]], [[0]]))
    (tmp_path / "trace.json").write_text(trace)
    (tmp_path / "long_int.json").write_text(trace.replace('"k": 1,', f'"k": {LONG_INT},'))
    (tmp_path / "kpp.json").write_text(json.dumps(trace_obj(1, 0, [[[0, 0, 0, 0]]], [[0]])))
    (tmp_path / "off_map.json").write_text(
        json.dumps(trace_obj(1, 0, [[[0, 0, 0, 0]]], [[0, 99999, 0]])))
    for name, sidecar in [("not_json", "{"), ("no_index", '{"group_id": 0}'),
                          ("bool_index", '{"group_id": 0, "real_index": true}'),
                          ("off_range", '{"group_id": 0, "real_index": 1}'),
                          ("other_group", '{"group_id": 1, "real_index": 0}'),
                          ("in_range", '{"group_id": 0, "real_index": 0}'),
                          ("deep", DEEP),
                          ("long_int", f'{{"group_id": 0, "real_index": {LONG_INT}}}')]:
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


def test_any_typed_failure_is_one_error_line(monkeypatch, capsys):
    class FreshError(PrivmapfError):
        """A failure type that no module of the package raises."""

    def fail(args):
        raise FreshError("no answer")

    monkeypatch.setattr(cli, "_cmd_audit", fail)
    assert main(["audit", "--map", "open16", "--trace", "t.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: no answer"]


def test_a_bug_keeps_its_traceback(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "_cmd_audit", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["audit", "--map", "open16", "--trace", "t.json"])
