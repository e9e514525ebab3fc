"""Suite runner: config validation, row order, reproducibility, summaries."""

import concurrent.futures
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from privmapf import bench
from privmapf.bench import (
    CSV_HEADER,
    RunRecord,
    TaskSpec,
    format_summary,
    load_config,
    records_to_csv,
    resolve_map,
    run_one,
    run_suite,
    suite,
    write_records,
)
from privmapf.grid import ConfigError, PrivmapfError
from privmapf.instances import default_separation
from privmapf.pipeline import PipelineSpec
from privmapf.safezone import PreconditionError, ReplanInfeasibleError

from conftest import POCKET

# a corridor of 7 cells whose east end opens into one bay below it
CORRIDOR = "type octile\nheight 2\nwidth 7\nmap\n.......\n@@@@@@.\n"


def write_yaml(tmp_path, text):
    p = tmp_path / "suite.yaml"
    p.write_text(textwrap.dedent(text))
    return p


def make_record(**kw):
    base = dict(
        map="open16", n_agents=4, k=2, radius=1, solver="lacam", seed=0,
        solved=True, soc=40, makespan=15, rsoc_before=20, rsoc_after=18,
        improvement_pct=10.0, solve_time=0.0, ppfpp_time=0.0,
    )
    base.update(kw)
    return RunRecord(**base)


# ------------------------------------------------------------------ config


def test_load_config(tmp_path):
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2, 4]
        k: [1, 2]
        radius: [0, 1]
        seeds: 3
        budget_expansions: 500
    """)
    # seeds: 3 means "this many, from zero"
    assert load_config(p) == suite(("open16",), (2, 4), k=(1, 2), radius=(0, 1),
                                   seeds=(0, 1, 2), budget_expansions=500)


SCALE_GRID = Path(bench.__file__).parent / "assets" / "configs" / "scale_grid.yaml"


def test_the_bundled_scale_grid_loads_into_96_tasks():
    tasks = load_config(SCALE_GRID)
    assert len(tasks) == 96
    assert tasks == suite(("random-32-32-20", "room-32-32-4"), (16, 24, 32), k=(2, 3),
                          radius=(0, 1), seeds=(0, 1, 2, 3), budget_expansions=5000)
    # maps outermost
    assert [t.map_name for t in tasks] == ["random-32-32-20"] * 48 + ["room-32-32-4"] * 48


def test_a_scale_grid_cell_that_cannot_place_is_an_unsolved_row():
    # 32 pairs find no placement on random-32-32-20 at its default spacing:
    # the cell is a row with the -1 sentinels, not the end of the sweep
    task = next(t for t in load_config(SCALE_GRID)
                if t.map_name == "random-32-32-20" and t.n_agents == 32)
    assert (task.spec.k, task.spec.radius, task.seed) == (2, 0, 0)
    assert run_one(task) == RunRecord("random-32-32-20", 32, 2, 0, "lacam", 0,
                                      False, -1, -1, -1, -1, 0.0)


@pytest.mark.parametrize("snippet,message", [
    ("maps: [open16]\nagents: [2]\nfoo: 1", "unknown config keys"),
    ("maps: [open16]\nagents: [2]\npipeline: cbs", "pipeline"),
    ("maps: [open16]\nagents: [2]\nsolver: greedy", "solver"),
    # LaCAM is the only solver, so even its name is no key
    ("maps: [open16]\nagents: [2]\nsolver: lacam", "unknown config keys: .'solver'"),
    ("maps: [open16]\nagents: [2]\nk: [0]", "k must be >= 1"),
    ("agents: [2]", "missing config key"),
    # one spelling per key: the radius alone picks kPP (0) or fPP
    ("maps: [open16]\nagents: [2]\nks: [3]\nk: [2]", "unknown config keys: .'ks'"),
    ("maps: [open16]\nagents: [2]\npipeline: fpp", "unknown config keys: .'pipeline'"),
    # the expansion count is the only budget, and every solved cell at r >= 1 is refined
    ("maps: [open16]\nagents: [2]\nbudget_seconds: 1.0", "unknown config keys: .'budget_seconds'"),
    ("maps: [open16]\nagents: [2]\nrun_ppfpp: true", "unknown config keys: .'run_ppfpp'"),
    # every run is spaced by its map's default, so the spacing is no key
    ("maps: [open16]\nagents: [2]\nmin_separation: 3",
     r"^unknown config keys: \['min_separation'\]$"),
    # nothing read a suite's name, so it is no key
    ("name: desk\nmaps: [open16]\nagents: [2]", "unknown config keys: .'name'"),
    ("maps: [open16]\nagents: [2]\nbudget_expansions: null", "expansion budget must be"),
    ("maps: [open16]\nagents: [0, 2]", "the agent count must be >= 1"),
    ("maps: open16\nagents: [2]", "maps must be a non-empty list"),
    # suite and the specs check each value as in a suite built in Python;
    # bool is not an int
    ("maps: [open16]\nagents: [a]", "the agent count must be >= 1"),
    ("maps: [open16]\nagents: [true]", "the agent count must be >= 1"),
    ("maps: [open16]\nagents: [2]\nk: [2.5]", "k must be >= 1"),
    ("maps: [open16]\nagents: [2]\nradius: [x]", "fov radius must be >= 0"),
    ("maps: [open16]\nagents: [2]\nseeds: [0, x]", "the seed must be an int"),
    ("maps: [open16]\nagents: [2]\nseeds: true", "seeds must be a non-empty list"),
    ("maps: [16]\nagents: [2]", "the map name must be a string"),
    # right type, no sense: each would run with exit 0 and say nothing
    ("maps: [open16]\nagents: [2]\nseeds: -2", "seeds must be a list or an int >= 1"),
    ("maps: [open16]\nagents: [2]\nseeds: 0", "seeds must be a list or an int >= 1"),
    ("maps: []\nagents: [2]", "maps must be a non-empty list"),
    ("maps: [open16]\nagents: []", "agents must be a non-empty list"),
    ("maps: [open16]\nagents: [2]\nk: []", "k must be a non-empty list"),
    ("maps: [open16]\nagents: [2]\nradius: []", "radius must be a non-empty list"),
    ("maps: [open16]\nagents: [2]\nseeds: []", "seeds must be a non-empty list"),
    # key names of mixed type are listed by their text, not compared
    ("1: x\nfoo: y\nmaps: [open16]\nagents: [2]", r"^unknown config keys: \[1, 'foo'\]$"),
    ("- open16\n- 2", "^config must be a mapping$"),
    # the YAML twins of test_bad_suite_fails_before_any_cell_runs' rows fail alike
    ("maps: [open16]\nagents: 4", "^agents must be a non-empty list$"),
    ("maps: [open16]\nagents: [2]\nseeds: [true, 2.5]", "^the seed must be an int$"),
])
def test_config_rejections(tmp_path, snippet, message):
    # every error about the file's content names the file, and the message
    # follows the path
    p = write_yaml(tmp_path, snippet)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).startswith(f"{p}: ")
    assert re.search(message, str(info.value).removeprefix(f"{p}: "))


@pytest.mark.parametrize("content,message", [
    (b"maps: [open16\n", "line 2: expected ',' or ']'"),
    (b"maps: [open16]\nagents: [2]\n  k: [1]\n", "line 3: expected <block end>"),
    (b"\xff\xfe\x00maps", "'utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_config_names_the_file(tmp_path, content, message):
    p = tmp_path / "bad.yaml"
    p.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        load_config(p)
    assert str(info.value).startswith(f"{p}: ")
    assert message in str(info.value)


def test_resolve_map_bundled_and_file(tmp_path, monkeypatch):
    for name in ("open16", "random-32-32-20", "room-32-32-4"):
        bundled = resolve_map(name)
        assert bundled.name == f"{name}.map" and bundled.is_file()
    custom = tmp_path / "tiny.map"
    custom.write_text(POCKET)
    assert resolve_map(str(custom)) == custom
    # a bundled name is looked up as a name, never joined onto the bundled folder
    monkeypatch.chdir(tmp_path)
    for name in ("atlantis", "../maps/open16", "open16.map"):
        with pytest.raises(ConfigError, match=f"unknown map '{re.escape(name)}'"):
            resolve_map(name)


def test_default_separation(open16, random32):
    assert default_separation(open16) == 3
    assert default_separation(random32) == 5
    # the benchmark reads it through bench
    assert bench.default_separation is default_separation


def test_config_defaults_are_the_spec_defaults():
    tasks = suite(("open16",), (2,), k=(2,), radius=(1,))
    assert [t.seed for t in tasks] == [0, 1, 2, 3, 4]
    for t in tasks:
        assert t.spec == PipelineSpec(2, 1)


def test_suite_order_is_maps_outermost_seeds_innermost():
    maps, agents, ks, radii, seeds = ("open16", "random-32-32-20"), (2, 4), (1, 2), (0, 1), (0, 1)
    tasks = suite(maps, agents, k=ks, radius=radii, seeds=seeds)
    expected = [
        (m, n, k, r, s)
        for m in maps for n in agents for k in ks for r in radii for s in seeds
    ]
    assert [(t.map_name, t.n_agents, t.spec.k, t.spec.radius, t.seed) for t in tasks] == expected


@pytest.mark.parametrize("bad,message", [
    # neither bool nor float is an int: an agent count of True or 2.0 ran to
    # exit 0 with every row unsolved
    (dict(agents=(2, True)), "^the agent count must be >= 1$"),
    (dict(agents=(2, 2.0)), "^the agent count must be >= 1$"),
    (dict(radius=(0, 1.5)), "^fov radius must be >= 0$"),
    (dict(k=(2, 0)), "^k must be >= 1$"),
    # an axis is a non-empty list or tuple: a str would sweep its letters
    (dict(maps="open16"), "^maps must be a non-empty list$"),
    (dict(agents=4), "^agents must be a non-empty list$"),
    (dict(k=[]), "^k must be a non-empty list$"),
    (dict(maps=[5]), "^the map name must be a string$"),
    # seed True placed other pairs than seed 1, and 2.5 ran too
    (dict(seeds=[True, 2.5]), "^the seed must be an int$"),
])
def test_bad_suite_fails_before_any_cell_runs(monkeypatch, bad, message):
    calls = []
    monkeypatch.setattr(bench, "run_pipeline", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match=message):
        run_suite(suite(**{"maps": ("open16",), "agents": (2,), "seeds": (0,), **bad}))
    assert calls == []


@pytest.mark.parametrize("spec", [None, (2, 1, 300)])
def test_task_spec_needs_a_pipeline_spec(spec):
    # checked here, like the other fields, so no cell runs into spec.k
    with pytest.raises(ConfigError, match="^the spec must be a PipelineSpec$"):
        TaskSpec("open16", 2, 0, spec)


def test_a_suite_built_in_python_needs_no_yaml():
    # only load_config reads YAML, so an interpreter without PyYAML runs suites
    code = (
        "import sys; sys.modules['yaml'] = None\n"
        "from privmapf.bench import run_suite, suite\n"
        "(rec,) = run_suite(suite(['open16'], [2], k=[2], seeds=[0], budget_expansions=300))\n"
        "assert rec.solved\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_a_one_process_suite_imports_no_process_pool():
    # run_suite imports the pool only to fork workers, so the CLI and a
    # one-worker suite leave multiprocessing and its imports unloaded
    code = (
        "import sys\n"
        "import privmapf.cli\n"
        "from privmapf.bench import run_suite, suite\n"
        "(rec,) = run_suite(suite(['open16'], [2], k=[2], seeds=[0], budget_expansions=300))\n"
        "assert rec.solved\n"
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bench.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# -------------------------------------------------------------------- runs


def test_suite_csv_is_byte_reproducible():
    tasks = suite(
        maps=("open16",), agents=(2,), k=(2,), radius=(1,),
        seeds=(0, 1), budget_expansions=300,
    )
    records = run_suite(tasks)
    first = records_to_csv(records)
    again = records_to_csv(run_suite(tasks))
    threaded = records_to_csv(run_suite(tasks, threads=2))
    assert first == again == threaded
    lines = first.splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1:] == [",".join(row) for row in [CSV_HEADER, *(r.to_row() for r in records)]]


def test_suite_forks_no_more_workers_than_tasks(monkeypatch):
    # a fork pool starts max_workers processes at once: record them, start
    # none; nor more workers than CPUs
    pools = []
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    two = suite(maps=("open16",), agents=(2,), seeds=(0, 1), budget_expansions=50)
    assert len(run_suite(two, threads=64)) == 2
    assert pools == [2]
    one = suite(maps=("open16",), agents=(2,), seeds=(0,), budget_expansions=1500)
    assert len(run_suite(one, threads=64)) == 1
    assert run_suite([], threads=4) == []
    assert pools == [2]  # one task or none run in-process
    four = suite(maps=("open16",), agents=(2,), seeds=(0, 1, 2, 3), budget_expansions=50)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 3)
    assert len(run_suite(four, threads=64)) == 4
    monkeypatch.setattr(bench.os, "cpu_count", lambda: None)  # unknown: one process
    assert len(run_suite(four, threads=64)) == 4
    assert pools == [2, 3]
    # a fraction would reach the pool as max_workers, True would mean one
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
    for threads in (2.5, True):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            run_suite(four, threads=threads)
    assert pools == [2, 3]


def test_expansion_budgeted_rows_zero_the_clock():
    tasks = suite(
        maps=("open16",), agents=(2,), k=(1,), radius=(0, 1),
        seeds=(0,), budget_expansions=1500,
    )
    plain, refined = run_suite(tasks)
    for rec in (plain, refined):
        assert rec.solved
        assert rec.solve_time == 0.0 and rec.ppfpp_time == 0.0
    # a solved cell is refined exactly when its radius is >= 1
    assert plain.rsoc_before == -1 and plain.rsoc_after == -1
    assert refined.rsoc_before >= 0 and refined.rsoc_after >= 0


def test_unknown_map_fails_before_any_cell_runs(monkeypatch):
    # open16 comes first, yet none of its cells runs: every map is loaded
    # before the first cell
    calls = []
    monkeypatch.setattr(bench, "run_pipeline", lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="unknown map 'nosuch'"):
        run_suite(suite(maps=("open16", "nosuch"), agents=(1,), seeds=(0,)))
    assert calls == []


def test_unsolved_rows_keep_sentinels(tmp_path):
    # two agents at the default spacing 3 of a 7x2 corridor with one dead-end
    # bay: seed 2's pairs solve, seed 3's must pass each other and cannot
    custom = tmp_path / "corridor.map"
    custom.write_text(CORRIDOR)
    tasks = suite(
        maps=(str(custom),), agents=(2,), k=(1,), radius=(0,),
        seeds=(3, 2), budget_expansions=1500,
    )
    unsolved, solved = run_suite(tasks)
    assert not unsolved.solved
    assert unsolved.soc == -1 and unsolved.makespan == -1
    assert unsolved.rsoc_before == -1 and unsolved.rsoc_after == -1
    assert solved.solved and solved.soc == 3


def test_zero_expansion_budget_is_kept(tmp_path):
    # a configured budget of 0 must not fall back to the 10,000 default
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2]
        k: [2]
        radius: [1]
        seeds: 2
        budget_expansions: 0
    """)
    tasks = load_config(p)
    assert [t.spec.budget_expansions for t in tasks] == [0, 0]
    records = run_suite(tasks)
    assert len(records) == 2
    assert not any(rec.solved for rec in records)
    assert all(rec.soc == -1 and rec.rsoc_before == -1 for rec in records)


def test_infeasible_cell_becomes_an_unsolved_row(tmp_path):
    # radius 3 is not below open16's default separation of 3, so dispatch
    # rejects the real pairs; the cell is recorded and the sweep goes on
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2]
        k: [2]
        radius: [1, 3]
        seeds: 1
        budget_expansions: 300
    """)
    ok, bad = run_suite(load_config(p))
    assert ok.radius == 1 and ok.solved
    assert bad.radius == 3 and not bad.solved
    assert bad.soc == -1 and bad.makespan == -1
    assert bad.rsoc_before == -1 and bad.rsoc_after == -1


def test_unplaceable_cell_becomes_an_unsolved_row(tmp_path):
    # open16 holds 36 blocks of its default spacing 3, at most one start
    # each: placing 37 agents fails with a PlacementError before any draw,
    # which must not end the sweep
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2, 37]
        k: [2]
        radius: [1]
        seeds: 1
        budget_expansions: 300
    """)
    records = run_suite(load_config(p))
    ok, bad = records
    assert ok.n_agents == 2 and ok.solved
    assert bad.n_agents == 37 and not bad.solved
    assert bad.soc == -1 and bad.makespan == -1
    assert bad.rsoc_before == -1 and bad.rsoc_after == -1
    assert bad.improvement_pct == 0.0 and bad.solve_time == 0.0
    assert records_to_csv(records).splitlines()[1] == ",".join(CSV_HEADER)


class FreshError(PrivmapfError):
    """A failure type that no module of the package raises."""


def test_any_typed_pipeline_failure_is_an_unsolved_row(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise FreshError("no answer")

    monkeypatch.setattr(bench, "run_pipeline", fail)
    p = write_yaml(tmp_path, "maps: [open16]\nagents: [2]\nk: [2]\nseeds: 1\n")
    (rec,) = run_suite(load_config(p))
    assert not rec.solved
    assert rec.soc == -1 and rec.rsoc_before == -1


@pytest.mark.parametrize("error", [PreconditionError, ReplanInfeasibleError, FreshError])
def test_failed_refinement_is_not_a_row(tmp_path, monkeypatch, error):
    # PPfPP refines the pipeline's own plan: a failure there is a bug, so it
    # ends the sweep with its traceback instead of hiding in a row
    def refuse(*args, **kwargs):
        raise error("refused")

    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2]
        k: [2]
        radius: [1]
        seeds: 1
        budget_expansions: 300
    """)
    (refined,) = run_suite(load_config(p))
    assert refined.rsoc_before >= 0  # the cell does refine
    monkeypatch.setattr(bench, "ppfpp", refuse)
    with pytest.raises(error, match="refused"):
        run_suite(load_config(p))


# ---------------------------------------------------------------- analysis


def test_write_records_writes_the_header_and_each_to_row(tmp_path):
    records = [
        make_record(seed=0, improvement_pct=12.5),
        make_record(seed=1, solved=False, soc=-1, makespan=-1,
                    rsoc_before=-1, rsoc_after=-1, improvement_pct=0.0),
        make_record(seed=2, map="room-32-32-4", k=3, improvement_pct=0.25),
    ]
    out = tmp_path / "records.csv"
    write_records(records, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert [line.split(",") for line in lines[1:]] == [CSV_HEADER, *(r.to_row() for r in records)]


def test_v1_header_and_cell_codec():
    assert CSV_HEADER == [
        "map", "n_agents", "k", "radius", "solver", "seed", "solved", "soc",
        "makespan", "rsoc_before", "rsoc_after", "improvement_pct",
        "solve_time", "ppfpp_time",
    ]
    rec = make_record(solved=False, soc=-1, rsoc_before=-3, improvement_pct=2 / 3,
                      solve_time=1.5)
    assert rec.to_row() == ["open16", "4", "2", "1", "lacam", "0", "0", "-1", "15", "-3", "18",
                            "0.666667", "1.500000", "0.000000"]
    assert make_record().to_row()[6] == "1"  # solved


SUMMARY_HEADER = "map                   k  runs solved    mean%     std%     max%     med%"


def test_summarize_arithmetic():
    records = [
        make_record(seed=0, improvement_pct=0.0),
        make_record(seed=1, improvement_pct=1.0),
        make_record(seed=2, improvement_pct=2.0),
        make_record(seed=3, solved=False, soc=-1, makespan=-1,
                    rsoc_before=-1, rsoc_after=-1, improvement_pct=0.0),
    ]
    # 4 runs, 3 solved; the unrefined row is left out of the statistics,
    # which are those of [0, 1, 2]
    assert format_summary(records).splitlines() == [
        SUMMARY_HEADER,
        "open16                2     4      3     1.00     1.00     2.00     1.00",
    ]


def test_summarize_groups_by_map_and_k():
    unrefined = dict(rsoc_before=-1, rsoc_after=-1, improvement_pct=0.0)
    records = [
        make_record(map="b", k=2, improvement_pct=4.0),
        make_record(map="a", k=3, improvement_pct=2.0),
        make_record(map="a", k=2, improvement_pct=1.0),
        # a cell where no run was refined: one unsolved run, one at radius 0
        make_record(map="c", k=1, solved=False, soc=-1, makespan=-1, **unrefined),
        make_record(map="c", k=1, radius=0, seed=1, **unrefined),
    ]
    # rows in (map, k) order; one value has no spread
    assert format_summary(records).splitlines() == [
        SUMMARY_HEADER,
        "a                     2     1      1     1.00     0.00     1.00     1.00",
        "a                     3     1      1     2.00     0.00     2.00     2.00",
        "b                     2     1      1     4.00     0.00     4.00     4.00",
        "c                     1     2      1     0.00     0.00     0.00     0.00",
    ]

