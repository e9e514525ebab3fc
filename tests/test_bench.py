"""Suite runner: config validation, row order, reproducibility, summaries."""

import textwrap

import pytest

from privmapf import bench
from privmapf.bench import (
    CSV_HEADER,
    BenchConfig,
    ConfigError,
    RunRecord,
    format_summary,
    iter_tasks,
    load_config,
    read_records,
    records_to_csv,
    resolve_map,
    run_suite,
    summarize,
    write_records,
)
from privmapf.instances import default_separation
from privmapf.pipeline import PipelineSpec
from privmapf.safezone import PreconditionError, ReplanInfeasibleError

POCKET = "type octile\nheight 2\nwidth 3\nmap\n...\n@@.\n"


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
        min_separation: 4
    """)
    cfg = load_config(p)
    assert cfg.name == "suite"
    assert cfg.maps == ("open16",)
    assert cfg.agents == (2, 4)
    assert cfg.k == (1, 2)
    assert cfg.radius == (0, 1)
    assert cfg.seeds == (0, 1, 2)  # an int means "this many, from zero"
    assert cfg.solver == "lacam"
    assert cfg.budget_expansions == 500
    assert cfg.min_separation == 4


@pytest.mark.parametrize("snippet,message", [
    ("maps: [open16]\nagents: [2]\nfoo: 1", "unknown config keys"),
    ("maps: [open16]\nagents: [2]\npipeline: cbs", "pipeline"),
    ("maps: [open16]\nagents: [2]\nsolver: greedy", "solver"),
    ("maps: [open16]\nagents: [2]\nk: [0]", "group sizes"),
    ("agents: [2]", "missing config key"),
    # one spelling per key: the radius alone picks kPP (0) or fPP
    ("maps: [open16]\nagents: [2]\nks: [3]\nk: [2]", "unknown config keys: .'ks'"),
    ("maps: [open16]\nagents: [2]\npipeline: fpp", "unknown config keys: .'pipeline'"),
    # the expansion count is the only budget, and every solved cell at r >= 1 is refined
    ("maps: [open16]\nagents: [2]\nbudget_seconds: 1.0", "unknown config keys: .'budget_seconds'"),
    ("maps: [open16]\nagents: [2]\nrun_ppfpp: true", "unknown config keys: .'run_ppfpp'"),
    ("maps: [open16]\nagents: [2]\nbudget_expansions: null", "expansion budget must be"),
    ("maps: [open16]\nagents: [0, 2]", "agent counts must be >= 1"),
    ("maps: open16\nagents: [2]", "config key maps must be a list"),
    # each key holds what its field needs; bool is not an int
    ("maps: [open16]\nagents: [a]", "config key agents must list ints"),
    ("maps: [open16]\nagents: [true]", "config key agents must list ints"),
    ("maps: [open16]\nagents: [2]\nk: [2.5]", "config key k must list ints"),
    ("maps: [open16]\nagents: [2]\nradius: [x]", "config key radius must list ints"),
    ("maps: [open16]\nagents: [2]\nseeds: [0, x]", "config key seeds must list ints"),
    ("maps: [open16]\nagents: [2]\nseeds: true", "config key seeds must be a list"),
    ("maps: [16]\nagents: [2]", "config key maps must list strings"),
    ("maps: [open16]\nagents: [2]\nmin_separation: x", "min_separation must be an int or null"),
    ("maps: [open16]\nagents: [2]\nmin_separation: true", "min_separation must be an int or null"),
    # right type, no sense: each would run with exit 0 and say nothing
    ("maps: [open16]\nagents: [2]\nseeds: -2", "seeds must be a list or an int >= 1"),
    ("maps: [open16]\nagents: [2]\nseeds: 0", "seeds must be a list or an int >= 1"),
    ("maps: []\nagents: [2]", "config key maps must not be empty"),
    ("maps: [open16]\nagents: []", "config key agents must not be empty"),
    ("maps: [open16]\nagents: [2]\nk: []", "config key k must not be empty"),
    ("maps: [open16]\nagents: [2]\nradius: []", "config key radius must not be empty"),
    ("maps: [open16]\nagents: [2]\nseeds: []", "config key seeds must not be empty"),
    ("maps: [open16]\nagents: [2]\nmin_separation: -3", "min_separation must be >= 1"),
    ("maps: [open16]\nagents: [2]\nmin_separation: 0", "min_separation must be >= 1"),
])
def test_config_rejections(tmp_path, snippet, message):
    p = write_yaml(tmp_path, snippet)
    with pytest.raises(ConfigError, match=message):
        load_config(p)


def test_resolve_map_bundled_and_file(tmp_path):
    assert resolve_map("open16").name == "open16.map"
    custom = tmp_path / "tiny.map"
    custom.write_text(POCKET)
    assert resolve_map(str(custom)) == custom
    with pytest.raises(ConfigError, match="unknown map"):
        resolve_map("atlantis")


def test_default_separation(open16, random32):
    assert default_separation(open16) == 3
    assert default_separation(random32) == 5
    # the benchmark reads it through bench
    assert bench.default_separation is default_separation


def test_config_defaults_are_the_spec_defaults():
    cfg = BenchConfig(name="t", maps=("open16",), agents=(2,))
    assert cfg.spec(2, 1) == PipelineSpec(2, 1)
    assert cfg.min_separation is None  # random_spaced_pairs' map default


def test_iter_tasks_config_order():
    cfg = BenchConfig(
        name="t", maps=("open16", "random-32-32-20"), agents=(2, 4),
        k=(1, 2), radius=(0,), seeds=(0, 1),
    )
    tasks = iter_tasks(cfg)
    expected = [
        (m, n, k, s)
        for m in cfg.maps for n in cfg.agents for k in cfg.k for s in cfg.seeds
    ]
    assert [(t.map_name, t.n_agents, t.spec.k, t.seed) for t in tasks] == expected


# -------------------------------------------------------------------- runs


def test_suite_csv_is_byte_reproducible(tmp_path):
    cfg = BenchConfig(
        name="t", maps=("open16",), agents=(2,), k=(2,), radius=(1,),
        seeds=(0, 1), budget_expansions=300, min_separation=3,
    )
    first = records_to_csv(run_suite(cfg))
    again = records_to_csv(run_suite(cfg))
    threaded = records_to_csv(run_suite(cfg, threads=2))
    assert first == again == threaded
    assert first.splitlines()[0] == "# schema_version=1"
    out = tmp_path / "r.csv"
    out.write_text(first)
    assert records_to_csv(read_records(out)) == first


def test_suite_forks_no_more_workers_than_tasks(monkeypatch):
    # a fork pool starts max_workers processes at once: record them, start none
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
    cfg = BenchConfig(name="t", maps=("open16",), agents=(2,), seeds=(0, 1),
                      budget_expansions=50)
    assert len(run_suite(cfg, threads=64)) == 2
    assert pools == [2]
    one = BenchConfig(name="t", maps=("open16",), agents=(2,), seeds=(0,),
                      budget_expansions=1500)
    assert len(run_suite(one, threads=64)) == 1
    assert run_suite(BenchConfig(name="t", maps=(), agents=(2,)), threads=4) == []
    assert pools == [2]  # one task or none run in-process


def test_expansion_budgeted_rows_zero_the_clock():
    cfg = BenchConfig(
        name="t", maps=("open16",), agents=(2,), k=(1,), radius=(0, 1),
        seeds=(0,), budget_expansions=1500, min_separation=3,
    )
    plain, refined = run_suite(cfg)
    for rec in (plain, refined):
        assert rec.solved
        assert rec.solve_time == 0.0 and rec.ppfpp_time == 0.0
    # a solved cell is refined exactly when its radius is >= 1
    assert plain.rsoc_before == -1 and plain.rsoc_after == -1
    assert refined.rsoc_before >= 0 and refined.rsoc_after >= 0


def test_unsolved_rows_keep_sentinels(tmp_path):
    custom = tmp_path / "pocket.map"
    custom.write_text(POCKET)
    cfg = BenchConfig(
        name="t", maps=(str(custom),), agents=(2,), k=(1,), radius=(0,),
        seeds=(0, 1), solver="pibt", min_separation=1,
    )
    unsolved, solved = run_suite(cfg)
    assert not unsolved.solved
    assert unsolved.soc == -1 and unsolved.makespan == -1
    assert unsolved.rsoc_before == -1
    assert solved.solved and solved.soc >= 0


def test_zero_expansion_budget_is_kept(tmp_path):
    # a configured budget of 0 must not fall back to the 10,000 default
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2]
        k: [2]
        radius: [1]
        seeds: 2
        budget_expansions: 0
        min_separation: 3
    """)
    cfg = load_config(p)
    assert cfg.budget_expansions == 0
    records = run_suite(cfg)
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
    # at most 9 starts fit on open16 six cells apart: the draw for 10 agents
    # gives up with a PlacementError, which must not end the sweep
    p = write_yaml(tmp_path, """\
        maps: [open16]
        agents: [2, 10]
        k: [2]
        radius: [1]
        seeds: 1
        budget_expansions: 300
        min_separation: 6
    """)
    records = run_suite(load_config(p))
    ok, bad = records
    assert ok.n_agents == 2 and ok.solved
    assert bad.n_agents == 10 and not bad.solved
    assert bad.soc == -1 and bad.makespan == -1
    assert bad.rsoc_before == -1 and bad.rsoc_after == -1
    assert bad.improvement_pct == 0.0 and bad.solve_time == 0.0
    assert records_to_csv(records).splitlines()[1] == ",".join(CSV_HEADER)


@pytest.mark.parametrize("error", [PreconditionError, ReplanInfeasibleError])
def test_failed_refinement_is_recorded_as_none(tmp_path, monkeypatch, error):
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
    (rec,) = run_suite(load_config(p))
    assert rec.solved and rec.soc >= 0
    assert rec.rsoc_before == -1 and rec.rsoc_after == -1
    assert rec.improvement_pct == 0.0


# ---------------------------------------------------------------- analysis


def test_csv_round_trip(tmp_path):
    records = [
        make_record(seed=0, improvement_pct=12.5),
        make_record(seed=1, solved=False, soc=-1, makespan=-1,
                    rsoc_before=-1, rsoc_after=-1, improvement_pct=0.0),
        make_record(seed=2, map="room-32-32-4", k=3, improvement_pct=0.25),
    ]
    out = tmp_path / "records.csv"
    write_records(records, out)
    assert read_records(out) == records
    lines = out.read_text().splitlines()
    assert lines[1].split(",") == CSV_HEADER


def test_v1_header_and_cell_codec():
    assert CSV_HEADER == [
        "map", "n_agents", "k", "radius", "solver", "seed", "solved", "soc",
        "makespan", "rsoc_before", "rsoc_after", "improvement_pct",
        "solve_time", "ppfpp_time",
    ]
    rec = make_record(solved=False, soc=-1, rsoc_before=-3, improvement_pct=2 / 3,
                      solve_time=1.5)
    row = rec.to_row()
    assert row == ["open16", "4", "2", "1", "lacam", "0", "0", "-1", "15", "-3", "18",
                   "0.666667", "1.500000", "0.000000"]
    back = RunRecord.from_row(row)
    assert back == make_record(solved=False, soc=-1, rsoc_before=-3,
                               improvement_pct=0.666667, solve_time=1.5)
    assert back.solved is False and RunRecord.from_row(make_record().to_row()).solved is True


def test_read_records_rejects_foreign_header(tmp_path):
    out = tmp_path / "bad.csv"
    out.write_text("# schema_version=1\na,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_records(out)


def test_summarize_arithmetic():
    records = [
        make_record(seed=0, improvement_pct=0.0),
        make_record(seed=1, improvement_pct=1.0),
        make_record(seed=2, improvement_pct=2.0),
        make_record(seed=3, solved=False, soc=-1, makespan=-1,
                    rsoc_before=-1, rsoc_after=-1, improvement_pct=0.0),
    ]
    (row,) = summarize(records)
    assert (row.map, row.k) == ("open16", 2)
    assert row.runs == 4
    assert row.solved == 3
    # unrefined rows are excluded from the improvement statistics
    assert row.mean_improvement == pytest.approx(1.0)
    assert row.std_improvement == pytest.approx(1.0)
    assert row.max_improvement == pytest.approx(2.0)
    assert row.median_improvement == pytest.approx(1.0)


def test_summarize_groups_by_map_and_k():
    records = [
        make_record(map="b", k=2, improvement_pct=4.0),
        make_record(map="a", k=3, improvement_pct=2.0),
        make_record(map="a", k=2, improvement_pct=1.0),
    ]
    rows = summarize(records)
    assert [(r.map, r.k) for r in rows] == [("a", 2), ("a", 3), ("b", 2)]
    table = format_summary(rows)
    assert table.splitlines()[0].split() == [
        "map", "k", "runs", "solved", "mean%", "std%", "max%", "med%"
    ]
    assert len(table.splitlines()) == 4

