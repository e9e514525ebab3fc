"""Benchmark harness: sweep instance grids, write one CSV row per run.

A suite is a list of ``TaskSpec``s, the run spec ``privmapf solve`` runs
too, so both load the map with ``load_world`` and place the pairs with
``TaskSpec.pairs``. ``suite(maps, agents, ...)`` builds the cross product
of maps, agent counts, group sizes, fov radii and seeds, maps outermost and
seeds innermost; ``load_config`` builds it from a YAML file whose keys are
``suite``'s parameters. ``suite`` checks every suite, YAML or Python, with
one set of messages: each axis must be a non-empty list, and building the
list checks every cell and loads every map, so a bad value fails before any
cell runs. Rows come out in the list's order. The CSV is an output only:
nothing in the package reads it back. The solver budget is a count of
expansions and no clock is read, so two runs of the same suite produce
byte-identical CSVs; the ``solve_time`` and ``ppfpp_time`` columns of
schema v1 are always 0.0. LaCAM plans every cell, so the ``solver``
column always reads ``lacam``. A solved cell with radius >= 1 is refined.
A cell whose placement, dispatch or solve fails with a ``PrivmapfError``
is an unsolved row, not the end of the sweep.
PPfPP refines the pipeline's own plan, so a failure there is a bug and
keeps its traceback, as does a solved plan that fails the pipeline's
audit gate (``pipeline.BroadcastAuditError``).
An omitted budget is ``PipelineSpec``'s, as ``privmapf solve``'s flag's is.
No suite chooses a spacing: every run places its pairs at the map's default
spacing, ``instances.default_separation``.

``run_suite(tasks, threads=n)`` (``privmapf bench --threads n``) fans the
runs out over a process pool, imported only when more than one worker
runs; the row order is unaffected.
"""

from __future__ import annotations

import csv
import inspect
import io
import os
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache
from itertools import product
from pathlib import Path

from .audit import metrics
from .grid import ConfigError, GridWorld, PrivmapfError, load_map, read_file
# default_separation is re-exported: the benchmark reads bench.default_separation
from .instances import default_separation, random_spaced_pairs
from .pipeline import PipelineSpec, run_pipeline
from .safezone import ppfpp

SCHEMA_VERSION = 1

_ASSET_MAPS = Path(__file__).parent / "assets" / "maps"


def resolve_map(name: str) -> Path:
    """An existing ``.map`` file is used as is; any other name must be the
    name (file stem) of a bundled map, as the bundled folder lists it, so a
    name such as ``../maps/open16`` is unknown."""
    p = Path(name)
    if p.suffix == ".map" and p.exists():
        return p
    if f"{name}.map" in os.listdir(_ASSET_MAPS):
        return _ASSET_MAPS / f"{name}.map"
    raise ConfigError(f"unknown map {name!r} (no such .map file and no bundled map of that name)")


@cache
def load_world(name: str) -> GridWorld:
    """The world of a map name (as ``resolve_map`` reads it), loaded once per process."""
    return load_map(resolve_map(name))


@dataclass(frozen=True)
class TaskSpec:
    """One run: ``privmapf solve``'s flags, or one cell and seed of a suite."""

    map_name: str
    n_agents: int
    seed: int
    spec: PipelineSpec

    def __post_init__(self) -> None:
        # checked here so a suite fails before any cell runs; the agent count
        # follows random_spaced_pairs' rule, and bool is no int
        if type(self.map_name) is not str:
            raise ConfigError("the map name must be a string")
        if type(self.n_agents) is not int or self.n_agents < 1:
            raise ConfigError("the agent count must be >= 1")
        if type(self.seed) is not int:
            raise ConfigError("the seed must be an int")
        if not isinstance(self.spec, PipelineSpec):
            raise ConfigError("the spec must be a PipelineSpec")

    def pairs(self) -> list[tuple[int, int]]:
        """The run's seeded (start, goal) pairs, at the map's default spacing."""
        return random_spaced_pairs(load_world(self.map_name), self.n_agents, self.seed)


def suite(maps: Sequence[str], agents: Sequence[int], k: Sequence[int] = (1,),
          radius: Sequence[int] = (0,), seeds: Sequence[int] = tuple(range(5)),
          budget_expansions: int = PipelineSpec.budget_expansions) -> list[TaskSpec]:
    """The runs of a suite, maps outermost and seeds innermost; k and radius
    list the swept values. Every cell is checked and every map loaded here."""
    for name, axis in {"maps": maps, "agents": agents, "k": k, "radius": radius,
                       "seeds": seeds}.items():
        if not isinstance(axis, (list, tuple)) or not axis:  # a str would sweep its letters
            raise ConfigError(f"{name} must be a non-empty list")
    tasks = [TaskSpec(m, n, seed, PipelineSpec(g, r, budget_expansions))
             for m, n, g, r, seed in product(maps, agents, k, radius, seeds)]
    for map_name in maps:
        load_world(map_name)  # a bad map fails before any cell runs
    return tasks


# the YAML keys are suite's parameters; those without a default are required
_CONFIG_KEYS = inspect.signature(suite).parameters


def load_config(path: str | Path) -> list[TaskSpec]:
    """The suite of a YAML file; absent keys keep suite's defaults, and
    ``suite`` checks the values as it checks a suite built in Python."""
    import yaml  # only a YAML suite needs PyYAML: suite() builds one without it

    def parse(text: str) -> list[TaskSpec]:
        try:
            obj = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)  # a syntax error has one
            # a control character's error has no problem, and a second line
            problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
            raise ConfigError(problem, mark and mark.line + 1) from None
        if not isinstance(obj, dict):
            raise ConfigError("config must be a mapping")
        unknown = set(obj) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
        for key, param in _CONFIG_KEYS.items():
            if param.default is param.empty and key not in obj:
                raise ConfigError(f"missing config key: {key}")
        if type(obj.get("seeds")) is int:
            if obj["seeds"] < 1:
                raise ConfigError("config key seeds must be a list or an int >= 1")
            obj["seeds"] = list(range(obj["seeds"]))  # an int means "this many, from zero"
        return suite(**obj)

    return read_file(path, parse, ConfigError)


@dataclass(frozen=True)
class RunRecord:
    map: str
    n_agents: int
    k: int
    radius: int
    solver: str
    seed: int
    solved: bool
    soc: int
    makespan: int
    rsoc_before: int
    rsoc_after: int
    improvement_pct: float
    # schema v1 keeps these columns; with no clock read they are always 0.0
    solve_time: float = 0.0
    ppfpp_time: float = 0.0

    def to_row(self) -> list[str]:
        return [encode(getattr(self, name)) for name, encode in _COLUMNS]


# the CSV cell of each RunRecord field type
_ENCODERS = {"str": str, "int": str, "bool": lambda b: "1" if b else "0", "float": "{:.6f}".format}
_COLUMNS = [(f.name, _ENCODERS[f.type]) for f in fields(RunRecord)]
CSV_HEADER = [name for name, _ in _COLUMNS]


def run_one(task: TaskSpec) -> RunRecord:
    world, spec = load_world(task.map_name), task.spec
    out = None
    try:
        out = run_pipeline(world, task.pairs(), spec, task.seed)
    except PrivmapfError:
        pass  # one bad cell is an unsolved row, not the end of the sweep
    solved = out is not None and out.solved

    soc = makespan = rsoc_before = rsoc_after = -1
    improvement = 0.0
    if solved:
        m = metrics(out.plan.paths, out.problem.goals)
        soc, makespan = m.soc, m.makespan
        if spec.radius >= 1:
            refined = ppfpp(
                world, out.plan, out.problem.group_of, out.real_paths,
                spec.radius, task.seed,
            )
            rsoc_before = refined.rsoc_before
            rsoc_after = refined.rsoc_after
            improvement = refined.improvement_pct

    return RunRecord(
        task.map_name, task.n_agents, spec.k, spec.radius, "lacam", task.seed,
        solved, soc, makespan, rsoc_before, rsoc_after, improvement,
    )


def run_suite(tasks: list[TaskSpec], threads: int = 1) -> list[RunRecord]:
    if type(threads) is not int or threads < 1:  # True would act as 1, 2.5 reach the pool
        raise ConfigError("threads must be >= 1")
    # a fork pool starts all its workers at the first submit, so no more than
    # tasks, and no more than CPUs: the work is CPU-bound Python
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, socket and logging
        # (about 1.9 MB RSS), which a one-process run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_one, tasks, chunksize=1))
    return [run_one(t) for t in tasks]


def records_to_csv(records: list[RunRecord]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.to_row())
    return buf.getvalue()


def write_records(records: list[RunRecord], path: str | Path) -> None:
    Path(path).write_text(records_to_csv(records), encoding="utf-8")


def format_summary(records: list[RunRecord]) -> str:
    """The table ``privmapf bench`` prints: per (map, k), in sorted order,
    the runs, the solved runs and the improvement statistics over the runs
    that were refined; a cell with none reads 0.00."""
    cells: dict[tuple[str, int], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.map, rec.k), []).append(rec)
    out = [
        f"{'map':<20} {'k':>2} {'runs':>5} {'solved':>6} "
        f"{'mean%':>8} {'std%':>8} {'max%':>8} {'med%':>8}"
    ]
    for (map_name, k), recs in sorted(cells.items()):
        vals = [r.improvement_pct for r in recs if r.rsoc_before >= 0] or [0.0]
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        out.append(
            f"{map_name:<20} {k:>2} {len(recs):>5} {sum(r.solved for r in recs):>6} "
            f"{statistics.mean(vals):>8.2f} {std:>8.2f} "
            f"{max(vals):>8.2f} {statistics.median(vals):>8.2f}"
        )
    return "\n".join(out)
