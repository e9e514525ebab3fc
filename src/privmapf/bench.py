"""Benchmark harness: sweep instance grids, collect one CSV row per run.

A suite is a YAML config describing the cross product of maps, agent
counts, group sizes, fov radii and seeds. Rows come out in exactly the
config order (maps outermost, seeds innermost). The solver budget is a
count of expansions and no clock is read, so two runs of the same config
produce byte-identical CSVs; the ``solve_time`` and ``ppfpp_time`` columns
of schema v1 are always 0.0. A solved cell with radius >= 1 is refined.
Keys a config omits take the defaults of ``PipelineSpec`` (solver, budget)
and of ``random_spaced_pairs`` (separation), as ``privmapf solve`` does.

``run_suite(cfg, threads=n)`` (``privmapf bench --threads n``) fans
instances out over a process pool; the row order is unaffected.
"""

from __future__ import annotations

import csv
import io
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .dispatch import DispatchExhaustedError, InfeasibleInputError
from .grid import GridWorld, load_map
# default_separation is re-exported: the benchmark reads bench.default_separation
from .instances import PlacementError, default_separation, random_spaced_pairs
from .pipeline import PipelineSpec, run_pipeline
from .safezone import PreconditionError, ReplanInfeasibleError, ppfpp

SCHEMA_VERSION = 1

_ASSET_MAPS = Path(__file__).parent / "assets" / "maps"


class ConfigError(Exception):
    pass


def resolve_map(name: str) -> Path:
    """A bare name means a bundled map; anything path-like is used as is."""
    p = Path(name)
    if p.suffix == ".map" and p.exists():
        return p
    bundled = _ASSET_MAPS / f"{name}.map"
    if bundled.exists():
        return bundled
    raise ConfigError(f"unknown map {name!r} (no file and no bundled asset)")


@dataclass(frozen=True)
class BenchConfig:
    """A suite: its YAML keys are these fields; k and radius list the swept values."""

    name: str
    maps: tuple[str, ...]
    agents: tuple[int, ...]
    k: tuple[int, ...] = (1,)
    radius: tuple[int, ...] = (0,)
    seeds: tuple[int, ...] = tuple(range(5))
    solver: str = PipelineSpec.solver
    budget_expansions: int = PipelineSpec.budget_expansions
    min_separation: int | None = None

    def __post_init__(self) -> None:
        if not all(n >= 1 for n in self.agents):
            raise ConfigError("agent counts must be >= 1")
        if not all(k >= 1 for k in self.k):
            raise ConfigError("group sizes must be >= 1")
        if self.min_separation is not None and self.min_separation < 1:
            raise ConfigError("min_separation must be >= 1")
        for k in self.k:
            for r in self.radius:
                self.spec(k, r)

    def spec(self, k: int, radius: int) -> PipelineSpec:
        """The pipeline spec of the cells with group size k and this radius."""
        try:
            return PipelineSpec(k, radius, self.solver, self.budget_expansions)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_CONFIG_KEYS = {f.name for f in fields(BenchConfig)}
# what each key holds, matched by exact type: bool is an int subclass
_LIST_KEYS = {"maps": (str, "strings"), "agents": (int, "ints"), "k": (int, "ints"),
              "radius": (int, "ints"), "seeds": (int, "ints")}
_SCALAR_KEYS = {"min_separation": ((int, type(None)), "an int or null")}


def load_config(path: str | Path) -> BenchConfig:
    """The suite of a YAML file; absent keys keep BenchConfig's defaults."""
    obj = yaml.safe_load(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("maps", "agents"):
        if key not in obj:
            raise ConfigError(f"missing config key: {key}")
    obj.setdefault("name", Path(path).stem)
    if type(obj.get("seeds")) is int:
        if obj["seeds"] < 1:
            raise ConfigError("config key seeds must be a list or an int >= 1")
        obj["seeds"] = list(range(obj["seeds"]))  # an int means "this many, from zero"
    for key, (kind, what) in _LIST_KEYS.items():
        if key in obj:
            if not isinstance(obj[key], list):
                raise ConfigError(f"config key {key} must be a list")
            if not obj[key]:  # a suite of zero runs
                raise ConfigError(f"config key {key} must not be empty")
            if not all(type(x) is kind for x in obj[key]):
                raise ConfigError(f"config key {key} must list {what}")
            obj[key] = tuple(obj[key])
    for key, (kinds, what) in _SCALAR_KEYS.items():
        if key in obj and type(obj[key]) not in kinds:
            raise ConfigError(f"config key {key} must be {what}")
    return BenchConfig(**obj)


@dataclass(frozen=True)
class TaskSpec:
    map_name: str
    map_path: str
    n_agents: int
    seed: int
    spec: PipelineSpec
    min_separation: int | None


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
        return [encode(getattr(self, name)) for name, encode, _ in _COLUMNS]

    @staticmethod
    def from_row(row: list[str]) -> "RunRecord":
        return RunRecord(*(decode(cell) for (_, _, decode), cell in zip(_COLUMNS, row)))


# the CSV codec of each RunRecord field type: (encode, decode)
_CODECS = {
    "str": (str, str),
    "int": (str, int),
    "bool": (lambda b: "1" if b else "0", "1".__eq__),
    "float": ("{:.6f}".format, float),
}
_COLUMNS = [(f.name, *_CODECS[f.type]) for f in fields(RunRecord)]
CSV_HEADER = [name for name, _, _ in _COLUMNS]


def iter_tasks(cfg: BenchConfig) -> list[TaskSpec]:
    tasks = []
    for map_name in cfg.maps:
        map_path = str(resolve_map(map_name))
        for n in cfg.agents:
            for k in cfg.k:
                for r in cfg.radius:
                    spec = cfg.spec(k, r)
                    for seed in cfg.seeds:
                        tasks.append(TaskSpec(
                            map_name, map_path, n, seed, spec, cfg.min_separation
                        ))
    return tasks


_WORLD_CACHE: dict[str, GridWorld] = {}


def _world(map_path: str) -> GridWorld:
    if map_path not in _WORLD_CACHE:
        _WORLD_CACHE[map_path] = load_map(map_path)
    return _WORLD_CACHE[map_path]


def run_one(task: TaskSpec) -> RunRecord:
    world = _world(task.map_path)
    spec = task.spec
    out = None
    try:
        pairs = random_spaced_pairs(world, task.n_agents, task.seed, task.min_separation)
        out = run_pipeline(world, pairs, spec, task.seed)
    except (PlacementError, DispatchExhaustedError, InfeasibleInputError):
        # one bad cell is an unsolved row, not the end of the sweep
        pass
    solved = out is not None and out.solved

    soc = makespan = rsoc_before = rsoc_after = -1
    improvement = 0.0
    if solved:
        from .audit import metrics

        m = metrics(out.plan.paths, out.problem.goals)
        soc, makespan = m.soc, m.makespan
        if spec.radius >= 1:
            try:
                refined = ppfpp(
                    world, out.plan, out.problem.group_of, out.real_paths,
                    spec.radius, task.seed,
                )
                rsoc_before = refined.rsoc_before
                rsoc_after = refined.rsoc_after
                improvement = refined.improvement_pct
            except (PreconditionError, ReplanInfeasibleError):
                pass  # recorded as if no refinement ran

    return RunRecord(
        task.map_name, task.n_agents, spec.k, spec.radius, spec.solver, task.seed,
        solved, soc, makespan, rsoc_before, rsoc_after, improvement,
    )


def run_suite(cfg: BenchConfig, threads: int = 1) -> list[RunRecord]:
    tasks = iter_tasks(cfg)
    # a fork pool starts all its workers at the first submit, so no more than tasks
    workers = min(threads, len(tasks))
    if workers > 1:
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
    Path(path).write_text(records_to_csv(records))


def read_records(path: str | Path) -> list[RunRecord]:
    lines = Path(path).read_text().splitlines()
    rows = [l for l in lines if l and not l.startswith("#")]
    reader = csv.reader(rows)
    header = next(reader)
    if header != CSV_HEADER:
        raise ConfigError(f"unexpected CSV header: {header}")
    return [RunRecord.from_row(row) for row in reader]


@dataclass(frozen=True)
class SummaryRow:
    map: str
    k: int
    runs: int
    solved: int
    mean_improvement: float
    std_improvement: float
    max_improvement: float
    median_improvement: float


def summarize(records: list[RunRecord]) -> list[SummaryRow]:
    """Improvement statistics per (map, k), over runs that were refined."""
    cells: dict[tuple[str, int], list[RunRecord]] = {}
    for rec in records:
        cells.setdefault((rec.map, rec.k), []).append(rec)
    rows = []
    for (map_name, k) in sorted(cells):
        recs = cells[(map_name, k)]
        vals = [r.improvement_pct for r in recs if r.rsoc_before >= 0]
        mean = statistics.mean(vals) if vals else 0.0
        std = statistics.stdev(vals) if len(vals) > 1 else 0.0
        rows.append(SummaryRow(
            map_name, k, len(recs), sum(r.solved for r in recs),
            mean, std, max(vals, default=0.0),
            statistics.median(vals) if vals else 0.0,
        ))
    return rows


def format_summary(rows: list[SummaryRow]) -> str:
    out = [
        f"{'map':<20} {'k':>2} {'runs':>5} {'solved':>6} "
        f"{'mean%':>8} {'std%':>8} {'max%':>8} {'med%':>8}"
    ]
    for r in rows:
        out.append(
            f"{r.map:<20} {r.k:>2} {r.runs:>5} {r.solved:>6} "
            f"{r.mean_improvement:>8.2f} {r.std_improvement:>8.2f} "
            f"{r.max_improvement:>8.2f} {r.median_improvement:>8.2f}"
        )
    return "\n".join(out)

