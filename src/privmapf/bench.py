"""Benchmark harness: sweep instance grids, collect one CSV row per run.

A suite is a YAML config describing the cross product of maps, agent
counts, group sizes, fov radii and seeds. Rows come out in exactly the
config order (maps outermost, seeds innermost), so two runs of the same
config produce byte-identical CSVs -- provided the solver budget is given
in expansions, in which case wall-clock columns are forced to 0.0 rather
than recording noise.

``run_suite(cfg, threads=n)`` (``privmapf bench --threads n``) fans
instances out over a process pool; the row order is unaffected.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .dispatch import DispatchExhaustedError, InfeasibleInputError
from .grid import GridWorld, load_map
from .instances import PlacementError, random_spaced_pairs
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


def default_separation(world: GridWorld) -> int:
    return 3 if world.width <= 16 else 5


@dataclass(frozen=True)
class BenchConfig:
    """A suite: its YAML keys are these fields; k and radius list the swept values."""

    name: str
    maps: tuple[str, ...]
    agents: tuple[int, ...]
    k: tuple[int, ...] = (1,)
    radius: tuple[int, ...] = (0,)
    seeds: tuple[int, ...] = tuple(range(5))
    solver: str = "lacam"
    budget_expansions: int = 1500
    budget_seconds: float | None = None
    run_ppfpp: bool = True
    min_separation: int | None = None

    def __post_init__(self) -> None:
        if not all(n >= 1 for n in self.agents):
            raise ConfigError("agent counts must be >= 1")
        if not all(k >= 1 for k in self.k):
            raise ConfigError("group sizes must be >= 1")
        for k in self.k:
            for r in self.radius:
                self.spec(k, r)

    def spec(self, k: int, radius: int) -> PipelineSpec:
        """The pipeline spec of the cells with group size k and this radius."""
        try:
            return PipelineSpec(k, radius, self.solver, self.budget_expansions, self.budget_seconds)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_CONFIG_KEYS = {f.name for f in fields(BenchConfig)}
_LIST_KEYS = ("maps", "agents", "k", "radius", "seeds")


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
    if isinstance(obj.get("seeds"), int):
        obj["seeds"] = list(range(obj["seeds"]))  # an int means "this many, from zero"
    for key in _LIST_KEYS:
        if key in obj:
            if not isinstance(obj[key], list):
                raise ConfigError(f"config key {key} must be a list")
            obj[key] = tuple(obj[key])
    return BenchConfig(**obj)


@dataclass(frozen=True)
class TaskSpec:
    map_name: str
    map_path: str
    n_agents: int
    seed: int
    spec: PipelineSpec
    run_ppfpp: bool
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
    solve_time: float
    ppfpp_time: float

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
                            map_name, map_path, n, seed, spec,
                            cfg.run_ppfpp, cfg.min_separation,
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
    sep = task.min_separation or default_separation(world)
    t0 = out = None
    try:
        pairs = random_spaced_pairs(world, task.n_agents, seed=task.seed, min_separation=sep)
        t0 = time.perf_counter()
        out = run_pipeline(world, pairs, spec, task.seed)
    except (PlacementError, DispatchExhaustedError, InfeasibleInputError):
        # one bad cell is an unsolved row, not the end of the sweep
        pass
    solve_time = 0.0 if t0 is None else time.perf_counter() - t0
    solved = out is not None and out.solved

    soc = makespan = rsoc_before = rsoc_after = -1
    improvement = 0.0
    ppfpp_time = 0.0
    if solved:
        from .audit import metrics

        m = metrics(out.plan.paths, out.problem.goals)
        soc, makespan = m.soc, m.makespan
        if task.run_ppfpp and spec.radius >= 1:
            t1 = time.perf_counter()
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
            ppfpp_time = time.perf_counter() - t1

    if spec.wall_clock_s is None:
        solve_time = ppfpp_time = 0.0
    return RunRecord(
        task.map_name, task.n_agents, spec.k, spec.radius, spec.solver, task.seed,
        solved, soc, makespan, rsoc_before, rsoc_after, improvement,
        solve_time, ppfpp_time,
    )


def run_suite(cfg: BenchConfig, threads: int = 1) -> list[RunRecord]:
    tasks = iter_tasks(cfg)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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


def cactus_data(records: list[RunRecord]) -> dict[str, list[int]]:
    """Sorted per-run real costs, the usual cactus-plot input."""
    refined = [r for r in records if r.rsoc_before >= 0]
    return {
        "before": sorted(r.rsoc_before for r in refined),
        "after": sorted(r.rsoc_after for r in refined),
    }
