"""Workload shapes, the timed instance pipeline and its correctness gate.

Every instance runs the flow a user of the library runs: ``fpp_solve`` (or
``kpp_solve`` at radius 0) with the LaCAM solver, then
``audit.check_runtime_k_privacy``, then ``safezone.ppfpp`` on workloads that
refine. Only that flow is timed. The gate runs after it, untimed, and turns
every outcome into either a solved-and-verified instance or a typed reason.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

# importlib, because the package re-exports a function named ``audit`` that
# shadows the submodule attribute ``privmapf.audit``.
audit, bench, dispatch, instances, pipeline, safezone = (
    importlib.import_module(f"privmapf.{name}")
    for name in ("audit", "bench", "dispatch", "instances", "pipeline", "safezone")
)

# Solver outcomes that only mean "the expansion budget ran out"; they count
# against solved_frac but do not fail the run.
BUDGET_REASONS = frozenset({"timeout", "exhausted"})


@dataclass(frozen=True)
class Workload:
    name: str
    map_name: str
    agents: int
    k: int
    radius: int  # 0 selects the kPP pipeline (equality collision rule)
    budget: int  # LaCAM expansions per instance
    refine: bool  # run PPfPP after the audit
    # Instances per second of --seconds: the instance count is fixed by
    # --seconds, so quality metrics depend only on (seed, seconds). Calibrated
    # so that one run lasts about --seconds at the commit that added it.
    pace: float

    def instance_count(self, seconds: float) -> int:
        return max(2, round(self.pace * seconds))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("refine", "random-32-32-20", 4, 3, 1, 1500, True, 0.28),
        Workload("search", "random-32-32-20", 8, 3, 1, 5000, False, 1.05),
        Workload("kpp", "random-32-32-20", 16, 2, 0, 5000, False, 0.78),
        # Not in BENCHMARK.json: a seconds-long end-to-end check for selftest.py.
        Workload("smoke", "open16", 3, 2, 1, 300, True, 2.0),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    seed: str  # seeds generation, dispatch, the solver and zone extension
    pairs: tuple[tuple[int, int], ...]


def make_instances(world, wl: Workload, seed: int, count: int) -> list[Instance]:
    sep = bench.default_separation(world)
    out = []
    for i in range(count):
        s = f"{wl.name}:{seed}:{i}"
        pairs = instances.random_spaced_pairs(world, wl.agents, seed=s, min_separation=sep)
        out.append(Instance(i, s, tuple(pairs)))
    return out


@dataclass
class Outcome:
    """One instance execution: wall time, typed result and what it produced."""

    index: int
    wall_s: float  # the timed flow: solve_s + post_s
    reason: str | None  # None when solved and verified
    detail: str = ""
    solve_s: float = 0.0  # the fpp_solve / kpp_solve call
    post_s: float = 0.0  # the audit and, when refining, ppfpp
    expansions: int = 0
    steps: int = 0  # broadcast plan timesteps, horizon + 1
    soc: int = 0
    rsoc: int = 0
    lb: int = 0  # sum of sub-agent shortest-path lengths
    real_lb: int = 0  # the same over the real pairs only
    improvement_pct: float = 0.0
    picks: int = 0
    rounds: int = 0
    zone_area_mean: float = 0.0
    conflicts: int = 0
    plan_digest: str = ""
    refined_digest: str = ""
    work: tuple[int, ...] = ()  # traced runs: build_step and pairs_collide calls

    @property
    def solved(self) -> bool:
        return self.reason is None

    @property
    def failed(self) -> bool:
        """A failure that is not an exhausted solver budget."""
        return self.reason is not None and self.reason not in BUDGET_REASONS

    def fingerprint_record(self) -> list:
        return [
            self.index, self.reason, self.expansions, self.soc, self.rsoc,
            self.picks, self.rounds, self.plan_digest, self.refined_digest,
        ]


def paths_digest(paths) -> str:
    return hashlib.sha256(json.dumps([list(p) for p in paths]).encode()).hexdigest()


def solve_instance(world, wl: Workload, inst: Instance, span=None):
    """The timed flow: (pipeline result, privacy report, refine result, solve seconds)."""
    span = span or (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("solve"):
        if wl.radius == 0:
            out = pipeline.kpp_solve(
                world, list(inst.pairs), wl.k, inst.seed,
                solver="lacam", budget_expansions=wl.budget,
            )
        else:
            out = pipeline.fpp_solve(
                world, list(inst.pairs), wl.k, wl.radius, inst.seed,
                solver="lacam", budget_expansions=wl.budget,
            )
    solve_s = time.perf_counter() - t0
    if not out.solved:
        return out, None, None, solve_s
    with span("audit"):
        privacy = audit.check_runtime_k_privacy(
            world, out.plan, out.problem.group_of, wl.k, wl.radius
        )
    refined = None
    if wl.refine:
        with span("ppfpp"):
            refined = safezone.ppfpp(
                world, out.plan, out.problem.group_of, out.real_paths,
                wl.radius, inst.seed,
            )
    return out, privacy, refined, solve_s


def verify(world, wl: Workload, inst: Instance, out, privacy, refined):
    """(problems, conflict count) for a solved instance; no problems means it passed."""
    problems = []
    plan, group_of = out.plan, out.problem.group_of
    report = audit.audit(world, plan, group_of, fov_radius=wl.radius, check_fov=True)
    if not report.ok:
        problems.append(
            f"audit: {len(report.vertex_conflicts)} vertex, {len(report.swap_conflicts)} "
            f"swap, {len(report.fov_conflicts)} fov conflicts"
        )
    if not privacy["privacy"]["ok"]:
        problems.append(f"belief {wl.k}-privacy violated: {privacy['privacy']['violations'][:3]}")
    if privacy["fov_conflicts"]:
        problems.append(f"runtime check: {len(privacy['fov_conflicts'])} fov conflicts")
    rows: dict[int, set] = {}
    for j, g in enumerate(group_of):
        rows.setdefault(g, set()).add(tuple(plan.paths[j]))
    for i, rp in enumerate(out.real_paths):
        if tuple(rp) not in rows.get(i, ()):
            problems.append(f"real path of agent {i} is not a row of its group")
        if (rp[0], rp[-1]) != inst.pairs[i]:
            problems.append(f"real path of agent {i} does not join its real pair")
    if refined is not None:
        if audit.check_separated(world, refined.zones, wl.radius):
            problems.append("refined zones are not fov-separated")
        if refined.rsoc_after > refined.rsoc_before:
            problems.append(f"rsoc grew: {refined.rsoc_before} -> {refined.rsoc_after}")
        for i, p in enumerate(refined.refined_paths):
            if (p[0], p[-1]) != inst.pairs[i]:
                problems.append(f"refined path of agent {i} does not join its real pair")
    return problems, report.total()


def run_instance(world, wl: Workload, inst: Instance, span=None) -> Outcome:
    """Time the flow, then gate it. Never raises for a per-instance failure."""
    t0 = time.perf_counter()
    try:
        out, privacy, refined, solve_s = solve_instance(world, wl, inst, span)
    except dispatch.DispatchExhaustedError as exc:
        return Outcome(inst.index, time.perf_counter() - t0, "dispatch_exhausted", str(exc))
    except dispatch.InfeasibleInputError as exc:
        return Outcome(inst.index, time.perf_counter() - t0, "infeasible_input", str(exc))
    except Exception:  # the run always finishes; the traceback is the detail
        return Outcome(inst.index, time.perf_counter() - t0, "exception", traceback.format_exc())
    wall = time.perf_counter() - t0
    oc = gate(world, wl, inst, out, privacy, refined)
    oc.wall_s, oc.solve_s, oc.post_s = wall, solve_s, wall - solve_s
    return oc


def gate(world, wl: Workload, inst: Instance, out, privacy, refined) -> Outcome:
    """Verify a finished flow and record what it produced (times are set by the caller)."""
    if not out.solved:
        return Outcome(inst.index, 0.0, out.reason or "unsolved",
                       expansions=out.solve.expansions)
    try:
        problems, conflicts = verify(world, wl, inst, out, privacy, refined)
        soc = audit.metrics(out.plan.paths, out.problem.goals).soc
        real_goals = [g for _, g in inst.pairs]
        rsoc = audit.real_sum_of_costs(out.real_paths, real_goals)
    except Exception:
        return Outcome(inst.index, 0.0, "exception", traceback.format_exc())
    p = out.problem
    lb = sum(p.dists[a][s] for a, s in enumerate(p.starts))
    real = [g.group_id * p.k + g.real_index for g in out.groups]
    real_lb = sum(p.dists[a][p.starts[a]] for a in real)
    oc = Outcome(
        inst.index, 0.0, "verify_failed" if problems else None, "; ".join(problems),
        expansions=out.solve.expansions, steps=out.plan.horizon + 1, soc=soc, rsoc=rsoc,
        lb=lb, real_lb=real_lb,
        conflicts=conflicts, plan_digest=paths_digest(out.plan.paths),
    )
    if refined is not None:
        oc.rsoc = refined.rsoc_after
        oc.improvement_pct = refined.improvement_pct
        oc.picks = len(refined.picks)
        oc.rounds = count_rounds(refined.picks)
        areas = [len(z) for per_t in refined.zones for z in per_t]
        oc.zone_area_mean = sum(areas) / len(areas)
        oc.refined_digest = paths_digest(refined.refined_paths)
    return oc


def count_rounds(picks) -> int:
    """Extension rounds that claimed something, summed over timesteps."""
    last: dict[int, int] = {}
    for p in picks:
        last[p.t] = max(last.get(p.t, -1), p.round)
    return sum(r + 1 for r in last.values())
