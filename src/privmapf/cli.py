"""Command-line front end.

Four subcommands mirror the library layers: ``solve`` runs the privacy
pipeline on one instance (``--radius 0`` is kPP, ``--radius r`` fPP) and
writes the message trace, the one broadcast file (plus optional per-agent
private sidecars); ``audit`` checks a trace's plan for conflicts and belief
privacy and ``ppfpp`` refines it inside safe zones, both at the k and
radius the trace records; ``bench`` sweeps a YAML-configured suite into a
CSV.

No default is restated here: ``--solver`` and ``--budget-expansions`` read
``PipelineSpec``'s, and an omitted ``--separation`` is the map default of
``random_spaced_pairs``, so ``solve`` places the pairs ``bench`` does.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .audit import AuditError, audit, metrics, real_sum_of_costs
from .bench import (
    ConfigError, format_summary, load_config, resolve_map, run_suite, summarize, write_records,
)
from .dispatch import (
    DispatchExhaustedError, InfeasibleInputError, SidecarError, read_private_sidecars,
    sidecar_path, write_private_sidecars,
)
from .grid import EmptyMapError, ParseError, ScenarioError, load_map, load_scenario, scenario_pairs
from .instances import PlacementError, random_spaced_pairs
from .pipeline import (
    SOLVERS, MessageTrace, PipelineSpec, TraceError, check_k_privacy, compute_beliefs,
    extract_real_path, read_trace, run_pipeline, write_trace,
)
from .plans import write_real_plan_file
from .safezone import PreconditionError, ReplanInfeasibleError, ppfpp, write_zones


def _instance_pairs(args, world):
    if args.scen:
        entries = load_scenario(args.scen)
        if len(entries) < args.agents:
            raise ScenarioError(
                f"{args.scen}: scenario has only {len(entries)} entries, "
                f"{args.agents} agents requested"
            )
        return scenario_pairs(world, entries[: args.agents])
    return random_spaced_pairs(
        world, args.agents, seed=args.seed, min_separation=args.separation
    )


def _read_planned_trace(world, path) -> MessageTrace:
    trace = read_trace(world, path)
    if trace.broadcast_plan is None:
        raise TraceError(f"{path}: no plan, the solve that wrote this trace failed")
    return trace


def _cmd_solve(args) -> int:
    if args.agents < 1:
        raise ConfigError("the agent count must be >= 1")
    if args.separation is not None and args.separation < 1:
        raise ConfigError("the separation must be >= 1")
    try:
        spec = PipelineSpec(args.k, args.radius, args.solver, args.budget_expansions)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    world = load_map(resolve_map(args.map))
    pairs = _instance_pairs(args, world)
    out = run_pipeline(world, pairs, spec, args.seed)
    if out.solved:
        m = metrics(out.plan.paths, out.problem.goals)
        print(f"solved: soc={m.soc} makespan={m.makespan} rsoc={real_sum_of_costs(out.real_paths, [p[1] for p in pairs])}")
    else:
        print(f"unsolved: {out.reason}")
    if args.out:
        write_trace(out.trace, world, args.out)
        print(f"trace written to {args.out}")
    if not out.solved:
        return 1
    if args.private_dir:
        Path(args.private_dir).mkdir(parents=True, exist_ok=True)
        write_private_sidecars(out.groups, args.private_dir)
        print(f"private sidecars written to {args.private_dir}")
    return 0


def _cmd_ppfpp(args) -> int:
    world = load_map(resolve_map(args.map))
    trace = _read_planned_trace(world, args.trace)
    plan = trace.broadcast_plan
    private = read_private_sidecars(args.private_dir)
    real_paths = []
    for g in trace.published_groups:
        where, real = sidecar_path(args.private_dir, g.group_id), private.get(g.group_id)
        if real is None:
            raise SidecarError(f"{where}: no private sidecar for group {g.group_id}")
        if not 0 <= real < trace.k:
            raise SidecarError(f"{where}: real_index {real} is not in [0, {trace.k})")
        real_paths.append(extract_real_path(plan, trace.k, replace(g, real_index=real)))
    result = ppfpp(world, plan, trace.group_of, real_paths, trace.fov_radius, args.seed)
    print(
        f"rsoc {result.rsoc_before} -> {result.rsoc_after} "
        f"({result.improvement_pct:.2f}% improvement, {len(result.picks)} zone picks)"
    )
    if args.out:
        write_real_plan_file(result.refined_paths, args.out)
        print(f"refined real paths written to {args.out}")
    if args.zones:
        write_zones(result.zones, result.radius, world, args.zones)
        print(f"zones written to {args.zones}")
    return 0


def _cmd_audit(args) -> int:
    world = load_map(resolve_map(args.map))
    trace = _read_planned_trace(world, args.trace)
    plan, group_of, k = trace.broadcast_plan, trace.group_of, trace.k
    report = audit(
        world, plan, group_of=group_of,
        fov_radius=trace.fov_radius, check_fov=trace.fov_radius > 0,
    )
    print(
        f"vertex conflicts: {len(report.vertex_conflicts)}  "
        f"swap conflicts: {len(report.swap_conflicts)}  "
        f"fov conflicts: {len(report.fov_conflicts)}  "
        f"invalid moves: {len(report.invalid_moves)}"
    )
    for a, t, (u, v) in report.invalid_moves:
        print(f"invalid move: sub-agent {a} at t={t}: {u} -> {v} is neither a wait nor a step")
    privacy = check_k_privacy(compute_beliefs(plan, group_of), k)
    print(f"belief {k}-privacy: {'ok' if privacy['ok'] else 'VIOLATED'}")
    ok = report.ok and privacy["ok"]
    print("clean" if ok else "violations found")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    cfg = load_config(args.config)
    records = run_suite(cfg, threads=args.threads)
    if args.out:
        write_records(records, args.out)
        print(f"{len(records)} records written to {args.out}")
    print(format_summary(summarize(records)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="privmapf")
    parser.add_argument("--version", action="version", version=f"privmapf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the privacy pipeline on one instance")
    p.add_argument("--map", required=True, help="map file or bundled map name")
    p.add_argument("--scen", help="take the first N pairs from a scenario file")
    p.add_argument("--agents", type=int, default=4)
    p.add_argument("--separation", type=int, help="start/goal spacing (default: by map width)")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--radius", type=int, default=0, help="fov radius; 0 is kPP")
    p.add_argument("--solver", choices=SOLVERS, default=PipelineSpec.solver)
    p.add_argument("--budget-expansions", type=int, default=PipelineSpec.budget_expansions)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="message trace JSON, the broadcast record (written also on failure)")
    p.add_argument("--private-dir", help="directory for per-agent sidecars")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ppfpp", help="refine a solved plan inside safe zones")
    p.add_argument("--map", required=True)
    p.add_argument("--trace", required=True, help="message trace JSON written by solve")
    p.add_argument("--private-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="refined real-path plan file")
    p.add_argument("--zones", help="zones JSON output")
    p.set_defaults(func=_cmd_ppfpp)

    p = sub.add_parser("audit", help="check a trace's plan for conflicts and belief privacy")
    p.add_argument("--map", required=True)
    p.add_argument("--trace", required=True, help="message trace JSON written by solve")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="run a YAML-configured suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        OSError, ConfigError, ParseError, EmptyMapError, ScenarioError, TraceError,
        AuditError, InfeasibleInputError, DispatchExhaustedError, PlacementError, SidecarError,
        PreconditionError, ReplanInfeasibleError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
