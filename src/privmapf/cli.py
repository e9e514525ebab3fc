"""Command-line front end.

Four subcommands mirror the library layers: ``solve`` runs the privacy
pipeline on one instance (``--radius 0`` is kPP, ``--radius r`` fPP) and
writes the message trace, the one broadcast file (plus optional per-agent
private sidecars); ``audit`` checks a trace's plan for conflicts and belief
privacy, and its groups for spacing-aware privacy, and ``ppfpp`` refines it
inside safe zones, both at the k and radius the trace records; ``bench``
loads a YAML suite, a list of ``TaskSpec``s, and runs it with
``run_suite(tasks, threads=n)`` into a CSV.

``solve`` runs a bench ``TaskSpec`` built from its flags: it loads the map
and places the pairs with the code ``bench`` runs a cell with, unless
``--scen`` names the pairs, which ``grid.load_scenario`` reads and places on
the map in one call. Random pairs are always placed at the map's
default spacing, ``instances.default_separation``; no flag chooses another.
No default is restated here: ``--radius`` and ``--budget-expansions`` read
``PipelineSpec``'s.
A command writes every file before it prints anything, so a reader that
closes stdout early changes neither the files nor the exit status.
Every ``PrivmapfError`` or ``OSError`` ends in one ``error:`` line and exit
code 2; any other exception is a bug and keeps its traceback. Every file is
read through ``grid.read_file``, so one that is not UTF-8, is malformed, is
nested deeper than its parser reads or holds a value its parser cannot build
is such an error, naming the file, and a scenario entry that does not fit
the map names its line too.
Files are read and written as UTF-8, whatever the locale; a leading
byte-order mark is ignored in every format.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .audit import audit_trace, metrics, spacing_candidates
from .bench import TaskSpec, format_summary, load_config, load_world, run_suite, write_records
from .dispatch import write_private_sidecars
from .grid import PrivmapfError, load_scenario
from .instances import default_separation
from .pipeline import (
    MessageTrace, PipelineSpec, TraceError, read_real_paths, read_trace, run_pipeline,
    write_trace,
)
from .plans import write_real_plan_file
from .safezone import ppfpp, write_zones


def _read_planned_trace(world, path) -> MessageTrace:
    trace = read_trace(world, path)
    if trace.broadcast_plan is None:
        raise TraceError("no plan, the solve that wrote this trace failed", path=path)
    return trace


def _print(lines: list[str], status: int) -> int:
    """Print a command's lines once its files are written; return its status."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader left: at exit the rest flushes to devnull, not into an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


def _cmd_solve(args) -> int:
    spec = PipelineSpec(args.k, args.radius, args.budget_expansions)
    task = TaskSpec(args.map, args.agents, args.seed, spec)
    world = load_world(task.map_name)
    pairs = load_scenario(world, args.scen, args.agents) if args.scen else task.pairs()
    out = run_pipeline(world, pairs, spec, task.seed)
    if out.solved:
        m = metrics(out.plan.paths, out.problem.goals)
        rsoc = metrics(out.real_paths, [g for _, g in pairs]).soc
        lines = [f"solved: soc={m.soc} makespan={m.makespan} rsoc={rsoc}"]
    else:
        lines = [f"unsolved: {out.reason}"]
    if args.out:
        write_trace(out.trace, world, args.out)
        lines.append(f"trace written to {args.out}")
    if out.solved and args.private_dir:
        write_private_sidecars(out.groups, args.private_dir)
        lines.append(f"private sidecars written to {args.private_dir}")
    return _print(lines, 0 if out.solved else 1)


def _cmd_ppfpp(args) -> int:
    world = load_world(args.map)
    trace = _read_planned_trace(world, args.trace)
    # zone stream 0, fixed: every reader of one broadcast grows the same zones
    result = ppfpp(world, trace.broadcast_plan, trace.group_of,
                   read_real_paths(trace, args.private_dir), trace.fov_radius, 0)
    lines = [
        f"rsoc {result.rsoc_before} -> {result.rsoc_after} "
        f"({result.improvement_pct:.2f}% improvement, {len(result.picks)} zone picks)"
    ]
    if args.out:
        write_real_plan_file(result.refined_paths, args.out)
        lines.append(f"refined real paths written to {args.out}")
    if args.zones:
        write_zones(result.zones, trace.fov_radius, world, args.zones)
        lines.append(f"zones written to {args.zones}")
    return _print(lines, 0)


def _cmd_audit(args) -> int:
    world = load_world(args.map)
    trace = _read_planned_trace(world, args.trace)
    report = audit_trace(world, trace)
    lines = [report.conflicts.summary()]
    for a, t, (u, v) in report.conflicts.invalid_moves:
        lines.append(f"invalid move: sub-agent {a} at t={t}: {u} -> {v} is neither a wait nor a step")
    lines.append(f"belief {trace.k}-privacy: {'VIOLATED' if report.below_k else 'ok'}")
    # an observer who assumes the generator's spacing; it sets no exit status
    # while the mocks ignore that spacing
    sep, groups = default_separation(world), trace.published_groups
    below = sum(len(c) < trace.k for c in spacing_candidates(world, groups, sep))
    lines.append(f"spacing-aware {trace.k}-privacy (sep {sep}): "
                 + (f"{below} of {len(groups)} groups below {trace.k}" if below else "ok"))
    lines.append("clean" if report.ok else "violations found")
    return _print(lines, 0 if report.ok else 1)


def _cmd_bench(args) -> int:
    records = run_suite(load_config(args.config), threads=args.threads)
    lines = []
    if args.out:
        write_records(records, args.out)
        lines.append(f"{len(records)} records written to {args.out}")
    lines.append(format_summary(records))
    return _print(lines, 0)


def main(argv: list[str] | None = None) -> int:
    # allow_abbrev=False: a flag is taken only as spelled, never by a prefix
    parser = argparse.ArgumentParser(prog="privmapf", allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"privmapf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", allow_abbrev=False, help="run the privacy pipeline on one instance")
    p.add_argument("--map", required=True, help="map file or bundled map name")
    p.add_argument("--scen", help="take the first N pairs from a scenario file")
    p.add_argument("--agents", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    defaults = PipelineSpec._field_defaults
    p.add_argument("--radius", type=int, default=defaults["radius"], help="fov radius; 0 is kPP")
    p.add_argument("--budget-expansions", type=int, default=defaults["budget_expansions"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="message trace JSON, the broadcast record (written also on failure)")
    p.add_argument("--private-dir", help="directory for per-agent sidecars")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("ppfpp", allow_abbrev=False, help="refine a solved plan inside safe zones")
    p.add_argument("--map", required=True)
    p.add_argument("--trace", required=True, help="message trace JSON written by solve")
    p.add_argument("--private-dir", required=True)
    p.add_argument("--out", help="refined real-path plan file")
    p.add_argument("--zones", help="zones JSON output")
    p.set_defaults(func=_cmd_ppfpp)

    p = sub.add_parser("audit", allow_abbrev=False,
                       help="check a trace's plan for conflicts and belief privacy")
    p.add_argument("--map", required=True)
    p.add_argument("--trace", required=True, help="message trace JSON written by solve")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", allow_abbrev=False, help="run a YAML-configured suite")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PrivmapfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
