#!/usr/bin/env python3
"""privmapf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload refine --seed 0 --seconds 36 --trace 0

Runs from the root of a checkout and imports the package from ``src/``.
Inputs come from --seed and are generated before anything is timed; the
instance count is fixed by --seconds (see ``Workload.pace``). The timed
end-to-end metrics are in reference seconds (see speed.py); the wall-clock
figures are printed on the ``also:`` line. With --trace 0
the last line is a JSON object with the end-to-end metrics; with --trace 1 it
carries the per-layer metrics of a traced pass, next to an untraced pass
over the same instances that gives the tracing overhead. ``--workload all``
runs refine, search and kpp, one process each, and prints one table.

Exit status: 0 when every instance was solved-and-verified or ran out of its
expansion budget; 1 when any instance failed otherwise; 2 when the package
cannot be imported or the arguments are wrong (no result is printed then).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 31  # one before the timed passes, the rest spread between instances
GUARD_S = 150.0  # stop starting instances here, so a run ends within 180 s
MAIN_WORKLOADS = ("refine", "search", "kpp")

# (name, unit) of every metric a run prints in its JSON line, in order.
END_TO_END = [
    ("setup_s", "s"),
    ("plan_step_ms", "ms"),
    ("solved_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("setup.import_s", "s"),
    ("grid.load_s", "s"),
    ("grid.fov_table_s", "s"),
    ("instances.gen_s", "s"),
    ("solve.s", "s"),
    ("dispatch.s", "s"),
    ("dispatch.pairs_collide_calls", "count"),
    ("pipeline.problem_s", "s"),
    ("lacam.s", "s"),
    ("lacam.expansions", "count"),
    ("lacam.expansions_per_s", "1/s"),
    ("pibt.build_step_calls", "count"),
    ("pibt.build_step_s", "s"),
    ("pibt.build_step_ok_ratio", "ratio"),
    ("audit.s", "s"),
    ("audit.conflicts", "count"),
    ("ppfpp.s", "s"),
    ("ppfpp.improvement_pct", "%"),
    ("safezone.audit_s", "s"),
    ("safezone.init_s", "s"),
    ("safezone.separation_s", "s"),
    ("safezone.extend_s", "s"),
    ("safezone.picks", "count"),
    ("safezone.rounds", "count"),
    ("safezone.zone_area_mean", "vertices"),
    ("safezone.sipp_s", "s"),
    ("safezone.sipp_calls", "count"),
    ("trace.instances", "count"),
    ("trace.untraced_instances_per_s", "1/s"),
    ("trace.traced_instances_per_s", "1/s"),
    ("trace.overhead_instances_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("e2e.instance_p50_s", "s"),
    ("e2e.solve_us_per_expansion", "us"),
    ("e2e.post_ms_per_step", "ms"),
    ("quality.soc_ratio", "ratio"),
    ("quality.rsoc_ratio", "ratio"),
    ("quality.soc_mean", "steps"),
    ("quality.rsoc_mean", "steps"),
    ("machine.probe_ms", "ms"),
]
# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "solve": "solve.s",
    "dispatch": "dispatch.s",
    "pipeline.problem": "pipeline.problem_s",
    "lacam": "lacam.s",
    "pibt.build_step": "pibt.build_step_s",
    "audit": "audit.s",
    "ppfpp": "ppfpp.s",
    "safezone.audit": "safezone.audit_s",
    "safezone.init": "safezone.init_s",
    "safezone.separation": "safezone.separation_s",
    "safezone.extend": "safezone.extend_s",
    "safezone.sipp": "safezone.sipp_s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def is_bench_module(name: str) -> bool:
    return name in ("privmapf", "workloads") or name.startswith("privmapf.")


def import_fresh():
    """Import the package and the workload module anew, as a new process would."""
    for name in list(sys.modules):
        if is_bench_module(name):
            del sys.modules[name]
    if not (SRC / "privmapf" / "__init__.py").is_file():
        raise SetupError(f"no privmapf package under {SRC}")
    pkg = importlib.import_module("privmapf")
    if Path(pkg.__file__).resolve().parent != (SRC / "privmapf").resolve():
        raise SetupError(f"privmapf imported from {pkg.__file__}, not from {SRC}")
    return importlib.import_module("workloads")


def setup(name: str, seed: int, seconds: float):
    """Import the package, load the map, warm the FoV table, make the inputs.

    Returns the workload module, the workload, the map, the instances and the
    phase times of this set-up.
    """
    gc.collect()
    t0 = time.perf_counter()
    W = import_fresh()
    t1 = time.perf_counter()
    if name not in W.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[name]
    grid = importlib.import_module("privmapf.grid")
    world = grid.load_map(W.bench.resolve_map(wl.map_name))
    t2 = time.perf_counter()
    world.fov(0, wl.radius)  # builds the whole fov table for the radius
    t3 = time.perf_counter()
    insts = W.make_instances(world, wl, seed, wl.instance_count(seconds))
    t4 = time.perf_counter()
    rep = {
        "setup_s": t4 - t0, "setup.import_s": t1 - t0, "grid.load_s": t2 - t1,
        "grid.fov_table_s": t3 - t2, "instances.gen_s": t4 - t3,
    }
    return W, wl, world, insts, rep


class Sampler:
    """Works in the gaps around timed instances: speed probes and set-ups.

    Before the first instance and after each one, it times the speed probe
    (see speed.py), and it repeats the set-up so that the repetitions are
    spread evenly over the run. A set-up lasts tens of milliseconds, so
    set-ups made back to back would sample the machine in one short window;
    spread over the run, they see the same machine as the timed instances
    do. Each repetition imports the package anew and must draw the same
    instances; the modules the run uses are put back afterwards.
    """

    def __init__(self, name: str, seed: int, seconds: float, insts, first: dict, timed: int):
        self.args = (name, seed, seconds)
        self.drawn = [(i.seed, i.pairs) for i in insts]  # each import has its own Instance class
        self.timed = max(1, timed)  # instances the run will time
        self.gaps = [speed.sample()]  # probe times; gap i comes before the i-th instance
        self.reps = [first]
        self.rep_gaps = [0]  # the gap each set-up ran in

    def after_instance(self) -> None:
        done = len(self.gaps)
        want = 1 + (SETUP_REPS - 1) * min(done, self.timed) // self.timed
        while len(self.reps) < want:
            self.reps.append(self._again())
            self.rep_gaps.append(done)
        self.gaps.append(speed.sample())

    def skipped(self) -> None:
        """An instance the guard did not start: nothing was timed, nothing to probe."""
        self.gaps.append(self.gaps[-1])

    def instance_factors(self) -> list[float]:
        """Speed factor of each instance timed so far, from the gaps either side of it."""
        return [speed.factor(a + b) for a, b in zip(self.gaps, self.gaps[1:])]

    def setup_s(self) -> list[float]:
        """Each set-up's time in reference seconds."""
        return [r["setup_s"] * speed.factor(self.gaps[g]) for r, g in zip(self.reps, self.rep_gaps)]

    def probe_ms(self) -> float:
        return 1e3 * statistics.median(t for gap in self.gaps for t in gap)

    def _again(self) -> dict:
        saved = {k: v for k, v in sys.modules.items() if is_bench_module(k)}
        try:
            *_, again, rep = setup(*self.args)
        finally:
            for name in [k for k in sys.modules if is_bench_module(k)]:
                del sys.modules[name]
            sys.modules.update(saved)
        if [(i.seed, i.pairs) for i in again] != self.drawn:
            raise SetupError("instance generation is not deterministic")
        return rep


def run_pass(W, world, wl, insts, deadline: float, sampler, span=None, tracer=None):
    outcomes = []
    for inst in insts:
        if time.perf_counter() > deadline:
            outcomes.append(W.Outcome(inst.index, 0.0, "guard_timeout"))
            sampler.skipped()
            continue
        if tracer is not None:
            tracer.instance = inst.index
            before = work_counts(tracer)
        oc = W.run_instance(world, wl, inst, span)
        if tracer is not None:
            oc.work = tuple(n - b for n, b in zip(work_counts(tracer), before))
        outcomes.append(oc)
        sampler.after_instance()
    return outcomes


def work_counts(tracer) -> tuple[int, int]:
    return tracer.calls["pibt.build_step"], tracer.counters["dispatch.pairs_collide_calls"]


def fingerprint(outcomes, with_work: bool) -> str:
    records = [
        oc.fingerprint_record() + (list(oc.work) if with_work else [])
        for oc in outcomes
    ]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def summarize(outcomes, factors) -> dict:
    """End-to-end quantities of one pass; ``factors`` are the instances' speed factors.

    ``plan_step_ms`` divides the timed wall time, in reference seconds, by
    the broadcast-plan timesteps of the solved instances, which is what
    PPfPP's cost follows; ``plan_step_raw_ms`` is the same in wall seconds.
    The ``*_ratio`` costs are over their shortest-path lower bounds.
    """
    solved = [oc for oc in outcomes if oc.solved]
    refined = [oc for oc in solved if oc.refined_digest]
    walls = [oc.wall_s for oc in outcomes]
    timed = sum(walls)
    steps = max(1, sum(oc.steps for oc in solved))
    return {
        "timed_s": timed,
        "plan_step_ms": 1e3 * sum(w * f for w, f in zip(walls, factors)) / steps,
        "plan_step_raw_ms": 1e3 * timed / steps,
        "solve_us_per_expansion":
            1e6 * sum(oc.solve_s for oc in outcomes) / max(1, sum(oc.expansions for oc in outcomes)),
        "post_ms_per_step": 1e3 * sum(oc.post_s for oc in solved) / steps,
        "instance_p50_s": statistics.median(walls),
        "instances_per_s": len(outcomes) / timed if timed > 0 else 0.0,
        "solved_frac": len(solved) / len(outcomes),
        "soc_ratio": sum(oc.soc for oc in solved) / max(1, sum(oc.lb for oc in solved)),
        "rsoc_ratio": sum(oc.rsoc for oc in solved) / max(1, sum(oc.real_lb for oc in solved)),
        "soc_mean": statistics.mean(oc.soc for oc in solved) if solved else 0.0,
        "rsoc_mean": statistics.mean(oc.rsoc for oc in solved) if solved else 0.0,
        "ppfpp_improvement_pct":
            statistics.mean(oc.improvement_pct for oc in refined) if refined else 0.0,
    }


def layer_metrics(tracer, outcomes, reps, untraced: dict, traced: dict) -> dict:
    solved = [oc for oc in outcomes if oc.solved]
    refined = [oc for oc in solved if oc.refined_digest]
    m = {key: statistics.median(r[key] for r in reps)
         for key in ("setup.import_s", "grid.load_s", "grid.fov_table_s", "instances.gen_s")}
    for span_name, metric in SELF_TIME_METRICS.items():
        m[metric] = tracer.self_time[span_name]
    calls = tracer.calls["pibt.build_step"]
    m.update({
        "dispatch.pairs_collide_calls": tracer.counters["dispatch.pairs_collide_calls"],
        "lacam.expansions": tracer.counters["lacam.expansions"],
        "lacam.expansions_per_s": tracer.counters["lacam.expansions"] / tracer.total["lacam"]
        if tracer.total["lacam"] else 0.0,
        "pibt.build_step_calls": calls,
        "pibt.build_step_ok_ratio": tracer.counters["pibt.build_step_ok"] / calls if calls else 0.0,
        "audit.conflicts": sum(oc.conflicts for oc in outcomes),
        "ppfpp.improvement_pct": traced["ppfpp_improvement_pct"],
        "safezone.picks": sum(oc.picks for oc in refined),
        "safezone.rounds": sum(oc.rounds for oc in refined),
        "safezone.zone_area_mean":
            statistics.mean(oc.zone_area_mean for oc in refined) if refined else 0.0,
        "safezone.sipp_calls": tracer.calls["safezone.sipp"],
        "trace.instances": len(outcomes),
        "trace.untraced_instances_per_s": untraced["instances_per_s"],
        "trace.traced_instances_per_s": traced["instances_per_s"],
        "trace.overhead_instances_per_s":
            untraced["instances_per_s"] - traced["instances_per_s"],
        "trace.overhead_pct":
            100.0 * (1.0 - traced["instances_per_s"] / untraced["instances_per_s"])
            if untraced["instances_per_s"] else 0.0,
        "e2e.instance_p50_s": untraced["instance_p50_s"],
        "e2e.solve_us_per_expansion": untraced["solve_us_per_expansion"],
        "e2e.post_ms_per_step": untraced["post_ms_per_step"],
        "quality.soc_ratio": traced["soc_ratio"],
        "quality.rsoc_ratio": traced["rsoc_ratio"],
        "quality.soc_mean": traced["soc_mean"],
        "quality.rsoc_mean": traced["rsoc_mean"],
    })
    return m


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, count: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "instances": count, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(),
    }


def print_failures(outcomes) -> None:
    for oc in outcomes:
        if oc.failed:
            detail = oc.detail.strip().splitlines()[-1] if oc.detail.strip() else ""
            print(f"FAILED instance {oc.index}: {oc.reason} {detail}")


def run_one(args) -> int:
    start = time.perf_counter()
    os.environ.pop("PRIVMAPF_THREADS", None)  # single process, no pool
    try:
        W, wl, world, insts, first = setup(args.workload, args.seed, args.seconds)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    deadline = start + GUARD_S
    meta = metadata(args, len(insts))
    print("meta: " + json.dumps(meta, sort_keys=True))

    try:
        if args.trace:
            tracing = importlib.import_module("tracing")
            half = insts[: math.ceil(len(insts) / 2)]
            sampler = Sampler(args.workload, args.seed, args.seconds, insts, first, 2 * len(half))
            plain = run_pass(W, world, wl, half, deadline, sampler)
            tracer = tracing.Tracer()
            with tracing.patched(tracer):
                traced = run_pass(W, world, wl, half, deadline, sampler,
                                  span=tracer.span, tracer=tracer)
            outcomes = plain + traced
        else:
            sampler = Sampler(args.workload, args.seed, args.seconds, insts, first, len(insts))
            outcomes = run_pass(W, world, wl, insts, deadline, sampler)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reps = sampler.reps
    factors = sampler.instance_factors()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        consistent = fingerprint(plain, False) == fingerprint(traced, False)
        metrics = layer_metrics(
            tracer, traced, reps, summarize(plain, factors), summarize(traced, factors[len(plain):]),
        )
        metrics["machine.probe_ms"] = sampler.probe_ms()
        units = PER_LAYER
        digest = fingerprint(traced, True)
        print_self_times(tracer)
        write_spans(args, tracer)
    else:
        consistent = True
        s = summarize(outcomes, factors)
        metrics = dict(
            s, setup_s=statistics.median(sampler.setup_s()), peak_rss_mb=peak_rss_mb,
            setup_raw_s=statistics.median(r["setup_s"] for r in reps),
            probe_ms=sampler.probe_ms(),
        )
        units = END_TO_END
        digest = fingerprint(outcomes, False)
        print("also: " + " ".join(
            f"{key}={metrics[key]:.4f}" for key in (
                "setup_raw_s", "plan_step_raw_ms", "probe_ms", "instance_p50_s",
                "instances_per_s", "solve_us_per_expansion", "post_ms_per_step", "soc_ratio", "rsoc_ratio", "soc_mean", "rsoc_mean",
                "ppfpp_improvement_pct", "timed_s",
            )
        ))

    failed = sum(oc.failed for oc in outcomes)
    reasons: dict[str, int] = {}
    for oc in outcomes:
        if oc.reason:
            reasons[oc.reason] = reasons.get(oc.reason, 0) + 1
    print_failures(outcomes)
    if not consistent:
        print("FAILED: traced and untraced passes produced different outputs")
    correct = failed == 0 and consistent
    print(f"fingerprint: {digest}")
    print(f"unsolved/failed by reason: {json.dumps(reasons, sort_keys=True)}")
    print(f"{'metric':<34} {'value':>14}  unit  (n={len(outcomes)} instances)")
    for key, unit in units:
        print(f"{key:<34} {metrics[key]:>14.6g}  {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }
    record = dict(meta, fingerprint=digest, reasons=reasons, result=result,
                  outcomes=[dataclasses.asdict(oc) for oc in outcomes])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def print_self_times(tracer) -> None:
    grand = sum(tracer.self_time.values())
    print(f"{'span':<22} {'calls':>8} {'total_s':>10} {'self_s':>10} {'self%':>6}")
    for name, self_s in sorted(tracer.self_time.items(), key=lambda kv: -kv[1]):
        print(f"{name:<22} {tracer.calls[name]:>8} {tracer.total[name]:>10.3f} "
              f"{self_s:>10.3f} {100.0 * self_s / grand if grand else 0.0:>6.1f}")


def write_spans(args, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    keys = ("id", "name", "start", "end", "parent", "instance")
    path.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]) + "\n")


def run_all(args) -> int:
    """Each main workload in its own process; one table of their metrics."""
    results = {}
    status = 0
    for name in MAIN_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(f"== {name}\n{proc.stdout}")
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not proc.stdout.strip():
            return 2
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status = max(status, proc.returncode)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"\n{'metric':<34} {'unit':<8}" + "".join(f"{n:>14}" for n in MAIN_WORKLOADS))
    for key, unit in units:
        row = "".join(f"{results[n]['metrics'][key]['value']:>14.6g}" for n in MAIN_WORKLOADS)
        print(f"{key:<34} {unit:<8}{row}")
    print(f"{'correct':<34} {'':<8}" + "".join(f"{str(results[n]['correct']):>14}" for n in MAIN_WORKLOADS))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="refine, search, kpp, smoke or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
