#!/usr/bin/env python3
"""Self-test of the benchmark; takes a few seconds.

    python3 perfbench/selftest.py

Checks that
  1. the smoke workload runs end to end in both modes, is correct, prints
     exactly the metrics BENCHMARK.json names, and gives the same
     determinism fingerprint on a second run;
  2. the correctness gate rejects a plan with an injected vertex conflict,
     and accepts the same plan without it;
  3. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero and prints no result.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE = ["--workload", "smoke", "--seed", "3", "--seconds", "2"]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        prints = []
        for _ in range(2):
            proc = run_bench(ROOT, *SMOKE, "--trace", str(trace))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert list(result["metrics"]) == [m["name"] for m in spec[group]], result["metrics"]
            for m in spec[group]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
            prints.append([ln for ln in proc.stdout.splitlines() if ln.startswith("fingerprint:")])
        assert prints[0] and prints[0] == prints[1], prints
    print("ok: smoke workload correct in both modes, fingerprints repeat")


def check_gate_rejects_vertex_conflict() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    W = importlib.import_module("workloads")
    grid = importlib.import_module("privmapf.grid")
    plans = importlib.import_module("privmapf.plans")
    wl = W.WORKLOADS["smoke"]
    world = grid.load_map(W.bench.resolve_map(wl.map_name))
    inst = W.make_instances(world, wl, seed=3, count=1)[0]
    out, privacy, refined, _ = W.solve_instance(world, wl, inst)
    assert out.solved
    assert W.gate(world, wl, inst, out, privacy, refined).reason is None

    # Sub-agent 1 steps onto sub-agent 0's vertex at t=1.
    paths = [list(p) for p in out.plan.paths]
    paths[1][1] = paths[0][1]
    broken = dataclasses.replace(out, plan=plans.JointPlan(tuple(map(tuple, paths))))
    oc = W.gate(world, wl, inst, broken, privacy, refined)
    assert oc.reason == "verify_failed" and oc.failed, oc
    assert "vertex" in oc.detail, oc.detail
    print(f"ok: gate rejects an injected vertex conflict ({oc.detail})")


def check_stripped_directory_fails() -> None:
    stripped = HERE / "out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    (stripped / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", stripped)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy2(f, stripped / "perfbench")
    proc = run_bench(stripped, "--workload", "refine", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(stripped)
    assert proc.returncode not in (0, 1), proc
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok: without src/ run.py exits {proc.returncode} and prints no result")


def main() -> int:
    check_smoke_runs()
    check_gate_rejects_vertex_conflict()
    check_stripped_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
