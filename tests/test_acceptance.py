"""Whole-toolkit acceptance checks, one test per shipped guarantee.

Each test covers one end-to-end property at its stated tolerance and prints
a single verdict line (visible with ``pytest -s``; ``pytest -v`` shows one
PASSED/FAILED per guarantee either way). The two planning-heavy suites are
module-scoped fixtures shared by the tests that need them, so the module
runs in a few minutes total.
"""

import math
import random
from fractions import Fraction

import pytest

from privmapf.audit import audit, audit_trace, check_separated
from privmapf.bench import resolve_map
from privmapf.dispatch import (
    AgentGroup,
    DispatchExhaustedError,
    DispatchVerificationError,
    no_collision_probability,
    propose_groups,
    verify_dispatch,
)
from privmapf.grid import load_map, parse_map_text
from privmapf.instances import random_spaced_pairs
from privmapf.lacam import lacam_solve
from privmapf.pibt import SolverProblem
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.plans import JointPlan
from privmapf.safezone import ReplanInfeasibleError, initial_safe_zones, ppfpp

from conftest import (
    bfs_earliest_arrival,
    brute_force_no_collision,
    random_zone_table,
    replan_in_zones,
    replay_picks,
)

BUDGET = 1500


def verdict(num, label, ok, detail=""):
    line = f"[{num}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def worlds():
    return {
        "open16": (load_map(resolve_map("open16")), 3),
        "random-32-32-20": (load_map(resolve_map("random-32-32-20")), 5),
    }


@pytest.fixture(scope="module")
def refinement_suite(worlds):
    """120 fov-aware runs (2 maps x k in {2,3} x 30 seeds) with zone checks.

    Every solved run gets the full refinement treatment; the four extension
    rules are re-validated from first principles on every single pick, by
    replaying the pick log, which must end at the refined zones.
    """
    runs = []
    for map_name, (world, sep) in worlds.items():
        n = 4 if map_name == "open16" else 8
        for k in (2, 3):
            for seed in range(30):
                pairs = random_spaced_pairs(world, n, seed, min_separation=sep)
                spec = PipelineSpec(k, 1, budget_expansions=BUDGET)
                try:
                    out = run_pipeline(world, pairs, spec, seed)
                except DispatchExhaustedError:
                    out = None
                run = {"map": map_name, "k": k, "seed": seed,
                       "solved": bool(out and out.solved)}
                if run["solved"]:
                    group_of = out.problem.group_of
                    initial = initial_safe_zones(world, out.plan, group_of, 1)
                    refined = ppfpp(world, out.plan, group_of, out.real_paths, 1, seed)
                    replayed, rule_breaks = replay_picks(world, initial, 1, refined.picks)
                    extended = refined.zones.owners
                    run["log_complete"] = replayed == extended
                    run["initial_separated"] = check_separated(world, initial, 1) == []
                    run["extended_separated"] = check_separated(world, refined.zones, 1) == []
                    # every initially owned vertex keeps its owner
                    run["initial_inside_extended"] = all(
                        o < 0 or o == e
                        for before, after in zip(initial.owners, extended, strict=True)
                        for o, e in zip(before, after, strict=True)
                    )
                    run["rule_breaks"] = len(rule_breaks)
                    run["picks"] = len(refined.picks)
                    run["rsoc_before"] = refined.rsoc_before
                    run["rsoc_after"] = refined.rsoc_after
                runs.append(run)
    return runs


def test_1_privacy_of_published_plans(worlds):
    """Solved pipeline outputs keep k candidate locations per belief set,
    and fov-aware outputs never place foreign groups within view."""
    checked = belief_violations = fov_violations = 0
    for map_name, (world, sep) in worlds.items():
        for n in (4, 8):
            for k in (1, 2, 3):
                for r in (0, 1):
                    for seed in range(5):
                        pairs = random_spaced_pairs(world, n, seed, min_separation=sep)
                        spec = PipelineSpec(k, r, budget_expansions=BUDGET)
                        try:
                            out = run_pipeline(world, pairs, spec, seed)
                        except DispatchExhaustedError:
                            continue
                        if not out.solved:
                            continue
                        checked += 1
                        report = audit_trace(world, out.trace)
                        if report.below_k:
                            belief_violations += 1
                        if report.conflicts.fov_conflicts:
                            fov_violations += 1
    verdict(1, "privacy of published plans",
            checked >= 100 and belief_violations == 0 and fov_violations == 0,
            f"{checked} solved runs, {belief_violations} belief violations, "
            f"{fov_violations} fov violations")


def test_2_safe_zone_invariants(refinement_suite):
    """Initial and extended zones stay mutually invisible, initial zones are
    contained in extended ones, and every extension pick obeys all four
    claiming rules."""
    solved = [r for r in refinement_suite if r["solved"]]
    bad_initial = sum(not r["initial_separated"] for r in solved)
    bad_extended = sum(not r["extended_separated"] for r in solved)
    bad_containment = sum(not r["initial_inside_extended"] for r in solved)
    rule_breaks = sum(r["rule_breaks"] for r in solved)
    picks = sum(r["picks"] for r in solved)
    verdict(2, "safe-zone invariants",
            len(solved) >= 60 and bad_initial == 0 and bad_extended == 0
            and bad_containment == 0 and rule_breaks == 0
            and all(r["log_complete"] for r in solved),
            f"{len(solved)} runs, {picks} picks validated, "
            f"{bad_initial}/{bad_extended}/{bad_containment}/{rule_breaks} failures")


def test_3_refinement_never_worsens(refinement_suite):
    """Refined real cost <= original real cost on every run (exact integer
    comparison), with a strict improvement somewhere in every (map, k) cell."""
    solved = [r for r in refinement_suite if r["solved"]]
    regressions = [r for r in solved if r["rsoc_after"] > r["rsoc_before"]]
    cells = {}
    for r in solved:
        cells.setdefault((r["map"], r["k"]), []).append(
            r["rsoc_after"] < r["rsoc_before"]
        )
    missing = [cell for cell, strict in cells.items() if not any(strict)]
    strict_total = sum(sum(s) for s in cells.values())
    verdict(3, "refinement never worsens",
            len(cells) == 4 and not regressions and not missing,
            f"{len(solved)} runs, 0 regressions, strict improvements "
            f"{strict_total} across {len(cells)} cells")


def test_4_degenerate_single_pair_equivalence(worlds):
    """With groups of one and no fov, the pipeline reduces bit-for-bit to
    the plain LaCAM search it wraps."""
    compared = mismatches = 0
    for map_name, (world, sep) in worlds.items():
        n = 4 if map_name == "open16" else 8
        for seed in range(10):
            pairs = random_spaced_pairs(world, n, seed, min_separation=sep)
            problem = SolverProblem(
                world, [AgentGroup(i, (p,), 0) for i, p in enumerate(pairs)], 0
            )
            base = lacam_solve(problem, seed, budget_expansions=BUDGET)
            out = run_pipeline(world, pairs, PipelineSpec(1, 0, BUDGET), seed)
            compared += 1
            same = out.solved == base.solved and (
                not base.solved or (
                    out.plan.paths == base.plan.paths
                    and out.real_paths == list(base.plan.paths)
                )
            )
            if not same:
                mismatches += 1
    verdict(4, "degenerate single-pair equivalence",
            compared == 20 and mismatches == 0,
            f"{compared} instances, {mismatches} mismatches")


BLOCKED8 = """type octile
height 8
width 8
map
........
..@@....
..@@....
........
....@@..
....@@..
........
........
"""


def test_5_replanner_matches_brute_force():
    """Safe-interval replanning returns exactly the time-expanded-graph
    optimum (or agrees the instance is infeasible) on 50 random tables."""
    open8 = parse_map_text(
        "type octile\nheight 8\nwidth 8\nmap\n" + "\n".join(["." * 8] * 8) + "\n"
    )
    blocked8 = parse_map_text(BLOCKED8)
    compared = feasible = disagreements = 0
    for case in range(50):
        rng = random.Random(f"accept5:{case}")
        world = open8 if case % 2 == 0 else blocked8
        table = random_zone_table(world, rng, (1, 12), (4, 21))
        start = rng.choice(sorted(table[0]))
        goal = rng.choice(sorted(set().union(*table)))
        expected = bfs_earliest_arrival(world, table, start, goal)
        compared += 1
        try:
            _, arrival = replan_in_zones(world, table, start, goal)
        except ReplanInfeasibleError:
            arrival = None
        if arrival != expected:
            disagreements += 1
        if expected is not None:
            feasible += 1
    verdict(5, "replanner matches brute force",
            compared == 50 and feasible >= 20 and disagreements == 0,
            f"{compared} tables, {feasible} feasible, {disagreements} disagreements")


def test_6_collision_probability_formula():
    """The closed-form acceptance rate of a blind dispatch round matches
    exhaustive enumeration exactly and a 10^5-trial simulation within three
    binomial standard errors."""
    # enumeration: 10 vertices, one mock per group, two groups
    enumerated = brute_force_no_collision(10, 2, 2)
    exact_match = (enumerated == Fraction(3136, 6561)
                   and no_collision_probability(10, 2, 2) == enumerated)

    # simulation: 20 vertices, k=2, three groups, no retries
    world20 = parse_map_text(
        "type octile\nheight 4\nwidth 5\nmap\n....." + "\n....." * 3 + "\n"
    )
    real_pairs = [(0, 5), (7, 12), (14, 19)]
    rng = random.Random("accept6")
    trials = 100_000
    hits = 0
    for _ in range(trials):
        groups = propose_groups(world20, real_pairs, 2, rng)
        try:
            verify_dispatch(world20, groups, 0)
            hits += 1
        except DispatchVerificationError:
            pass
    p = float(no_collision_probability(20, 2, 3))  # the .4f format takes no Fraction before 3.12
    se = math.sqrt(p * (1 - p) / trials)
    offset = abs(hits / trials - p)
    verdict(6, "collision probability formula",
            exact_match and offset <= 3 * se,
            f"enumeration {enumerated}, simulated {hits / trials:.4f} vs "
            f"{p:.4f} (|diff| = {offset / se:.2f} SE)")


def test_7_solve_rates_degrade_monotonically(worlds):
    """More decoys and wider views only ever make instances harder: solved
    counts over 30 seeds fall weakly in both k and the fov radius (slack 2)."""
    world, sep = worlds["random-32-32-20"]
    counts = {}
    for r in (0, 1, 2):
        for k in (1, 2, 3):
            solved = 0
            for seed in range(30):
                pairs = random_spaced_pairs(world, 10, seed, min_separation=sep)
                spec = PipelineSpec(k, r, budget_expansions=1000)
                try:
                    out = run_pipeline(world, pairs, spec, seed)
                except DispatchExhaustedError:
                    continue
                solved += out.solved
            counts[r, k] = solved
    slack = 2
    monotone_k = all(
        counts[r, k + 1] <= counts[r, k] + slack for r in (0, 1, 2) for k in (1, 2)
    )
    monotone_r = all(
        counts[r + 1, k] <= counts[r, k] + slack for r in (0, 1) for k in (1, 2, 3)
    )
    grid = "; ".join(
        f"r={r}: " + "/".join(str(counts[r, k]) for k in (1, 2, 3)) for r in (0, 1, 2)
    )
    verdict(7, "solve rates degrade monotonically", monotone_k and monotone_r, grid)


def test_8_auditor_catches_every_injected_conflict(worlds):
    """300 single-fault mutations of clean plans (vertex, swap, or
    inter-group fov overlap) are each flagged by the auditor."""
    world, sep = worlds["open16"]
    bases = []
    for seed in range(3):
        pairs = random_spaced_pairs(world, 4, seed, min_separation=sep)
        out = run_pipeline(world, pairs, PipelineSpec(2, 1, budget_expansions=BUDGET), seed)
        assert out.solved
        assert audit(world, out.plan, out.problem.group_of, 1, check_fov=True).ok
        bases.append((out.plan, out.problem.group_of))

    detected = 0
    for m in range(300):
        kind = ("vertex", "swap", "fov")[m // 100]
        plan, group_of = bases[m % 3]
        rng = random.Random(f"mutate:{m}")
        paths = [list(p) for p in plan.paths]
        n, horizon = len(paths), plan.horizon
        a, b = rng.sample(range(n), 2)
        if kind == "vertex":
            t = rng.randrange(horizon + 1)
            paths[a][t] = paths[b][t]
            hit = lambda rep: any(
                c[:3] == (min(a, b), max(a, b), t) for c in rep.vertex_conflicts
            )
        elif kind == "swap":
            t = rng.randrange(horizon)
            paths[a][t + 1], paths[b][t + 1] = paths[b][t], paths[a][t]
            hit = lambda rep: any(
                c[:3] == (min(a, b), max(a, b), t + 1) for c in rep.swap_conflicts
            )
        else:
            while group_of[a] == group_of[b]:
                a, b = rng.sample(range(n), 2)
            t = rng.randrange(horizon + 1)
            paths[a][t] = rng.choice(sorted(world.fov(paths[b][t], 1)))
            hit = lambda rep: any(
                c[:3] == (min(a, b), max(a, b), t) for c in rep.fov_conflicts
            )
        mutated = JointPlan(tuple(tuple(p) for p in paths))
        report = audit(world, mutated, group_of, fov_radius=1, check_fov=True)
        detected += bool(hit(report))
    verdict(8, "auditor catches every injected conflict", detected == 300,
            f"{detected}/300 mutations detected")
