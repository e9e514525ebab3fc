"""Property fuzz of the whole pipeline: run_pipeline -> audit -> ppfpp.

Over small random maps, agent counts, group sizes k and fov radii r in
{0, 1, 2}, every run must end either solved, audit-clean, k-private and
never worse after refinement, or in a typed failure. Any other exception
fails the test.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from privmapf.audit import audit, check_runtime_k_privacy, path_cost
from privmapf.dispatch import DispatchExhaustedError, InfeasibleInputError
from privmapf.grid import parse_map_text
from privmapf.instances import PlacementError, random_spaced_pairs
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.safezone import PreconditionError, ReplanInfeasibleError, ppfpp

# a solver that gives up says why; these are its budget and search outcomes
SOLVER_REASONS = {"timeout", "exhausted"}


@st.composite
def worlds(draw):
    """A w x h map with at most a quarter of its cells blocked."""
    w, h = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    walls = draw(st.sets(st.integers(0, w * h - 1), max_size=w * h // 4))
    rows = ["".join("@" if y * w + x in walls else "." for x in range(w)) for y in range(h)]
    return parse_map_text(f"type octile\nheight {h}\nwidth {w}\nmap\n" + "\n".join(rows) + "\n")


@given(
    world=worlds(),
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    radius=st.sampled_from([0, 1, 2]),
    separation=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_is_correct_or_fails_typed(world, n, k, radius, separation, seed):
    try:
        pairs = random_spaced_pairs(world, n, seed, min_separation=separation)
        out = run_pipeline(world, pairs, PipelineSpec(k, radius, budget_expansions=300), seed)
    except (PlacementError, DispatchExhaustedError, InfeasibleInputError) as exc:
        event(type(exc).__name__)
        return
    if not out.solved:
        assert out.reason in SOLVER_REASONS
        event(f"unsolved: {out.reason}")
        return

    plan, group_of = out.plan, out.problem.group_of
    assert audit(world, plan, group_of, fov_radius=radius, check_fov=radius > 0).ok
    assert check_runtime_k_privacy(world, plan, group_of, k, radius)["ok"]
    try:
        refined = ppfpp(world, plan, group_of, out.real_paths, radius, seed)
    except PreconditionError:
        assert radius == 0, "a clean fov-aware plan must be refinable"
        event("solved, r=0: no refinement")
        return
    except ReplanInfeasibleError:
        event("ReplanInfeasibleError")
        return
    for real, path in zip(out.real_paths, refined.refined_paths):
        assert (path[0], path[-1]) == (real[0], real[-1])
        assert path_cost(path, real[-1]) <= path_cost(real, real[-1])
    assert refined.rsoc_after <= refined.rsoc_before
    event("solved and refined")
