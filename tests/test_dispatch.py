"""Mock-group dispatch and the no-collision probability model.

The closed-form probability must equal, as a float, the brute-force
enumeration oracle (``conftest.brute_force_no_collision``: exact rational
arithmetic over all mock placements) at small sizes, and the frozen
fractions pin the published reference values.
"""

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from itertools import permutations, product

import pytest

from privmapf import dispatch
from privmapf.dispatch import (
    AgentGroup,
    DispatchExhaustedError,
    DispatchVerificationError,
    InfeasibleInputError,
    _sample_mock_pair,
    dispatch_groups,
    no_collision_probability,
    pairs_collide,
    propose_groups,
    read_private_sidecar,
    verify_dispatch,
    write_private_sidecars,
)
from privmapf.grid import ConfigError, parse_map_text
from privmapf.instances import PlacementError, default_separation, random_spaced_pairs
from privmapf.lacam import lacam_solve
from privmapf.pibt import SolverProblem
from privmapf.pipeline import PipelineSpec, run_pipeline

from conftest import brute_force_no_collision

LINE10 = "type octile\nheight 1\nwidth 10\nmap\n..........\n"


def line_world(n=10):
    return parse_map_text(f"type octile\nheight 1\nwidth {n}\nmap\n{'.' * n}\n")


# -- group validation ------------------------------------------------------


def test_group_rejects_duplicate_starts():
    with pytest.raises(InfeasibleInputError):
        AgentGroup(0, ((1, 2), (1, 3)), 0)


def test_group_rejects_duplicate_goals():
    with pytest.raises(InfeasibleInputError):
        AgentGroup(0, ((1, 2), (3, 2)), 0)


def test_group_allows_start_equal_other_goal():
    # only starts among themselves and goals among themselves must differ
    g = AgentGroup(0, ((1, 2), (2, 5)), 1)
    assert g.k == 2
    assert g.real_pair == (2, 5)


def test_group_real_index_bounds():
    with pytest.raises(InfeasibleInputError):
        AgentGroup(0, ((1, 2),), 1)


def test_broadcast_view_strips_private_part():
    g = AgentGroup(3, ((1, 2), (4, 5)), 1)
    view = g.broadcast_view()
    assert view.real_index is None
    assert view.pairs == g.pairs
    with pytest.raises(ValueError, match="no real pair"):
        view.real_pair


# -- collision rules -------------------------------------------------------


def test_equality_rule_start_start_and_goal_goal_only():
    w = line_world()
    assert pairs_collide(w, (1, 5), (1, 8), 0)  # shared start
    assert pairs_collide(w, (1, 5), (3, 5), 0)  # shared goal
    assert not pairs_collide(w, (1, 5), (5, 1), 0)  # start vs goal is fine
    assert not pairs_collide(w, (1, 5), (2, 6), 0)


def test_fov_rule_uses_chebyshev_distance():
    w = parse_map_text("type octile\nheight 5\nwidth 5\nmap\n" + "\n".join(["....."] * 5) + "\n")
    a = (w.vertex_at(0, 0), w.vertex_at(4, 4))
    near = (w.vertex_at(1, 1), w.vertex_at(4, 0))
    far = (w.vertex_at(3, 0), w.vertex_at(4, 0))
    assert pairs_collide(w, a, near, 1)  # starts diagonal-adjacent
    assert pairs_collide(w, near, far, 1)  # goals within radius... same goal
    assert not pairs_collide(w, a, (w.vertex_at(3, 2), w.vertex_at(0, 4)), 1)


def test_dispatch_is_deterministic():
    w = line_world(10)
    reals = [(0, 9), (4, 2)]
    g1 = dispatch_groups(w, reals, 2, 0, seed=5)
    g2 = dispatch_groups(w, reals, 2, 0, seed=5)
    g3 = dispatch_groups(w, reals, 2, 0, seed=6)
    assert [g.pairs for g in g1] == [g.pairs for g in g2]
    assert [g.real_index for g in g1] == [g.real_index for g in g2]
    assert [g.pairs for g in g1] != [g.pairs for g in g3]


def test_dispatch_shapes_and_verification(open16):
    reals = [(0, 100), (30, 200), (60, 77)]
    groups = dispatch_groups(w := open16, reals, 3, 1, seed=0)
    assert len(groups) == 3
    for i, g in enumerate(groups):
        assert g.k == 3
        assert g.real_pair == reals[i]
    verify_dispatch(w, groups, 1)


def test_dispatch_k1_returns_reals_unchanged(open16):
    reals = [(0, 100), (30, 200)]
    groups = dispatch_groups(open16, reals, 1, 0, seed=0)
    assert [g.pairs for g in groups] == [((0, 100),), ((30, 200),)]
    assert [g.real_index for g in groups] == [0, 0]


def test_dispatch_rejects_colliding_reals():
    w = line_world()
    with pytest.raises(InfeasibleInputError):
        dispatch_groups(w, [(0, 5), (0, 7)], 2, 0, 0)


def _pipeline(world, reals, k, radius, seed):
    return run_pipeline(world, reals, PipelineSpec(k, radius), seed)


# a pair is two int vertex ids: -1 would index as vertex 255, True as 1
@pytest.mark.parametrize("entry,reals,agent", [
    (dispatch_groups, [(-1, 5)], 0),
    (_pipeline, [(-1, 5), (40, 100)], 0),
    (dispatch_groups, [(256, 5)], 0),
    (dispatch_groups, [(True, 5)], 0),
    (dispatch_groups, [(40, 100), (5, -3)], 1),
    (dispatch_groups, [(40, 100, 7)], 0),
    (dispatch_groups, [(40,)], 0),
])
def test_dispatch_rejects_endpoints_that_are_not_vertex_ids(
    open16, monkeypatch, entry, reals, agent
):
    def unreachable(*args):
        raise AssertionError("the endpoints are checked first")

    monkeypatch.setattr(dispatch, "pairs_collide", unreachable)
    monkeypatch.setattr(dispatch.random, "Random", unreachable)
    with pytest.raises(InfeasibleInputError, match=f"agent {agent}: real pair"):
        entry(open16, reals, 2, 0, 0)


# a proposal is dispatch's draw, so it takes dispatch's input check and errors:
# -1 would index as vertex 255, a start that a mock could then repeat
@pytest.mark.parametrize("reals,k,error,message", [
    ([(-1, 5)], 2, InfeasibleInputError, "agent 0: real pair (-1, 5) is not two vertex ids"),
    ([(True, 5)], 2, InfeasibleInputError, "agent 0: real pair (True, 5) is not two vertex ids"),
    ([(300, 5)], 2, InfeasibleInputError, "agent 0: real pair (300, 5) is not two vertex ids"),
    ([], 2, InfeasibleInputError, "no real pairs to dispatch"),
    ([(0, 5)], 0, ConfigError, "k must be >= 1"),
    ([(0, 5)], True, ConfigError, "k must be >= 1"),
    ([(0, 5)], 2.5, ConfigError, "k must be >= 1"),
])
def test_proposal_checks_input_as_dispatch_does(open16, reals, k, error, message):
    for entry in (lambda: propose_groups(open16, reals, k, random.Random(0)),
                  lambda: dispatch_groups(open16, reals, k, 0, 0)):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            entry()


def test_dispatch_rejects_negative_radius():
    with pytest.raises(ConfigError, match="fov radius must be >= 0"):
        dispatch_groups(line_world(), [(0, 5)], 2, -1, 0)


# exact ints, as PipelineSpec checks them: 2.5 would end in a bare
# TypeError, True would act as 1 and 1.5 as 1
@pytest.mark.parametrize("k,radius,error,message", [
    (2.5, 0, ConfigError, "k must be >= 1"),
    (True, 0, ConfigError, "k must be >= 1"),
    (2, 1.5, ConfigError, "fov radius must be >= 0"),
    (2, True, ConfigError, "fov radius must be >= 0"),
    (0, 0, ConfigError, "k must be >= 1"),
    # open16 has 256 vertices, too few for 257 distinct starts
    (257, 0, InfeasibleInputError, "^256 vertices cannot host groups of 257 distinct starts$"),
])
def test_dispatch_checks_k_and_radius_as_ints(open16, k, radius, error, message):
    with pytest.raises(error, match=message):
        dispatch_groups(open16, [(0, 5)], k, radius, 0)


def test_dispatch_rejects_zero_pairs_before_drawing(open16, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the pair count is checked first")

    monkeypatch.setattr(dispatch.random, "Random", unreachable)
    with pytest.raises(InfeasibleInputError, match="no real pairs to dispatch"):
        dispatch_groups(open16, [], 2, 0, 0)
    with pytest.raises(InfeasibleInputError, match="no real pairs to dispatch"):
        run_pipeline(open16, [], PipelineSpec(2), 0)


def test_dispatch_exhausts_when_no_room():
    w = line_world(4)
    # 4 vertices, k=3, N=2: needs 6 distinct starts -- impossible
    with pytest.raises((DispatchExhaustedError, InfeasibleInputError)):
        dispatch_groups(w, [(0, 1), (2, 3)], 3, 0, 0)


def test_dispatch_mocks_are_reachable():
    w = parse_map_text("type octile\nheight 1\nwidth 9\nmap\n....@....\n")
    groups = dispatch_groups(w, [(0, 3)], 3, 0, seed=1)
    for s, g in groups[0].pairs:
        assert w.components[s] == w.components[g]


def test_real_index_is_uniform_after_shuffle():
    w = line_world(12)
    counts = [0, 0, 0]
    n = 6000
    for seed in range(n):
        groups = dispatch_groups(w, [(0, 11)], 3, 0, seed=seed)
        counts[groups[0].real_index] += 1
    for c in counts:
        assert abs(c / n - 1 / 3) < 0.02


def test_private_sidecars_round_trip(tmp_path, open16):
    groups = dispatch_groups(open16, [(0, 100), (30, 200)], 2, 0, 7)
    write_private_sidecars(groups, tmp_path)
    private = [read_private_sidecar(tmp_path, g.group_id, g.k) for g in groups]
    assert private == [g.real_index for g in groups]
    # a broadcast view has no sidecar to write
    with pytest.raises(ValueError, match="group 0 has no private real index"):
        write_private_sidecars([g.broadcast_view() for g in groups], tmp_path / "views")
    assert not any((tmp_path / "views").iterdir())


# -- background knowledge --------------------------------------------------


def prior_aware_posteriors(world, published, sep):
    """Each published group's exact posterior over its candidates, as seen by
    an observer who knows the real pairs are spaced by ``sep``.

    The observer weights uniformly every joint choice of one pair per group
    whose starts are pairwise at Chebyshev distance >= sep, and whose goals
    are too; backtracking counts, for each group and candidate, the choices
    that pick it. It reads only the published pairs.
    """
    counts = [[0] * g.k for g in published]
    chosen = []

    def extend(i):
        if i == len(published):
            for g, c in enumerate(chosen):
                counts[g][c] += 1
            return
        for c, pair in enumerate(published[i].pairs):
            if not any(pairs_collide(world, pair, published[j].pairs[cj], sep - 1)
                       for j, cj in enumerate(chosen)):
                chosen.append(c)
                extend(i + 1)
                chosen.pop()

    extend(0)
    total = sum(counts[0])
    return [[Fraction(n, total) for n in row] for row in counts]


def test_prior_aware_observer_sees_the_spacing_leak(open16):
    """Mocks are drawn without the instance generator's spacing, so an
    observer who knows ``default_separation`` rules some candidates out.

    ``audit_trace`` counts belief-set sizes, so it cannot see this leak:
    it is k-anonymity's known weakness against background knowledge
    (Machanavajjhala et al., l-Diversity, ICDE 2006). An exact dispatch
    sampler that rejects mocks at the real pairs' spacing is expected to move
    this cell to a mean of exactly 1/k with no group pinned; that change must
    replace the frozen numbers below on purpose.
    """
    sep = default_separation(open16)
    on_real = []
    for seed in range(40):
        groups = dispatch_groups(open16, random_spaced_pairs(open16, 4, seed), 2, 0, seed)
        seen = prior_aware_posteriors(open16, [g.broadcast_view() for g in groups], sep)
        for group, posterior in zip(groups, seen):
            assert sum(posterior) == 1
            on_real.append(posterior[group.real_index])  # the scorer alone reads it
    assert len(on_real) == 160
    assert sum(on_real) / len(on_real) == Fraction(14053, 22400)  # 1/k is 1/2
    assert on_real.count(1) == 26


def seed_replays(world, published, k, radius, seeds):
    """Every (seed, real pairs) under which ``dispatch_groups`` publishes
    ``published`` again: an observer who knows the code tries each seed and
    each choice of one published pair per group as the real ones. It reads
    only the published pairs."""
    pairs = [g.pairs for g in published]
    found = []
    for seed in seeds:
        for reals in product(*pairs):
            try:
                again = dispatch_groups(world, list(reals), k, radius, seed)
            except (InfeasibleInputError, DispatchExhaustedError):
                continue
            if [g.pairs for g in again] == pairs:
                found.append((seed, reals))
    return found


@pytest.mark.parametrize("map_name,n,k,radius,seed", [
    ("open16", 3, 3, 1, 0),
    ("open16", 3, 3, 1, 7),
    ("room-32-32-4", 5, 2, 0, 0),
])
def test_a_seeded_dispatch_can_be_replayed(placement_worlds, map_name, n, k, radius, seed):
    """Dispatch draws its mocks and its real-index shuffle from the run's
    seed, so replaying it over seeds 0-19 keeps exactly one (seed, real
    pairs): the true one. Every group is pinned, so a seeded run is a
    reproducible experiment, not a private one: the belief-set guarantee
    holds only while the seed is secret. A private dispatch key (ROADMAP
    item 11) must replace this frozen outcome on purpose."""
    world = placement_worlds[map_name]
    reals = random_spaced_pairs(world, n, seed)
    groups = dispatch_groups(world, reals, k, radius, seed)
    found = seed_replays(world, [g.broadcast_view() for g in groups], k, radius, range(20))
    assert found == [(seed, tuple(reals))]


@pytest.mark.parametrize("map_name,n,k,radius,budget,seed", [
    *[("open16", 3, 2, 1, 300, seed) for seed in range(4)],
    *[("open16", 4, 2, 0, 300, seed) for seed in range(3)],
    ("random-32-32-20", 4, 3, 1, 1500, 0),
])
def test_the_broadcast_plan_gives_the_seed_away(placement_worlds, map_name, n, k, radius,
                                                budget, seed):
    """``run_pipeline`` seeds LaCAM's stream with the dispatch seed, so an
    observer who replays LaCAM on the published groups over seeds 0-19 finds
    the broadcast plan again at exactly one seed, the run's, and replaying
    dispatch at that seed pins every real pair. The plan alone gives the
    seed away, a second route beside the dispatch replay above. A private
    dispatch key (ROADMAP item 11) must replace this frozen outcome on
    purpose."""
    world = placement_worlds[map_name]
    reals = random_spaced_pairs(world, n, seed)
    out = run_pipeline(world, reals, PipelineSpec(k, radius, budget), seed)
    assert out.solved
    published = list(out.trace.published_groups)
    found = [s for s in range(20)
             if lacam_solve(SolverProblem(world, published, radius), s, budget).plan == out.plan]
    assert found == [seed]
    assert seed_replays(world, published, k, radius, found) == [(seed, tuple(reals))]


# two rooms of 8 and 16 cells either side of a wall column
SPLIT_ROOMS = "type octile\nheight 4\nwidth 7\nmap\n" + "..@....\n" * 4


def placement_law(world, reals, sep):
    """P(``random_spaced_pairs`` places ``reals``, in order): each pair is
    uniform over the pairs valid after the ones before it, a start and a goal
    of one component, each at Chebyshev distance >= sep from the starts
    (goals) placed so far. The attempt limit is left out; it moves no number
    frozen below, which are pinned groups (a posterior of exactly 0 or 1
    under either law) or N = 1 (one step, whose limit weighs every pair alike)."""
    comp, law = world.components, Fraction(1)
    for i, (s, g) in enumerate(reals):
        starts = [v for v in range(world.num_vertices)
                  if all(world.chebyshev(v, x) >= sep for x, _ in reals[:i])]
        goals = [v for v in range(world.num_vertices)
                 if all(world.chebyshev(v, y) >= sep for _, y in reals[:i])]
        if s not in starts or g not in goals or comp[s] != comp[g]:
            return Fraction(0)
        law /= sum(comp[a] == comp[b] for a in starts for b in goals)
    return law


def mock_law(world, real, mocks, rivals, radius):
    """P(``_draw_group`` draws ``mocks``, in order, after ``real``). A proposal
    (s, g) weighs 1/|unused starts| * 1/|unused goals in s's component|; a
    mock is the first of MAX_RETRIES proposals that collides with no rival,
    so one of weight q is drawn with probability q/Q * (1 - (1 - Q)^MAX_RETRIES),
    Q being the weight of all proposals that collide with none."""
    used_starts, used_goals, law = {real[0]}, {real[1]}, Fraction(1)
    for mock in mocks:
        starts = [v for v in range(world.num_vertices) if v not in used_starts]
        weight = {}
        for s in starts:
            goals = [g for g in world.component_members(s) if g not in used_goals]
            for g in goals:
                if not any(pairs_collide(world, (s, g), q, radius) for q in rivals):
                    weight[s, g] = Fraction(1, len(starts) * len(goals))
        if mock not in weight:
            return Fraction(0)
        total = sum(weight.values())
        law *= weight[mock] / total * (1 - (1 - total) ** dispatch.MAX_RETRIES)
        used_starts.add(mock[0])
        used_goals.add(mock[1])
    return law


def bayes_likelihoods(world, published, radius, sep):
    """P(dispatch publishes ``published``) for each choice of one pair per
    group as the real ones: the placement law, each group's mocks drawn
    against the other groups' reals and the mocks committed before it, in
    any hidden order, and the shuffle, which publishes one order of k pairs
    with probability 1/k!. It reads only the published pairs."""
    likelihoods = {}
    for choice in product(*(range(len(pairs)) for pairs in published)):
        reals = [pairs[c] for pairs, c in zip(published, choice)]
        law, committed = placement_law(world, reals, sep), []
        for gid, (pairs, c) in enumerate(zip(published, choice)):
            mocks = pairs[:c] + pairs[c + 1:]
            rivals = reals[:gid] + reals[gid + 1:] + committed
            law *= sum(mock_law(world, reals[gid], order, rivals, radius)
                       for order in permutations(mocks))
            law /= math.factorial(len(pairs))
            committed += mocks
        likelihoods[choice] = law
    return likelihoods


def test_the_exact_bayes_observer_on_tiny_maps(open4):
    """ROADMAP item 7: the Bayesian observer of Shokri et al., *Quantifying
    Location Privacy* (IEEE S&P 2011), who knows the laws of placement,
    dispatch and the shuffle, over k = 2, r in {0, 1} and seeds 0-19. An
    outside observer weighs every choice of real pairs; an insider knows
    group 0's. Frozen per map, N and observer: the placed cells, the groups
    judged, the largest |posterior - 1/k|, the smallest effective k (1/max
    posterior) and the groups pinned. These are findings, not failures: the
    spacing of the real pairs pins most groups on the open map, and the
    mocks' 1/|component| goal weight, against the reals' uniform pairs,
    tells the rooms apart even at N = 1."""
    half = Fraction(1, 2)
    seen = {}
    for name, world in (("open4", open4), ("split", parse_map_text(SPLIT_ROOMS))):
        for n in (1, 2):
            placed, judged = 0, {"outside": [], "insider": []}
            for radius, seed in product((0, 1), range(20)):
                try:
                    reals = random_spaced_pairs(world, n, seed)
                except PlacementError:
                    continue
                placed += 1
                groups = dispatch_groups(world, reals, 2, radius, seed)
                likelihoods = bayes_likelihoods(
                    world, [g.pairs for g in groups], radius, default_separation(world))
                real = tuple(g.real_index for g in groups)  # the scorer alone reads it
                assert likelihoods[real] > 0
                for observer, first in (("outside", 0), ("insider", 1)):
                    known = {c: w for c, w in likelihoods.items()
                             if observer == "outside" or c[0] == real[0]}
                    total = sum(known.values())
                    for i in range(first, n):
                        judged[observer].append(
                            [sum(w for c, w in known.items() if c[i] == j) / total for j in (0, 1)])
            for observer, posteriors in judged.items():
                if posteriors:
                    assert all(sum(p) == 1 for p in posteriors)
                    seen[name, n, observer] = (
                        placed, len(posteriors),
                        max(abs(x - half) for p in posteriors for x in p),
                        min(1 / max(p) for p in posteriors),
                        sum(max(p) == 1 for p in posteriors))
            if (name, n) == ("open4", 1):  # one group on one component: exactly 1/k
                assert all(p == [half, half] for p in judged["outside"])
    assert seen == {
        ("open4", 1, "outside"): (40, 40, 0, 2, 0),
        ("open4", 2, "outside"): (26, 52, half, 1, 47),
        ("open4", 2, "insider"): (26, 26, half, 1, 25),
        ("split", 1, "outside"): (40, 40, Fraction(1, 6), Fraction(3, 2), 0),
        ("split", 2, "outside"): (40, 80, half, 1, 23),
        ("split", 2, "insider"): (40, 40, half, 1, 22),
    }


# -- probability model -----------------------------------------------------


@pytest.mark.parametrize("n,k,N", [(8, 2, 2), (10, 2, 2), (9, 3, 2), (10, 2, 3)])
def test_closed_form_matches_enumeration(n, k, N):
    # the exact fraction, not a float near it
    assert no_collision_probability(n, k, N) == brute_force_no_collision(n, k, N)


def test_frozen_reference_values():
    assert no_collision_probability(10, 2, 2) == Fraction(3136, 6561)
    assert no_collision_probability(20, 2, 3) == Fraction(4080, 6859) ** 2


def test_probability_degenerate_cases():
    assert no_collision_probability(5, 1, 3) == 1
    assert no_collision_probability(4, 3, 2) == 0  # 6 distinct starts on 4 vertices
    # every free count is >= 15, so the round can succeed, however rarely:
    # the exact value lies below the smallest float
    assert no_collision_probability(1024, 16, 60) > 0
    with pytest.raises(ValueError):
        no_collision_probability(0, 1, 1)
    with pytest.raises(ValueError):
        no_collision_probability(5, 0, 1)


def test_proposal_distribution_matches_model():
    """The documented sampler (no retries) should succeed with the closed-form
    frequency; dispatch with retries then just conditions on success."""
    w = line_world(10)
    n = 4000
    hits = 0
    for seed in range(n):
        groups = propose_groups(w, [(0, 9), (5, 3)], 2, random.Random(seed))
        try:
            verify_dispatch(w, groups, 0)
            hits += 1
        except DispatchVerificationError:
            pass
    expect = no_collision_probability(10, 2, 2)
    se = math.sqrt(expect * (1 - expect) / n)
    assert abs(hits / n - expect) < 4 * se


def test_proposal_is_dispatch_draw_on_connected_maps(open16, random32, room32, monkeypatch):
    """On a connected map a goal drawn from its start's component is drawn
    from all of V: the digest is that of proposals whose goals are drawn
    from all of V, the closed form's model. With no rivals, no pair is
    ever checked for a collision."""
    def unreachable(*args):
        raise AssertionError("a proposal has no rivals")

    monkeypatch.setattr(dispatch, "pairs_collide", unreachable)
    digest = hashlib.sha256()
    for name, world in [("open16", open16), ("random-32-32-20", random32),
                        ("room-32-32-4", room32)]:
        for n in (2, 4, 8):
            reals = random_spaced_pairs(world, n, f"{name}:{n}")
            for k in (2, 3, 5):
                for seed in range(20):
                    rng = random.Random(f"{name}:{n}:{k}:{seed}")
                    groups = propose_groups(world, reals, k, rng)
                    digest.update(json.dumps(
                        [[g.group_id, g.pairs, g.real_index] for g in groups]).encode())
    assert digest.hexdigest() == (
        "7ac8441d233c0c74b38064d568d5bebcbc57b27d41141fe945be4bccd90de4de")


def test_proposed_mock_goals_share_their_start_component(two_rooms):
    # the proposal is dispatch's draw; a proposal that drew goals from all
    # of V put a mock goal across the wall already at seed 0
    left, right = two_rooms.vertex_at(0, 0), two_rooms.vertex_at(8, 2)
    for seed in range(20):
        for g in propose_groups(two_rooms, [(left, two_rooms.vertex_at(3, 2)),
                                            (right, two_rooms.vertex_at(5, 0))], 3,
                                random.Random(seed)):
            assert all(two_rooms.components[s] == two_rooms.components[goal]
                       for s, goal in g.pairs), seed


# -- mock sampling against a copy of the original sampler -------------------


def _reference_sample_mock_pair(world, rng, used_starts, used_goals):
    """The sampler as first written: both pools built in full on every draw."""
    start_pool = [v for v in range(world.num_vertices) if v not in used_starts]
    if not start_pool:
        raise InfeasibleInputError("no free start vertex left for a mock pair")
    s = rng.choice(start_pool)
    goal_pool = [
        v
        for v in range(world.num_vertices)
        if v not in used_goals and world.components[v] == world.components[s]
    ]
    if not goal_pool:
        raise InfeasibleInputError("no free goal vertex left for a mock pair")
    return s, rng.choice(goal_pool)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InfeasibleInputError, DispatchExhaustedError) as exc:
        return type(exc), str(exc)


def _used_sets(world):
    """Used-vertex sets that put a used vertex at index 0 and at the last
    index of every pool and fill a component. Both entries reject an off-map
    real endpoint, so no used set holds one."""
    members = {}
    for v in range(world.num_vertices):
        members.setdefault(world.components[v], []).append(v)
    last = world.num_vertices - 1
    sets = [set(), {0}, {last}, {0, 1, last}, set(range(world.num_vertices))]
    for comp in members.values():
        sets += [{comp[0]}, {comp[-1]}, {comp[0], comp[-1]}, set(comp)]
    rng = random.Random(0)
    sets += [set(rng.sample(range(world.num_vertices), size)) for size in (2, 3, 5)]
    return sets


def test_mock_pair_matches_reference(placement_worlds):
    errors = set()
    for world in placement_worlds.values():
        seeds = range(20) if world.num_vertices < 100 else range(2)
        sets = _used_sets(world)
        for used_starts in sets:
            for used_goals in sets:
                for seed in seeds:
                    args = (used_starts, used_goals)
                    got = _outcome(_sample_mock_pair, world, random.Random(seed), *args)
                    want = _outcome(_reference_sample_mock_pair, world, random.Random(seed), *args)
                    assert got == want, (used_starts, used_goals, seed)
                    if isinstance(got[0], type):
                        errors.add(got[1])
    assert errors == {"no free start vertex left for a mock pair",
                      "no free goal vertex left for a mock pair"}


def _dispatch_cells(worlds):
    """(world, reals, n, k, r) over n, k and r, the reals spaced r + 1 apart;
    capped at n·k <= 24 to keep the reference's O(|V|) draws affordable."""
    for name, world in worlds.items():
        for n in (1, 2, 4, 8, 12, 16):
            for r in (0, 1, 2):
                try:
                    reals = random_spaced_pairs(world, n, f"{name}:{n}", r + 1)
                except PlacementError:
                    continue
                for k in (1, 2, 3, 5):
                    if n * k <= 24:
                        yield world, reals, n, k, r


def test_dispatch_matches_reference(placement_worlds, monkeypatch):
    outcomes = []
    for world, reals, n, k, r in _dispatch_cells(placement_worlds):
        seed = f"{n}:{k}:{r}"
        got = _outcome(dispatch_groups, world, reals, k, r, seed)
        with monkeypatch.context() as m:
            m.setattr(dispatch, "_sample_mock_pair", _reference_sample_mock_pair)
            assert got == _outcome(dispatch_groups, world, reals, k, r, seed), (n, k, r)
        outcomes.append(type(got))
    assert outcomes.count(list) > 150 and outcomes.count(tuple) >= 3


def test_propose_groups_matches_reference(placement_worlds, monkeypatch):
    for world, reals, n, k, r in _dispatch_cells(placement_worlds):
        seed = f"{n}:{k}:{r}"
        got = _outcome(propose_groups, world, reals, k, random.Random(seed))
        with monkeypatch.context() as m:
            m.setattr(dispatch, "_sample_mock_pair", _reference_sample_mock_pair)
            assert got == _outcome(propose_groups, world, reals, k, random.Random(seed)), seed
