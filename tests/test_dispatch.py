"""Mock-group dispatch and the no-collision probability model.

The closed-form probability is checked against a brute-force enumeration
oracle (exact rational arithmetic over all mock placements) at small sizes,
and the frozen fractions pin the published reference values.
"""

import math
from fractions import Fraction
from itertools import combinations

import pytest

from privmapf.dispatch import (
    AgentGroup,
    DispatchExhaustedError,
    DispatchVerificationError,
    InfeasibleInputError,
    dispatch_groups,
    groups_collide,
    no_collision_probability,
    no_collision_probability_blocked_set,
    pairs_collide,
    propose_groups,
    read_private_sidecars,
    verify_dispatch,
    write_private_sidecars,
)
from privmapf.grid import parse_map_text

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


def test_groups_collide_any_pair():
    w = line_world()
    a = AgentGroup(0, ((0, 5), (1, 6)), 0)
    b = AgentGroup(1, ((2, 7), (1, 8)), 0)  # shares start 1 with a
    c = AgentGroup(2, ((3, 8),), 0)  # start 3 and goal 8 clash with nothing in a
    assert groups_collide(w, a, b, 0)
    assert not groups_collide(w, a, c, 0)
    assert groups_collide(w, b, c, 0)  # shared goal 8


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


def test_dispatch_rejects_negative_radius():
    with pytest.raises(ValueError, match="fov radius must be >= 0"):
        dispatch_groups(line_world(), [(0, 5)], 2, -1, 0)


def test_dispatch_exhausts_when_no_room():
    w = line_world(4)
    # 4 vertices, k=3, N=2: needs 6 distinct starts -- impossible
    with pytest.raises((DispatchExhaustedError, InfeasibleInputError)):
        dispatch_groups(w, [(0, 1), (2, 3)], 3, 0, 0)


def test_dispatch_mocks_are_reachable():
    w = parse_map_text("type octile\nheight 1\nwidth 9\nmap\n....@....\n")
    groups = dispatch_groups(w, [(0, 3)], 3, 0, seed=1)
    for s, g in groups[0].pairs:
        assert w.same_component(s, g)


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
    private = read_private_sidecars(tmp_path)
    assert private == {g.group_id: g.real_index for g in groups}


# -- probability model -----------------------------------------------------


def brute_force_no_collision(n_vertices, k, n_agents):
    """Exact probability by enumerating every mock draw for the documented
    sampler: each agent's mock starts are a uniform (k-1)-subset of the
    other vertices, goals likewise, agents independent; success means no
    shared start and no shared goal anywhere (real endpoints spaced apart)."""
    reals = list(range(n_agents))  # agent i: start i, goal i (disjoint by design)

    def side_probability():
        # starts and goals behave identically and independently
        total = Fraction(0)
        pool = [v for v in range(n_vertices)]
        per_agent = [
            list(combinations([v for v in pool if v != reals[i]], k - 1))
            for i in range(n_agents)
        ]

        def rec(i, used):
            if i == n_agents:
                return Fraction(1)
            hit = Fraction(0)
            options = per_agent[i]
            for mocks in options:
                if used.isdisjoint(mocks):
                    hit += rec(i + 1, used | set(mocks))
            return hit / len(options)

        return rec(0, set(reals))

    p = side_probability()
    return p * p


@pytest.mark.parametrize("n,k,N", [(8, 2, 2), (10, 2, 2), (9, 3, 2), (10, 2, 3)])
def test_closed_form_matches_enumeration(n, k, N):
    exact = brute_force_no_collision(n, k, N)
    got = no_collision_probability(n, k, N).probability
    assert math.isclose(got, float(exact), rel_tol=1e-12)


def test_frozen_reference_values():
    p10 = no_collision_probability(10, 2, 2)
    assert math.isclose(p10.probability, 3136 / 6561, rel_tol=1e-12)
    p20 = no_collision_probability(20, 2, 3)
    assert math.isclose(p20.probability, (4080 / 6859) ** 2, rel_tol=1e-12)
    blocked = no_collision_probability_blocked_set(10, 2, 2)
    assert math.isclose(blocked.probability, 10 / 36, rel_tol=1e-12)


def test_blocked_set_form_is_not_the_sampled_process():
    # the simpler pairwise bound is kept for comparison; it differs a lot
    exact = no_collision_probability(10, 2, 2).probability
    blocked = no_collision_probability_blocked_set(10, 2, 2).probability
    assert abs(exact - blocked) > 0.15


def test_probability_degenerate_cases():
    assert no_collision_probability(5, 1, 3).probability == 1.0
    est = no_collision_probability(4, 3, 2)
    assert est.degenerate
    assert est.probability == 0.0
    with pytest.raises(ValueError):
        no_collision_probability(0, 1, 1)
    with pytest.raises(ValueError):
        no_collision_probability(5, 0, 1)


def test_proposal_distribution_matches_model():
    """The documented sampler (no retries) should succeed with the closed-form
    frequency; dispatch with retries then just conditions on success."""
    import random

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
    expect = no_collision_probability(10, 2, 2).probability
    se = math.sqrt(expect * (1 - expect) / n)
    assert abs(hits / n - expect) < 4 * se
