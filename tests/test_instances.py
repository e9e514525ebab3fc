"""Seeded instance placement against a copy of the original sampler."""

import random

import pytest

from privmapf import instances
from privmapf.grid import ConfigError
from privmapf.instances import PlacementError, default_separation, random_spaced_pairs


def _reference_random_spaced_pairs(world, n, seed, min_separation=None):
    """The sampler as first written: public ``randrange`` draws and one
    ``chebyshev`` call per accepted pair on each side."""
    if min_separation is None:
        min_separation = default_separation(world)
    rng = random.Random(f"instance:{seed}")
    starts: list[int] = []
    goals: list[int] = []
    attempts = 0
    limit = 20_000 * max(1, n)
    while len(starts) < n:
        attempts += 1
        if attempts > limit:
            raise PlacementError(
                f"could not place {n} spaced pairs on {world.width}x{world.height} map"
            )
        s = rng.randrange(world.num_vertices)
        g = rng.randrange(world.num_vertices)
        if world.components[s] != world.components[g]:
            continue
        if any(world.chebyshev(s, s2) < min_separation for s2 in starts):
            continue
        if any(world.chebyshev(g, g2) < min_separation for g2 in goals):
            continue
        starts.append(s)
        goals.append(g)
    return list(zip(starts, goals))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PlacementError as exc:
        return type(exc), str(exc)


def _fits(world, n, sep):
    blocks = -(-world.width // sep) * -(-world.height // sep)
    return n <= min(blocks, world.num_vertices)


# Greedy draws rarely fit 8 or more starts five apart on open16, and the
# reference takes seconds to exhaust its 20 000·n draws there; a two-room
# cell exhausts both samplers at a fraction of the cost.
SLOW_EXHAUSTION = {("open16", n, 5) for n in (8, 12, 16)}


def test_placement_matches_reference(placement_worlds):
    placed = exhausted = prechecked = 0
    for name, world in placement_worlds.items():
        for n in (1, 2, 4, 8, 12, 16):
            for sep in (1, 2, 3, 5):
                if (name, n, sep) in SLOW_EXHAUSTION:
                    continue
                seed = f"{name}:{n}:{sep}"
                got = _outcome(random_spaced_pairs, world, n, seed, sep)
                if not _fits(world, n, sep):
                    prechecked += 1
                    assert got == (PlacementError, f"could not place {n} spaced pairs on "
                                                   f"{world.width}x{world.height} map")
                    continue
                assert got == _outcome(_reference_random_spaced_pairs, world, n, seed, sep), seed
                placed += isinstance(got, list)
                exhausted += not isinstance(got, list)
    assert placed > 60 and exhausted >= 1 and prechecked >= 10


# exact ints: 2.5 would pass as 3 and True as 1
@pytest.mark.parametrize("sep", [0, -4, 2.5, True])
def test_separation_below_one_is_rejected(open16, sep):
    with pytest.raises(ValueError, match="min_separation must be >= 1"):
        random_spaced_pairs(open16, 2, 0, min_separation=sep)


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_agent_count_below_one_is_rejected(open16, n):
    with pytest.raises(ConfigError, match="the agent count must be >= 1"):
        random_spaced_pairs(open16, n, 0)


@pytest.mark.parametrize("n, sep", [(10, 6), (257, 1), (5, 16)])
def test_unplaceable_count_fails_before_drawing(open16, monkeypatch, n, sep):
    # 3x3 blocks of six cells, 256 vertices, and one 16-cell block
    monkeypatch.setattr(instances, "random", None)  # any draw would raise AttributeError
    with pytest.raises(PlacementError, match=f"could not place {n} spaced pairs on 16x16 map"):
        random_spaced_pairs(open16, n, 0, min_separation=sep)

