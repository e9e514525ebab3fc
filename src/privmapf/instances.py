"""Seeded random instances: (start, goal) pairs spaced by the map's default
separation, stated here once for the CLI, the bench and the asset script.
``privmapf solve`` and every bench suite always place at that default; only
a library caller passes another spacing to ``random_spaced_pairs``.

Placement is rejection sampling whose attempts cost O(n) for n pairs: two
vertex draws, a component-label lookup, and a coordinate comparison with the
pairs accepted so far. A count that provably cannot fit fails before any
draw."""

from __future__ import annotations

import random

from .grid import GridWorld, PrivmapfError, require_int


class PlacementError(PrivmapfError, RuntimeError):
    """Rejection sampling gave up before placing every pair."""


def default_separation(world: GridWorld) -> int:
    """The spacing of a map's instances unless one is given."""
    return 3 if world.width <= 16 else 5


def random_spaced_pairs(
    world: GridWorld,
    n: int,
    seed: int | str,
    min_separation: int | None = None,
) -> list[tuple[int, int]]:
    """Draw n (start, goal) vertex pairs with spaced endpoints.

    All starts are pairwise at Chebyshev distance >= min_separation (by
    default ``default_separation(world)``), and so are all goals, which
    keeps the instance dispatchable under fov-aware collision rules with
    radius < min_separation. Start and goal of each pair share a connected
    component. Rejection sampling; deterministic for a given seed.

    Each attempt is ``randrange(num_vertices)`` twice, inlined as
    ``_randbelow`` does it. Raises ConfigError for an n or min_separation
    that is not an int >= 1, and PlacementError when the draws run out or,
    before any draw, when n exceeds the vertex count or the number of
    min_separation-sided blocks of the map (each block holds at most one
    start).
    """
    require_int(n, 1, "the agent count must be >= 1")
    sep = default_separation(world) if min_separation is None else min_separation
    require_int(sep, 1, "min_separation must be >= 1")
    num_vertices = world.num_vertices
    failure = f"could not place {n} spaced pairs on {world.width}x{world.height} map"
    if n > min(-(-world.width // sep) * -(-world.height // sep), num_vertices):
        raise PlacementError(failure)
    limit = 20_000 * max(1, n)
    rng = random.Random(f"instance:{seed}")
    getrandbits, bits = rng.getrandbits, num_vertices.bit_length()
    comp, coords = world.components, world.coords
    pairs: list[tuple[int, int]] = []
    start_xy: list[tuple[int, int]] = []
    goal_xy: list[tuple[int, int]] = []
    attempts = 0
    while len(pairs) < n:
        attempts += 1
        if attempts > limit:
            raise PlacementError(failure)
        s = getrandbits(bits)
        while s >= num_vertices:
            s = getrandbits(bits)
        g = getrandbits(bits)
        while g >= num_vertices:
            g = getrandbits(bits)
        if comp[s] != comp[g]:
            continue
        sx, sy = coords(s)
        for x, y in start_xy:
            if -sep < sx - x < sep and -sep < sy - y < sep:
                break
        else:
            gx, gy = coords(g)
            for x, y in goal_xy:
                if -sep < gx - x < sep and -sep < gy - y < sep:
                    break
            else:
                pairs.append((s, g))
                start_xy.append((sx, sy))
                goal_xy.append((gx, gy))
    return pairs
