"""Seeded random instance generation helpers."""

from __future__ import annotations

import random

from .grid import GridWorld


class PlacementError(RuntimeError):
    """Rejection sampling gave up before placing every pair."""


def random_spaced_pairs(
    world: GridWorld,
    n: int,
    seed: int | str,
    min_separation: int = 1,
) -> list[tuple[int, int]]:
    """Draw n (start, goal) vertex pairs with spaced endpoints.

    All starts are pairwise at Chebyshev distance >= min_separation, and so
    are all goals, which keeps the instance dispatchable under fov-aware
    collision rules with radius < min_separation. Start and goal of each
    pair share a connected component. Rejection sampling; deterministic for
    a given seed.
    """
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
        if not world.same_component(s, g):
            continue
        if any(world.chebyshev(s, s2) < min_separation for s2 in starts):
            continue
        if any(world.chebyshev(g, g2) < min_separation for g2 in goals):
            continue
        starts.append(s)
        goals.append(g)
    return list(zip(starts, goals))
