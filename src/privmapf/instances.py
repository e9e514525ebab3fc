"""Seeded random instances: (start, goal) pairs spaced by the map's default
separation, stated here once for the CLI, the bench and the asset script."""

from __future__ import annotations

import random

from .grid import GridWorld


class PlacementError(RuntimeError):
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
    """
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
        if not world.same_component(s, g):
            continue
        if any(world.chebyshev(s, s2) < min_separation for s2 in starts):
            continue
        if any(world.chebyshev(g, g2) < min_separation for g2 in goals):
            continue
        starts.append(s)
        goals.append(g)
    return list(zip(starts, goals))
