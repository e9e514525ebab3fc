#!/usr/bin/env python
"""Regenerate the bundled desk-scale map and scenario assets.

The artifacts are deterministic: fixed seeds, plus a linear scan for the
first seed whose random map comes out connected. Outputs are committed under
src/privmapf/assets/ so tests and the default bench suite never hit the
network. The files follow the MovingAI layout but are synthetic analogues,
not the upstream benchmark bytes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from privmapf.grid import GridWorld, parse_map_text, scenario_text  # noqa: E402
from privmapf.instances import random_spaced_pairs  # noqa: E402

ASSETS = Path(__file__).resolve().parents[1] / "src" / "privmapf" / "assets"


def is_connected(rows: list[str]) -> bool:
    world = GridWorld(rows)
    return all(world.component_of(v) == 0 for v in range(world.num_vertices))


def render(rows: list[str], height: int, width: int) -> str:
    head = ["type octile", f"height {height}", f"width {width}", "map"]
    return "\n".join(head + rows) + "\n"


def make_random_map(side: int, blocked: int) -> str:
    """Uniformly random obstacle map with an exact blocked-cell count,
    scanning seeds until the passable region is connected."""
    for seed in range(10_000):
        rng = random.Random(f"random-map:{side}:{blocked}:{seed}")
        cells = list(range(side * side))
        rng.shuffle(cells)
        holes = set(cells[:blocked])
        rows = [
            "".join("@" if y * side + x in holes else "." for x in range(side))
            for y in range(side)
        ]
        if is_connected(rows):
            return render(rows, side, side)
    raise RuntimeError("no connected layout found")


def make_room_map(side: int = 32, room: int = 4) -> str:
    """Rooms of `room` x `room` cells separated by 1-wide walls, one random
    door punched per adjacent room pair (always connected by construction)."""
    period = room + 1
    n_rooms = (side + 1) // period
    grid = [["." for _ in range(side)] for _ in range(side)]
    wall_lines = [room + i * period for i in range(n_rooms - 1) if room + i * period < side]
    for w in wall_lines:
        for i in range(side):
            grid[w][i] = "@"
            grid[i][w] = "@"
    rng = random.Random("room-map:doors:0")

    def span(idx: int) -> range:
        lo = idx * period
        return range(lo, min(lo + room, side))

    for ry in range(n_rooms):
        for rx in range(n_rooms):
            if rx + 1 < n_rooms:  # door in the vertical wall to the right
                wall_x = room + rx * period
                y = rng.choice(list(span(ry)))
                grid[y][wall_x] = "."
            if ry + 1 < n_rooms:  # door in the horizontal wall below
                wall_y = room + ry * period
                x = rng.choice(list(span(rx)))
                grid[wall_y][x] = "."
    rows = ["".join(r) for r in grid]
    assert is_connected(rows)
    return render(rows, side, side)


def make_open_map(side: int) -> str:
    return render(["." * side for _ in range(side)], side, side)


def main() -> None:
    maps_dir = ASSETS / "maps"
    scens_dir = ASSETS / "scens"
    maps_dir.mkdir(parents=True, exist_ok=True)
    scens_dir.mkdir(parents=True, exist_ok=True)

    jobs = {
        "random-32-32-20.map": make_random_map(32, 205),  # 1024-205 = 819 passable
        "room-32-32-4.map": make_room_map(32, 4),
        "open16.map": make_open_map(16),
    }
    for name, text in jobs.items():
        (maps_dir / name).write_text(text)
        world = parse_map_text(text)
        print(f"{name}: |V|={world.num_vertices}")

    # Starts/goals mutually spaced (Chebyshev) by the map's default
    # separation, so the same scenario stays dispatchable for fov radii up to
    # 2. The small map takes fewer, closer entries; it simply cannot hold 20
    # pairs five cells apart.
    for map_name in jobs:
        world = parse_map_text(jobs[map_name])
        n = 12 if world.width <= 16 else 20
        pairs = random_spaced_pairs(world, n=n, seed=f"scen:{map_name}")
        scen_name = map_name.replace(".map", ".scen")
        (scens_dir / scen_name).write_text(scenario_text(world, map_name, pairs))
        print(f"{scen_name}: {len(pairs)} entries")


if __name__ == "__main__":
    main()
