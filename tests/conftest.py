from pathlib import Path

import pytest

import privmapf
from privmapf.dispatch import AgentGroup
from privmapf.grid import load_map, parse_map_text
from privmapf.pibt import SolverProblem

ASSETS = Path(privmapf.__file__).parent / "assets"

OPEN4 = """type octile
height 4
width 4
map
....
....
....
....
"""

# three passable cells in a row with a pocket below the right end; the
# passable region is a simple path, so two agents can never pass each other
POCKET = """type octile
height 2
width 3
map
...
@@.
"""


@pytest.fixture(scope="session")
def open16():
    return load_map(f"{ASSETS}/maps/open16.map")


@pytest.fixture(scope="session")
def random32():
    return load_map(f"{ASSETS}/maps/random-32-32-20.map")


@pytest.fixture(scope="session")
def room32():
    return load_map(f"{ASSETS}/maps/room-32-32-4.map")


@pytest.fixture
def open4():
    return parse_map_text(OPEN4)


@pytest.fixture
def pocket():
    return parse_map_text(POCKET)


def singleton_problem(world, pairs, fov_radius=0):
    """A k=1 problem: every agent is its own group."""
    groups = [AgentGroup(i, (p,), 0) for i, p in enumerate(pairs)]
    return SolverProblem(world, groups, fov_radius)


# The priority bookkeeping spelled out, as the oracle for ``pibt.node_data``'s
# one-pass integer keys.


def update_etas(problem, config, etas):
    """Advance the off-goal counters by one configuration."""
    return [0 if config[a] == problem.goals[a] else etas[a] + 1
            for a in range(problem.num_agents)]


def priority_order(problem, config, etas):
    """Sub-agents sorted by the tuples ``(at_goal, -eta, dist, agent)``."""
    goals, dists = problem.goals, problem.dists
    keys = sorted((config[a] == goals[a], -etas[a], dists[a][config[a]], a)
                  for a in range(problem.num_agents))
    return [key[3] for key in keys]
