"""A fixed pure-Python job that measures how fast the machine runs right now.

The host this benchmark was built on shares its cores with other tenants,
and its speed switches between modes that differ by about 1.6x, every few
seconds. A wall-clock time taken there says as much about the neighbours as
about privmapf. So ``run.py`` times this probe between every two timed
instances and reports each timed quantity in reference seconds: the time
measured, scaled by ``NOMINAL_S`` over the probe's time around it.

The probe does breadth-first searches over a fixed grid with dicts, sets and
tuples, the kind of work privmapf's own tables and searches do. It imports
nothing from privmapf, so a change to the program cannot change the probe.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

# The probe's time on the machine described in README.md, in its fast mode.
NOMINAL_S = 0.002
PROBES_PER_GAP = 5

_SIDE = 40


def _free_cells() -> frozenset:
    """A 40x40 grid with about a fifth of its cells blocked by a fixed LCG."""
    state, free = 12345, set()
    for y in range(_SIDE):
        for x in range(_SIDE):
            state = (1103515245 * state + 12345) % 2**31
            if state % 5:
                free.add((x, y))
    return frozenset(free)


_FREE = _free_cells()
_SOURCES = sorted(_FREE)[:: len(_FREE) // 2][:2]


def probe() -> float:
    """Seconds taken by the fixed job; the garbage collector is off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for src in _SOURCES:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                x, y = cell = queue.popleft()
                d = dist[cell] + 1
                for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nb in _FREE and nb not in dist:
                        dist[nb] = d
                        queue.append(nb)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def sample() -> list[float]:
    return [probe() for _ in range(PROBES_PER_GAP)]


def factor(samples) -> float:
    """NOMINAL_S over the median probe time: scales a time taken meanwhile."""
    return NOMINAL_S / statistics.median(samples)
