"""Mock-agent group construction and the private sidecars.

Each agent hides its real (start, goal) pair inside a group of k pairs, the
other k-1 being mocks. A trusted dispatcher, which knows every real pair,
resamples mocks internally until no two groups collide, then publishes each
group exactly once (republishing would shrink the anonymity set, so there is
deliberately no API for it). Two groups collide when a start of one lies
within Chebyshev radius r of a start of the other, or a goal within r of a
goal; at r = 0 that is plain start or goal equality. Start-vs-goal cross
terms never collide.

Within a group only vertex-level distinctness is enforced (starts pairwise
distinct, goals pairwise distinct) whatever the radius: members of the
same group are exempt from fov separation, and distinctness is exactly what
a solvable joint instance requires.

A group is drawn one way, by ``_draw_group``: the real pair, then k-1 mocks,
each a start uniform over the unused vertices and a goal uniform over the
unused vertices of its component, redrawn while it collides with a rival.
Dispatch's rivals are the other groups' pairs; ``propose_groups`` has none.
Both check their input by ``_check_input``. A mock draw costs O(k): no pool
is built, a drawn index steps over the used vertices. A blind proposal's
acceptance probability is counted exactly in integers. A private sidecar is
read by its group, and one that names another group is an error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .grid import GridWorld, PrivmapfError, read_file, require_int


class InfeasibleInputError(PrivmapfError, ValueError):
    """The requested dispatch cannot exist for any random choices."""


class DispatchExhaustedError(PrivmapfError, RuntimeError):
    """Rejection sampling ran out of retries."""


class DispatchVerificationError(RuntimeError):
    """The independent post-dispatch recheck found a violation."""


@dataclass(frozen=True)
class AgentGroup:
    """k (start, goal) pairs, exactly one of which is the owner's real pair.

    ``real_index`` is private bookkeeping: it never appears in broadcast
    output and is None on broadcast views.
    """

    group_id: int
    pairs: tuple[tuple[int, int], ...]
    real_index: int | None

    def __post_init__(self):
        starts = [p[0] for p in self.pairs]
        goals = [p[1] for p in self.pairs]
        if len(set(starts)) != len(starts):
            raise InfeasibleInputError(f"group {self.group_id}: duplicate start vertex")
        if len(set(goals)) != len(goals):
            raise InfeasibleInputError(f"group {self.group_id}: duplicate goal vertex")
        if self.real_index is not None and not 0 <= self.real_index < len(self.pairs):
            raise InfeasibleInputError(f"group {self.group_id}: real_index out of range")

    @property
    def k(self) -> int:
        return len(self.pairs)

    def broadcast_view(self) -> "AgentGroup":
        return AgentGroup(self.group_id, self.pairs, None)


def pairs_collide(
    world: GridWorld, a: tuple[int, int], b: tuple[int, int], radius: int
) -> bool:
    return world.chebyshev(a[0], b[0]) <= radius or world.chebyshev(a[1], b[1]) <= radius


def _choose_unused(rng: random.Random, pool, used: list[int], side: str) -> int:
    """``rng.choice([v for v in pool if v not in used])`` without the list.

    ``pool`` is ascending and ``used`` holds its used members, ascending. The
    draw is the same ``randrange(len)`` index, and it is mapped to its vertex
    by stepping over the used members at or below it: O(len(used)).
    """
    if len(used) >= len(pool):
        raise InfeasibleInputError(f"no free {side} vertex left for a mock pair")
    i = rng.randrange(len(pool) - len(used))
    for u in used:
        if u > pool[i]:
            break
        i += 1
    return pool[i]


def _sample_mock_pair(
    world: GridWorld, rng: random.Random, used_starts: set[int], used_goals: set[int]
) -> tuple[int, int]:
    """A start uniform over the unused vertices, then a goal uniform over the
    unused vertices of the start's component. O(k) work for k used vertices."""
    s = _choose_unused(rng, range(world.num_vertices), sorted(used_starts), "start")
    comp = world.components
    used = sorted(v for v in used_goals if comp[v] == comp[s])
    return s, _choose_unused(rng, world.component_members(s), used, "goal")


MAX_RETRIES = 1000  # draws per mock pair before dispatch gives up


def _draw_group(
    world: GridWorld,
    rng: random.Random,
    gid: int,
    real: tuple[int, int],
    k: int,
    rivals: list[tuple[int, int]],
    radius: int,
) -> list[tuple[int, int]]:
    """The real pair, then k-1 mocks, each redrawn until it collides with
    none of ``rivals`` at ``radius``, within MAX_RETRIES draws."""
    pairs = [real]
    used_starts, used_goals = {real[0]}, {real[1]}
    for m in range(k - 1):
        for _ in range(MAX_RETRIES):
            s, g = _sample_mock_pair(world, rng, used_starts, used_goals)
            if all(not pairs_collide(world, (s, g), q, radius) for q in rivals):
                break
        else:
            raise DispatchExhaustedError(
                f"group {gid}: mock pair {m} keeps colliding (after {MAX_RETRIES} attempts)"
            )
        pairs.append((s, g))
        used_starts.add(s)
        used_goals.add(g)
    return pairs


def _check_input(world: GridWorld, real_pairs: list[tuple[int, int]], k: int) -> None:
    """Both draws' input rule: ConfigError unless k is an int >= 1, then
    InfeasibleInputError unless pairs exist, |V| >= k and each is two ids."""
    require_int(k, 1, "k must be >= 1")
    if not real_pairs:
        raise InfeasibleInputError("no real pairs to dispatch")
    if world.num_vertices < k:
        raise InfeasibleInputError(
            f"{world.num_vertices} vertices cannot host groups of {k} distinct starts"
        )
    for i, pair in enumerate(real_pairs):  # a bool or a negative id would alias a vertex
        if len(pair) != 2 or not all(type(v) is int and 0 <= v < world.num_vertices for v in pair):
            raise InfeasibleInputError(f"agent {i}: real pair {pair!r} is not two vertex ids")


def propose_groups(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    rng: random.Random,
) -> list[AgentGroup]:
    """Dispatch's own per-group draw with no rivals: one blind proposal.

    Its input is checked as dispatch's is, but real pairs may collide. Every
    first draw is accepted, the real pair stays first and nothing is
    shuffled. On a connected map each group's mock starts are then a uniform
    (k-1)-subset of V minus its real start, and its goals likewise, so
    no_collision_probability is exact for how often this draw is
    collision-free.
    """
    _check_input(world, real_pairs, k)
    return [AgentGroup(gid, tuple(_draw_group(world, rng, gid, real, k, [], 0)), 0)
            for gid, real in enumerate(real_pairs)]


def dispatch_groups(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    radius: int,
    seed: int | str,
) -> list[AgentGroup]:
    """Build one published group per agent; deterministic for a given seed.

    Each group is drawn by ``_draw_group`` against one list of rivals: the
    other groups' real pairs and the mocks committed so far. Each group's
    pair order is shuffled before publication so position leaks nothing
    about which pair is real.

    Raises ConfigError for a radius that is not an int >= 0, then
    ``_check_input``'s errors; InfeasibleInputError when the real pairs
    already collide at this radius; DispatchExhaustedError when a mock pair
    cannot be placed within MAX_RETRIES draws.
    """
    require_int(radius, 0, "fov radius must be >= 0")
    _check_input(world, real_pairs, k)
    n = len(real_pairs)
    for i in range(n):
        for j in range(i + 1, n):
            if pairs_collide(world, real_pairs[i], real_pairs[j], radius):
                raise InfeasibleInputError(
                    f"real pairs of agents {i} and {j} collide under rule r={radius}"
                )

    rng = random.Random(f"dispatch:{seed}")
    committed: list[list[tuple[int, int]]] = []
    mocks: list[tuple[int, int]] = []  # the mocks of every committed group
    for gid, real in enumerate(real_pairs):
        rivals = [p for i, p in enumerate(real_pairs) if i != gid] + mocks
        pairs = _draw_group(world, rng, gid, real, k, rivals, radius)
        committed.append(pairs)
        mocks += pairs[1:]

    groups = []
    for gid, pairs in enumerate(committed):
        real = pairs[0]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        groups.append(AgentGroup(gid, tuple(shuffled), shuffled.index(real)))
    verify_dispatch(world, groups, radius)
    return groups


def verify_dispatch(world: GridWorld, groups: list[AgentGroup], radius: int) -> None:
    """Independent O(N^2 k^2) recheck that no two groups collide.

    Distinct starts and goals inside a group are ``AgentGroup``'s own
    invariant, so only what dispatch adds is checked here.
    """
    for i, ga in enumerate(groups):
        for gb in groups[i + 1 :]:
            for p in ga.pairs:
                for q in gb.pairs:
                    if pairs_collide(world, p, q, radius):
                        raise DispatchVerificationError(
                            f"groups {ga.group_id} and {gb.group_id} collide on "
                            f"pairs {p} / {q} under rule r={radius}"
                        )


# -- collision probability of a single blind proposal -----------------------


def no_collision_probability(num_vertices: int, k: int, num_agents: int) -> Fraction:
    """Exact probability that one blind proposal round is collision-free.

    Model: every group draws its k-1 mock starts as a uniform (k-1)-subset
    of the |V|-1 vertices other than its real start, and its mock goals
    likewise; groups collide on shared starts or shared goals. Counting the
    placements sequentially gives, per side (starts / goals),

        prod_{i=0}^{N-1} C(|V|-N-i(k-1), k-1)  /  C(|V|-1, k-1)^N

    and the two independent sides multiply, as an exact ``Fraction``. Inputs
    with no room for the required distinct vertices return 0; k=1 gives 1.
    The coarser published form, one blocked-set draw of 2(k-1) vertices per
    group pair, is not this process: at |V|=10, k=2, N=2 it gives 10/36
    ~ 0.278 against the exact 3136/6561 ~ 0.478.
    """
    if num_vertices < 1 or k < 1 or num_agents < 1:
        raise ValueError("num_vertices, k and num_agents must all be >= 1")
    free = [num_vertices - num_agents - i * (k - 1) for i in range(num_agents)]
    if min(free) < k - 1:
        return Fraction(0)
    side = math.prod(math.comb(m, k - 1) for m in free)
    total = math.comb(num_vertices - 1, k - 1) ** num_agents
    return Fraction(side * side, total * total)


# -- private sidecars -------------------------------------------------------


class SidecarError(PrivmapfError, ValueError):
    """A private sidecar file that is missing or malformed."""


def sidecar_path(dir_path: str | Path, group_id: int) -> Path:
    return Path(dir_path) / f"agent_{group_id:03d}.json"


def write_private_sidecars(groups: list[AgentGroup], dir_path: str | Path) -> None:
    """One private file per agent holding only which of its pairs is real."""
    Path(dir_path).mkdir(parents=True, exist_ok=True)
    for g in groups:
        if g.real_index is None:
            raise ValueError(f"group {g.group_id} has no private real index")
        sidecar_path(dir_path, g.group_id).write_text(
            json.dumps({"group_id": g.group_id, "real_index": g.real_index}) + "\n",
            encoding="utf-8")


def read_private_sidecar(dir_path: str | Path, group_id: int, k: int) -> int:
    """The real index that ``group_id``'s sidecar holds. SidecarError naming
    the file if it is missing, malformed, names another group or holds an
    index outside [0, k)."""

    def parse(text: str) -> int:
        obj = json.loads(text)
        if not (isinstance(obj, dict)
                and all(type(obj.get(key)) is int for key in ("group_id", "real_index"))):
            raise SidecarError('expected {"group_id": <int>, "real_index": <int>}')
        if obj["group_id"] != group_id:
            raise SidecarError(f"holds group {obj['group_id']}, not group {group_id}")
        if not 0 <= obj["real_index"] < k:
            raise SidecarError(f"real_index {obj['real_index']} is not in [0, {k})")
        return obj["real_index"]

    f = sidecar_path(dir_path, group_id)
    try:
        return read_file(f, parse, SidecarError)
    except FileNotFoundError:
        raise SidecarError(f"no private sidecar for group {group_id}", path=f) from None
