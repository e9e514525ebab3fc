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
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .grid import GridWorld


class InfeasibleInputError(ValueError):
    """The requested dispatch cannot exist for any random choices."""


class DispatchExhaustedError(RuntimeError):
    """Rejection sampling ran out of retries."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


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

    @property
    def real_pair(self) -> tuple[int, int]:
        if self.real_index is None:
            raise ValueError("broadcast view has no real pair")
        return self.pairs[self.real_index]

    def broadcast_view(self) -> "AgentGroup":
        return AgentGroup(self.group_id, self.pairs, None)


def pairs_collide(
    world: GridWorld, a: tuple[int, int], b: tuple[int, int], radius: int
) -> bool:
    return world.chebyshev(a[0], b[0]) <= radius or world.chebyshev(a[1], b[1]) <= radius


def _sample_mock_pair(
    world: GridWorld,
    rng: random.Random,
    used_starts: set[int],
    used_goals: set[int],
    require_reachable: bool,
) -> tuple[int, int]:
    start_pool = [v for v in range(world.num_vertices) if v not in used_starts]
    if not start_pool:
        raise InfeasibleInputError("no free start vertex left for a mock pair")
    s = rng.choice(start_pool)
    if require_reachable:
        goal_pool = [
            v
            for v in range(world.num_vertices)
            if v not in used_goals and world.same_component(v, s)
        ]
    else:
        goal_pool = [v for v in range(world.num_vertices) if v not in used_goals]
    if not goal_pool:
        raise InfeasibleInputError("no free goal vertex left for a mock pair")
    return s, rng.choice(goal_pool)


def propose_groups(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    rng: random.Random,
) -> list[AgentGroup]:
    """One independent proposal per group, no retries, no cross-group checks.

    This is the dispatcher's raw proposal distribution (mock starts are a
    uniform (k-1)-subset of V minus the group's own starts so far; goals
    likewise, with no same-component requirement). The closed form in
    no_collision_probability is exact for the acceptance rate of this path,
    which is what makes it testable.
    """
    groups = []
    for gid, real in enumerate(real_pairs):
        pairs = [real]
        used_starts, used_goals = {real[0]}, {real[1]}
        for _ in range(k - 1):
            s, g = _sample_mock_pair(
                world, rng, used_starts, used_goals, require_reachable=False
            )
            pairs.append((s, g))
            used_starts.add(s)
            used_goals.add(g)
        groups.append(AgentGroup(gid, tuple(pairs), 0))
    return groups


MAX_RETRIES = 1000  # draws per mock pair before dispatch gives up


def dispatch_groups(
    world: GridWorld,
    real_pairs: list[tuple[int, int]],
    k: int,
    radius: int,
    seed: int | str,
) -> list[AgentGroup]:
    """Build one published group per agent; deterministic for a given seed.

    Mocks are placed by per-pair rejection sampling against every real pair
    and every already-committed group; each mock's goal shares its start's
    connected component. Each group's pair order is shuffled before
    publication so position leaks nothing about which pair is real.

    Raises InfeasibleInputError when the real pairs already collide at this
    radius (or the world is too small), DispatchExhaustedError when a mock
    pair cannot be placed within MAX_RETRIES draws.
    """
    n = len(real_pairs)
    if radius < 0:
        raise ValueError("fov radius must be >= 0")
    if k < 1:
        raise InfeasibleInputError("k must be >= 1")
    if world.num_vertices < k:
        raise InfeasibleInputError(
            f"{world.num_vertices} vertices cannot host groups of {k} distinct starts"
        )
    for i in range(n):
        for j in range(i + 1, n):
            if pairs_collide(world, real_pairs[i], real_pairs[j], radius):
                raise InfeasibleInputError(
                    f"real pairs of agents {i} and {j} collide under rule r={radius}"
                )

    rng = random.Random(f"dispatch:{seed}")
    committed: list[list[tuple[int, int]]] = []
    for gid, real in enumerate(real_pairs):
        pairs = [real]
        used_starts, used_goals = {real[0]}, {real[1]}
        for m in range(k - 1):
            for _ in range(MAX_RETRIES):
                s, g = _sample_mock_pair(
                    world, rng, used_starts, used_goals, require_reachable=True
                )
                candidate = (s, g)
                ok = all(
                    not pairs_collide(world, candidate, other, radius)
                    for other in real_pairs
                    if other is not real
                ) and all(
                    not pairs_collide(world, candidate, q, radius)
                    for grp in committed
                    for q in grp
                )
                if ok:
                    pairs.append(candidate)
                    used_starts.add(s)
                    used_goals.add(g)
                    break
            else:
                raise DispatchExhaustedError(
                    f"group {gid}: mock pair {m} keeps colliding", attempts=MAX_RETRIES
                )
        committed.append(pairs)

    groups = []
    for gid, pairs in enumerate(committed):
        real = pairs[0]
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        groups.append(AgentGroup(gid, tuple(shuffled), shuffled.index(real)))
    verify_dispatch(world, groups, radius)
    return groups


def verify_dispatch(world: GridWorld, groups: list[AgentGroup], radius: int) -> None:
    """Independent O(N^2 k^2) recheck of the dispatch postconditions."""
    for g in groups:
        starts = [p[0] for p in g.pairs]
        goals = [p[1] for p in g.pairs]
        if len(set(starts)) != len(starts) or len(set(goals)) != len(goals):
            raise DispatchVerificationError(
                f"group {g.group_id}: repeated start or goal vertex inside the group"
            )
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


class ProbabilityEstimate(NamedTuple):
    probability: float
    degenerate: bool


def _log_comb(n: int, r: int) -> float | None:
    if r < 0 or n < 0 or n < r:
        return None
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def no_collision_probability(
    num_vertices: int, k: int, num_agents: int
) -> ProbabilityEstimate:
    """Exact probability that one blind proposal round is collision-free.

    Model: every group draws its k-1 mock starts as a uniform (k-1)-subset
    of the |V|-1 vertices other than its real start, and its mock goals
    likewise; groups collide on shared starts or shared goals. Counting the
    placements sequentially gives, per side (starts / goals),

        prod_{i=0}^{N-1} C(|V|-N-i(k-1), k-1)  /  C(|V|-1, k-1)^N

    and the two independent sides multiply. Computed in log-space.
    Degenerate inputs (no room for the required distinct vertices) return
    probability 0.0 with the flag set instead of raising. k=1 gives 1.0.
    """
    if num_vertices < 1 or k < 1 or num_agents < 1:
        raise ValueError("num_vertices, k and num_agents must all be >= 1")
    denom = _log_comb(num_vertices - 1, k - 1)
    if denom is None:
        return ProbabilityEstimate(0.0, True)
    log_side = -num_agents * denom
    for i in range(num_agents):
        c = _log_comb(num_vertices - num_agents - i * (k - 1), k - 1)
        if c is None:
            return ProbabilityEstimate(0.0, True)
        log_side += c
    return ProbabilityEstimate(math.exp(2.0 * log_side), False)


def no_collision_probability_blocked_set(
    num_vertices: int, k: int, num_agents: int
) -> ProbabilityEstimate:
    """Coarser published closed form, kept for comparison.

    Treats the counterpart group's 2k vertices as one blocked set avoided by
    a single draw of 2(k-1) vertices from |V|-1, raised to the number of
    group pairs:

        ( C(|V|-1-2k, 2(k-1)) / C(|V|-1, 2(k-1)) ) ^ C(N,2)

    It melds the start and goal sides into one draw, so it undercounts the
    true no-collision probability of the sampler above (measured, not
    assumed: see the enumeration tests). Same degenerate conventions as
    no_collision_probability.
    """
    if num_vertices < 1 or k < 1 or num_agents < 1:
        raise ValueError("num_vertices, k and num_agents must all be >= 1")
    draw = 2 * (k - 1)
    num = _log_comb(num_vertices - 1 - 2 * k, draw)
    den = _log_comb(num_vertices - 1, draw)
    if num is None or den is None:
        return ProbabilityEstimate(0.0, True)
    n_pairs = math.comb(num_agents, 2)
    return ProbabilityEstimate(math.exp(n_pairs * (num - den)), False)


# -- private sidecars -------------------------------------------------------


class SidecarError(ValueError):
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
            json.dumps({"group_id": g.group_id, "real_index": g.real_index}) + "\n"
        )


def read_private_sidecars(dir_path: str | Path) -> dict[int, int]:
    """Real index per group id; SidecarError naming the file if one is malformed."""
    out = {}
    for f in sorted(Path(dir_path).glob("agent_*.json")):
        try:
            obj = json.loads(f.read_text())
        except ValueError as exc:
            raise SidecarError(f"{f}: not a JSON sidecar ({exc})") from None
        if not (isinstance(obj, dict)
                and all(type(obj.get(key)) is int for key in ("group_id", "real_index"))):
            raise SidecarError(f'{f}: expected {{"group_id": <int>, "real_index": <int>}}')
        out[obj["group_id"]] = obj["real_index"]
    return out
