"""Joint plans over sub-agents and their on-disk format.

A joint plan is one path per sub-agent, all padded to a common horizon.
Sub-agents are ordered group-major: sub-agent j belongs to group j // k.

Plan files are plain text, one line per sub-agent:

    <group> <index-in-group> <v0> <v1> ... <vT>

with vertices as dense vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class JointPlan:
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.paths:
            raise ValueError("empty plan")

    @property
    def num_agents(self) -> int:
        return len(self.paths)

    @property
    def horizon(self) -> int:
        """Padded plan length in timesteps (T); positions exist for 0..T."""
        return len(self.paths[0]) - 1

    def position(self, agent: int, t: int) -> int:
        path = self.paths[agent]
        return path[t] if t < len(path) else path[-1]

    def is_padded(self) -> bool:
        return len({len(p) for p in self.paths}) == 1

    @staticmethod
    def from_configs(configs: list[list[int]]) -> "JointPlan":
        """Transpose a per-timestep configuration sequence into per-agent paths."""
        n = len(configs[0])
        return JointPlan(tuple(tuple(c[i] for c in configs) for i in range(n)))


def pad_paths(paths: list[list[int]], horizon: int | None = None) -> JointPlan:
    """Extend every path with trailing stays to a common horizon."""
    target = max(len(p) for p in paths) - 1
    if horizon is not None:
        if horizon < target:
            raise ValueError(f"horizon {horizon} shorter than longest path {target}")
        target = horizon
    return JointPlan(
        tuple(tuple(p) + (p[-1],) * (target + 1 - len(p)) for p in paths)
    )


def write_plan_file(plan: JointPlan, k: int, path: str | Path) -> None:
    lines = []
    for j, p in enumerate(plan.paths):
        lines.append(f"{j // k} {j % k} " + " ".join(str(v) for v in p))
    Path(path).write_text("\n".join(lines) + "\n")


class PlanFileError(ValueError):
    """A plan file that does not follow the plan file format."""


def read_plan_file(path: str | Path) -> tuple[JointPlan, list[int]]:
    """Returns (plan, group_of) with sub-agents in file order.

    Raises PlanFileError, naming the file and line, on a malformed file:
    every token must be an integer, rows must be in group-major order with
    as many members in each group as in group 0, and all paths must have
    the same length.
    """
    rows = []  # (lineno, group, index, path)
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 3:
            raise PlanFileError(
                f"{path}:{lineno}: expected <group> <index> <v0> ..., got {len(parts)} fields"
            )
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            raise PlanFileError(f"{path}:{lineno}: non-integer token in {line.strip()!r}") from None
        rows.append((lineno, numbers[0], numbers[1], tuple(numbers[2:])))
    if not rows:
        raise PlanFileError(f"{path}: empty plan, no sub-agent lines")
    # group 0's size is k; row j must then be sub-agent j % k of group j // k
    k = next((j for j, row in enumerate(rows) if row[1] != 0), len(rows))
    length = len(rows[0][3])
    for j, (lineno, g, i, p) in enumerate(rows):
        where, (want_g, want_i) = f"{path}:{lineno}", divmod(j, k)
        if (g, i) == (want_g + 1, 0) and want_i > 0:
            raise PlanFileError(f"{where}: group {want_g} has {want_i} members, group 0 has {k}")
        if (g, i) == (want_g - 1, k) and want_i == 0:
            raise PlanFileError(f"{where}: group {g} has more than {k} members, group 0 has {k}")
        if (g, i) != (want_g, want_i):
            raise PlanFileError(
                f"{where}: row '{g} {i}' is out of group-major order, expected '{want_g} {want_i}'"
            )
        if len(p) != length:
            raise PlanFileError(f"{where}: path has {len(p)} positions, the first row has {length}")
    if len(rows) % k:
        lineno, g = rows[-1][:2]
        raise PlanFileError(f"{path}:{lineno}: group {g} has {len(rows) % k} members, group 0 has {k}")
    return JointPlan(tuple(row[3] for row in rows)), [row[1] for row in rows]


def write_real_plan_file(real_paths: list[tuple[int, ...]], path: str | Path) -> None:
    """One line per agent: ``<group> real v0 v1 ...`` (private, not broadcast)."""
    lines = [
        f"{g} real " + " ".join(str(v) for v in p) for g, p in enumerate(real_paths)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
