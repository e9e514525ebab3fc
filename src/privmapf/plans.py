"""Joint plans over sub-agents, and the private file of refined real paths.

A joint plan is one path per sub-agent, all of one length: every path is
padded with goal stays to the common horizon. Sub-agents are ordered
group-major: sub-agent j belongs to group j // k.

The broadcast plan goes to disk only inside the message trace
(``pipeline.write_trace``); the refined real paths are private and get a
plain text file of their own.
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
        if len({len(p) for p in self.paths}) != 1:
            raise ValueError("ragged plan: every path must have the same length")

    @property
    def num_agents(self) -> int:
        return len(self.paths)

    @property
    def horizon(self) -> int:
        """Padded plan length in timesteps (T); positions exist for 0..T."""
        return len(self.paths[0]) - 1

    @staticmethod
    def from_configs(configs: list[list[int]]) -> "JointPlan":
        """Transpose a per-timestep configuration sequence into per-agent paths."""
        return JointPlan(tuple(zip(*configs)))


def write_real_plan_file(real_paths: list[tuple[int, ...]], path: str | Path) -> None:
    """One line per agent: ``<group> real v0 v1 ...`` (private, not broadcast)."""
    lines = [
        f"{g} real " + " ".join(str(v) for v in p) for g, p in enumerate(real_paths)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
