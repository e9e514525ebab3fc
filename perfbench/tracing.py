"""Spans and counters recorded around the library's module-level call sites.

The benchmark's own calls open spans directly (``tracer.span``); the layers
below them are traced by temporarily replacing module globals with wrappers
(``patched``), so the library itself carries no tracing code. A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.counters: Counter[str] = Counter()
        self.total: Counter[str] = Counter()  # seconds per span name
        self.self_time: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.instance: int | None = None
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, _perf(), 0.0])
        self._next_id += 1

    def _exit(self, keep: bool) -> None:
        end = _perf()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if keep:
            self.spans.append((sid, name, start, end, parent, self.instance))

    @contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit(True)

    def wrap(self, fn, name: str, keep: bool = True, on_result=None):
        """``fn`` inside a span; ``keep=False`` aggregates without storing spans."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(keep)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, fn, name: str):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted


def _module(name: str):
    return importlib.import_module(f"privmapf.{name}")


@contextmanager
def patched(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    dispatch, pipeline, lacam, safezone = (
        _module(n) for n in ("dispatch", "pipeline", "lacam", "safezone")
    )
    c = tracer.counters

    def lacam_done(result) -> None:
        c["lacam.expansions"] += result.expansions

    def step_done(config) -> None:
        c["pibt.build_step_ok"] += config is not None

    # pipeline reaches dispatch through its ``dsp`` alias, i.e. the dispatch
    # module object itself, so patching that module covers pipeline's calls.
    plan = [
        (dispatch, "dispatch_groups", lambda f: tracer.wrap(f, "dispatch")),
        (dispatch, "pairs_collide", lambda f: tracer.count(f, "dispatch.pairs_collide_calls")),
        (pipeline, "SolverProblem", lambda f: tracer.wrap(f, "pipeline.problem")),
        (pipeline, "lacam_solve", lambda f: tracer.wrap(f, "lacam", on_result=lacam_done)),
        (lacam, "build_step",
         lambda f: tracer.wrap(f, "pibt.build_step", keep=False, on_result=step_done)),
        (safezone, "audit", lambda f: tracer.wrap(f, "safezone.audit")),
        (safezone, "initial_safe_zones", lambda f: tracer.wrap(f, "safezone.init")),
        (safezone, "check_separated", lambda f: tracer.wrap(f, "safezone.separation")),
        (safezone, "extend_safe_zones", lambda f: tracer.wrap(f, "safezone.extend")),
        (safezone, "sipp_replan", lambda f: tracer.wrap(f, "safezone.sipp")),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in plan]
    try:
        for (mod, attr, make), (_, _, orig) in zip(plan, saved):
            setattr(mod, attr, make(orig))
        yield tracer
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)
