"""The failure contract: every error a user can cause is a PrivmapfError.

The CLI and the bench sweep catch that one base, so an exception class that
is not on it would reach the user as a traceback. The three listed here
are not: each signals a bug, and a traceback is the right output for a bug.

Every integer setting follows one rule, ``grid.require_int``: an int, not a
bool, of at least its floor, else one typed error with the setting's message.
"""

import importlib
import inspect
import json
import pkgutil
import random

import pytest

import privmapf
from privmapf import pibt
from privmapf.audit import audit
from privmapf.bench import TaskSpec, run_suite
from privmapf.dispatch import AgentGroup, dispatch_groups, propose_groups
from privmapf.grid import ConfigError, PrivmapfError
from privmapf.instances import random_spaced_pairs
from privmapf.lacam import lacam_solve
from privmapf.pibt import SolverProblem
from privmapf.pipeline import PipelineSpec, TraceError, read_trace
from privmapf.plans import JointPlan

from conftest import singleton_problem

BUG_SIGNALS = {"MetricsError", "DispatchVerificationError", "BroadcastAuditError"}


def _error_classes():
    for info in pkgutil.iter_modules(privmapf.__path__, "privmapf."):
        module = importlib.import_module(info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == info.name:
                yield name, obj


def test_every_input_error_is_a_privmapf_error():
    classes = dict(_error_classes())
    assert BUG_SIGNALS <= set(classes)
    assert len(classes) > len(BUG_SIGNALS)
    for name, cls in classes.items():
        assert issubclass(cls, PrivmapfError) != (name in BUG_SIGNALS), name


def _fov_table(name):
    def build(world, radius, tmp_path):
        table = getattr(world, name)
        table(1)  # a filled cache must not answer True, which hashes as 1
        table(radius)
    return build


def _problem(world, radius, tmp_path):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pibt, "bfs_distances", _no_bfs)  # refused before any BFS
        SolverProblem(world, [AgentGroup(0, ((0, 5),), None)], fov_radius=radius)


def _no_bfs(world, source):
    raise AssertionError("BFS ran")


def _trace(key):
    def read(world, value, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"k": 1, "fov_radius": 0, "groups": [], "plan": None,
                                    key: value}))
        read_trace(world, path)
    return read


# entry point, its floor, error type and message ({!r} is the bad value);
# each call reaches the check with every other argument valid
INT_SETTINGS = {
    "fov_table radius": (_fov_table("fov_table"), 0, ConfigError, "fov radius must be >= 0"),
    "fov_ring_table radius": (_fov_table("fov_ring_table"),
                              0, ConfigError, "fov radius must be >= 0"),
    "audit fov_radius": (lambda w, v, _: audit(w, JointPlan(((0, 0),)), [0], v, check_fov=True),
                         0, ConfigError, "fov radius must be >= 0"),
    "SolverProblem fov_radius": (_problem, 0, ConfigError, "fov radius must be >= 0"),
    "dispatch_groups k": (lambda w, v, _: dispatch_groups(w, [(0, 5)], v, 0, 0),
                          1, ConfigError, "k must be >= 1"),
    "propose_groups k": (lambda w, v, _: propose_groups(w, [(0, 5)], v, random.Random(0)),
                         1, ConfigError, "k must be >= 1"),
    "dispatch_groups radius": (lambda w, v, _: dispatch_groups(w, [(0, 5)], 2, v, 0),
                               0, ConfigError, "fov radius must be >= 0"),
    "PipelineSpec k": (lambda w, v, _: PipelineSpec(v), 1, ConfigError, "k must be >= 1"),
    "PipelineSpec radius": (lambda w, v, _: PipelineSpec(2, v),
                            0, ConfigError, "fov radius must be >= 0"),
    "PipelineSpec budget": (lambda w, v, _: PipelineSpec(2, 0, v),
                            0, ConfigError, "the expansion budget must be an int >= 0"),
    "trace k": (_trace("k"), 1, TraceError, "k is {!r}, not an int >= 1"),
    "trace fov_radius": (_trace("fov_radius"),
                         0, TraceError, "fov_radius is {!r}, not an int >= 0"),
    "lacam_solve budget": (lambda w, v, _: lacam_solve(singleton_problem(w, [(0, 5)]), 0, v),
                           0, ConfigError, "the expansion budget must be an int >= 0"),
    "random_spaced_pairs n": (lambda w, v, _: random_spaced_pairs(w, v, 0),
                              1, ConfigError, "the agent count must be >= 1"),
    "random_spaced_pairs min_separation": (
        lambda w, v, _: random_spaced_pairs(w, 2, 0, min_separation=v),
        1, ConfigError, "min_separation must be >= 1"),
    "TaskSpec n_agents": (lambda w, v, _: TaskSpec("open16", v, 0, PipelineSpec(2)),
                          1, ConfigError, "the agent count must be >= 1"),
    "run_suite threads": (lambda w, v, _: run_suite([], threads=v),
                          1, ConfigError, "threads must be >= 1"),
}


# True would act, and hash, as 1 and pass every floor; 2.5 would be rounded,
# truncated or end in a bare TypeError; the third value is one below the floor
@pytest.mark.parametrize("entry,value", [
    (entry, value)
    for entry, (_, low, _, _) in INT_SETTINGS.items()
    for value in (True, 2.5, low - 1)
], ids=str)
def test_every_int_setting_is_an_int_at_least_its_floor(open16, tmp_path, entry, value):
    call, _, error, message = INT_SETTINGS[entry]
    with pytest.raises(PrivmapfError) as raised:
        call(open16, value, tmp_path)
    assert type(raised.value) is error
    assert raised.value.message == message.format(value)
