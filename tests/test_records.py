"""The package's results and specs are named tuples: immutable, read by field
name, and created at import without generated code. ``PipelineResult`` alone
stays a dataclass, as ``perfbench/selftest.py`` calls ``dataclasses.replace``
on it. A validated record runs its checks in ``__new__``, which unpickling
calls too, so a record that crosses to a ``run_suite`` worker is checked
again on arrival.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import pytest

import privmapf
from privmapf.audit import metrics
from privmapf.bench import TaskSpec, load_world, run_one
from privmapf.dispatch import AgentGroup, InfeasibleInputError
from privmapf.grid import ConfigError
from privmapf.pipeline import PipelineResult, PipelineSpec, run_pipeline
from privmapf.plans import JointPlan
from privmapf.safezone import ppfpp

# the records that were frozen dataclasses, and so hash their field tuple
FROZEN = {"JointPlan", "AgentGroup", "PipelineSpec", "TaskSpec", "Metrics", "MessageTrace",
          "RunRecord"}
RESULTS = {"ConflictReport", "TraceReport", "SolveResult", "RefineResult"}


@pytest.fixture(scope="module")
def records():
    """One record of each type, from the README's refined run."""
    task = TaskSpec("open16", 4, 4, PipelineSpec(3, 1))
    world = load_world(task.map_name)
    out = run_pipeline(world, task.pairs(), task.spec, task.seed)
    refined = ppfpp(world, out.plan, out.problem.group_of, out.real_paths, 1, task.seed)
    found = [task, task.spec, out.trace, out.groups[0], out.solve, out.plan, out.report,
             out.report.conflicts, metrics(out.plan.paths, out.problem.goals), refined,
             run_one(task)]
    return {type(r).__name__: r for r in found}


def test_every_record_but_the_pipeline_result_is_a_named_tuple(records):
    assert set(records) == FROZEN | RESULTS
    dataclass_types = set()
    for info in pkgutil.iter_modules(privmapf.__path__, "privmapf."):
        module = importlib.import_module(info.name)
        dataclass_types |= {obj for _, obj in inspect.getmembers(module, dataclasses.is_dataclass)
                            if obj.__module__ == info.name}
    assert dataclass_types == {PipelineResult}


@pytest.mark.parametrize("name", sorted(FROZEN | RESULTS))
def test_a_record_is_immutable_and_crosses_a_pickle(records, name):
    record = records[name]
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    if name in FROZEN:
        assert hash(record) == hash(tuple(record))
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    if name == "RefineResult":  # its zone table and pick log compare by identity
        assert copy.refined_paths == record.refined_paths and list(copy.picks) == list(record.picks)
    else:
        assert copy == record


@pytest.mark.parametrize("cls,fields,error,message", [
    (JointPlan, ((),), ValueError, "empty plan"),
    (AgentGroup, (0, ((1, 2), (1, 3)), 0), InfeasibleInputError, "group 0: duplicate start vertex"),
    (PipelineSpec, (0,), ConfigError, "k must be >= 1"),
    (TaskSpec, (1, 2, 0, PipelineSpec(2)), ConfigError, "the map name must be a string"),
], ids=["JointPlan", "AgentGroup", "PipelineSpec", "TaskSpec"])
def test_a_validated_record_checks_its_fields_when_built_and_when_unpickled(
        cls, fields, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        cls(*fields)
    # built past its checks, as only this test does
    forged = pickle.dumps(tuple.__new__(cls, fields))
    with pytest.raises(error, match=f"^{message}$"):
        pickle.loads(forged)
