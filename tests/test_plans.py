import pytest
from hypothesis import given
from hypothesis import strategies as st

from privmapf.plans import JointPlan

from conftest import pad_paths


def test_pad_paths_extends_with_goal():
    padded = pad_paths([(1, 2, 3), (4,)])
    assert padded.paths == ((1, 2, 3), (4, 4, 4))


def test_from_configs_transposes():
    plan = JointPlan.from_configs([[1, 10], [2, 10], [3, 11]])
    assert plan.paths == ((1, 2, 3), (10, 10, 11))
    assert plan.horizon == 2
    assert plan.num_agents == 2


def test_is_padded():
    # a plan is padded by construction: ragged paths never make one
    assert JointPlan(((1, 2), (3, 3))).horizon == 1
    with pytest.raises(ValueError, match="ragged plan"):
        JointPlan(((1, 2), (3,)))
    with pytest.raises(ValueError, match="empty plan"):
        JointPlan(())


@given(st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=8), min_size=1, max_size=5))
def test_padding_is_idempotent_and_uniform(paths):
    paths = [tuple(p) for p in paths]
    once = pad_paths(paths)
    assert {len(p) for p in once.paths} == {max(map(len, paths))}
    assert pad_paths(list(once.paths)).paths == once.paths
    for raw, padded in zip(paths, once.paths):
        assert padded[: len(raw)] == raw
        assert set(padded[len(raw) :]) <= {raw[-1]}
