import pytest
from hypothesis import given
from hypothesis import strategies as st

from privmapf.plans import JointPlan, PlanFileError, pad_paths, read_plan_file, write_plan_file


def test_pad_paths_extends_with_goal():
    padded = pad_paths([(1, 2, 3), (4,)])
    assert padded.paths == ((1, 2, 3), (4, 4, 4))


def test_pad_paths_to_explicit_horizon():
    assert pad_paths([(1, 2)], horizon=4).paths == ((1, 2, 2, 2, 2),)
    with pytest.raises(ValueError):
        pad_paths([(1, 2, 3)], horizon=1)


def test_position_clamps_past_end():
    plan = JointPlan(((5, 6, 7),))
    assert plan.position(0, 0) == 5
    assert plan.position(0, 2) == 7
    assert plan.position(0, 99) == 7


def test_from_configs_transposes():
    plan = JointPlan.from_configs([[1, 10], [2, 10], [3, 11]])
    assert plan.paths == ((1, 2, 3), (10, 10, 11))
    assert plan.horizon == 2
    assert plan.num_agents == 2


def test_is_padded():
    assert JointPlan(((1, 2), (3, 3))).is_padded()
    assert not JointPlan(((1, 2), (3,))).is_padded()


def test_plan_file_round_trip(tmp_path):
    plan = JointPlan(((1, 2, 2), (7, 7, 7), (3, 4, 5), (9, 8, 8)))
    path = tmp_path / "plan.txt"
    write_plan_file(plan, 2, path)
    again, group_of = read_plan_file(path)
    assert again.paths == plan.paths
    assert group_of == [0, 0, 1, 1]


def _read(tmp_path, text):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    with pytest.raises(PlanFileError) as e:
        read_plan_file(path)
    assert str(e.value).startswith(f"{path}:")
    return str(e.value)[len(str(path)):]


def test_plan_file_rejects_ragged_rows(tmp_path):
    msg = _read(tmp_path, "0 0 1 2 3\n0 1 4 5 6\n1 0 7 8\n1 1 9 9 9\n")
    assert msg == ":3: path has 2 positions, the first row has 3"


def test_plan_file_rejects_rows_out_of_group_major_order(tmp_path):
    assert _read(tmp_path, "0 0 1 2\n1 0 3 4\n0 1 5 6\n1 1 7 8\n") == (
        ":3: row '0 1' is out of group-major order, expected '2 0'"
    )
    assert _read(tmp_path, "0 1 1 2\n0 0 3 4\n") == (
        ":1: row '0 1' is out of group-major order, expected '0 0'"
    )


def test_plan_file_rejects_a_group_of_another_size(tmp_path):
    head = "0 0 1 2\n0 1 3 4\n"
    assert _read(tmp_path, head + "1 0 5 6\n2 0 7 8\n2 1 9 9\n") == (
        ":4: group 1 has 1 members, group 0 has 2"
    )
    assert _read(tmp_path, head + "1 0 5 6\n1 1 7 8\n1 2 9 9\n") == (
        ":5: group 1 has more than 2 members, group 0 has 2"
    )
    assert _read(tmp_path, head + "\n1 0 5 6\n") == ":4: group 1 has 1 members, group 0 has 2"


@given(st.lists(st.lists(st.integers(0, 50), min_size=1, max_size=8), min_size=1, max_size=5))
def test_padding_is_idempotent_and_uniform(paths):
    paths = [tuple(p) for p in paths]
    once = pad_paths(paths)
    assert once.is_padded()
    assert pad_paths(list(once.paths)).paths == once.paths
    for raw, padded in zip(paths, once.paths):
        assert padded[: len(raw)] == raw
        assert set(padded[len(raw) :]) <= {raw[-1]}
