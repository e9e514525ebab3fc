"""Property fuzz of the whole pipeline: run_pipeline -> audit -> ppfpp.

Over small random maps, agent counts, group sizes k and fov radii r in
{0, 1, 2}, every run must end either solved, audit-clean, k-private and
never worse after refinement, or in a typed failure of placement, dispatch
or the search. Any other exception fails the test, and so does a step of
the search that draws more than its bound of words or leaves a claim
behind (``conftest.bound_step_draws``), and so does a search whose result
differs from the one that steps every constraint. Refinement may refuse
only radius 0: on a clean plan at r >= 1 it must succeed, and the refined
real paths, one per agent, must audit clean at radius r (the safe zones
are mutually invisible).

The files a user may hand-edit, a ``solve`` trace and its private sidecars,
are fuzzed too: with up to three JSON values replaced, ``audit`` and
``ppfpp`` must report, never raise. Mangled byte by byte (cut, nested or
not UTF-8), the trace, a sidecar and a YAML suite must each be read as they
were or be refused in one error line that names them; behind a BOM each
must be read as it was.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from privmapf.audit import audit, audit_trace, path_cost
from privmapf.cli import main
from privmapf.dispatch import DispatchExhaustedError, InfeasibleInputError
from privmapf.grid import parse_map_text
from privmapf.instances import PlacementError, random_spaced_pairs
from privmapf.pipeline import PipelineSpec, run_pipeline
from privmapf.plans import JointPlan
from privmapf.safezone import PreconditionError, ppfpp

from conftest import bound_step_draws, step_every_constraint

# a solver that gives up says why; these are its budget and search outcomes
SOLVER_REASONS = {"timeout", "exhausted"}


@st.composite
def worlds(draw):
    """A w x h map with at most a quarter of its cells blocked."""
    w, h = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    walls = draw(st.sets(st.integers(0, w * h - 1), max_size=w * h // 4))
    rows = ["".join("@" if y * w + x in walls else "." for x in range(w)) for y in range(h)]
    return parse_map_text(f"type octile\nheight {h}\nwidth {w}\nmap\n" + "\n".join(rows) + "\n")


# two agents on an open 3x3 map: their refined paths meet inside each
# other's fov unless every zone pick keeps its fov square off the other
# zones (extension rule 4)
OPEN3 = parse_map_text("type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n")


@given(
    world=worlds(),
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    radius=st.sampled_from([0, 1, 2]),
    separation=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
@example(world=OPEN3, n=2, k=1, radius=1, separation=2, seed=0)
def test_pipeline_is_correct_or_fails_typed(world, n, k, radius, separation, seed):
    # hypothesis rejects function-scoped fixtures, so each example patches
    # the search's steps in a context of its own
    with pytest.MonkeyPatch.context() as mp:
        steps = bound_step_draws(mp, seed)
        try:
            pairs = random_spaced_pairs(world, n, seed, min_separation=separation)
            out = run_pipeline(world, pairs, PipelineSpec(k, radius, budget_expansions=300), seed)
        except (PlacementError, DispatchExhaustedError, InfeasibleInputError) as exc:
            event(type(exc).__name__)
            return
    # every step ran within its bound, and the steps a failed pin prefix
    # skips change nothing: the search that steps every constraint agrees
    assert len(steps) <= out.solve.expansions
    with pytest.MonkeyPatch.context() as mp:
        step_every_constraint(mp)
        every = run_pipeline(world, pairs, PipelineSpec(k, radius, budget_expansions=300), seed)
    assert every.solve == out.solve  # plan, reason and expansions
    if len(steps) < out.solve.expansions:
        event("a failed pin prefix skipped")
    if not out.solved:
        assert out.reason in SOLVER_REASONS
        event(f"unsolved: {out.reason}")
        return

    plan, group_of = out.plan, out.problem.group_of
    assert out.report == audit_trace(world, out.trace)
    assert out.report.ok
    try:
        refined = ppfpp(world, plan, group_of, out.real_paths, radius, seed)
    except PreconditionError:
        assert radius == 0, "a clean fov-aware plan must be refinable"
        event("solved, r=0: no refinement")
        return
    for real, path in zip(out.real_paths, refined.refined_paths):
        assert (path[0], path[-1]) == (real[0], real[-1])
        assert path_cost(path, real[-1]) <= path_cost(real, real[-1])
    assert refined.rsoc_after <= refined.rsoc_before
    executed = JointPlan(tuple(refined.refined_paths))
    assert audit(world, executed, list(range(n)), fov_radius=radius, check_fov=True).ok
    event("solved and refined")


# ------------------------------------------------ hand-edited files

OPEN5 = "type octile\nheight 5\nwidth 5\nmap\n" + ".....\n" * 5

# half small ints, which pass the type checks as a vertex id, a coordinate,
# k, a radius or a real index, and half anything JSON holds
JSON_VALUES = st.integers(-1, 25) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def solved_bytes(tmp_path_factory):
    """A solved radius-1 trace on OPEN5 and its two sidecars, as ``solve``
    wrote them: each file's bytes, by file name."""
    root = tmp_path_factory.mktemp("solved")
    (root / "open5.map").write_text(OPEN5)
    argv = ["solve", "--map", str(root / "open5.map"), "--agents", "2", "--k", "2",
            "--radius", "1", "--out", str(root / "trace.json"),
            "--private-dir", str(root / "private")]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    files = [root / "trace.json", *sorted((root / "private").iterdir())]
    return {f.name: f.read_bytes() for f in files}


@pytest.fixture(scope="module")
def solved_files(solved_bytes):
    """The same files' JSON values, by file name."""
    return {name: json.loads(raw) for name, raw in solved_bytes.items()}


def _replace_one(data, docs):
    """Replace one JSON value of one file (the trace two times in three),
    found by walking down from the file's root: at each non-empty container,
    stop or enter one of its members, all equally likely. So a top-level
    key such as ``fov_radius`` is hit far more often than under a uniform
    pick among the trace's values, most of which are plan vertices."""
    which = st.just("trace.json") | st.sampled_from(sorted(docs))
    parent, key = docs, data.draw(which, label="file")
    while isinstance(parent[key], (dict, list)) and parent[key]:
        node = parent[key]
        keys = list(node) if isinstance(node, dict) else range(len(node))
        i = data.draw(st.integers(0, len(keys)), label="member")
        if i == len(keys):
            break
        parent, key = node, keys[i]
    parent[key] = data.draw(JSON_VALUES, label="value")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_trace_and_sidecars_never_raise(solved_files, data):
    docs = json.loads(json.dumps(solved_files))
    for _ in range(data.draw(st.integers(1, 3), label="replacements")):
        _replace_one(data, docs)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "open5.map").write_text(OPEN5)
        (root / "private").mkdir()
        for name, doc in docs.items():
            where = root / ("trace.json" if name == "trace.json" else f"private/{name}")
            where.write_text(json.dumps(doc))
        common = ["--map", str(root / "open5.map"), "--trace", str(root / "trace.json")]
        for argv in (["audit", *common], ["ppfpp", *common, "--private-dir", str(root / "private")]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            # a replaced value may still leave an input the command accepts
            # (fov_radius 0, another real_index, an untouched trace): exit 0
            assert rc in (0, 1, 2)
            if rc == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
            else:
                assert lines == []
            event(f"{argv[0]}: exit {rc}")


# ------------------------------------------------ files mangled byte by byte

SUITE = b"maps: [open16]\nagents: [1]\nseeds: 1\n"


def _mangle(raw: bytes, kind: str, n: int) -> bytes:
    """``raw`` cut at offset n, wrapped in n brackets, with a 0xFF byte put
    in at offset n, or behind a UTF-8 BOM."""
    at = n % (len(raw) + 1)
    return {"truncate": raw[:at], "nest": b"[" * n + raw + b"]" * n,
            "0xff": raw[:at] + b"\xff" + raw[at:], "bom": b"\xef\xbb\xbf" + raw}[kind]


# the commands that read each file
READERS = {"trace.json": ("audit", "ppfpp"), "private/agent_000.json": ("ppfpp",),
           "suite.yaml": ("bench",)}


@pytest.mark.parametrize("target", sorted(READERS))
@given(kind=st.sampled_from(["truncate", "nest", "0xff", "bom"]), n=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
@example(kind="nest", n=10_000)
@example(kind="bom", n=0)
def test_mangled_files_are_read_or_named_in_one_error_line(solved_bytes, target, kind, n):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "open5.map").write_text(OPEN5)
        (root / "private").mkdir()
        (root / "suite.yaml").write_bytes(SUITE)
        for name, raw in solved_bytes.items():
            (root / ("trace.json" if name == "trace.json" else f"private/{name}")).write_bytes(raw)
        mangled = root / target
        mangled.write_bytes(_mangle(mangled.read_bytes(), kind, n))
        common = ["--map", str(root / "open5.map"), "--trace", str(root / "trace.json")]
        argvs = {"audit": ["audit", *common],
                 "ppfpp": ["ppfpp", *common, "--private-dir", str(root / "private")],
                 "bench": ["bench", "--config", str(root / "suite.yaml")]}
        for command in READERS[target]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argvs[command])
            lines = err.getvalue().splitlines()
            # a cut of the last newline alone or no brackets leaves what the
            # file holds: exit 0; a BOM is dropped from every format
            assert rc in ((0,) if kind == "bom" else (0, 2)), (command, rc, lines)
            if rc == 2:
                assert len(lines) == 1 and lines[0].startswith(f"error: {mangled}: "), lines
            else:
                assert lines == []
            event(f"{command} of {target}, {kind}: exit {rc}")
