import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmapf.grid import (
    ConfigError,
    EmptyMapError,
    GridWorld,
    ParseError,
    ScenarioError,
    load_map,
    load_scenario,
    parse_map_text,
    scenario_text,
)

DOORWAY = """type octile
height 3
width 5
map
..@..
.....
..@..
"""


def test_parse_counts_and_coords(open4):
    assert open4.width == 4
    assert open4.height == 4
    assert open4.num_vertices == 16
    assert open4.coords(0) == (0, 0)
    assert open4.coords(15) == (3, 3)
    assert open4.vertex_at(3, 3) == 15


def test_blocked_cells_are_not_vertices():
    w = parse_map_text(DOORWAY)
    assert w.num_vertices == 13
    with pytest.raises(ValueError):
        w.vertex_at(2, 0)
    with pytest.raises(ValueError):
        w.vertex_at(5, 0)


def test_bundled_random_map_has_exact_vertex_count(random32):
    # 32*32 minus 20% blocked
    assert random32.num_vertices == 819
    assert set(random32.components) == {0}


def test_neighbor_order_skips_blocked():
    w = parse_map_text(DOORWAY)
    got = [w.coords(v) for v in w.adjacency[w.vertex_at(2, 1)]]
    assert got == [(1, 1), (3, 1)]  # up and down are '@'


def test_neighbors_full_cross(open4):
    got = [open4.coords(v) for v in open4.adjacency[open4.vertex_at(1, 1)]]
    assert got == [(1, 0), (0, 1), (2, 1), (1, 2)]


# each header and field error names its line; blank lines are skipped, also
# before the headers
@pytest.mark.parametrize("parse,text,line,message", [
    (parse_map_text, "", 1, "empty map file"),
    (parse_map_text, "\ntype octile\nheight x\nwidth 2\nmap\n..\n", 3, "bad height header"),
    (parse_map_text, "type octile\nheight 1\nwidth\nmap\n..\n", 3, "bad width header"),
    (parse_map_text, "type octile\nheight 1\nwidth 2\nsize 2\nmap\n..\n", 4,
     "unexpected header 'size'"),
    (parse_map_text, "type octile\nheight 1\nwidth 2\n", 3, "missing 'map' header"),
    (parse_map_text, "type octile\nheight 1\nmap\n..\n", 3, "missing height/width header"),
    (parse_map_text, "type octile\nheight 2\nwidth 3\nmap\n...\n..\n", 6,
     "row has 2 cells, expected 3"),
    (parse_map_text, "type octile\nheight 3\nwidth 2\nmap\n..\n..\n", 6,
     "expected 3 map rows, got 2"),
])
def test_malformed_headers_and_fields_name_their_line(parse, text, line, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.message) == (line, message)


@pytest.mark.parametrize("rows,error,message", [
    ([], EmptyMapError, "map has no rows"),
    (["..", "."], ParseError, "ragged map row"),
])
def test_gridworld_rejects_rows_that_are_no_grid(rows, error, message):
    with pytest.raises(error, match=message):
        GridWorld(rows)


def test_parse_errors_from_files_name_the_file(tmp_path):
    bad_map = tmp_path / "bad.map"
    bad_map.write_text("type octile\nheight 2\nwidth 2\nmap\n..\n.x\n")
    with pytest.raises(ParseError) as e:
        load_map(bad_map)
    assert (e.value.path, e.value.line) == (bad_map, 6)
    assert str(e.value) == f"{bad_map}: line 6: unknown terrain 'x' at column 1"
    bad_scen = tmp_path / "bad.scen"
    bad_scen.write_text("version 1\n0 open16 16 16 0 0\n")
    with pytest.raises(ParseError) as e:
        load_scenario(parse_map_text(DOORWAY), bad_scen, 1)
    assert str(e.value) == f"{bad_scen}: line 2: expected 9 fields, got 6"


def test_all_blocked_map_is_empty():
    with pytest.raises(EmptyMapError):
        parse_map_text("type octile\nheight 1\nwidth 2\nmap\n@@\n")


def test_fov_zero_is_self(open4):
    v = open4.vertex_at(2, 2)
    assert open4.fov(v, 0) == frozenset({v})


def test_fov_clips_at_boundary(open4):
    corner = open4.vertex_at(0, 0)
    got = {open4.coords(v) for v in open4.fov(corner, 1)}
    assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_fov_skips_blocked_but_sees_past_them():
    # sight is not occluded by walls; blocked cells are merely not part of
    # the region (nothing can stand there)
    w = parse_map_text(DOORWAY)
    c = w.vertex_at(2, 1)
    got = {w.coords(v) for v in w.fov(c, 1)}
    assert got == {(1, 0), (3, 0), (1, 1), (2, 1), (3, 1), (1, 2), (3, 2)}
    far = {w.coords(v) for v in w.fov(w.vertex_at(0, 1), 2)}
    assert (2, 1) in far  # the wall at (2,0) does not shadow (2,1)


def test_fov_ring_is_the_square_a_step_newly_covers(open16, random32):
    for world in (open16, random32):
        for radius in (1, 2):
            rings = world.fov_ring_table(radius)
            assert world.fov_ring_table(radius) is rings
            for v in range(world.num_vertices):
                assert sorted(rings[v]) == sorted(world.adjacency[v])
                for u in world.adjacency[v]:
                    assert set(rings[v][u]) == world.fov(v, radius) - world.fov(u, radius)
                    assert list(rings[v][u]) == sorted(rings[v][u])
    with pytest.raises(ConfigError, match="fov radius must be >= 0"):
        open16.fov_ring_table(-1)


# an exact int, checked before the cache: 1.5 and '1' would end in a bare
# TypeError, and True, which hashes as 1, would return the radius-1 table
@pytest.mark.parametrize("radius", [1.5, "1", True])
def test_fov_table_rejects_non_int_radius(open16, radius):
    open16.fov_table(1)
    for table in (open16.fov_table, open16.fov_ring_table):
        with pytest.raises(ConfigError, match="fov radius must be >= 0"):
            table(radius)


coord = st.integers(min_value=0, max_value=7)


@given(x1=coord, y1=coord, x2=coord, y2=coord, r=st.integers(0, 3))
@settings(max_examples=200)
def test_fov_symmetry_and_radius(x1, y1, x2, y2, r):
    w = parse_map_text(
        "type octile\nheight 8\nwidth 8\nmap\n" + "\n".join(["." * 8] * 8) + "\n"
    )
    a, b = w.vertex_at(x1, y1), w.vertex_at(x2, y2)
    assert (b in w.fov(a, r)) == (w.chebyshev(a, b) <= r)
    assert (b in w.fov(a, r)) == (a in w.fov(b, r))
    if r > 0:
        assert w.fov(a, r - 1) <= w.fov(a, r)


def test_components():
    w = parse_map_text("type octile\nheight 1\nwidth 5\nmap\n..@..\n")
    a, b = w.vertex_at(0, 0), w.vertex_at(1, 0)
    c = w.vertex_at(3, 0)
    assert w.components[a] == w.components[b]
    assert w.components[a] != w.components[c]


OPEN16_SCEN = "src/privmapf/assets/scens/open16.scen"


def test_scenario_round_trip(open16, tmp_path):
    pairs = load_scenario(open16, OPEN16_SCEN, 12)
    assert len(pairs) == 12
    assert all(0 <= s < open16.num_vertices for s, _ in pairs)
    again = tmp_path / "again.scen"
    again.write_text(scenario_text(open16, "open16.map", pairs))
    assert load_scenario(open16, again, 12) == pairs
    assert load_scenario(open16, again, 5) == pairs[:5]


def test_scenario_rejects_wrong_dimensions(open4):
    with pytest.raises(ScenarioError) as e:
        load_scenario(open4, OPEN16_SCEN, 1)
    assert (e.value.line, e.value.message) == (
        2, "entry 0: scenario is for a 16x16 map, world is 4x4")


def test_scenario_rejects_blocked_endpoints(tmp_path):
    world = parse_map_text("type octile\nheight 1\nwidth 2\nmap\n.@\n")
    scen = tmp_path / "m.scen"
    scen.write_text("version 1\n0 m 2 1 0 0 1 0 1.0\n")
    with pytest.raises(ScenarioError) as e:
        load_scenario(world, scen, 1)
    assert (e.value.line, e.value.message) == (2, "entry 0: (1,0) is blocked")
    assert e.value.path == scen


def test_scenario_requires_version_header(tmp_path, open4):
    scen = tmp_path / "foo.scen"
    scen.write_text("0\tfoo.map\t8\t8\t0\t0\t1\t1\t2.0\n")
    with pytest.raises(ParseError) as e:
        load_scenario(open4, scen, 1)
    assert (e.value.line, e.value.message) == (1, "missing 'version' header")


# every entry's fields are checked, also past the n placed, but an entry that
# cannot be placed is named before a bad line after it; blank lines are
# skipped, and each error names its line
@pytest.mark.parametrize("text,n,error,line,message", [
    ("version 1\n\n0 m 2 1 0 0 x 0 1.0\n", 1, ParseError, 3, "non-numeric field"),
    ("version 1\n0 m 2 1 0 0 1 0 1.0\n0 m 2 1 0 0 1 0 x\n", 1, ParseError, 3,
     "non-numeric field"),
    ("version 1\n0 m 2 1 0 0 1 0 1.0\n\n", 2, ScenarioError, None,
     "scenario has only 1 entries, 2 agents requested"),
    ("version 1\n0 m 2 1 0 0 2 0 1.0\n0 m 2 1\n", 1, ScenarioError, 2,
     "entry 0: (2,0) outside 2x1 map"),
])
def test_scenario_entries_name_their_line(tmp_path, text, n, error, line, message):
    world = parse_map_text("type octile\nheight 1\nwidth 2\nmap\n..\n")
    scen = tmp_path / "m.scen"
    scen.write_text(text)
    with pytest.raises(error) as e:
        load_scenario(world, scen, n)
    assert type(e.value) is error
    assert (e.value.line, e.value.message) == (line, message)


# a byte-order mark before a map's or a scenario's first header is dropped,
# as every reader of a user file drops it
def test_a_byte_order_mark_is_ignored(tmp_path):
    bom = b"\xef\xbb\xbf"
    (tmp_path / "m.map").write_bytes(bom + b"type octile\nheight 1\nwidth 2\nmap\n..\n")
    (tmp_path / "m.scen").write_bytes(bom + b"version 1\n0 m.map 2 1 0 0 1 0 1.0\n")
    world = load_map(tmp_path / "m.map")
    assert (world.width, world.height, world.num_vertices) == (2, 1, 2)
    assert load_scenario(world, tmp_path / "m.scen", 1) == [(0, 1)]
