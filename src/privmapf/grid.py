"""Grid worlds parsed from MovingAI benchmark files.

A grid world is an undirected graph whose vertices are the passable cells of
a rectangular map and whose edges connect 4-neighbouring passable cells.
Coordinates are zero-based with ``x`` the column and ``y`` the row; vertex
ids are dense integers assigned in row-major order over passable cells only.

The square field of view ``fov(v, r)`` is the set of passable vertices whose
Chebyshev distance to ``v`` is at most ``r``, clipped to the map bounds.
Obstacles do *not* occlude it: a vertex on the far side of a wall is still
inside the square. This is deliberate (the privacy machinery treats the
field of view as a plain distance band, not a line-of-sight computation).
"""

from __future__ import annotations

import json
from pathlib import Path


PASSABLE_CHARS = frozenset(".GS")
BLOCKED_CHARS = frozenset("@OTW")


class PrivmapfError(Exception):
    """An input the program cannot use, or an instance with no answer; never a bug.
    One read from a file names the file and, when it has one, the 1-based line."""

    def __init__(self, message: str, line: int | None = None, path: str | Path | None = None):
        self.message, self.line, self.path = message, line, path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ConfigError(PrivmapfError, ValueError):
    """A setting, map name or suite config the program cannot use."""


class ParseError(PrivmapfError, ValueError):
    """Malformed .map/.scen content."""


def require_int(value, low: int, message: str, error: type[PrivmapfError] = ConfigError) -> int:
    """``value`` when it is an int of at least ``low``, else ``error(message)``: the rule
    of every integer setting. A bool is no int here, since True would act, and hash, as
    1; a float such as 2.5 would be rounded or truncated somewhere downstream, or end in
    a bare TypeError."""
    if type(value) is not int or value < low:
        raise error(message)
    return value


def read_file(path: str | Path, parse, error: type[PrivmapfError]):
    """``parse`` of the file's UTF-8 text, a leading byte-order mark dropped, the one reader
    of user files: its ``error``, a bad byte, nesting past the parser's recursion limit, a
    syntax error or a value the parser cannot build (a 5000-digit int, month 13) leaves as
    one error of the same type naming the file."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except error as exc:
        raise type(exc)(exc.message, exc.line, path) from None
    except PrivmapfError:
        raise  # another reader's, such as a suite's map's, names its own file
    except (ValueError, RecursionError) as exc:  # ValueError holds UnicodeDecodeError
        json_syntax = isinstance(exc, json.JSONDecodeError)
        raise error(f"not JSON ({exc})" if json_syntax else str(exc), path=path) from None


class EmptyMapError(PrivmapfError, ValueError):
    """Map contains no passable cell."""


class ScenarioError(ParseError):
    """Scenario entry that cannot be realised on the given world."""


class GridWorld:
    """Immutable 4-connected grid graph over the passable cells of a map.

    Attributes:
        width, height: map dimensions in cells.
        num_vertices: number of passable cells.
    """

    __slots__ = (
        "width",
        "height",
        "num_vertices",
        "_vertex_of_cell",
        "_cell_of_vertex",
        "_neighbors",
        "_fov_cache",
        "_ring_cache",
        "_component",
        "_members",
    )

    def __init__(self, rows: list[str]):
        if not rows:
            raise EmptyMapError("map has no rows")
        self.height = len(rows)
        self.width = len(rows[0])
        passable = []
        for row in rows:
            if len(row) != self.width:
                raise ParseError("ragged map row")
            for ch in row:
                passable.append(ch in PASSABLE_CHARS)

        vertex_of_cell = [-1] * (self.width * self.height)
        cell_of_vertex = []
        for cell, ok in enumerate(passable):
            if ok:
                vertex_of_cell[cell] = len(cell_of_vertex)
                cell_of_vertex.append(cell)
        self._vertex_of_cell = vertex_of_cell
        self._cell_of_vertex = cell_of_vertex
        self.num_vertices = len(cell_of_vertex)
        if self.num_vertices == 0:
            raise EmptyMapError("map has no passable cell")

        neighbors = []
        for v in range(self.num_vertices):
            x, y = self.coords(v)
            adj = []
            for dx, dy in ((0, -1), (-1, 0), (1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if 0 <= nx < self.width and 0 <= ny < self.height:
                    u = vertex_of_cell[ny * self.width + nx]
                    if u >= 0:
                        adj.append(u)
            neighbors.append(tuple(adj))
        self._neighbors = tuple(neighbors)
        self._fov_cache: dict[int, tuple[frozenset[int], ...]] = {}
        self._ring_cache: dict[int, tuple[dict[int, tuple[int, ...]], ...]] = {}
        self._component: tuple[int, ...] | None = None
        self._members: tuple[tuple[int, ...], ...] = ()

    # -- geometry ---------------------------------------------------------

    def coords(self, v: int) -> tuple[int, int]:
        """Vertex id -> (x, y)."""
        cell = self._cell_of_vertex[v]
        return cell % self.width, cell // self.width

    def vertex_at(self, x: int, y: int) -> int:
        """(x, y) -> vertex id; raises ValueError off-map or on a blocked cell."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x},{y}) outside {self.width}x{self.height} map")
        v = self._vertex_of_cell[y * self.width + x]
        if v < 0:
            raise ValueError(f"({x},{y}) is blocked")
        return v

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The 4-neighbours of v, indexed by v."""
        return self._neighbors

    def fov(self, v: int, radius: int) -> frozenset[int]:
        """Square field of view: passable vertices within Chebyshev ``radius``."""
        return self.fov_table(radius)[v]

    def fov_table(self, radius: int) -> tuple[frozenset[int], ...]:
        """``fov(v, radius)`` indexed by v, built once per radius."""
        require_int(radius, 0, "fov radius must be >= 0")  # before the lookup
        table = self._fov_cache.get(radius)
        if table is None:
            table = tuple(self._fov_uncached(v, radius) for v in range(self.num_vertices))
            self._fov_cache[radius] = table
        return table

    def fov_ring_table(self, radius: int) -> tuple[dict[int, tuple[int, ...]], ...]:
        """``rings[v][u]``, for each edge (v, u), is ``fov(v) - fov(u)`` in
        ascending order; built once per radius."""
        fov = self.fov_table(radius)  # checks the radius
        if radius not in self._ring_cache:
            self._ring_cache[radius] = tuple(
                {u: tuple(sorted(fov[v] - fov[u])) for u in adj}
                for v, adj in enumerate(self._neighbors))
        return self._ring_cache[radius]

    def _fov_uncached(self, v: int, radius: int) -> frozenset[int]:
        x, y = self.coords(v)
        out = []
        for ny in range(max(0, y - radius), min(self.height, y + radius + 1)):
            base = ny * self.width
            for nx in range(max(0, x - radius), min(self.width, x + radius + 1)):
                u = self._vertex_of_cell[base + nx]
                if u >= 0:
                    out.append(u)
        return frozenset(out)

    def chebyshev(self, v: int, u: int) -> int:
        vx, vy = self.coords(v)
        ux, uy = self.coords(u)
        return max(abs(vx - ux), abs(vy - uy))

    # -- connectivity -----------------------------------------------------

    @property
    def components(self) -> tuple[int, ...]:
        """The connected-component label of v, indexed by v, built once."""
        if self._component is None:
            comp = [-1] * self.num_vertices
            members = []
            for seed in range(self.num_vertices):
                if comp[seed] >= 0:
                    continue
                label = comp[seed] = len(members)
                group = [seed]
                for w in group:
                    for u in self._neighbors[w]:
                        if comp[u] < 0:
                            comp[u] = label
                            group.append(u)
                members.append(tuple(sorted(group)))
            self._component = tuple(comp)
            self._members = tuple(members)
        return self._component

    def component_members(self, v: int) -> tuple[int, ...]:
        """The vertices of v's connected component, ascending."""
        label = self.components[v]  # builds _members on first use
        return self._members[label]


def parse_map_text(text: str) -> GridWorld:
    """Parse MovingAI .map content. Unknown terrain characters are rejected."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty map file", line=1)

    dims: dict[str, int] = {}  # height and width, as their headers give them
    idx = 0
    seen_map = False
    while idx < len(lines):
        line = lines[idx].strip()
        idx += 1
        if not line:
            continue
        key = line.split()[0].lower()
        if key == "type":
            continue
        if key in ("height", "width"):
            try:
                dims[key] = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(f"bad {key} header", line=idx) from None
        elif key == "map":
            seen_map = True
            break
        else:
            raise ParseError(f"unexpected header {line.split()[0]!r}", line=idx)
    if not seen_map:
        raise ParseError("missing 'map' header", line=idx)
    if len(dims) < 2:
        raise ParseError("missing height/width header", line=idx)
    height, width = dims["height"], dims["width"]

    rows = []
    for y in range(height):
        if idx + y >= len(lines):
            raise ParseError(f"expected {height} map rows, got {y}", line=idx + y)
        row = lines[idx + y]
        if len(row) != width:
            raise ParseError(
                f"row has {len(row)} cells, expected {width}", line=idx + y + 1
            )
        for x, ch in enumerate(row):
            if ch not in PASSABLE_CHARS and ch not in BLOCKED_CHARS:
                raise ParseError(f"unknown terrain {ch!r} at column {x}", line=idx + y + 1)
        rows.append(row)
    return GridWorld(rows)


def load_map(path: str | Path) -> GridWorld:
    return read_file(path, parse_map_text, ParseError)


def load_scenario(world: GridWorld, path: str | Path, n: int) -> list[tuple[int, int]]:
    """The first n entries of a MovingAI .scen file as (start, goal) vertex pairs of
    ``world``. Every entry must hold 9 fields; each of the first n must be for a map of
    the world's size with both endpoints passable, else a ScenarioError names its
    entry index and line; a file of fewer than n entries is a ScenarioError too."""

    def parse(text: str) -> list[tuple[int, int]]:
        lines = text.splitlines()
        if not lines or not lines[0].lower().startswith("version"):
            raise ParseError("missing 'version' header", line=1)
        pairs: list[tuple[int, int]] = []  # one per entry until there are n
        for i, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 9:
                raise ParseError(f"expected 9 fields, got {len(parts)}", line=i)
            try:  # bucket, map name, map width and height, start x y, goal x y, optimal length
                _, width, height, sx, sy, gx, gy = map(int, [parts[0], *parts[2:8]])
                float(parts[8])
            except ValueError:
                raise ParseError("non-numeric field", line=i) from None
            if len(pairs) < n:
                if (width, height) != (world.width, world.height):
                    raise ScenarioError(f"entry {len(pairs)}: scenario is for a {width}x{height} "
                                        f"map, world is {world.width}x{world.height}", line=i)
                try:
                    pairs.append((world.vertex_at(sx, sy), world.vertex_at(gx, gy)))
                except ValueError as err:
                    raise ScenarioError(f"entry {len(pairs)}: {err}", line=i) from None
        if len(pairs) < n:
            raise ScenarioError(f"scenario has only {len(pairs)} entries, {n} agents requested")
        return pairs

    return read_file(path, parse, ParseError)


def scenario_text(world: GridWorld, map_name: str, pairs: list[tuple[int, int]]) -> str:
    """Render (start, goal) vertex pairs as a .scen file body."""
    lines = ["version 1"]
    for bucket, (s, g) in enumerate(pairs):
        sx, sy = world.coords(s)
        gx, gy = world.coords(g)
        dist = abs(sx - gx) + abs(sy - gy)
        lines.append(
            f"{bucket}\t{map_name}\t{world.width}\t{world.height}"
            f"\t{sx}\t{sy}\t{gx}\t{gy}\t{float(dist):.8f}"
        )
    return "\n".join(lines) + "\n"
