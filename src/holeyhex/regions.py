"""Region specifications and triangular-lattice geometry.

Cells live on the triangular lattice drawn with one family of lattice lines
vertical.  A cell is a tuple ``(c, h, o)``: ``c`` is the column of its
vertical edge, ``h`` the (doubled) height of that edge's midpoint, and
``o`` the orientation -- ``"R"`` for a right-pointing unit triangle (body to
the right of the edge, apex at column c+1) and ``"L"`` for a left-pointing
one.  Lattice vertices are the points (c, h) with h = c + n (mod 2) for an
order-n hexagon; cells satisfy h = c + n + 1 (mod 2).

The hexagon has sides n, 2m, n, n, 2m, n clockwise from the southwest, its
two vertical sides of length 2m at columns -n and n, and its horizontal
symmetry axis at h = 0.  A side-two hole at even position x has its
vertical edge in column x, centred on the axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import sqrt
from typing import Iterable, Iterator, Sequence

LEFT = "L"
RIGHT = "R"

Cell = tuple  # (c, h, o)
Point = tuple  # (x, y) lattice point for north/east paths

# The half regions below and above the symmetry axis and their shift d: each
# per-half rule, here and in matrices and zeta, is written once in terms of d.
HALVES = {"lower": 0, "upper": 1}
KINDS = ("full", *HALVES)


def half_shift(kind: str, what: str) -> int:
    """The shift d of half region ``kind``; any other kind has no ``what``."""
    d = HALVES.get(kind)
    if d is None:
        raise ValueError(f"no {what} for kind {kind!r}")
    return d


class SpecValidationError(ValueError):
    """Invalid region description; carries the complete violation list."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class RegionSpec:
    """A holey hexagon: side n, horizontal sides 2m, hole position sets."""

    n: int
    m: int
    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.left)

    @property
    def is_mirror_symmetric(self) -> bool:
        """R = -L: the holes mirror each other across the centre column."""
        return tuple(sorted(-x for x in self.left)) == self.right

    def unholed(self) -> "RegionSpec":
        return RegionSpec(self.n, self.m, (), ())

    def to_text(self) -> str:
        lefts = ",".join(str(x) for x in self.left)
        rights = ",".join(str(x) for x in self.right)
        return f"n={self.n} m={self.m} L={lefts} R={rights}"


def check(n: int, m: int, left: Sequence[int], right: Sequence[int]) -> list[str]:
    """Collect every violation of the region invariants (empty list = valid)."""
    problems = []
    if n < 2 or n % 2:
        problems.append(f"n must be a positive even integer, got {n}")
    if m < 1:
        problems.append(f"m must be a positive integer, got {m}")
    if len(left) != len(right):
        problems.append(
            f"left and right hole counts differ ({len(left)} vs {len(right)}); "
            "total charge must be zero"
        )
    for name, positions in (("left", left), ("right", right)):
        for x in positions:
            if x % 2:
                problems.append(f"{name} hole position {x} is odd")
            elif n >= 2 and not (-n + 2 <= x <= n - 2):
                problems.append(f"{name} hole position {x} outside [-{n - 2}, {n - 2}]")
    combined = list(left) + list(right)
    if len(set(combined)) != len(combined):
        problems.append("duplicate hole position")
    return problems


def validate(n: int, m: int, left: Iterable[int] = (), right: Iterable[int] = ()) -> RegionSpec:
    """Build a RegionSpec or raise SpecValidationError listing all problems."""
    left = tuple(sorted(left))
    right = tuple(sorted(right))
    problems = check(n, m, left, right)
    if problems:
        raise SpecValidationError(problems)
    return RegionSpec(n, m, left, right)


def parse_int_list(text: str) -> list[int]:
    """The integers of a comma-separated list; blank items are skipped."""
    try:
        return [int(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise SpecValidationError([f"not a comma-separated integer list: {text!r}"]) from None


def spec_grid(max_n: int, max_m: int, max_p: int) -> Iterator[RegionSpec]:
    """Every valid spec with n <= max_n, m <= max_m and p <= max_p.

    Ordered by n, then m, then p, then the combination of hole positions,
    then which of them point left.
    """
    for n in range(2, max_n + 1, 2):
        positions = range(-n + 2, n - 1, 2)
        for m in range(1, max_m + 1):
            for p in range(min(max_p, len(positions) // 2) + 1):
                for chosen in combinations(positions, 2 * p):
                    for left in combinations(chosen, p):
                        yield validate(n, m, left, [x for x in chosen if x not in left])


_SPEC_FIELDS = {"n": int, "m": int, "L": parse_int_list, "R": parse_int_list}


def parse_spec(text: str) -> RegionSpec:
    """Parse the canonical form ``n=<n> m=<m> L=<l1,...> R=<r1,...>``."""
    fields, problems = {}, []
    for token in text.split():
        key, _, value = token.partition("=")
        try:
            fields[key] = _SPEC_FIELDS[key](value)
        except (KeyError, ValueError):
            problems.append(f"unknown or malformed field {token!r}")
    problems += [f"missing field {key}=" for key in ("n", "m") if key not in fields]
    if problems:
        raise SpecValidationError(problems)
    return validate(fields["n"], fields["m"], fields.get("L", ()), fields.get("R", ()))


# ---------------------------------------------------------------------------
# induced holes and charges


@dataclass(frozen=True)
class InducedHole:
    """A maximal run of contiguous same-orientation side-two holes.

    ``position`` is the lattice offset of the midpoint of the induced
    hole's vertical edge (the leftmost constituent for right-pointing
    holes, the rightmost for left-pointing ones); distances between holes
    are measured between these midpoints.
    """

    orientation: str
    constituents: tuple[int, ...]

    @property
    def side(self) -> int:
        return 2 * len(self.constituents)

    @property
    def charge(self) -> int:
        return self.side if self.orientation == RIGHT else -self.side

    @property
    def position(self) -> int:
        if self.orientation == RIGHT:
            return self.constituents[0]
        return self.constituents[-1]


def merge_induced_holes(left: Sequence[int], right: Sequence[int]) -> list[InducedHole]:
    """Merge runs of same-orientation positions at spacing exactly two.

    Opposite orientations never merge, whatever the spacing.
    """
    tagged = sorted([(x, LEFT) for x in left] + [(x, RIGHT) for x in right])
    holes: list[InducedHole] = []
    run: list[int] = []
    run_orient = None
    for x, orient in tagged:
        if run and orient == run_orient and x == run[-1] + 2:
            run.append(x)
        else:
            if run:
                holes.append(InducedHole(run_orient, tuple(run)))
            run = [x]
            run_orient = orient
    if run:
        holes.append(InducedHole(run_orient, tuple(run)))
    return holes


def induced_holes(spec: RegionSpec) -> list[InducedHole]:
    return merge_induced_holes(spec.left, spec.right)


def distance(x: int, y: int) -> float:
    """Euclidean distance between vertical-edge midpoints at offsets x, y."""
    return sqrt(3.0) / 2.0 * abs(x - y)


# ---------------------------------------------------------------------------
# cell geometry

def neighbors(cell: Cell):
    """The up-to-three cells sharing an edge with this one."""
    c, h, o = cell
    if o == RIGHT:
        return ((c, h, LEFT), (c + 1, h + 1, LEFT), (c + 1, h - 1, LEFT))
    return ((c, h, RIGHT), (c - 1, h + 1, RIGHT), (c - 1, h - 1, RIGHT))


def reflect_horizontal(cell: Cell) -> Cell:
    c, h, o = cell
    return (c, -h, o)


def reflect_vertical(cell: Cell) -> Cell:
    c, h, o = cell
    return (-c, h, LEFT if o == RIGHT else RIGHT)


def hexagon_cells(n: int, m: int) -> frozenset:
    """All cells of the unholed hexagon with sides n, 2m (any n >= 1)."""
    if n < 1 or m < 1:
        raise ValueError("hexagon sides must be positive")
    sigma = n % 2

    def vertex_ok(c: int, h: int) -> bool:
        return abs(c) <= n and abs(h) <= 2 * m + n - abs(c)

    cells = []
    for c in range(-n, n + 1):
        hmax = 2 * m + n - abs(c) + 1
        for h in range(-hmax, hmax + 1):
            if (h - c - 1 - sigma) % 2:
                continue
            if not (vertex_ok(c, h - 1) and vertex_ok(c, h + 1)):
                continue
            if vertex_ok(c + 1, h):
                cells.append((c, h, RIGHT))
            if vertex_ok(c - 1, h):
                cells.append((c, h, LEFT))
    return frozenset(cells)


def hole_cells_full(position: int, orientation: str) -> frozenset:
    """The four unit cells of a side-two hole in the full hexagon."""
    x = position
    if orientation == RIGHT:
        return frozenset({(x, -1, RIGHT), (x, 1, RIGHT), (x + 1, 0, LEFT), (x + 1, 0, RIGHT)})
    return frozenset({(x, -1, LEFT), (x, 1, LEFT), (x - 1, 0, RIGHT), (x - 1, 0, LEFT)})


def hole_cell_half(position: int, orientation: str, kind: str) -> Cell:
    """The single unit hole a side-two hole leaves in a half region.

    In the lower region (d = 0) it is the unit triangle below the axis.  In
    the upper region (d = 1) the hole is a trapezoid equivalent to one unit
    triangle in a fold of the zig-zag boundary (the adjacent rhombus is then
    forced), one column further along the way the hole points; that unit
    triangle is what the transmission map moves.
    """
    d = half_shift(kind, "single hole cell")
    return (position + (-d if orientation == LEFT else d), d - 1, orientation)


def fused_pairs(spec: RegionSpec) -> list[int]:
    """Right holes r with a left hole at r + 2.

    In the upper region such a toward-pointing pair at spacing two fuses
    into a neutral hexagonal hole.
    """
    return [r for r in spec.right if r + 2 in spec.left]


@dataclass(frozen=True)
class TriangularRegion:
    """An explicit cell set together with its hole bookkeeping."""

    kind: str
    cells: frozenset
    hole_cells: frozenset
    spec: RegionSpec


def build_region(spec: RegionSpec, kind: str) -> TriangularRegion:
    """Materialise the cell set of the full region or a half region."""
    if kind not in KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    hexagon = hexagon_cells(spec.n, spec.m)
    tagged = [(x, LEFT) for x in spec.left] + [(x, RIGHT) for x in spec.right]

    if kind == "full":
        removed = set()
        for x, orient in tagged:
            cells = hole_cells_full(x, orient)
            if not cells <= hexagon:
                raise ValueError(f"hole at {x} does not fit inside the hexagon")
            removed |= cells
        return TriangularRegion("full", hexagon - removed, frozenset(removed), spec)

    # cells with h >= 0 lie above the axis, in the upper half (d = 1)
    d = HALVES[kind]
    half = {cell for cell in hexagon if (cell[1] >= 0) == d}
    removed = set()
    for x, orient in tagged:
        cell = hole_cell_half(x, orient, kind)
        if cell not in half:
            raise ValueError(f"hole at {x} does not fit inside the {kind} region")
        removed.add(cell)
    if kind == "upper":
        # the two flanking h = 1 cells of a fused pair lose the partners
        # that would otherwise be forced, so they leave the region as well
        for r in fused_pairs(spec):
            removed.add((r, 1, RIGHT))
            removed.add((r + 2, 1, LEFT))
    return TriangularRegion(kind, frozenset(half - removed), frozenset(removed), spec)


# ---------------------------------------------------------------------------
# start and end points for the nonintersecting-path pictures

def lgv_points(spec: RegionSpec, kind: str) -> tuple[list[Point], list[Point]]:
    """Start and end points of the north/east lattice-path picture.

    For the half regions these are the m boundary points plus one point per
    hole, all strictly below the diagonal y = x.  For the full region the
    boundary points are the 2m points (i, 1-i), i = 1-m..m, and every hole
    contributes a mirrored pair of points (one for each unit edge of its
    vertical side), so that the plain path-count determinant equals the
    full-region tiling count.
    """
    n, m = spec.n, spec.m
    half = n // 2

    def hole_point(x: int) -> Point:
        t = half + x // 2
        return (t + 1, t)

    if kind in HALVES:
        starts = [(i, 1 - i) for i in range(1, m + 1)]
        starts += [hole_point(x) for x in spec.left]
        ends = [(n + j, n + 1 - j) for j in range(1, m + 1)]
        ends += [hole_point(x) for x in spec.right]
        return starts, ends
    if kind == "full":
        starts = [(i, 1 - i) for i in range(1 - m, m + 1)]
        ends = [(n + j, n + 1 - j) for j in range(1 - m, m + 1)]
        for x in spec.left:
            point = hole_point(x)
            starts += [point, point[::-1]]
        for x in spec.right:
            point = hole_point(x)
            ends += [point, point[::-1]]
        return starts, ends
    raise ValueError(f"no path picture for kind {kind!r}")
