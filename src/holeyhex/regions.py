"""Region specifications and triangular-lattice geometry.

Cells live on the triangular lattice drawn with one family of lattice lines
vertical.  A cell is a tuple ``(c, h, o)``: ``c`` is the column of its
vertical edge, ``h`` the (doubled) height of that edge's midpoint, and
``o`` the orientation, the sign of the column step from that edge to the
apex: +1 for a right-pointing unit triangle (body right of the edge, apex at
column c + 1), -1 for a left-pointing one; each per-orientation rule is one
formula in o.  Lattice vertices are the points (c, h) with h = c + n (mod 2)
for an order-n hexagon; cells satisfy h = c + n + 1 (mod 2).

The hexagon has sides n, 2m, n, n, 2m, n clockwise from the southwest, its
two vertical sides of length 2m at columns -n and n, and its horizontal
symmetry axis at h = 0.  A side-two hole at even position x has its
vertical edge in column x, centred on the axis.

Each hexagon's geometry is built once per kind: a small cache keeps the
unholed region of each (n, m, kind), and every holey region of that hexagon
is its cells less the hole cells and holds it: the tiling searches walk its
order skipping the hole cells, and the holey region shares its tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from math import sqrt
from typing import Iterable, Iterator, Sequence

LEFT = -1
RIGHT = 1

Cell = tuple  # (c, h, o): apex vertex (c + o, h), o = LEFT or RIGHT
Point = tuple  # (x, y) lattice point for north/east paths

# The half regions below and above the symmetry axis and their shift d: each
# per-half rule, here and in matrices and zeta, is written once in terms of d.
HALVES = {"lower": 0, "upper": 1}
KINDS = ("full", *HALVES)
REGION_KINDS = (*KINDS, "free")  # and the full region left of its centre line


def half_shift(kind: str, what: str) -> int:
    """The shift d of half region ``kind``; any other kind has no ``what``."""
    d = HALVES.get(kind)
    if d is None:
        raise ValueError(f"no {what} for kind {kind!r}")
    return d


def free_boundary_holes(spec: RegionSpec, what: str) -> tuple:
    """The left holes of a spec facing a free boundary at its centre line: each
    left of it, with the right holes as their mirror images.  Any other spec
    has no ``what``."""
    if not spec.is_mirror_symmetric or any(x >= 0 for x in spec.left):
        raise ValueError(f"{what} needs R = -L with every left hole < 0")
    return spec.left


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


# ---------------------------------------------------------------------------
# induced holes and charges


@dataclass(frozen=True)
class InducedHole:
    """A maximal run of contiguous same-orientation side-two holes.

    ``position`` is the lattice offset of the midpoint of the induced
    hole's vertical edge (the leftmost constituent for right-pointing
    holes, the rightmost for left-pointing ones); distances between holes
    are measured between these midpoints.  In the full region and in both
    halves (the upper one's weighted count too) such a run leaves as many
    tilings as one triangular hole of side ``side`` (tests/test_regions.py,
    test_a_run_of_side_two_holes_tiles_as_one_triangular_hole).
    """

    orientation: int  # LEFT or RIGHT
    constituents: tuple[int, ...]

    @property
    def side(self) -> int:
        return 2 * len(self.constituents)

    @property
    def charge(self) -> int:
        return self.orientation * self.side

    @property
    def position(self) -> int:
        return self.constituents[0 if self.orientation == RIGHT else -1]


def merge_induced_holes(left: Sequence[int], right: Sequence[int]) -> list[InducedHole]:
    """Merge runs of same-orientation positions at spacing exactly two.

    Opposite orientations never merge, whatever the spacing.
    """
    tagged = sorted([(x, LEFT) for x in left] + [(x, RIGHT) for x in right])
    holes: list[InducedHole] = []
    for x, orient in tagged:
        last = holes[-1] if holes else None
        if last and orient == last.orientation and x == last.constituents[-1] + 2:
            holes[-1] = InducedHole(orient, (*last.constituents, x))
        else:
            holes.append(InducedHole(orient, (x,)))
    return holes


def distance(x: int, y: int) -> float:
    """Euclidean distance between vertical-edge midpoints at offsets x, y."""
    return sqrt(3.0) / 2.0 * abs(x - y)


# ---------------------------------------------------------------------------
# cell geometry

def neighbors(cell: Cell):
    """The up-to-three cells sharing an edge with this one, all of orientation -o."""
    c, h, o = cell
    return ((c, h, -o), (c + o, h + 1, -o), (c + o, h - 1, -o))


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
            cells += [(c, h, o) for o in (RIGHT, LEFT) if vertex_ok(c + o, h)]
    return frozenset(cells)


def hole_cells_full(position: int, orientation: int) -> frozenset:
    """The four unit cells of a side-two hole in the full hexagon."""
    x, o = position, orientation
    return frozenset({(x, -1, o), (x, 1, o), (x + o, 0, -o), (x + o, 0, o)})


def hole_cell_half(position: int, orientation: int, kind: str) -> Cell:
    """The single unit hole a side-two hole leaves in a half region.

    In the lower region (d = 0) it is the unit triangle below the axis.  In
    the upper region (d = 1) the hole is a trapezoid equivalent to one unit
    triangle in a fold of the zig-zag boundary (the adjacent rhombus is then
    forced), one column further along the way the hole points; that unit
    triangle is what the transmission map moves.
    """
    d = half_shift(kind, "single hole cell")
    return (position + orientation * d, d - 1, orientation)


def _mirror(cell: Cell) -> Cell:
    """The cell's image across the centre column line c = 0: (-c, h, -o)."""
    c, h, o = cell
    return (-c, h, -o)


def _left_of_centre(cell: Cell) -> bool:
    """Whether the cell lies left of the centre column line: a free region's cell."""
    c, _, o = cell
    return 2 * c + o < 0


def fused_pairs(spec: RegionSpec) -> list[int]:
    """Right holes r with a left hole at r + 2.

    In the upper region such a toward-pointing pair at spacing two fuses
    into a neutral hexagonal hole.
    """
    return [r for r in spec.right if r + 2 in spec.left]


@dataclass(frozen=True)
class TriangularRegion:
    """An explicit cell set and the region it was cut from, if any."""

    kind: str
    cells: frozenset
    spec: RegionSpec
    free_edge: frozenset = frozenset()  # cells a half rhombus may also cover alone
    whole: TriangularRegion | None = field(default=None, compare=False, repr=False)

    @cached_property
    def hole_cells(self) -> frozenset:
        """The cells of ``whole`` that this region lacks; none without ``whole``."""
        return frozenset() if self.whole is None else self.whole.cells - self.cells

    @cached_property
    def order(self) -> tuple:
        """The cells in slab-major order, which keeps a sweep's uncovered frontier
        inside ~one column, and per cell the ascending offsets of its later
        partners (offset 0 first for a free-edge cell: its half rhombus).

        Both tiling searches read the order of the unholed region a region was
        cut from (``whole``), skipping its hole cells, so only an unholed or
        hand-built region's order is built in the library."""
        # 2c + o is odd, and h = c + n + 1 (mod 2) tells its two columns apart
        cells = sorted(self.cells, key=lambda cell: (2 * cell[0] + cell[2], cell[1]))
        index = {cell: i for i, cell in enumerate(cells)}
        ahead = [sorted(index[nb] - lo for nb in neighbors(cell) if index.get(nb, -1) > lo)
                 for lo, cell in enumerate(cells)]
        for cell in self.free_edge:
            ahead[index[cell]].insert(0, 0)
        return cells, ahead

    @cached_property
    def mirror_cut(self) -> int | None:
        """How many leading cells of ``order`` lie left of the centre column
        line (2c + o < 0) when the region is its own mirror image under
        (c, h, o) -> (-c, h, -o); else None.

        Slab-major order puts those cells first, and only the vertical rhombi
        of column 0 cross the line.  A region with a free edge is never its
        own image.  An unholed or hand-built region compares its cells once; a
        region cut from ``whole`` is its image when ``whole`` is and its hole
        cells are, so it reads only those."""
        if self.free_edge:
            return None
        if self.whole is not None:
            if self.whole.mirror_cut is None or not all(
                    _mirror(cell) in self.hole_cells for cell in self.hole_cells):
                return None
            return self.whole.mirror_cut - sum(map(_left_of_centre, self.hole_cells))
        if not all(_mirror(cell) in self.cells for cell in self.cells):
            return None
        return sum(map(_left_of_centre, self.cells))

    @cached_property
    def rhombi(self) -> frozenset:
        """Every tile of ``mates`` whose cells all lie in the region: edge-sharing
        pairs and free-edge cells alone."""
        mates, cells = self.mates, self.cells
        return frozenset(tile for cell in cells for tile in mates[cell].values() if tile <= cells)

    @cached_property
    def axis_rhombi(self) -> tuple:
        """The tiles of ``rhombi`` whose cells all lie on h = 0: the vertical
        rhombus of every column whose two axis cells both lie in the region."""
        return tuple(rhombus for rhombus in self.rhombi if all(cell[1] == 0 for cell in rhombus))

    @cached_property
    def memo(self) -> dict:
        """What other modules derive from this region once and keep as long as
        it, as ``mates`` is kept: ``oracle.count_tilings``' windows and move
        tables over ``order``, shared by every region cut from this one."""
        return {}

    @cached_property
    def mates(self) -> dict:
        """``mates[cell][mate]``: the tile of ``cell`` and ``mate`` (mate = cell for
        a free-edge half rhombus), one frozenset per tile of ``order``.  A region
        cut from its unholed region shares that region's, which is this one with
        its holes filled in, so every region of a hexagon has one object per tile."""
        if self.whole is not None:
            return self.whole.mates
        cells, ahead = self.order
        mates = {cell: {} for cell in cells}
        for lo, cell in enumerate(cells):
            for off in ahead[lo]:
                mate = cells[lo + off]
                mates[cell][mate] = mates[mate][cell] = frozenset((cell, mate))
        return mates


# the unholed regions kept at once: a sweep over the hole placements of a few
# hexagons, in every kind, reuses each one
_UNHOLED_REGIONS = 16


@lru_cache(maxsize=_UNHOLED_REGIONS)
def _unholed(n: int, m: int, kind: str) -> TriangularRegion:
    """The unholed region of ``kind`` of the hexagon with sides n, 2m; every
    region of that hexagon and kind is cut from it."""
    cells = hexagon_cells(n, m)
    spec = RegionSpec(n, m, (), ())
    if kind == "free":
        cells = frozenset(filter(_left_of_centre, cells))
        return TriangularRegion(kind, cells, spec,
                                frozenset(cell for cell in cells if cell[0] == 0))
    if kind in HALVES:
        cells = frozenset(cell for cell in cells if (cell[1] >= 0) == HALVES[kind])
    return TriangularRegion(kind, cells, spec)


def _removed(spec: RegionSpec, kind: str) -> frozenset:
    """The cells the holes of ``spec`` take out of its hexagon's region of
    ``kind``: four per hole in the full and free regions, one in a half."""
    full = kind not in HALVES
    cells = _unholed(spec.n, spec.m, "full" if full else kind).cells
    where = "the hexagon" if full else f"the {kind} region"
    removed = set()
    for x, orient in [(x, LEFT) for x in spec.left] + [(x, RIGHT) for x in spec.right]:
        hole = hole_cells_full(x, orient) if full else {hole_cell_half(x, orient, kind)}
        if not hole <= cells:
            raise ValueError(f"hole at {x} does not fit inside {where}")
        removed |= hole
    if kind == "upper":
        # the two flanking h = 1 cells of a fused pair lose the partners
        # that would otherwise be forced, so they leave the region as well
        for r in fused_pairs(spec):
            removed |= {(r, 1, RIGHT), (r + 2, 1, LEFT)}
    return frozenset(removed)


def build_region(spec: RegionSpec, kind: str) -> TriangularRegion:
    """Materialise the cell set of a region kind, one of ``REGION_KINDS``.

    A half keeps the hexagon's cells on its side of the axis (h >= 0 in the
    upper half, d = 1); each hole then removes its four cells from the full
    region and its one cell from a half.  The lower half's tilings are the full
    region's horizontally symmetric ones, as an axis cell can only pair with its
    own vertical partner (a slanted rhombus would overlap its mirror image).
    The free region (R = -L) is the full region left of its centre line, its
    column-0 cells a free edge, whose tilings are the full region's vertically
    symmetric ones (Ciucu, "Enumeration of perfect matchings in graphs with
    reflective symmetry", 1997).

    Each (n, m, kind) has one unholed region, kept in a small cache: a spec
    with no holes gets that region itself, so its tile tables are built once
    per hexagon, and any other spec's region is its cells less the hole cells,
    holding it as ``whole``, whose ``order`` and ``mates`` it reads.
    """
    if kind not in REGION_KINDS:
        raise ValueError(f"unknown region kind {kind!r}")
    if kind == "free" and not spec.is_mirror_symmetric:
        raise ValueError("vertical symmetry needs R = -L")
    whole = _unholed(spec.n, spec.m, kind)
    if not spec.left and not spec.right:
        return whole
    removed = _removed(spec, kind)
    return TriangularRegion(kind, whole.cells - removed, spec, whole.free_edge - removed, whole)


# ---------------------------------------------------------------------------
# start and end points for the nonintersecting-path pictures

def lgv_points(spec: RegionSpec, kind: str) -> tuple[list[Point], list[Point]]:
    """Start and end points of the north/east lattice-path picture.

    For the half regions these are the m boundary points plus one point per
    hole, all strictly below the diagonal y = x.  For the full region the
    boundary points are the 2m points (i, 1-i), i = 1-m..m, and every hole
    contributes a mirrored pair of points (one for each unit edge of its
    vertical side), so that the unconstrained path-count determinant equals the
    full-region tiling count.
    """
    if kind not in KINDS:
        raise ValueError(f"no path picture for kind {kind!r}")
    n, m, full = spec.n, spec.m, kind == "full"
    boundary = range(1 - m if full else 1, m + 1)
    starts = [(i, 1 - i) for i in boundary]
    ends = [(n + j, n + 1 - j) for j in boundary]
    for points, holes in ((starts, spec.left), (ends, spec.right)):
        for x in holes:
            t = n // 2 + x // 2
            points += [(t + 1, t), (t, t + 1)] if full else [(t + 1, t)]
    return starts, ends
