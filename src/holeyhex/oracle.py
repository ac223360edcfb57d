"""Independent brute-force oracles.

Each oracle has one search state, counted by a layered sweep that keeps
only the current {state: count} layer.  A tiling state is the covered
cells from a window's first cell on.  The sweep runs over the ``order`` of
the unholed region the region was cut from, its hole cells covered, and
steps ``WINDOW`` cells at a time, each state reading its moves from the
window's table; the tables are kept with the unholed region, so every
region cut from one hexagon reads the same ones.  It stops at the centre
line of a region that is its own mirror image, whose count is the sum of
the squares of that layer's counts.  The tilings are enumerated by walking
the states of the region's own ``order`` one cell at a time, depth first,
over per-cell tables of later partners and their ``mates`` tiles, built
once per call, a forced cell (``_forced``) taking its one partner in place.
A path-family state is the (height, path) pairs of the paths crossing into
a column; the sweep steps each column one path at a time.  Nothing here
touches the determinant machinery.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, Sequence

from .regions import RegionSpec, TriangularRegion, half_shift, lgv_points

DEFAULT_BUDGET = 10 ** 8

Tiling = frozenset  # of frozenset({cell, cell}) rhombi; a half rhombus is frozenset({cell})


class BudgetExceededError(RuntimeError):
    """A search past its budget of branch nodes; ``partial``: the tiles chosen."""

    def __init__(self, nodes: int, partial):
        super().__init__(f"search budget exceeded after {nodes} branch nodes")
        self.nodes = nodes
        self.partial = partial


def enumerate_tilings(region: TriangularRegion, budget: int = DEFAULT_BUDGET) -> Iterator[Tiling]:
    """Stream every tiling of the region in a fixed canonical order.

    Walks the states of the region's own ``order`` one cell at a time (the
    first uncovered cell ``lo`` and the covered cells from it on) depth
    first on an explicit stack, so it has no recursion limit; each uncovered
    ``lo`` is one branch node, and pairs with each free partner in ascending
    order (a free-edge ``lo`` first with itself, its half rhombus).  Each
    cell's later partners are tabled once per call as (mask bit, tile), the
    tile being its object in ``region.mates``, shared by every region of the
    hexagon, in stack order; a forced cell (``_forced``), whose one partner
    is always free, takes it in place, with no push or pop.  Past ``budget``
    nodes the error carries the tiles chosen so far.
    """
    cells, ahead = region.order
    mates = region.mates
    forced = _forced(ahead)
    # reversed, so that the stack pops the first partner's tilings first
    later = [[(1 << off, mates[cell][cells[lo + off]]) for off in reversed(offsets)]
             for lo, (cell, offsets) in enumerate(zip(cells, ahead))]
    nodes = 0
    chosen = []  # the tiles chosen on the way to the current state
    stack = [(0, 0, 0, ())]  # (lo, covered mask from lo on, len(chosen) before, (last tile,))
    while stack:
        lo, mask, depth, last = stack.pop()
        chosen[depth:] = last
        while True:
            while mask & 1:
                lo, mask = lo + 1, mask >> 1
            if lo == len(cells):
                yield frozenset(chosen)
                break
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(nodes, tuple(chosen))
            if not forced[lo]:
                for bit, tile in later[lo]:
                    if not mask & bit:
                        stack.append((lo + 1, (mask | bit) >> 1, len(chosen), (tile,)))
                break
            (bit, tile), = later[lo]
            chosen.append(tile)
            lo, mask = lo + 1, (mask | bit) >> 1


def _forced(ahead) -> list:
    """Per cell of ``ahead`` (``region.order``'s offsets), the offset of its
    one later partner when the cell is forced, else 0; one more 0 follows,
    for one past the last cell.  ``enumerate_tilings`` takes a forced cell's
    partner in place.

    A cell is forced when its one later partner, at offset o > 0, has it as
    its only earlier partner.  No earlier cell can cover that partner, so bit
    o is clear when the cell is reached.
    """
    earlier = [0] * len(ahead)
    for lo, offsets in enumerate(ahead):
        for off in offsets:
            if off:
                earlier[lo + off] += 1
    forced = [0] * (len(ahead) + 1)
    for lo, offsets in enumerate(ahead):
        if len(offsets) == 1 and offsets[0] and earlier[lo + offsets[0]] == 1:
            forced[lo] = offsets[0]
    return forced


# cells per step of the tiling sweep
WINDOW = 6


class _Window(dict):
    """One step of count_tilings' sweep: the ``width`` cells from ``lo`` of an
    ``order`` whose partner offsets are ``ahead``, and their move table.

    ``read`` holds the bits the step reads, bit 0 being ``lo``: the window's
    own cells and each one's later partners.  ``window[mask & read]`` is the
    tuple of the ways to cover every cell of the window that the mask leaves
    free, each as the cells it claims past the window, shifted down by
    ``width``; a pattern's moves are found the first time it appears.
    """

    __slots__ = ("lo", "width", "ahead", "read")

    def __init__(self, lo: int, width: int, ahead: list):
        super().__init__()
        self.lo, self.width, self.ahead = lo, width, ahead
        self.read = (1 << width) - 1
        for i in range(width):
            for off in ahead[lo + i]:
                self.read |= 1 << i + off

    def __missing__(self, pattern: int) -> tuple:
        # the first free cell pairs with each free partner (itself, for a
        # free-edge cell's offset 0), depth first over the window
        moves = []
        stack = [(0, pattern)]
        while stack:
            i, covered = stack.pop()
            while i < self.width and covered >> i & 1:
                i += 1
            if i == self.width:
                moves.append((covered ^ pattern) >> self.width)
                continue
            for off in self.ahead[self.lo + i]:
                bit = 1 << i + off
                if not covered & bit:
                    stack.append((i + 1, covered | bit | 1 << i))
        moves = self[pattern] = tuple(moves)
        return moves


class _Sweep:
    """count_tilings' windows over an unholed (or hand-built) region's
    ``order``: ``WINDOW`` cells each, one ending at the region's
    ``mirror_cut`` (the first ``cut`` windows), and per window the end of
    all that it and the windows before it read."""

    def __init__(self, region: TriangularRegion):
        self.cells, ahead = region.order
        cut = len(ahead) if region.mirror_cut is None else region.mirror_cut
        starts = [*range(0, cut, WINDOW), *range(cut, len(ahead), WINDOW)]
        self.cut = len(range(0, cut, WINDOW))
        self.windows = [_Window(lo, hi - lo, ahead)
                        for lo, hi in zip(starts, [*starts[1:], len(ahead)])]
        self.reach = list(accumulate((w.lo + w.read.bit_length() for w in self.windows), max))


def count_tilings(region: TriangularRegion) -> int:
    """Exact tiling count by a layered transfer sweep over the cells, a window
    of ``WINDOW`` cells per step.

    The sweep runs over the ``order`` of the unholed region the region was cut
    from (``region.whole or region``), whose windows and move tables are
    built once and kept in its ``memo``, so every region of a hexagon and
    kind shares them.  The layer at window start ``lo`` maps the covered
    cells from ``lo`` on (bit 0 is ``lo``) to the number of ways to cover
    every cell before ``lo``.  A hole cell is covered from the start: its bit
    is set on every key before the first window that reads it.  Each key
    reads its moves from the window's table (``_Window``) and steps to
    ``(mask >> width) | move``.  Slab-major cell order keeps the masks narrow.

    A region that is its own mirror image (``region.mirror_cut``) is swept
    only over the cells left of the centre line.  Each key of that layer is
    a set of column-0 vertical rhombi crossing the line (with the hole cells
    right of the line read so far, the same on every key), and the right
    half of a tiling is the mirror image of a left half with the same
    crossing set, so the count is the sum of the squares of the layer's
    counts.
    """
    whole = region.whole or region
    sweep = whole.memo.get(_Sweep)
    if sweep is None:
        sweep = whole.memo[_Sweep] = _Sweep(whole)
    symmetric = region.mirror_cut is not None
    windows = sweep.windows[:sweep.cut] if symmetric else sweep.windows
    # per window, the hole bits its keys take on: a hole's bit is set late,
    # by the first window that reads it, so that the keys stay narrow
    enter = [0] * (len(windows) + 1)
    holes = region.hole_cells
    for lo, cell in enumerate(sweep.cells if holes else ()):
        if cell in holes:
            k = bisect_right(sweep.reach, lo)
            if k < len(windows):
                enter[k] |= 1 << lo - windows[k].lo
    layer = {enter[0]: 1}
    for window, entering in zip(windows, enter[1:]):
        read, width = window.read, window.width
        nxt: dict = {}
        for mask, ways in layer.items():
            rest = mask >> width | entering
            for move in window[mask & read]:
                key = rest | move
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    if not symmetric:
        return layer.get(0, 0)
    return sum(ways * ways for ways in layer.values())


def tiling_is_exact_cover(region: TriangularRegion, tiling) -> bool:
    """Whether tiles of the region cover each of its cells exactly once: all of
    them, with sizes that add up to the cell count (2 * len(tiling) without
    half rhombi, so only a free region's tilings pay for the sum)."""
    cells = len(region.cells)
    return ((2 * len(tiling) == cells or sum(map(len, tiling)) == cells)
            and region.rhombi.issuperset(tiling) and len(frozenset().union(*tiling)) == cells)


# ---------------------------------------------------------------------------
# nonintersecting path families

CONSTRAINTS = ("none", "avoid_diagonal", "weighted_below")


def _columns(starts, ends, constraint):
    """The columns a family of paths from start k to end k crosses, and the
    (height, path) pairs of the paths starting in each column.

    None when some path has no monotone route at all; no columns when there
    is no path, whose one (empty) family has weight 1.
    """
    if len(ends) != len(starts):
        raise ValueError("starts and ends must pair up")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    entering: dict = {}
    for i, ((sx, sy), (ex, ey)) in enumerate(zip(starts, ends)):
        if ex < sx or ey < sy:
            return None
        entering.setdefault(sx, []).append((sy, i))
    return range(min(entering, default=0), max((x for x, _ in ends), default=-1) + 1), entering


def _column(x, layer, entering, ends, constraint) -> dict:
    """The {carry: weighted count} layer crossing out of column x.

    ``layer`` maps each carry (the (height, path) pairs of the paths
    crossing into column x, in height order) to its weighted count, and
    ``entering`` holds the pairs of the paths starting in x.  Every carry
    holds the same paths, those with sx < x <= ex.  Each active path climbs
    from its entry to an exit, capped below the next path's entry (so two
    paths entering at one vertex leave the lower one no exit).  The paths
    move one at a time in height order over states (entries still to move,
    exits chosen so far).  A move reads only the mover's entry and the
    next one's, so each pass works once per group of states with the same
    entries to move, and states that agree on both parts merge.  A path
    ending in column x must climb exactly to its end, and it leaves the
    carry.
    """
    weighted, avoid = constraint == "weighted_below", constraint == "avoid_diagonal"
    states: dict = {}  # {entries still to move: {exits chosen so far: weighted count}}
    for carry, ways in layer.items():
        group = states.setdefault(tuple(sorted([*carry, *entering])), {})
        group[()] = group.get((), 0) + ways
    for _ in range(len(next(iter(layer), ())) + len(entering)):  # one pass per active path
        nxt: dict = {}
        for movers, group in states.items():
            (entry, i), rest = movers[0], movers[1:]
            ex, ey = ends[i]
            cap = min(ey, rest[0][0] - 1) if rest else ey
            if weighted:
                cap = min(cap, x)
            if ex == x:  # a finishing path must climb exactly to its end
                heights = (ey,) if entry <= ey <= cap else ()
            else:
                heights = range(entry, cap + 1)
            merged = nxt.setdefault(rest, {})
            for y in heights:
                if avoid and entry <= x <= y:
                    continue
                factor = 2 if weighted and y == x else 1
                step = () if ex == x else ((y, i),)
                for exits, ways in group.items():
                    key = exits + step
                    merged[key] = merged.get(key, 0) + factor * ways
        states = nxt
    return states.get((), {})


def count_families(starts: Sequence, ends: Sequence, constraint: str = "none") -> int:
    """Weighted number of vertex-disjoint path families, start k to end k.

    Sweeps the columns from left to right, carrying only the current
    column's {crossing profile: weighted count} layer; the identity
    assignment is the one counted.
    """
    spans = _columns(starts, ends, constraint)
    if spans is None:
        return 0
    columns, entering = spans
    layer = {(): 1}
    for x in columns:
        layer = _column(x, layer, entering.get(x, ()), ends, constraint)
    return layer.get((), 0)


def noncrossing_endpoints(spec: RegionSpec, kind: str):
    """Half-region start/end lists reordered to the realizable assignment.

    When every right hole sits right of every left hole the canonical order
    already pairs start k with end k; otherwise the single non-crossing
    assignment routes some hole points to the boundary.  It is found by
    parenthesis matching along the region boundary: starts entering from
    the southwest staircase, then the diagonal points by position, then the
    northeast ends.  Returns None when no assignment exists at all (more
    right-hole ends than reachable starts), in which case the region has no
    tilings.  Half regions only: "full" or any other kind raises ValueError.
    """
    half_shift(kind, "non-crossing endpoints")
    starts, ends = lgv_points(spec, kind)
    m = spec.m
    sequence = []  # (is_start, index into starts/ends)
    for i in range(m - 1, -1, -1):
        sequence.append((True, i))
    diagonal = [(starts[m + k][0], True, m + k) for k in range(len(spec.left))]
    diagonal += [(ends[m + k][0], False, m + k) for k in range(len(spec.right))]
    for _, is_start, idx in sorted(diagonal):
        sequence.append((is_start, idx))
    for j in range(m):
        sequence.append((False, j))
    stack = []
    assigned = {}
    for is_start, idx in sequence:
        if is_start:
            stack.append(idx)
        elif stack:
            assigned[stack.pop()] = idx
        else:
            return None
    return starts, [ends[assigned[i]] for i in range(len(starts))]
