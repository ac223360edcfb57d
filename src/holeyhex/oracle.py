"""Independent brute-force oracles.

Each oracle has one search state, counted by a layered sweep that keeps
only the current {state: count} layer and enumerated by walking the same
states depth first.  A tiling state is the first uncovered cell plus the
covered cells from it on; a path-family state is the (height, path)
pairs of the paths crossing into a column.  Nothing here touches the
determinant machinery.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .regions import (RegionSpec, TriangularRegion, build_region, free_region, half_shift,
                      lgv_points, validate)

DEFAULT_BUDGET = 10 ** 8

Tiling = frozenset  # of frozenset({cell, cell}) rhombi; a half rhombus is frozenset({cell})


class BudgetExceededError(RuntimeError):
    def __init__(self, nodes: int, partial):
        super().__init__(f"search budget exceeded after {nodes} branch nodes")
        self.nodes = nodes
        self.partial = partial


def enumerate_tilings(region: TriangularRegion, budget: int = DEFAULT_BUDGET) -> Iterator[Tiling]:
    """Stream every tiling of the region in a fixed canonical order.

    Walks count_tilings' states depth first on an explicit stack, so it
    has no recursion limit; each uncovered ``lo`` is one branch node, and
    ``lo`` pairs with each free partner in ascending order (a free-edge
    ``lo`` first with itself, its half rhombus).  Each tiling is made of
    the region's own tile objects (``tiles``).  Past ``budget`` nodes the
    error carries the index pairs chosen so far.
    """
    cells, ahead = region.order
    tiles = region.tiles
    nodes = 0
    chosen = []  # the index pairs chosen on the way to the popped state
    stack = [(0, 0, 0, ())]  # (lo, covered mask from lo on, len(chosen) before, (last pair,))
    while stack:
        lo, mask, depth, last = stack.pop()
        chosen[depth:] = last
        while mask & 1:
            lo, mask = lo + 1, mask >> 1
        if lo == len(cells):
            yield frozenset(map(tiles.__getitem__, chosen))
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, tuple(chosen))
        for off in reversed(ahead[lo]):  # the first partner's tilings come first
            if not mask >> off & 1:
                stack.append((lo + 1, (mask | 1 << off) >> 1, len(chosen), ((lo, lo + off),)))


def count_tilings(region: TriangularRegion) -> int:
    """Exact tiling count by a layered transfer sweep over the cells.

    The layer at cell ``lo`` maps the covered cells from ``lo`` on (bit 0
    is ``lo``) to the number of ways to cover every cell before ``lo``.
    A covered ``lo`` shifts through; a free one pairs with each free
    partner after it.  Slab-major cell order keeps the masks narrow.
    """
    _, ahead = region.order
    layer = {0: 1}
    for offsets in ahead:
        nxt: dict = {}
        for mask, ways in layer.items():
            if mask & 1:
                nxt[mask >> 1] = nxt.get(mask >> 1, 0) + ways
                continue
            for off in offsets:
                if not mask >> off & 1:
                    key = (mask | 1 << off) >> 1
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get(0, 0)


def tiling_is_exact_cover(region: TriangularRegion, tiling) -> bool:
    """Whether tiles of the region cover each of its cells exactly once: all of
    them, with sizes that add up to the cell count (2 * len(tiling) without
    half rhombi, so only a free region's tilings pay for the sum)."""
    cells = len(region.cells)
    return ((2 * len(tiling) == cells or sum(map(len, tiling)) == cells)
            and region.rhombi.issuperset(tiling) and len(frozenset().union(*tiling)) == cells)


# ---------------------------------------------------------------------------
# symmetric and free-boundary counts

def count_symmetric(spec: RegionSpec, axis: str) -> int:
    """Tilings of the full holey hexagon invariant under a reflection: the
    free region's for the vertical axis, and the lower half's for the
    horizontal one, as an axis cell can only pair with its own vertical
    partner (a slanted rhombus would overlap its mirror image)."""
    if axis == "horizontal":
        return count_tilings(build_region(spec, "lower"))
    if axis == "vertical":
        return count_tilings(free_region(spec))
    raise ValueError(f"unknown axis {axis!r}")


def count_free_boundary(n: int, m: int, left: Sequence[int]) -> int:
    """Tilings of the left half hexagon against a vertical free boundary, for
    left-pointing holes left of it (every left hole < 0), mirrored by R = -L."""
    if any(x >= 0 for x in left):
        raise ValueError("a free boundary needs every left hole < 0")
    return count_tilings(free_region(validate(n, m, left, [-x for x in left])))


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


def _column_steps(x, carry, entering, ends, constraint) -> list:
    """The (weight, next carry, segments) of every way through column x.

    ``carry`` holds the (height, path) pairs of the paths crossing into
    column x, in height order, and ``entering`` those of the paths starting
    in it.  Each active path climbs from its entry to an exit, in entry
    order and capped below the next path's entry (so two paths entering at
    one vertex leave the lower one no exit).  A cap reads only entries, so
    the steps are the product of one list of exits per path, built one path
    at a time, and the exits keep the entries' order.  A path ending in
    column x leaves the carry.  Each segment is (path, entry, exit).
    """
    actives = sorted([*carry, *entering])
    steps = [(1, (), ())]
    for pos, (entry, i) in enumerate(actives):
        ex, ey = ends[i]
        cap = ey if pos + 1 == len(actives) else min(ey, actives[pos + 1][0] - 1)
        if constraint == "weighted_below":
            cap = min(cap, x)
        exits = range(entry, cap + 1)
        if ex == x:  # a finishing path must climb exactly to its end
            exits = [ey] if ey in exits else []
        options = [(2 if constraint == "weighted_below" and y == x else 1,
                    () if ex == x else ((y, i),), (i, entry, y))
                   for y in exits
                   if not (constraint == "avoid_diagonal" and entry <= x <= y)]
        steps = [(weight * w, nxt + after, segments + (segment,))
                 for weight, nxt, segments in steps for w, after, segment in options]
    return steps


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
        nxt: dict = {}
        for carry, ways in layer.items():
            for weight, after, _ in _column_steps(x, carry, entering.get(x, ()), ends, constraint):
                nxt[after] = nxt.get(after, 0) + weight * ways
        layer = nxt
    return layer.get((), 0)


def enumerate_families(starts: Sequence, ends: Sequence, constraint: str = "none"):
    """Yield (paths, weight) for every vertex-disjoint family.

    Each path is the full tuple of lattice points it visits.  Same column
    steps as count_families, searched depth first on an explicit stack
    (no recursion limit).  A node keeps the active paths' trails beside
    its carry and the finished ones on a shared cons list, so its cost
    grows with the active paths, not with all k.
    """
    spans = _columns(starts, ends, constraint)
    if spans is None:
        return
    columns, entering = spans
    stack = [(columns.start, (), {}, (), 1)]  # (x, carry, {path: trail}, finished, weight)
    while stack:
        x, carry, trails, finished, weight = stack.pop()
        if x == columns.stop:  # every path has finished in its end column
            trail_of = {}
            while finished:
                (i, trail), finished = finished
                trail_of[i] = trail
            yield tuple(trail_of[i] for i in range(len(starts))), weight
            continue
        steps = _column_steps(x, carry, entering.get(x, ()), ends, constraint)
        for step, nxt, segments in reversed(steps):  # first step's families first
            grown, done = {}, finished
            for i, entry, exit_y in segments:
                trail = trails.get(i, ()) + tuple((x, y) for y in range(entry, exit_y + 1))
                if ends[i][0] == x:
                    done = ((i, trail), done)
                else:
                    grown[i] = trail
            stack.append((x + 1, nxt, grown, done, weight * step))


def family_weight(paths, constraint: str) -> int:
    """Recompute a family's weight from the stored paths (post-hoc check)."""
    if constraint != "weighted_below":
        return 1
    touches = sum(1 for path in paths for (x, y) in path if x == y)
    return 2 ** touches


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
