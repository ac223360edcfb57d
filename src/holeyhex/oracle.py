"""Independent brute-force oracles.

Tilings are counted two ways: a literal backtracking enumerator that
streams every tiling (pick the first uncovered cell, branch over its at
most three partners), and a layered transfer count that sweeps the cells
once, carrying only the current cell's {covered frontier: count} layer.
Path families are likewise enumerated by depth-first extension of all
paths column by column, and counted by the same column transitions swept
one layer at a time.  Nothing here touches the determinant machinery.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

from .regions import (RIGHT, RegionSpec, TriangularRegion, build_region,
                      lgv_points, neighbors, reflect_horizontal, reflect_vertical,
                      validate)

DEFAULT_BUDGET = 10 ** 8

Tiling = frozenset  # of frozenset({cell, cell}) rhombi


class BudgetExceededError(RuntimeError):
    def __init__(self, nodes: int, partial):
        super().__init__(f"search budget exceeded after {nodes} branch nodes")
        self.nodes = nodes
        self.partial = partial


def _indexed(region: TriangularRegion):
    # slab-major order keeps the uncovered frontier inside ~one column
    def key(cell):
        c, h, o = cell
        return (2 * c + (1 if o == RIGHT else -1), h, o)

    cells = sorted(region.cells, key=key)
    index = {cell: i for i, cell in enumerate(cells)}
    partners = [
        sorted(index[nb] for nb in neighbors(cell) if nb in index)
        for cell in cells
    ]
    return cells, partners


def _enumerate_index_tilings(cells, partners, budget: int) -> Iterator[tuple]:
    total = len(cells)
    nodes = 0
    chosen: list[tuple[int, int]] = []

    def advance(covered: int, lo: int) -> Iterator[tuple]:
        nonlocal nodes
        while lo < total and covered >> lo & 1:
            lo += 1
        if lo == total:
            yield tuple(chosen)
            return
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(nodes, tuple(chosen))
        for j in partners[lo]:
            if covered >> j & 1:
                continue
            chosen.append((lo, j))
            yield from advance(covered | 1 << lo | 1 << j, lo + 1)
            chosen.pop()

    yield from advance(0, 0)


def enumerate_tilings(region: TriangularRegion, budget: int = DEFAULT_BUDGET) -> Iterator[Tiling]:
    """Stream every tiling of the region in a fixed canonical order."""
    cells, partners = _indexed(region)
    for pairs in _enumerate_index_tilings(cells, partners, budget):
        yield frozenset(frozenset((cells[i], cells[j])) for i, j in pairs)


def count_tilings(region: TriangularRegion) -> int:
    """Exact tiling count by a layered transfer sweep over the cells.

    The layer at cell ``lo`` maps the covered cells from ``lo`` on (bit 0
    is ``lo``) to the number of ways to cover every cell before ``lo``.
    A covered ``lo`` shifts through; a free one pairs with each free
    partner after it.  Slab-major cell order keeps the masks narrow.
    """
    _, partners = _indexed(region)
    ahead = [[1 << (j - lo) for j in nbs if j > lo] for lo, nbs in enumerate(partners)]
    layer = {0: 1}
    for bits in ahead:
        nxt: dict = {}
        for mask, ways in layer.items():
            if mask & 1:
                nxt[mask >> 1] = nxt.get(mask >> 1, 0) + ways
                continue
            for bit in bits:
                if not mask & bit:
                    key = (mask | bit) >> 1
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get(0, 0)


def tiling_is_exact_cover(region: TriangularRegion, tiling) -> bool:
    seen = set()
    for rhombus in tiling:
        pair = tuple(rhombus)
        if len(pair) != 2 or pair[1] not in neighbors(pair[0]):
            return False
        for cell in pair:
            if cell in seen or cell not in region.cells:
                return False
            seen.add(cell)
    return len(seen) == len(region.cells)


# ---------------------------------------------------------------------------
# symmetry-filtered counts

def count_symmetric(spec: RegionSpec, axis: str) -> int:
    """Tilings of the full holey hexagon invariant under a reflection."""
    if axis == "horizontal":
        reflect = reflect_horizontal
    elif axis == "vertical":
        if not spec.is_mirror_symmetric:
            raise ValueError("vertical symmetry needs R = -L")
        reflect = reflect_vertical
    else:
        raise ValueError(f"unknown axis {axis!r}")
    region = build_region(spec, "full")
    count = 0
    for tiling in enumerate_tilings(region):
        if all(frozenset(reflect(cell) for cell in rhombus) in tiling for rhombus in tiling):
            count += 1
    return count


def count_free_boundary(n: int, m: int, left: Sequence[int]) -> int:
    """Tilings of the left half hexagon against a vertical free boundary.

    Computed as the vertically symmetric tilings of the doubled region with
    R = -L, which avoids materialising protruding half rhombi.
    """
    spec = validate(n, m, left, [-x for x in left])
    return count_symmetric(spec, "vertical")


# ---------------------------------------------------------------------------
# nonintersecting path families

CONSTRAINTS = ("none", "avoid_diagonal", "weighted_below")


def _columns(starts, ends, constraint):
    """The columns a family of paths from start k to end k crosses.

    None when some path has no monotone route at all.
    """
    if len(ends) != len(starts):
        raise ValueError("starts and ends must pair up")
    if constraint not in CONSTRAINTS:
        raise ValueError(f"unknown constraint {constraint!r}")
    for (ax, ay), (ex, ey) in zip(starts, ends):
        if ex < ax or ey < ay:
            return None
    return range(min(x for x, _ in starts), max(x for x, _ in ends) + 1)


def _column_steps(x, carry, starts, ends, constraint):
    """Yield (weight, next carry, segments) for every way through column x.

    ``carry`` holds, per path, the height at which it crossed into column x
    (None while unstarted and after finishing).  Paths starting in column x
    enter at their start height; a path that starts here while it is still
    carried admits no step.  Each active path climbs from its entry to an
    exit, and vertex-disjointness keeps the climbs in entry order, each
    capped below the next path's entry (so two paths entering at one vertex
    leave the lower one no exit).  A cap reads only entries, never exits,
    so the steps are the product of one list of exits per path.  Each
    segment is (path, entry, exit).
    """
    actives = []
    for i, (sx, sy) in enumerate(starts):
        if sx == x:
            if carry[i] is not None:
                return
            actives.append((sy, i))
        elif carry[i] is not None:
            actives.append((carry[i], i))
    actives.sort()
    choices = []
    for pos, (entry, i) in enumerate(actives):
        ex, ey = ends[i]
        cap = ey if pos + 1 == len(actives) else min(ey, actives[pos + 1][0] - 1)
        if constraint == "weighted_below":
            cap = min(cap, x)
        exits = range(entry, cap + 1)
        if ex == x:  # a finishing path must climb exactly to its end
            exits = [ey] if ey in exits else []
        choices.append([(2 if constraint == "weighted_below" and y == x else 1,
                         None if ex == x else y, (i, entry, y))
                        for y in exits
                        if not (constraint == "avoid_diagonal" and entry <= x <= y)])
    for combo in product(*choices):
        weight = 1
        nxt = list(carry)
        for w, after, (i, _, _) in combo:
            weight *= w
            nxt[i] = after
        yield weight, tuple(nxt), [segment for _, _, segment in combo]


def count_families(starts: Sequence, ends: Sequence, constraint: str = "none") -> int:
    """Weighted number of vertex-disjoint path families, start k to end k.

    Sweeps the columns from left to right, carrying only the current
    column's {crossing profile: weighted count} layer; the identity
    assignment is the one counted.
    """
    columns = _columns(starts, ends, constraint)
    if columns is None:
        return 0
    done = (None,) * len(starts)
    layer = {done: 1}
    for x in columns:
        nxt: dict = {}
        for carry, ways in layer.items():
            for weight, after, _ in _column_steps(x, carry, starts, ends, constraint):
                nxt[after] = nxt.get(after, 0) + weight * ways
        layer = nxt
    return layer.get(done, 0)


def enumerate_families(starts: Sequence, ends: Sequence, constraint: str = "none"):
    """Yield (paths, weight) for every vertex-disjoint family.

    Each path is the full tuple of lattice points it visits.  Same column
    steps as count_families, searched depth first on an explicit stack
    (no recursion limit); intended for desk-scale checks.
    """
    columns = _columns(starts, ends, constraint)
    if columns is None:
        return
    done = (None,) * len(starts)
    stack = [(columns.start, done, ((),) * len(starts), 1)]
    while stack:
        x, carry, trails, weight = stack.pop()
        if x == columns.stop:
            if carry == done:
                yield trails, weight
            continue
        steps = list(_column_steps(x, carry, starts, ends, constraint))
        for step, nxt, segments in reversed(steps):  # first step's families first
            grown = list(trails)
            for i, entry, exit_y in segments:
                grown[i] += tuple((x, y) for y in range(entry, exit_y + 1))
            stack.append((x + 1, nxt, tuple(grown), weight * step))


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
    tilings.
    """
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
