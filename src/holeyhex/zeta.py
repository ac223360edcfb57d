"""The hole-transmission map from holey to unholed half-region tilings.

Holes are consumed in pairs of opposite orientation.  For each pair a
propagation path is built through the tiling: either directly between the
two vertical hole edges (when the left hole of the pair points left), or
via two boundary-bound paths that share exactly one rhombus (when it points
right).  The leading hole is then transmitted along the ribbon of rhombi by
repeated triangle/rhombus interchanges until it sits edge-to-edge with its
partner, and the merged pair is covered by a fresh rhombus.

Cells outside the ribbons are never touched, so the map is local; whether
it is injective is checked exhaustively by verify_injection rather than
assumed.  The map has one way in, a private plan per region behind both
``zeta`` and ``verify_injection``: all that no tiling changes (whether the
map is defined, each pair's hole cells, case and walks) is worked out
there once, and every tile a walk probes or a transmission adds is the
object every region of the hexagon shares (``TriangularRegion.mates``), so
a tiling costs the length of its ribbons.  Each walk's step rule is a table
built with the plan, {chain cell: [(tile, next chain cell or None), ...]},
so a step is one lookup and at most three tile membership tests.  Both keep
the plan of the last region mapped.  The unholed target of
``verify_injection`` is the region the holey one was cut from (``whole``),
whose tiles are the objects its images are made of; an upper tiling's
weight reads each region's ``axis_rhombi``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .regions import (LEFT, RIGHT, RegionSpec, TriangularRegion, build_region,
                      fused_pairs, half_shift, hole_cell_half)
from .oracle import enumerate_tilings, tiling_is_exact_cover


class TransmissionError(RuntimeError):
    """A propagation path did not behave as the construction requires."""


def pair_holes(right: Iterable[int], left: Iterable[int]) -> list[tuple]:
    """Order the holes into opposite-orientation pairs.

    Scan the sorted positions with a stack: a hole pairs with the top when
    their orientations differ and is pushed otherwise, so each pair is the
    first adjacent one of differing orientations among the holes left.
    Each pair is ((pos1, orient1), (pos2, orient2)) with pos1 < pos2.
    """
    items = sorted([(x, RIGHT) for x in right] + [(x, LEFT) for x in left])
    if len(set(x for x, _ in items)) != len(items):
        raise ValueError("hole positions must be distinct")
    pairs, stack = [], []
    for item in items:
        if stack and stack[-1][1] != item[1]:
            pairs.append((stack.pop(), item))
        else:
            stack.append(item)
    if stack:
        raise ValueError("orientations cannot be paired off")
    return pairs


# case (i): a right-pointing cell's partner in the next column leads on to
# the right-pointing cell beside it, one row up or down
_EDGE_STEPS = {(1, 1, LEFT): (1, 1), (1, -1, LEFT): (1, -1)}


def _route(region: TriangularRegion, pair) -> tuple:
    """The part of a pair's propagation path that no tiling changes: the unit
    hole that is transmitted, the unit hole it must end beside, and the
    (first cell, table) of each walk: one in case (i), two in case (ii)."""
    (pos1, orient1), (pos2, orient2) = pair
    cell1 = hole_cell_half(pos1, orient1, region.kind)
    cell2 = hole_cell_half(pos2, orient2, region.kind)
    if orient1 == LEFT:
        # case (i): from the left hole's vertical edge the walk crosses one
        # column per rhombus, so it ends; it must end on the partner hole
        walks = [((cell1[0], cell1[1], RIGHT), _EDGE_STEPS)]
    else:
        # case (ii): two boundary-bound paths meeting in exactly one rhombus.
        # They leave the axis vertically by v: through the zig-zag below the
        # lower region (v = -1), over the top of the upper one (v = 1).  The walk
        # of hole cell (c, h, o) starts at (c + o, h + v, -o) and alternates cells
        # of orientation -o with their partners of orientation o, stepping o
        # columns sideways, and must end on the boundary, not in a hole.
        v = 2 * half_shift(region.kind, "boundary walk") - 1
        walks = [((c + o, h + v, -o), {(0, 0, o): (o, v), (-o, v, o): (0, 2 * v)})
                 for c, h, o in (cell1, cell2)]
    return cell1, cell2, [(first, _table(region, first, steps)) for first, steps in walks]


def _table(region: TriangularRegion, first, steps) -> dict:
    """A walk's step rule as a table: for each region cell the rule reaches
    from ``first``, each tile of ``region.mates`` it may lie in, in ``mates``
    order, with the chain cell that follows it.  ``steps`` maps the partner's
    offset (dc, dh, orientation) to the offset of the next chain cell; a
    partner at any other offset is a rhombus entered backwards (None)."""
    table, todo = {}, [first]
    while todo:
        cell = todo.pop()
        if cell in table or cell not in region.cells:
            continue
        c, h, orient = cell
        row = table[cell] = []
        for mate, tile in region.mates[cell].items():
            step = steps.get((mate[0] - c, mate[1] - h, mate[2]))
            nxt = None if step is None else (c + step[0], h + step[1], orient)
            row.append((tile, nxt))
            if nxt is not None:
                todo.append(nxt)
    return table


def _walk(tiles, cell, table):
    """Follow a path across rhombi from ``cell`` until it leaves the region.

    ``table`` (``_table``) lists, per chain cell, its tiles with the chain
    cell each leads to; the chain cell's tile is the one in ``tiles``.
    Returns the ribbon and the first chain cell outside ``region.cells``
    (the first without a row); the caller judges where the walk ended.
    """
    ribbon = []
    while (row := table.get(cell)) is not None:
        for tile, nxt in row:
            if tile in tiles:
                break
        else:
            raise TransmissionError("walk hit an uncovered cell")
        if nxt is None:
            raise TransmissionError("walk entered a rhombus backwards")
        ribbon.append(tile)
        cell = nxt
    return ribbon, cell


def _path(tiles, region: TriangularRegion, partner, walks) -> list:
    """The ribbon of ``tiles`` along the walks of a pair's route."""
    if len(walks) == 1:  # case (i)
        ribbon, end = _walk(tiles, *walks[0])
        if end != partner:
            raise TransmissionError("walk left the region")
        return ribbon
    paths = []
    for first, table in walks:
        path, end = _walk(tiles, first, table)
        if end in region.hole_cells:
            raise TransmissionError("slant walk ran into a hole")
        paths.append(path)
    path1, path2 = paths
    common = set(path1) & set(path2)
    if len(common) != 1:
        raise TransmissionError(
            f"boundary paths share {len(common)} rhombi instead of exactly one")
    turn = common.pop()
    i1 = path1.index(turn)
    i2 = path2.index(turn)
    return path1[:i1 + 1] + list(reversed(path2[:i2]))


class _Plan:
    """The transmission map of one region, with all that no tiling changes
    worked out once: that the map is defined there and each hole pair's
    route.  Its tiles are the region's ``mates``, shared by every region of
    the hexagon, so every rhombus a transmission adds is the target's own."""

    def __init__(self, region: TriangularRegion):
        spec = region.spec
        if half_shift(region.kind, "transmission map") and fused_pairs(spec):
            raise ValueError("upper-region transmission is undefined for toward-pointing holes "
                             "at spacing two (the pair fuses into a hexagonal hole)")
        self.region = region
        self.routes = [_route(region, pair) for pair in pair_holes(spec.right, spec.left)]

    def map(self, tiling):
        """zeta of one tiling of the region.  Along each pair's ribbon the
        leading hole swaps with the near cell of each rhombus in turn, so
        only ribbon rhombi change; one rhombus then covers it and its partner."""
        mates = self.region.mates
        tiles = set(tiling)
        ribbons = []
        for hole, partner, walks in self.routes:
            ribbon = _path(tiles, self.region, partner, walks)
            ribbons.append(ribbon)
            for rhombus in ribbon:
                if rhombus not in tiles:
                    raise TransmissionError("ribbon rhombus missing from tiling")
                a, b = tuple(rhombus)
                near = a if a[2] != hole[2] else b
                swapped = mates[hole].get(near)
                if swapped is None:
                    raise TransmissionError("ribbon rhombus not adjacent to the hole")
                tiles.remove(rhombus)
                tiles.add(swapped)
                hole = b if near is a else a
            cover = mates[hole].get(partner)
            if cover is None:
                raise TransmissionError("transmitted hole did not reach its partner")
            tiles.add(cover)
        return frozenset(tiles), ribbons


@lru_cache(maxsize=1)
def _plan(region: TriangularRegion) -> _Plan:
    """The plan of the last region ``zeta`` or ``verify_injection`` mapped."""
    return _Plan(region)


def zeta(tiling, region: TriangularRegion):
    """Map a tiling of a holey half region to one of the unholed region.

    Pairs are consumed in extraction order; after each transmission the two
    unit holes of the pair sit edge to edge and are covered by one new
    rhombus.  Returns (image, ribbons), one ribbon per pair.  The plan of the
    last region mapped is kept, so mapping the tilings of one region one call
    at a time builds it once.  A region with no map raises ValueError, and
    so does a tile set that is not a tiling of the region.
    """
    plan = _plan(region)
    if not tiling_is_exact_cover(region, tiling):
        raise ValueError(f"the tile set is not a tiling of the {region.kind} region")
    return plan.map(tiling)


def upper_weight(region: TriangularRegion, tiling) -> int:
    """Weight of an upper-region tiling: 2 per crossed axis-level edge.

    A straddling column contributes a factor 2 exactly when its two h = 0
    cells are covered by slanted rhombi instead of pairing with each other,
    that is when its rhombus of ``region.axis_rhombi`` is not in the tiling.
    """
    return 2 ** sum(rhombus not in tiling for rhombus in region.axis_rhombi)


def verify_injection(spec: RegionSpec, kind: str = "lower") -> dict:
    """Exhaustively map every tiling and check validity and distinctness.

    For the upper region the report also states whether the weight never
    decreases under the map.
    """
    plan = _plan(build_region(spec, kind))  # an undefined map raises before enumerating
    region = plan.region
    target = region.whole or region  # the unholed region whose tiles the images are made of
    images = set()
    tilings = 0
    valid = True
    weight_monotone = True
    # only the upper half (d = 1) has h = 0 cells, so only it has axis rhombi to weigh
    weighed = half_shift(kind, "upper weight")
    for tiling in enumerate_tilings(region):
        tilings += 1
        image, _ = plan.map(tiling)
        if not tiling_is_exact_cover(target, image):
            valid = False
        if weighed and upper_weight(region, tiling) > upper_weight(target, image):
            weight_monotone = False
        images.add(image)
    report = {
        "spec": spec.to_text(),
        "kind": kind,
        "tilings": tilings,
        "distinct_images": len(images),
        "valid_images": valid,
        "ok": valid and len(images) == tilings,
    }
    if weighed:
        report["weight_monotone"] = weight_monotone
        report["ok"] = report["ok"] and weight_monotone
    return report
