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
assumed.
"""

from __future__ import annotations

from typing import Iterable

from .regions import (HALVES, LEFT, RIGHT, RegionSpec, TriangularRegion, build_region,
                      fused_pairs, half_shift, hole_cell_half, neighbors)
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


def _walk(tiles, region, cell, steps):
    """Follow a path across rhombi from ``cell`` until it leaves the region.

    Each chain cell keeps the first cell's orientation; its partner is the
    neighbour it shares a rhombus of ``tiles`` with, and ``steps`` maps the
    partner's offset (dc, dh, orientation) to the offset of the next chain
    cell.  Returns the ribbon and the first chain cell outside
    ``region.cells``; the caller judges where the walk ended.
    """
    orient = cell[2]
    ribbon = []
    while cell in region.cells:
        for mate in neighbors(cell):
            rhombus = frozenset((cell, mate))
            if rhombus in tiles:
                break
        else:
            raise TransmissionError("walk hit an uncovered cell")
        step = steps.get((mate[0] - cell[0], mate[1] - cell[1], mate[2]))
        if step is None:
            raise TransmissionError("walk entered a rhombus backwards")
        ribbon.append(rhombus)
        cell = (cell[0] + step[0], cell[1] + step[1], orient)
    return ribbon, cell


def propagation_path(tiling, region: TriangularRegion, pair) -> list:
    """The ordered ribbon of rhombi of ``tiling`` between a pair of unit holes."""
    (pos1, orient1), (pos2, orient2) = pair
    if pos1 >= pos2 or orient1 == orient2:
        raise ValueError("pair must be two positions of differing orientation")
    cell1 = hole_cell_half(pos1, orient1, region.kind)
    cell2 = hole_cell_half(pos2, orient2, region.kind)
    if cell2 in neighbors(cell1):
        return []  # contiguous holes already share an edge
    if orient1 == LEFT:
        # case (i): from the left hole's vertical edge the walk crosses one
        # column per rhombus, so it ends; it must end on the partner hole
        ribbon, end = _walk(tiling, region, (cell1[0], cell1[1], RIGHT), _EDGE_STEPS)
        if end != cell2:
            raise TransmissionError("walk left the region")
        return ribbon
    # case (ii): two boundary-bound paths meeting in exactly one rhombus.
    # They leave the axis vertically by v: through the zig-zag below the
    # lower region (v = -1), over the top of the upper one (v = 1).  Each
    # alternates a cell of its first cell's orientation with its partner,
    # sideways by e = +1 from left-pointing cells and -1 from right-pointing
    # ones, and must end on the boundary, not in a hole.
    v = 2 * HALVES[region.kind] - 1
    paths = []
    for first in ((cell1[0] + 1, cell1[1] + v, LEFT), (cell2[0] - 1, cell2[1] + v, RIGHT)):
        e, other = (1, RIGHT) if first[2] == LEFT else (-1, LEFT)
        path, end = _walk(tiling, region, first,
                          {(0, 0, other): (e, v), (-e, v, other): (0, 2 * v)})
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


def transmit(tiling, ribbon, hole_cell):
    """Slide a unit hole along a ribbon by triangle/rhombus interchanges.

    Returns (tiles, final_hole_cell).  Each step swaps the hole with the
    adjacent cell of the next rhombus, so only ribbon rhombi are altered.
    """
    tiles = set(tiling)
    return tiles, _transmit(tiles, ribbon, hole_cell)


def _transmit(tiles: set, ribbon, hole):
    """transmit in place on ``tiles``; returns the final hole cell."""
    for rhombus in ribbon:
        if rhombus not in tiles:
            raise TransmissionError("ribbon rhombus missing from tiling")
        a, b = tuple(rhombus)
        near = a if a[2] != hole[2] else b
        far = b if near is a else a
        if near not in neighbors(hole):
            raise TransmissionError("ribbon rhombus not adjacent to the hole")
        tiles.remove(rhombus)
        tiles.add(frozenset((hole, near)))
        hole = far
    return hole


def _check_defined(spec: RegionSpec, kind: str) -> None:
    if half_shift(kind, "transmission map") and fused_pairs(spec):
        raise ValueError("upper-region transmission is undefined for toward-pointing holes "
                         "at spacing two (the pair fuses into a hexagonal hole)")


def zeta(tiling, region: TriangularRegion):
    """Map a tiling of a holey half region to one of the unholed region.

    Pairs are consumed in extraction order; after each transmission the two
    unit holes of the pair sit edge to edge and are covered by one new
    rhombus.  Returns (image, ribbons), one ribbon per pair.
    """
    spec = region.spec
    _check_defined(spec, region.kind)
    tiles = set(tiling)
    ribbons = []
    for pair in pair_holes(spec.right, spec.left):
        ribbon = propagation_path(tiles, region, pair)
        ribbons.append(ribbon)
        hole = hole_cell_half(*pair[0], region.kind)
        other = hole_cell_half(*pair[1], region.kind)
        hole = _transmit(tiles, ribbon, hole)
        if other not in neighbors(hole):
            raise TransmissionError("transmitted hole did not reach its partner")
        tiles.add(frozenset((hole, other)))
    return frozenset(tiles), ribbons


def _axis_rhombi(region: TriangularRegion) -> list:
    """The h = 0 rhombus of every column whose two axis cells both lie in the region."""
    axis = {cell for cell in region.cells if cell[1] == 0}
    return [rhombus for rhombus in region.rhombi if rhombus <= axis]


def _axis_weight(axis: list, tiling) -> int:
    return 2 ** sum(rhombus not in tiling for rhombus in axis)


def upper_weight(region: TriangularRegion, tiling) -> int:
    """Weight of an upper-region tiling: 2 per crossed axis-level edge.

    A straddling column contributes a factor 2 exactly when its two h = 0
    cells are covered by slanted rhombi instead of pairing with each other.
    """
    return _axis_weight(_axis_rhombi(region), tiling)


def verify_injection(spec: RegionSpec, kind: str = "lower") -> dict:
    """Exhaustively map every tiling and check validity and distinctness.

    For the upper region the report also states whether the weight never
    decreases under the map.
    """
    _check_defined(spec, kind)
    region = build_region(spec, kind)
    target = build_region(spec.unholed(), kind)
    images = set()
    rhombi: dict = {}  # one object per rhombus, shared by all stored images
    tilings = 0
    valid = True
    weight_monotone = True
    axis, target_axis = _axis_rhombi(region), _axis_rhombi(target)
    for tiling in enumerate_tilings(region):
        tilings += 1
        image, _ = zeta(tiling, region)
        if not tiling_is_exact_cover(target, image):
            valid = False
        if kind == "upper":
            if _axis_weight(axis, tiling) > _axis_weight(target_axis, image):
                weight_monotone = False
        images.add(frozenset(rhombi.setdefault(r, r) for r in image))
    report = {
        "spec": spec.to_text(),
        "kind": kind,
        "tilings": tilings,
        "distinct_images": len(images),
        "valid_images": valid,
        "ok": valid and len(images) == tilings,
    }
    if kind == "upper":
        report["weight_monotone"] = weight_monotone
        report["ok"] = report["ok"] and weight_monotone
    return report
