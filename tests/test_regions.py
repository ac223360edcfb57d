import math
import operator
import random
from itertools import combinations

import pytest

from holeyhex import matrices, regions
from holeyhex.oracle import count_tilings, enumerate_tilings
from holeyhex.regions import (HALVES, KINDS, LEFT, REGION_KINDS, RIGHT, InducedHole,
                              RegionSpec, SpecValidationError, TriangularRegion, build_region,
                              check, distance, free_boundary_holes, fused_pairs,
                              hexagon_cells, hole_cell_half, hole_cells_full,
                              lgv_points, merge_induced_holes, neighbors, spec_grid,
                              validate)
from holeyhex.zeta import upper_weight
from helpers import triangle_cells, unholed


def sample_specs(rng, count, max_n=12, max_m=4, max_p=3):
    out = []
    while len(out) < count:
        n = rng.randrange(4, max_n + 1, 2)
        m = rng.randint(1, max_m)
        p = rng.randint(0, max_p)
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        out.append(validate(n, m, chosen[:p], chosen[p:]))
    return out


def test_validate_figure_spec():
    spec = validate(10, 2, [-2, 6], [-8, 0])
    assert spec.left == (-2, 6) and spec.right == (-8, 0)
    assert spec.p == 2


def test_validate_rejects_duplicates():
    with pytest.raises(SpecValidationError, match="duplicate"):
        validate(10, 2, [0], [0])


def test_validate_rejects_parity():
    problems = check(10, 2, [1], [3])
    assert any("odd" in p for p in problems)


def test_validate_collects_all_violations():
    problems = check(3, 0, [1, 1], [9])
    assert len(problems) >= 4  # odd n, bad m, sizes differ, parity/bounds


def test_validate_bounds():
    with pytest.raises(SpecValidationError, match="outside"):
        validate(10, 2, [-10], [0])


def test_induced_holes_merging():
    holes = merge_induced_holes([-6], [0, 2])
    assert [(h.charge, h.side) for h in holes] == [(-2, 2), (4, 4)]
    holes = merge_induced_holes([-6], [0])
    assert sorted(h.charge for h in holes) == [-2, 2]
    holes = merge_induced_holes([-8, -6, -4], [0, 2, 4])
    assert sorted((h.charge, h.side) for h in holes) == [(-6, 6), (6, 6)]


def test_induced_hole_positions_and_charges():
    right = merge_induced_holes([], [0, 2])[0]
    assert right.orientation == RIGHT and right.position == 0 and right.charge == 4
    left = merge_induced_holes([-4, -2], [])[0]
    assert left.position == -2 and left.charge == -4
    single = merge_induced_holes([], [6])[0]
    assert single.charge == 2
    assert merge_induced_holes([6], [])[0].charge == -2


def test_induced_holes_partition_and_charge():
    rng = random.Random(4)
    for spec in sample_specs(rng, 40):
        holes = merge_induced_holes(spec.left, spec.right)
        seen = sorted(x for h in holes for x in h.constituents)
        assert seen == sorted(spec.left + spec.right)
        assert sum(h.charge for h in holes) == 0


def test_distance():
    assert math.isclose(distance(6, -2), 4 * math.sqrt(3))
    assert distance(3, 3) == 0
    assert math.isclose(distance(2, 0), math.sqrt(3))


def test_lgv_points_boundary_and_holes():
    spec = validate(10, 2, [0], [2])
    starts, ends = lgv_points(spec, "lower")
    assert starts[:2] == [(1, 0), (2, -1)]
    assert starts[2] == (6, 5)
    assert ends[2] == (7, 6)
    assert lgv_points(spec, "upper") == (starts, ends)


def test_lgv_points_full_has_mirrored_hole_pairs():
    spec = validate(10, 2, [0], [2])
    starts, ends = lgv_points(spec, "full")
    assert len(starts) == len(ends) == 2 * spec.m + 2 * spec.p
    assert (6, 5) in starts and (5, 6) in starts
    assert (7, 6) in ends and (6, 7) in ends


def test_lgv_points_integral():
    rng = random.Random(5)
    for spec in sample_specs(rng, 30):
        for kind in ("lower", "upper", "full"):
            starts, ends = lgv_points(spec, kind)
            for x, y in starts + ends:
                assert isinstance(x, int) and isinstance(y, int)


def test_hexagon_cell_counts():
    cells = hexagon_cells(1, 1)
    rights = sum(1 for c in cells if c[2] == RIGHT)
    assert len(cells) == 10 and rights == 5
    for n, m in [(2, 1), (4, 1), (4, 2), (6, 2)]:
        assert len(hexagon_cells(n, m)) == 2 * (4 * m * n + n * n)


def test_build_region_balance_and_hole_footprint():
    rng = random.Random(6)
    for spec in sample_specs(rng, 30):
        full = build_region(spec, "full")
        rights = sum(1 for cell in full.cells if cell[2] == RIGHT)
        assert 2 * rights == len(full.cells)
        hexagon = hexagon_cells(spec.n, spec.m)
        assert len(full.hole_cells) <= 4 * 2 * spec.p
        assert full.cells | full.hole_cells == hexagon


def test_half_regions_partition_the_hexagon():
    rng = random.Random(7)
    for spec in sample_specs(rng, 20):
        hexagon = hexagon_cells(spec.n, spec.m)
        lower = build_region(spec, "lower")
        upper = build_region(spec, "upper")
        assert not lower.cells & upper.cells
        missing = hexagon - (lower.cells | upper.cells)
        assert missing == lower.hole_cells | upper.hole_cells


def test_cell_adjacency_is_symmetric():
    # every cell of the hexagons up to n = 7, odd n included: adjacency, the
    # mirror across the centre column line and the hole footprints agree
    other = {LEFT: RIGHT, RIGHT: LEFT}
    mirror = regions._mirror
    seen = 0
    for n in range(1, 8):
        for m in range(1, 4):
            cells = hexagon_cells(n, m)
            assert {mirror(cell) for cell in cells} == cells
            for cell in cells:
                for nb in neighbors(cell):
                    assert cell in neighbors(nb) and nb[2] == other[cell[2]]
                image = mirror(cell)
                assert mirror(image) == cell
                assert {mirror(nb) for nb in neighbors(cell)} == set(neighbors(image))
                assert regions._left_of_centre(cell) != regions._left_of_centre(image)
            seen += len(cells)
    assert seen == 2184
    for x in range(-10, 11, 2):
        for o in (LEFT, RIGHT):
            assert hole_cells_full(-x, other[o]) == set(map(mirror, hole_cells_full(x, o)))
            for kind in HALVES:
                assert hole_cell_half(x, o, kind) in hole_cells_full(x, o)


def test_free_region_is_the_full_region_left_of_centre():
    def mirror(cells):
        return {(-c, h, LEFT if o == RIGHT else RIGHT) for c, h, o in cells}

    for spec in spec_grid(6, 2, 2):
        assert all(not build_region(spec, kind).free_edge for kind in KINDS)
        if not spec.is_mirror_symmetric:
            with pytest.raises(ValueError, match="vertical symmetry needs R = -L"):
                build_region(spec, "free")
            continue
        free, full = build_region(spec, "free"), build_region(spec, "full")
        for own, whole in ((free.cells, full.cells), (free.hole_cells, full.hole_cells)):
            assert own | mirror(own) == whole and not own & mirror(own)
        assert free.free_edge == {cell for cell in free.cells if cell[0] == 0}
        assert all(cell[2] == LEFT for cell in free.free_edge)


def test_free_boundary_holes_are_left_of_centre_and_mirrored():
    facing = 0
    for spec in spec_grid(8, 1, 2):
        if spec.is_mirror_symmetric and all(x < 0 for x in spec.left):
            assert free_boundary_holes(spec, "a test") == spec.left
            facing += 1
        else:
            with pytest.raises(ValueError,
                               match=r"^a test needs R = -L with every left hole < 0$"):
                free_boundary_holes(spec, "a test")
    assert facing == 14


def test_free_half_is_not_a_region_kind():
    # a free-boundary count sweeps build_region(spec, "free"); free_half names
    # a determinant count kind, not a region
    with pytest.raises(ValueError, match="unknown region kind 'free_half'"):
        build_region(validate(6, 1, [-2], [2]), "free_half")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_region(validate(4, 1), "sideways")


def test_hexagon_cells_rejects_a_side_below_one():
    for n, m in ((0, 1), (2, 0), (-2, 3)):
        with pytest.raises(ValueError, match="^hexagon sides must be positive$"):
            hexagon_cells(n, m)


def test_the_axis_rhombi_are_the_vertical_rhombi_on_the_axis():
    # one per column whose two h = 0 cells the region keeps, as its object in
    # mates: none in the lower half, and in the upper half one per column less
    # one per hole (a fused pair's two holes share a column)
    for spec in spec_grid(6, 2, 2):
        for kind in REGION_KINDS:
            if kind == "free" and not spec.is_mirror_symmetric:
                continue
            region = build_region(spec, kind)
            columns = [c for c in range(1 - spec.n, spec.n, 2)
                       if {(c, 0, LEFT), (c, 0, RIGHT)} <= region.cells]
            got = sorted(region.axis_rhombi, key=min)
            want = [region.mates[(c, 0, LEFT)][(c, 0, RIGHT)] for c in columns]
            assert got == want and all(map(operator.is_, got, want)), (spec, kind)
            if kind in HALVES:
                assert len(columns) == (spec.n - 2 * spec.p + len(fused_pairs(spec))) * HALVES[kind]
    assert len(build_region(validate(6, 2), "upper").axis_rhombi) == 6


@pytest.mark.parametrize("kind, where", [("full", "the hexagon"), ("lower", "the lower region"),
                                         ("upper", "the upper region")])
def test_a_hole_that_does_not_fit_is_named(kind, where):
    # the unvalidated specs hold an odd hole and one beyond the hexagon's side
    for x in (1, 6):
        with pytest.raises(ValueError, match=f"^hole at {x} does not fit inside {where}$"):
            build_region(RegionSpec(4, 1, (x,), (0,)), kind)


def test_lgv_points_rejects_a_kind_without_a_path_picture():
    with pytest.raises(ValueError, match="^no path picture for kind 'free'$"):
        lgv_points(validate(4, 1, [-2], [2]), "free")


def test_spec_grid_order():
    # by n, m, p, the chosen positions, then which of them point left
    assert [spec.to_text() for spec in spec_grid(4, 1, 1)] == [
        "n=2 m=1 L= R=", "n=4 m=1 L= R=",
        "n=4 m=1 L=-2 R=0", "n=4 m=1 L=0 R=-2", "n=4 m=1 L=-2 R=2",
        "n=4 m=1 L=2 R=-2", "n=4 m=1 L=0 R=2", "n=4 m=1 L=2 R=0"]
    # p beyond the positions an n offers adds no spec, and costs no loop
    assert list(spec_grid(4, 1, 10**12)) == list(spec_grid(4, 1, 1))


def test_matrix_halves_are_the_region_halves():
    assert KINDS == ("full", *HALVES)
    assert REGION_KINDS == (*KINDS, "free")
    # path_matrix and count_region read each half's path variant and
    # prefactor off its shift d as 0 below the axis and 1 above
    assert HALVES == {"lower": 0, "upper": 1}


def reference_hole_cell_half(position, orientation, kind):
    """hole_cell_half written once per half, before both came from the shift d."""
    x = position
    if kind == "lower":
        return (x, -1, orientation)
    if kind == "upper":
        if orientation == LEFT:
            return (x - 1, 0, LEFT)
        return (x + 1, 0, RIGHT)
    raise ValueError(f"no single hole cell for kind {kind!r}")


def test_hole_cell_half_matches_per_half_reference():
    def outcome(function, *args):
        try:
            return function(*args)
        except ValueError as exc:
            return str(exc)

    for kind in ("lower", "upper", "full", "sideways"):
        for orientation in (LEFT, RIGHT):
            for x in range(-12, 13, 2):
                args = (x, orientation, kind)
                assert outcome(hole_cell_half, *args) == \
                    outcome(reference_hole_cell_half, *args), args
    with pytest.raises(ValueError, match="no single hole cell for kind 'full'"):
        hole_cell_half(0, LEFT, "full")


def reference_order(region):
    """TriangularRegion.order by sorting the cells and probing ``neighbors``, as
    every region did before holey regions restricted their unholed region's."""
    def key(cell):
        c, h, o = cell
        return (2 * c + (1 if o == RIGHT else -1), h, o)

    cells = sorted(region.cells, key=key)
    index = {cell: i for i, cell in enumerate(cells)}
    ahead = [sorted(index[nb] - lo for nb in neighbors(cell) if index.get(nb, -1) > lo)
             for lo, cell in enumerate(cells)]
    for cell in region.free_edge:
        ahead[index[cell]].insert(0, 0)
    return cells, ahead


def grid_regions():
    """Every region of spec_grid(6, 2, 2): each kind, and the free region of
    each mirrored spec, with its unholed region."""
    for spec in spec_grid(6, 2, 2):
        for kind in KINDS:
            yield build_region(spec, kind), build_region(unholed(spec), kind)
        if spec.is_mirror_symmetric:
            yield build_region(spec, "free"), build_region(unholed(spec), "free")


def test_order_restricts_the_unholed_order():
    # a holey region's order is its unholed region's restricted to its cells;
    # only the unholed region sorts, and both agree with sort-and-probe
    restricted = fused = free = 0
    for region, whole in grid_regions():
        assert region.order == reference_order(region), (region.spec, region.kind)
        if region is whole:
            assert region.whole is None
            continue
        assert region.whole is whole, (region.spec, region.kind)
        restricted += 1
        fused += region.kind == "upper" and bool(fused_pairs(region.spec))
        free += region.kind == "free"
    assert (restricted, fused, free) == (3 * 112 + 20, 54, 20)


def test_a_holey_region_orders_without_probing_neighbors(monkeypatch):
    spec = validate(6, 2, [-4, 2], [-2, 4])
    wholes = [build_region(unholed(spec), kind) for kind in REGION_KINDS]
    for whole in wholes:
        assert whole.order

    def no_probe(cell):
        raise AssertionError("a restricted order probed neighbors")

    monkeypatch.setattr(regions, "neighbors", no_probe)
    holey = [build_region(spec, kind) for kind in KINDS] + \
        [build_region(validate(6, 2, [-4], [4]), "free")]
    for region in holey:
        assert region.order == reference_order(region)


def test_a_region_built_by_hand_orders_as_sort_and_probe():
    cells = hexagon_cells(4, 2) - {(0, 1, RIGHT), (1, 0, LEFT)}
    for spec in (None, validate(4, 2)):
        region = TriangularRegion("full", cells, spec)
        assert region.order == reference_order(region)
    assert TriangularRegion("full", cells, None).whole is None
    # the free-edge half rhombi of a hand-built free region come first
    free = build_region(validate(4, 1, [-2], [2]), "free")
    alone = TriangularRegion("free", free.cells, None, free.free_edge)
    assert alone.order == free.order == reference_order(free)
    assert sum(offsets[:1] == [0] for offsets in alone.order[1]) == len(free.free_edge) > 0


def left_of_centre(cell):
    c, _, o = cell
    return c < 0 or c == 0 and o == LEFT


def test_the_mirror_cut_counts_the_cells_left_of_the_centre_line():
    # a copy built by hand compares every cell with its image; a cut region
    # compares only its hole cells, and must agree
    symmetric = 0
    for region, _ in grid_regions():
        where = (region.kind, region.spec.to_text())
        copy = TriangularRegion(region.kind, region.cells, None, region.free_edge)
        assert region.mirror_cut == copy.mirror_cut, where
        if region.kind == "free" or not region.spec.is_mirror_symmetric:
            assert region.mirror_cut is None, where
            continue
        image = {(-c, h, RIGHT if o == LEFT else LEFT) for c, h, o in region.cells}
        assert image == region.cells, where
        cells, _ = region.order
        assert region.mirror_cut == sum(map(left_of_centre, cells)), where
        assert all(left_of_centre(cell) for cell in cells[:region.mirror_cut]), where
        symmetric += 1
    assert symmetric == 3 * 26
    cell = (0, 0, RIGHT)
    empty = TriangularRegion("full", frozenset(), None)
    alone = TriangularRegion("full", frozenset({cell}), None)
    half = TriangularRegion("free", frozenset({cell}), None, frozenset({cell}))
    assert (empty.mirror_cut, alone.mirror_cut, half.mirror_cut) == (0, None, None)
    assert count_tilings(empty) == 1
    # mirror-image cells with half rhombi on the line: the halves do not mirror
    cells = hexagon_cells(4, 1)
    edged = TriangularRegion("full", cells, None,
                             frozenset(cell for cell in cells if cell[0] == 0))
    assert edged.mirror_cut is None
    assert count_tilings(edged) == sum(1 for _ in enumerate_tilings(edged))


def test_each_hexagon_has_one_unholed_region():
    for spec in (validate(4, 1), validate(6, 2, [-2], [2])):
        for kind in REGION_KINDS:
            whole = build_region(unholed(spec), kind)
            assert build_region(unholed(spec), kind) is whole
            assert whole.spec == unholed(spec) and not whole.hole_cells
    # a holey region is a new region every time, cut from the shared one
    spec = validate(6, 2, [-2], [2])
    assert build_region(spec, "full") is not build_region(spec, "full")
    assert build_region(spec, "full") == build_region(spec, "full")


def test_hole_cells_are_the_cells_the_holes_cut_from_the_whole_region():
    # derived as whole.cells - cells: the holes' cells inside the unholed
    # region, a fused upper pair's flanking cells included
    cut = 0
    for spec in spec_grid(8, 2, 2):
        for kind in REGION_KINDS:
            if kind == "free" and not spec.is_mirror_symmetric:
                continue
            region, whole = build_region(spec, kind), build_region(unholed(spec), kind)
            assert region.hole_cells == regions._removed(spec, kind) & whole.cells, \
                (spec.to_text(), kind)
            cut += region is not whole
    assert cut == 1904
    cells = hexagon_cells(4, 2) - {(0, 1, RIGHT), (1, 0, LEFT)}
    assert TriangularRegion("full", cells, validate(4, 2, [0], [2])).hole_cells == frozenset()


def test_every_cut_region_shares_its_hexagons_tiles():
    # a cut region's cells and hole cells are its unholed region's, so it reads
    # its tiles there: one object per tile for every region of a hexagon
    shared = 0
    for region, whole in grid_regions():
        if region is whole:
            continue
        assert region.mates is whole.mates, (region.spec, region.kind)
        for tile in region.rhombi:
            # min and max are a tile's two cells, or a half rhombus's one cell twice
            assert tile <= region.cells, (region.spec, region.kind)
            assert tile is whole.mates[min(tile)][max(tile)], (region.spec, region.kind)
            shared += 1
    assert shared > 0


def test_mates_are_the_tiles_of_order():
    # a region not cut from its hexagon (unholed, or built by hand, with or
    # without a spec) builds its mates from its own order, over its own cells:
    # each tile under both of its cells, a half rhombus under its one cell
    free = build_region(validate(4, 1, [-2], [2]), "free")
    cells = hexagon_cells(4, 2) - {(0, 1, RIGHT), (1, 0, LEFT)}
    for region in (build_region(validate(4, 1), "full"), build_region(validate(4, 1), "free"),
                   TriangularRegion("free", free.cells, None, free.free_edge),
                   TriangularRegion("full", cells, validate(4, 2))):
        assert region.whole is None and region.mates.keys() == region.cells
        listed = {(a, b): tile for a, row in region.mates.items() for b, tile in row.items()}
        assert listed == {(a, b): tile for tile in region.rhombi
                          for a in tile for b in tile if a != b or len(tile) == 1}
        ordered, ahead = region.order
        assert all(tile is region.mates[min(tile)][max(tile)] for tile in region.rhombi)
        assert region.rhombi == {frozenset((cell, ordered[lo + off]))
                                 for lo, cell in enumerate(ordered) for off in ahead[lo]}


def test_restricted_orders_change_no_count_or_tiling():
    # each region against a copy built by hand, which sorts its own cells
    def copy(region):
        return TriangularRegion(region.kind, region.cells, None, region.free_edge)

    regions_m1 = [region for region, _ in grid_regions() if region.spec.m == 1]
    for region in regions_m1:
        assert count_tilings(region) == count_tilings(copy(region)), (region.spec, region.kind)
        if region.spec.n <= 4:
            assert list(enumerate_tilings(region)) == list(enumerate_tilings(copy(region)))
    assert len(regions_m1) == 3 * 59 + 13


def test_the_unholed_region_cache_is_bounded():
    cache = regions._unholed
    assert cache.cache_info().maxsize == regions._UNHOLED_REGIONS == 16
    for n in range(2, 14, 2):
        for m in (1, 2):
            for kind in KINDS:
                build_region(validate(n, m), kind)
                assert cache.cache_info().currsize <= 16
    build_region(validate(4, 1), "lower")
    assert build_region(validate(4, 1), "lower") is build_region(validate(4, 1), "lower")


def test_a_cut_region_keeps_its_hexagon_after_the_cache_evicts_it():
    # a cut region holds the region it was cut from, so reading its tables
    # after 17 other hexagons have passed through the cache rebuilds nothing
    cut = build_region(validate(6, 2, [-2], [4]), "lower")
    whole = build_region(validate(6, 2), "lower")
    others = [(n, m) for n in (2, 4, 8, 10, 12, 14) for m in (1, 2, 3)][:17]
    for n, m in others:
        build_region(validate(n, m), "lower")
    assert regions._unholed.cache_info().currsize == 16
    misses = regions._unholed.cache_info().misses
    assert cut.order == reference_order(cut) and cut.mates is whole.mates
    assert cut.rhombi and all(tile <= cut.cells for tile in cut.rhombi)
    assert regions._unholed.cache_info().misses == misses
    assert cut.whole is whole is not build_region(validate(6, 2), "lower")


def test_the_boundary_elimination_cache_is_bounded():
    # one recorded path-matrix elimination per hexagon half, as many as unholed regions
    cache = matrices._boundary_steps
    assert cache.cache_info().maxsize == regions._UNHOLED_REGIONS == 16
    for n in range(2, 20, 2):
        for kind in HALVES:
            matrices.count_region(validate(n, 1), kind)  # 18 hexagon halves
            assert cache.cache_info().currsize <= 16
    assert cache.cache_info().currsize == 16


def test_a_side_two_triangle_is_a_side_two_hole():
    for n, m in [(2, 1), (4, 1), (6, 2), (8, 1)]:
        for x in range(-n + 2, n - 1, 2):
            for orient in (LEFT, RIGHT):
                assert triangle_cells(n, m, x, orient, 2) == hole_cells_full(x, orient)


def run_and_triangle_regions(hexagons, kind):
    """For each (n, m, side): every spec whose left or right holes are one run of
    side / 2 side-two holes at spacing two, with as many holes of the other
    orientation elsewhere; with the run as an InducedHole, and the unholed
    region of ``kind`` less the run's side-``side`` triangle and the other holes
    (four cells each in the full region, ``hole_cell_half`` in a half), built by
    hand.  A triangle that does not fit in the hexagon or meets another hole's
    four cells is skipped, so every kind sees the same specs."""
    for n, m, side in hexagons:
        k = side // 2
        positions = range(-n + 2, n - 1, 2)
        unholed = build_region(RegionSpec(n, m, (), ()), kind).cells
        for orient, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
            for first in range(len(positions) - k + 1):
                run = InducedHole(orient, tuple(positions[first:first + k]))
                triangle = triangle_cells(n, m, run.position, orient, side)
                if len(triangle) < side * side:
                    continue
                rest = [x for x in positions if x not in run.constituents]
                for others in combinations(rest, k):
                    if frozenset().union(*(hole_cells_full(y, other) for y in others)) & triangle:
                        continue
                    holes = (run.constituents, others)
                    spec = validate(n, m, *(holes if orient == LEFT else holes[::-1]))
                    cut = {cell for y in others for cell in (
                        hole_cells_full(y, other) if kind == "full"
                        else {hole_cell_half(y, other, kind)})}
                    yield spec, run, TriangularRegion(kind, unholed - triangle - cut, None)


def upper_weights(region):
    """The sum of upper_weight over the tilings of an upper region: det E_upper's
    weighted count."""
    return sum(upper_weight(region, tiling) for tiling in enumerate_tilings(region))


# by region kind and triangle side: 4k^2 - 4k in the full region for k holes
FORCED_CELLS = {"full": {4: 8, 6: 24}, "lower": {4: 4, 6: 12}, "upper": {4: 8, 6: 18}}


@pytest.mark.parametrize("kind", KINDS)
def test_a_run_of_side_two_holes_tiles_as_one_triangular_hole(kind):
    # the triangle's cells outside the run's holes are forced, so the region less
    # the run and the region less the triangle have as many tilings, in the full
    # region and in both halves, and as large a weighted count in the upper one
    counts = []
    for spec, run, triangle_hole in run_and_triangle_regions(
            [(6, 1, 4), (6, 2, 4), (8, 1, 6), (8, 2, 6)], kind):
        assert run in merge_induced_holes(spec.left, spec.right)
        region = build_region(spec, kind)
        # the triangle's cells that the run's holes leave in the region
        assert triangle_hole.cells < region.cells
        assert len(region.cells - triangle_hole.cells) == FORCED_CELLS[kind][run.side]
        counts.append(count_tilings(region))
        assert counts[-1] == count_tilings(triangle_hole), spec
        if kind == "upper":
            assert upper_weights(region) == upper_weights(triangle_hole), spec
    assert len(counts) == 54 and sum(map(bool, counts)) == 48
