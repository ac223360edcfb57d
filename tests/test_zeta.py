import hashlib
import json
import sys
from itertools import product

import pytest

from holeyhex.matrices import count_region, det_exact, hole_matrix
from holeyhex.oracle import enumerate_tilings, tiling_is_exact_cover
from holeyhex.regions import (HALVES, LEFT, RIGHT, build_region, fused_pairs, half_shift,
                              hole_cell_half, neighbors, spec_grid, validate)
from holeyhex.zeta import TransmissionError, pair_holes, upper_weight, verify_injection, zeta

# every holed spec at (n, m) = (2, 1), (4, 1), (6, 1) and (4, 2); m = 2 at
# n = 4 reaches the walks' second step below the axis
WALK_SPECS = [spec for spec in spec_grid(6, 2, 2) if spec.p and (spec.m == 1 or spec.n == 4)]

INJECTIVE_SPECS = [
    (4, 1, [0], [2]),
    (4, 1, [-2], [0]),
    (6, 1, [2], [4]),
    (6, 1, [-4, 0], [-2, 2]),
]


def test_pair_holes_examples():
    assert pair_holes([-2, 2], [-6, 6]) == [((-6, LEFT), (-2, RIGHT)),
                                            ((2, RIGHT), (6, LEFT))]
    assert pair_holes([2], [0]) == [((0, LEFT), (2, RIGHT))]
    assert pair_holes([0, 2], [4, 6]) == [((2, RIGHT), (4, LEFT)),
                                          ((0, RIGHT), (6, LEFT))]


def test_pair_holes_rejects_duplicates():
    with pytest.raises(ValueError):
        pair_holes([0], [0])
    with pytest.raises(ValueError):
        pair_holes([0, 2], [])


def reference_pair_holes(right, left):
    """pair_holes by repeated removal of the first adjacent differing pair."""
    items = sorted([(x, RIGHT) for x in right] + [(x, LEFT) for x in left])
    if len(set(x for x, _ in items)) != len(items):
        raise ValueError("hole positions must be distinct")
    pairs = []
    while items:
        for k in range(len(items) - 1):
            if items[k][1] != items[k + 1][1]:
                pairs.append((items[k], items[k + 1]))
                del items[k:k + 2]
                break
        else:
            raise ValueError("orientations cannot be paired off")
    return pairs


def route_path(tiles, region, pair) -> list:
    """The ribbon of ``tiles`` between a pair's holes, by the plan's own route and path."""
    zeta_module = sys.modules["holeyhex.zeta"]  # the package's `zeta` is the function
    return zeta_module._path(tiles, region, *zeta_module._route(region, pair)[1:])


def reference_partner_map(tiling) -> dict:
    """Each covered cell's rhombus partner, as zeta kept it before it walked the tile set."""
    partner = {}
    for rhombus in tiling:
        a, b = tuple(rhombus)
        partner[a] = b
        partner[b] = a
    return partner


def reference_walk(partner, region, cell, steps):
    """zeta's walk on a cell-to-partner map instead of the live tile set."""
    orient = cell[2]
    ribbon = []
    while cell in region.cells:
        mate = partner.get(cell)
        if mate is None:
            raise TransmissionError("walk hit an uncovered cell")
        step = steps.get((mate[0] - cell[0], mate[1] - cell[1], mate[2]))
        if step is None:
            raise TransmissionError("walk entered a rhombus backwards")
        ribbon.append(frozenset((cell, mate)))
        cell = (cell[0] + step[0], cell[1] + step[1], orient)
    return ribbon, cell


def outcome(function, *args):
    """What a call gives: its value, or its exception's class and message."""
    try:
        return function(*args)
    except (TransmissionError, ValueError) as exc:
        return type(exc), str(exc)


def test_pair_holes_matches_repeated_removal():
    compared = 0
    for count in range(11):
        for orients in product((LEFT, RIGHT), repeat=count):
            right = [2 * k for k, o in enumerate(orients) if o == RIGHT]
            left = [2 * k for k, o in enumerate(orients) if o == LEFT]
            assert outcome(pair_holes, right, left) == \
                outcome(reference_pair_holes, right, left), orients
            compared += 1
    assert compared == 2047
    for right, left in (([0], [0]), ([0, 2], [2, 4]), ([0, 0], [2, 4])):
        assert outcome(pair_holes, right, left) == outcome(reference_pair_holes, right, left)


def test_zeta_is_identity_without_holes():
    spec = validate(2, 1)
    report = verify_injection(spec, "lower")
    assert report["ok"] and report["tilings"] == 2
    region = build_region(spec, "lower")
    tiling = next(enumerate_tilings(region))
    assert zeta(tiling, region) == (tiling, [])


def test_propagation_path_shapes():
    spec = validate(4, 1, [-2], [2])
    region = build_region(spec, "lower")
    for tiling in enumerate_tilings(region):
        _, (ribbon,) = zeta(tiling, region)
        assert len(ribbon) == 4  # one rhombus per column step
        for a, b in zip(ribbon, ribbon[1:]):
            assert not a & b
            assert any(x in neighbors(y) for x in a for y in b)


def test_every_route_has_the_walks_of_its_case():
    # the plan's pairs come from pair_holes alone: a pair whose left hole
    # points left gets one walk, any other two, and outside a fused upper
    # region no pair's hole cells share an edge, so no route is empty
    zeta_module = sys.modules["holeyhex.zeta"]
    walk_counts = {1: 0, 2: 0}
    for spec in spec_grid(6, 2, 2):
        for kind in HALVES:
            if kind == "upper" and fused_pairs(spec):
                continue
            region = build_region(spec, kind)
            plan = zeta_module._Plan(region)
            pairs = pair_holes(spec.right, spec.left)
            assert len(plan.routes) == len(pairs)
            for pair, (cell1, cell2, walks) in zip(pairs, plan.routes):
                assert len(walks) == (1 if pair[0][1] == LEFT else 2), (spec, kind, pair)
                assert cell2 not in region.mates[cell1], (spec, kind, pair)
                walk_counts[len(walks)] += 1
    assert walk_counts == {1: 140, 2: 108}


def test_zeta_images_are_valid_tilings():
    for args in INJECTIVE_SPECS:
        spec = validate(*args)
        region = build_region(spec, "lower")
        target = build_region(spec.unholed(), "lower")
        for tiling in enumerate_tilings(region):
            image, _ = zeta(tiling, region)
            assert tiling_is_exact_cover(target, image)
            assert len(image) == len(tiling) + spec.p


def test_zeta_locality():
    spec = validate(6, 1, [-4, 0], [-2, 2])
    region = build_region(spec, "lower")
    for tiling in enumerate_tilings(region):
        image, ribbons = zeta(tiling, region)
        touched = {cell for ribbon in ribbons for rhombus in ribbon for cell in rhombus}
        touched |= set(region.hole_cells)
        for rhombus in tiling:
            if not rhombus & touched:
                assert rhombus in image


def test_ribbons_are_pairwise_disjoint():
    for args in [(6, 1, [-4, 0], [-2, 2]), (8, 1, [-6, 6], [-2, 2])]:
        spec = validate(*args)
        region = build_region(spec, "lower")
        for tiling in enumerate_tilings(region):
            _, ribbons = zeta(tiling, region)
            cells = [{c for rh in ribbon for c in rh} for ribbon in ribbons]
            assert not cells[0] & cells[1]


@pytest.mark.parametrize("args", INJECTIVE_SPECS)
def test_verify_injection_passes(args):
    report = verify_injection(validate(*args), "lower")
    assert report["ok"]
    assert report["tilings"] == report["distinct_images"]


def test_injection_fails_for_wide_apart_pairs():
    # The transmission map is not injective once an apart-pointing pair is
    # separated by more than one step: two tilings that swap the walk profile
    # with a resting horizontal rhombus collide.  The count inequality it was
    # meant to establish genuinely fails as well.
    report = verify_injection(validate(4, 1, [-2], [2]), "lower")
    assert report["valid_images"] and not report["ok"]
    assert report["distinct_images"] < report["tilings"]

    wide = validate(8, 1, [-6], [6])
    assert count_region(wide, "lower").value == 4719
    assert count_region(wide.unholed(), "lower").value == 1430  # fewer than holey


def test_an_invalid_image_fails_the_report(monkeypatch):
    # the target covers are checked image by image: one failed cover is enough
    zeta_module = sys.modules["holeyhex.zeta"]
    cover = zeta_module.tiling_is_exact_cover
    calls = []

    def one_invalid(target, image):
        calls.append(image)
        return len(calls) != 2 and cover(target, image)

    monkeypatch.setattr(zeta_module, "tiling_is_exact_cover", one_invalid)
    report = verify_injection(validate(4, 1, [0], [2]), "lower")
    assert len(calls) == report["tilings"] == report["distinct_images"] == 4
    assert report["valid_images"] is False and report["ok"] is False


def test_count_inequality_on_injective_specs():
    for args in INJECTIVE_SPECS:
        spec = validate(*args)
        assert count_region(spec, "lower").value <= \
            count_region(spec.unholed(), "lower").value


UPPER_MONOTONE_SPECS = [
    (4, 1, [2], [-2]),
    (6, 1, [0], [-4]),
    (6, 1, [4], [-4]),
    (8, 1, [-6, 6], [-2, 2]),
]


@pytest.mark.parametrize("args", UPPER_MONOTONE_SPECS)
def test_upper_weight_monotone(args):
    report = verify_injection(validate(*args), "upper")
    assert report["valid_images"] and report["weight_monotone"]


def test_upper_weight_can_drop_for_apart_pairs():
    # documented failure of the weight claim: a direct walk at axis level
    # closes previously open weighted columns
    spec = validate(4, 1, [0], [2])
    region = build_region(spec, "upper")
    target = build_region(spec.unholed(), "upper")
    drops = 0
    for tiling in enumerate_tilings(region):
        if upper_weight(target, zeta(tiling, region)[0]) < upper_weight(region, tiling):
            drops += 1
    assert drops > 0


def test_upper_weight_statistic_matches_determinant():
    for args in [(4, 1, [0], [2]), (4, 1, [2], [0]), (6, 1, [-4, 0], [-2, 2])]:
        spec = validate(*args)
        region = build_region(spec, "upper")
        total = sum(upper_weight(region, t) for t in enumerate_tilings(region))
        assert total == count_region(spec, "upper_weighted").value


def test_zeta_walks_the_partner_map_of_its_current_tiling(monkeypatch):
    # zeta's walks look partners up, through the region's mates, in the tile
    # set that each transmission mutates; every walk must find, cell by cell,
    # the partners that the partner map of the tile set as it stands gives
    zeta_module = sys.modules["holeyhex.zeta"]  # the package's `zeta` is the function
    current, checked = [], []
    path, walk = zeta_module._path, zeta_module._walk

    def checked_path(tiles, region, partner, walks):
        if current:  # a later pair's walks see the set the earlier ones transmitted on
            assert tiles is current[0], (region.spec, partner)
            checked.append(partner)
        else:
            current.append(tiles)
        return path(tiles, region, partner, walks)

    def checked_walk(tiles, region, cell, steps):
        got = outcome(walk, tiles, region, cell, steps)
        assert got == outcome(reference_walk, reference_partner_map(tiles), region, cell, steps)
        return walk(tiles, region, cell, steps)

    monkeypatch.setattr(zeta_module, "_path", checked_path)
    monkeypatch.setattr(zeta_module, "_walk", checked_walk)
    for args, kind in (((6, 1, [-4, -2], [0, 4]), "upper"),
                       ((6, 2, [-4, 2], [0, 4]), "lower"),
                       ((8, 1, [-6, -2, 4], [-4, 0, 6]), "lower")):
        region = build_region(validate(*args), kind)
        for tiling in enumerate_tilings(region):
            current.clear()
            zeta(tiling, region)
    assert len(checked) == 54 + 160 + 2 * 186


def reference_transmit(tiles, ribbon, hole):
    """zeta's transmission before its tiles came from a per-region table."""
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


def reference_zeta(tiling, region):
    """zeta before its per-region plan: the check, the pairs, their hole cells
    and their paths redone for each tiling, and a new rhombus for each swap."""
    spec = region.spec
    if half_shift(region.kind, "transmission map") and fused_pairs(spec):
        raise ValueError("upper-region transmission is undefined for toward-pointing holes "
                         "at spacing two (the pair fuses into a hexagonal hole)")
    tiles = set(tiling)
    ribbons = []
    for pair in pair_holes(spec.right, spec.left):
        ribbon = route_path(tiles, region, pair)
        ribbons.append(ribbon)
        hole = hole_cell_half(*pair[0], region.kind)
        other = hole_cell_half(*pair[1], region.kind)
        hole = reference_transmit(tiles, ribbon, hole)
        if other not in neighbors(hole):
            raise TransmissionError("transmitted hole did not reach its partner")
        tiles.add(frozenset((hole, other)))
    return frozenset(tiles), ribbons


def test_the_plan_maps_every_tiling_as_the_per_tiling_reference():
    # images and ribbons, or the error, of every tiling of every small spec in
    # both halves; a fused upper pair raises when the plan is made
    zeta_module = sys.modules["holeyhex.zeta"]
    fused = mapped = 0
    for spec in spec_grid(6, 2, 2):
        if not spec.p:
            continue  # no pairs: the map is the identity (test_zeta_is_identity_without_holes)
        for kind in HALVES:
            region = build_region(spec, kind)
            plan = outcome(zeta_module._Plan, region)
            if isinstance(plan, tuple):
                assert plan == outcome(reference_zeta, frozenset(), region)
                assert plan[0] is ValueError and "fuses" in plan[1]
                fused += 1
                continue
            for tiling in enumerate_tilings(region):
                assert outcome(plan.map, tiling) == outcome(reference_zeta, tiling, region), \
                    (spec, kind)
                mapped += 1
    assert (fused, mapped) == (54, 120867)


def test_stored_images_share_one_object_per_rhombus(monkeypatch):
    # the images verify_injection keeps are the map's own frozensets: their
    # tiles, untouched or added by a transmission, are one object per rhombus
    zeta_module = sys.modules["holeyhex.zeta"]
    plan_map = zeta_module._Plan.map
    images = []

    def recording_map(plan, tiling):
        image, ribbons = plan_map(plan, tiling)
        images.append(image)
        return image, ribbons

    monkeypatch.setattr(zeta_module._Plan, "map", recording_map)
    for spec in spec_grid(6, 1, 2):
        for kind in HALVES:
            if kind == "upper" and fused_pairs(spec):
                continue
            images.clear()
            verify_injection(spec, kind)
            tiles = [rhombus for image in images for rhombus in image]
            assert len({id(rhombus) for rhombus in tiles}) == len(set(tiles)), (spec, kind)


def test_verify_injection_outcomes_are_pinned():
    # every report or error on the n <= 6, m = 1, p <= 2 grid, hashed from
    # the partner-map walk and the per-rhombus cover check; a fused upper
    # pair raises even when its region has no tilings.  An injection bounds
    # the holey count by the unholed one, so an ok region has |det E| <= 1
    rows = []
    injective = over_one = 0
    for spec in spec_grid(6, 1, 2):
        for kind in HALVES:
            det = abs(det_exact(hole_matrix(spec, kind)))
            over_one += det > 1
            try:
                got = verify_injection(spec, kind)
            except (TransmissionError, ValueError) as exc:
                got = [type(exc).__name__, str(exc)]
            else:
                if got["ok"]:
                    assert det <= 1, (spec.to_text(), kind, det)
                    injective += 1
            rows.append([spec.to_text(), kind, got])
    assert len(rows) == 118
    assert (injective, over_one) == (56, 3)
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == \
        "eafd645ebc6060f3f95baf2fcfba68a155cc2c09aca66a6c4530c4c402d23647"


def test_full_region_has_no_transmission_map(monkeypatch):
    zeta_module = sys.modules["holeyhex.zeta"]
    spec = validate(4, 1)
    region = build_region(spec, "full")
    tiling = next(enumerate_tilings(region))

    def no_enumeration(region, *args):
        raise AssertionError("enumerated before checking the kind")

    monkeypatch.setattr(zeta_module, "enumerate_tilings", no_enumeration)
    with pytest.raises(ValueError, match="no transmission map for kind 'full'"):
        verify_injection(spec, "full")
    with pytest.raises(ValueError, match="no transmission map for kind 'full'"):
        zeta(tiling, region)


def test_zeta_rejects_fused_upper_pairs():
    with pytest.raises(ValueError, match="fuses"):
        zeta(frozenset(), build_region(validate(4, 1, [2], [0]), "upper"))


def test_fused_upper_pair_is_rejected_before_enumerating(monkeypatch):
    zeta_module = sys.modules["holeyhex.zeta"]

    def no_enumeration(region, *args):
        raise AssertionError("enumerated before checking for fused pairs")

    monkeypatch.setattr(zeta_module, "enumerate_tilings", no_enumeration)
    # with tilings, and (n = 6) with none: each has a pair fused at 2
    for args in [(4, 1, [2], [0]), (6, 1, [0, 2], [-4, -2]), (6, 1, [2, 4], [-2, 0])]:
        with pytest.raises(ValueError, match="fuses"):
            verify_injection(validate(*args), "upper")


# case (ii) of the propagation path written once per half, before both halves
# came from the shift d: four slant directions and per-half first cells
REFERENCE_SLANT_STEPS = {
    "se": (LEFT, {(0, 0, RIGHT): (1, -1), (-1, -1, RIGHT): (0, -2)}),
    "sw": (RIGHT, {(0, 0, LEFT): (-1, -1), (1, -1, LEFT): (0, -2)}),
    "ne": (LEFT, {(0, 0, RIGHT): (1, 1), (-1, 1, RIGHT): (0, 2)}),
    "nw": (RIGHT, {(0, 0, LEFT): (-1, 1), (1, 1, LEFT): (0, 2)}),
}


def reference_slant_walk(partner, region, first_cell, direction):
    orient, table = REFERENCE_SLANT_STEPS[direction]
    ribbon = []
    cell = first_cell
    while cell in region.cells:
        if cell[2] != orient:
            raise TransmissionError("slant walk lost its orientation")
        mate = partner.get(cell)
        if mate is None:
            raise TransmissionError("slant walk hit an uncovered cell")
        step = table.get((mate[0] - cell[0], mate[1] - cell[1], mate[2]))
        if step is None:
            raise TransmissionError("slant walk entered a rhombus backwards")
        ribbon.append(frozenset((cell, mate)))
        cell = (cell[0] + step[0], cell[1] + step[1], orient)
        if cell in region.hole_cells:
            raise TransmissionError("slant walk ran into a hole")
    return ribbon


def reference_boundary_paths(tiling, region, pair):
    """The propagation path for a right-pointing hole left of a left-pointing one."""
    (pos1, _), (pos2, _) = pair
    partner = reference_partner_map(tiling)
    if region.kind == "lower":
        cell1, cell2 = (pos1, -1, RIGHT), (pos2, -1, LEFT)
    else:
        cell1, cell2 = (pos1 + 1, 0, RIGHT), (pos2 - 1, 0, LEFT)
    if cell2 in neighbors(cell1):
        return []
    if region.kind == "lower":
        first1 = (cell1[0] + 1, cell1[1] - 1, LEFT)
        first2 = (cell2[0] - 1, cell2[1] - 1, RIGHT)
        path1 = reference_slant_walk(partner, region, first1, "se")
        path2 = reference_slant_walk(partner, region, first2, "sw")
    else:
        first1 = (cell1[0] + 1, cell1[1] + 1, LEFT)
        first2 = (cell2[0] - 1, cell2[1] + 1, RIGHT)
        path1 = reference_slant_walk(partner, region, first1, "ne")
        path2 = reference_slant_walk(partner, region, first2, "nw")
    common = set(path1) & set(path2)
    if len(common) != 1:
        raise TransmissionError(
            f"boundary paths share {len(common)} rhombi instead of exactly one")
    turn = common.pop()
    i1 = path1.index(turn)
    i2 = path2.index(turn)
    return path1[:i1 + 1] + list(reversed(path2[:i2]))


def test_boundary_paths_match_per_half_reference():
    compared = 0
    for spec in WALK_SPECS:
        pairs = [pair for pair in pair_holes(spec.right, spec.left) if pair[0][1] == RIGHT]
        for kind in ("lower", "upper"):
            if not pairs or (kind == "upper" and fused_pairs(spec)):
                continue  # no case (ii) pair, or a fused upper pair
            region = build_region(spec, kind)
            for tiling in enumerate_tilings(region):
                for pair in pairs:
                    args = (tiling, region, pair)
                    assert outcome(route_path, *args) == \
                        outcome(reference_boundary_paths, *args), (region.spec, pair)
                    compared += 1
    assert compared == 435  # tilings times case-(ii) pairs


# the propagation path with one walker per case, before both cases shared one walk
def reference_vertical_edge_walk(partner, region, start_edge, goal_edge):
    ribbon = []
    c, k = start_edge
    goal_c = goal_edge[0]
    while (c, k) != goal_edge:
        if c >= goal_c:
            raise TransmissionError("walk passed the target hole")
        cell = (c, k, RIGHT)
        if cell not in region.cells:
            raise TransmissionError("walk left the region")
        mate = partner.get(cell)
        if mate is None:
            raise TransmissionError("walk hit an uncovered cell")
        mc, mk, mo = mate
        if mo != LEFT or mc != c + 1:
            raise TransmissionError("unexpected rhombus orientation on walk")
        ribbon.append(frozenset((cell, mate)))
        c, k = mc, mk
    return ribbon


def reference_two_case_slant_walk(partner, region, first_cell, v):
    orient = first_cell[2]
    e, other = (1, RIGHT) if orient == LEFT else (-1, LEFT)
    steps = {(0, 0, other): (e, v), (-e, v, other): (0, 2 * v)}
    ribbon = []
    cell = first_cell
    while cell in region.cells:
        mate = partner.get(cell)
        if mate is None:
            raise TransmissionError("slant walk hit an uncovered cell")
        step = steps.get((mate[0] - cell[0], mate[1] - cell[1], mate[2]))
        if step is None:
            raise TransmissionError("slant walk entered a rhombus backwards")
        ribbon.append(frozenset((cell, mate)))
        cell = (cell[0] + step[0], cell[1] + step[1], orient)
        if cell in region.hole_cells:
            raise TransmissionError("slant walk ran into a hole")
    return ribbon


def reference_propagation_path(partner, region, pair):
    (pos1, orient1), (pos2, orient2) = pair
    if pos1 >= pos2 or orient1 == orient2:
        raise ValueError("pair must be two positions of differing orientation")
    cell1 = hole_cell_half(pos1, orient1, region.kind)
    cell2 = hole_cell_half(pos2, orient2, region.kind)
    if cell2 in neighbors(cell1):
        return []
    if orient1 == LEFT:
        start = (cell1[0], cell1[1])
        goal = (cell2[0], cell2[1])
        return reference_vertical_edge_walk(partner, region, start, goal)
    v = 2 * HALVES[region.kind] - 1
    path1 = reference_two_case_slant_walk(partner, region, (cell1[0] + 1, cell1[1] + v, LEFT), v)
    path2 = reference_two_case_slant_walk(partner, region, (cell2[0] - 1, cell2[1] + v, RIGHT), v)
    common = set(path1) & set(path2)
    if len(common) != 1:
        raise TransmissionError(
            f"boundary paths share {len(common)} rhombi instead of exactly one")
    turn = common.pop()
    i1 = path1.index(turn)
    i2 = path2.index(turn)
    return path1[:i1 + 1] + list(reversed(path2[:i2]))


def test_one_walk_matches_the_two_walker_reference(monkeypatch):
    # ribbons or error messages of every pair, and zeta's images and ribbons
    zeta_module = sys.modules["holeyhex.zeta"]
    outcomes = {}  # (case, kind, "ok" or error message) -> route_path calls
    for spec in WALK_SPECS:
        for kind in HALVES:
            if kind == "upper" and fused_pairs(spec):
                continue  # no plan: test_zeta_rejects_fused_upper_pairs
            region = build_region(spec, kind)
            tilings = list(enumerate_tilings(region))
            for tiling in tilings:
                partner = reference_partner_map(tiling)
                for pair in pair_holes(spec.right, spec.left):
                    got = outcome(route_path, tiling, region, pair)
                    assert got == outcome(reference_propagation_path,
                                          partner, region, pair), (region.spec, pair)
                    key = ("i" if pair[0][1] == LEFT else "ii", kind,
                           "ok" if isinstance(got, list) else got[1])
                    outcomes[key] = outcomes.get(key, 0) + 1
            images = [outcome(zeta, tiling, region) for tiling in tilings]
            pair_of = {hole_cell_half(*pair[1], kind): pair
                       for pair in pair_holes(spec.right, spec.left)}  # by partner hole
            with monkeypatch.context() as patch:
                patch.setattr(zeta_module, "_path",
                              lambda tiles, region, partner, walks: reference_propagation_path(
                                  reference_partner_map(tiles), region, pair_of[partner]))
                assert images == [outcome(zeta, tiling, region) for tiling in tilings]
    # both cases and both halves, and no error outside a fused upper region
    assert outcomes == {("i", "lower", "ok"): 1015, ("i", "upper", "ok"): 4257,
                        ("ii", "lower", "ok"): 188, ("ii", "upper", "ok"): 247}
