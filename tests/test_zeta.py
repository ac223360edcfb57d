import sys
from itertools import product

import pytest

from holeyhex.matrices import count_region
from holeyhex.oracle import enumerate_tilings, tiling_is_exact_cover
from holeyhex.regions import (HALVES, LEFT, RIGHT, build_region, fused_pairs, hole_cell_half,
                              neighbors, spec_grid, validate)
from holeyhex.zeta import (TransmissionError, _partner_map, pair_holes, propagation_path,
                           transmit, upper_weight, verify_injection, zeta)

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
        ribbon = propagation_path(tiling, region, ((-2, LEFT), (2, RIGHT)))
        assert len(ribbon) == 4  # one rhombus per column step
        for a, b in zip(ribbon, ribbon[1:]):
            assert not a & b
            assert any(x in neighbors(y) for x in a for y in b)


def test_contiguous_pair_gives_empty_ribbon():
    spec = validate(4, 1, [2], [0])  # fused pair: unit holes share an edge upstairs
    region = build_region(spec, "upper")
    tiling = next(enumerate_tilings(region))
    assert propagation_path(tiling, region, ((0, RIGHT), (2, LEFT))) == []


def test_transmit_turns_ribbon_into_rhombi():
    spec = validate(4, 1, [-2], [2])
    region = build_region(spec, "lower")
    tiling = next(enumerate_tilings(region))
    ribbon = propagation_path(tiling, region, ((-2, LEFT), (2, RIGHT)))
    tiles, hole = transmit(tiling, ribbon, hole_cell_half(-2, LEFT, "lower"))
    assert len(tiles) == len(tiling)  # one removed per interchange, one added
    assert hole[2] == LEFT


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
    # zeta builds the map once per tiling and re-pairs only the transmitted
    # cells; every later walk must still see the map of the tiling as it stands
    zeta_module = sys.modules["holeyhex.zeta"]  # the package's `zeta` is the function
    current, checked = [], []
    transmit_in_place, walk = zeta_module._transmit, zeta_module._propagation_path

    def recording_transmit(tiles, ribbon, hole):
        current[:] = [tiles]
        return transmit_in_place(tiles, ribbon, hole)

    def checked_walk(partner, region, pair):
        if current:
            assert partner == _partner_map(current[0]), (region.spec, pair)
            checked.append(pair)
        return walk(partner, region, pair)

    monkeypatch.setattr(zeta_module, "_transmit", recording_transmit)
    monkeypatch.setattr(zeta_module, "_propagation_path", checked_walk)
    for args, kind in (((6, 1, [-4, -2], [0, 4]), "upper"),
                       ((6, 2, [-4, 2], [0, 4]), "lower"),
                       ((8, 1, [-6, -2, 4], [-4, 0, 6]), "lower")):
        region = build_region(validate(*args), kind)
        for tiling in enumerate_tilings(region):
            current.clear()
            zeta(tiling, region)
    assert len(checked) == 54 + 160 + 2 * 186


def test_zeta_rejects_fused_upper_pairs():
    with pytest.raises(ValueError, match="fuses"):
        zeta(frozenset(), build_region(validate(4, 1, [2], [0]), "upper"))


# case (ii) of propagation_path written once per half, before both halves
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
    """propagation_path for a right-pointing hole left of a left-pointing one."""
    (pos1, _), (pos2, _) = pair
    partner = _partner_map(tiling)
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
                    assert outcome(propagation_path, *args) == \
                        outcome(reference_boundary_paths, *args), (region.spec, pair)
                    compared += 1
    assert compared == 435  # tilings times case-(ii) pairs


# propagation_path with one walker per case, before both cases shared one walk
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
    outcomes = {}  # (case, kind, "ok" or error message) -> propagation_path calls
    for spec in WALK_SPECS:
        for kind in HALVES:
            region = build_region(spec, kind)
            tilings = list(enumerate_tilings(region))
            for tiling in tilings:
                partner = _partner_map(tiling)
                for pair in pair_holes(spec.right, spec.left):
                    got = outcome(propagation_path, tiling, region, pair)
                    assert got == outcome(reference_propagation_path,
                                          partner, region, pair), (region.spec, pair)
                    key = ("i" if pair[0][1] == LEFT else "ii", kind,
                           "ok" if isinstance(got, list) else got[1])
                    outcomes[key] = outcomes.get(key, 0) + 1
            images = [outcome(zeta, tiling, region) for tiling in tilings]
            with monkeypatch.context() as patch:
                patch.setattr(zeta_module, "_propagation_path", reference_propagation_path)
                assert images == [outcome(zeta, tiling, region) for tiling in tilings]
    # both cases and both halves, and the one error case (i) meets here
    assert outcomes == {("i", "lower", "ok"): 1015, ("i", "upper", "ok"): 4455,
                        ("i", "upper", "walk left the region"): 1736,
                        ("ii", "lower", "ok"): 188, ("ii", "upper", "ok"): 1393}
