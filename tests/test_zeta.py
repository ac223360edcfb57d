import hashlib
import json
import sys
from itertools import islice, product

import pytest

from holeyhex.cli import main
from holeyhex.matrices import count_region, det_exact, hole_matrix
from holeyhex.oracle import enumerate_tilings, tiling_is_exact_cover
from holeyhex import regions
from holeyhex.regions import (HALVES, LEFT, REGION_KINDS, RIGHT, build_region,
                              fused_pairs, half_shift, hole_cell_half, neighbors, spec_grid,
                              validate)
from holeyhex.zeta import TransmissionError, pair_holes, upper_weight, verify_injection, zeta
from helpers import unholed

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


def reference_route_steps(region, pair) -> list:
    """Each walk's (first cell, step rule) of a pair's route, as the plan kept
    them before it tabled them: a rule maps the partner's offset
    (dc, dh, orientation) to the offset of the next chain cell."""
    (pos1, orient1), (pos2, orient2) = pair
    cell1 = hole_cell_half(pos1, orient1, region.kind)
    cell2 = hole_cell_half(pos2, orient2, region.kind)
    if orient1 == LEFT:
        return [((cell1[0], cell1[1], RIGHT), {(1, 1, LEFT): (1, 1), (1, -1, LEFT): (1, -1)})]
    v = 2 * HALVES[region.kind] - 1
    walks = []
    for first in ((cell1[0] + 1, cell1[1] + v, LEFT), (cell2[0] - 1, cell2[1] + v, RIGHT)):
        e, other = (1, RIGHT) if first[2] == LEFT else (-1, LEFT)
        walks.append((first, {(0, 0, other): (e, v), (-e, v, other): (0, 2 * v)}))
    return walks


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


def test_every_route_has_the_walks_of_its_case(monkeypatch):
    # the plan's pairs come from pair_holes alone: a pair whose left hole
    # points left gets one walk, any other two, and outside a fused upper
    # region no pair's hole cells share an edge, so no route is empty.  A
    # plan tables each walk's step rule once, and mapping a tiling tables none
    zeta_module = sys.modules["holeyhex.zeta"]
    table, tabled = zeta_module._table, []
    monkeypatch.setattr(zeta_module, "_table", lambda *args: tabled.append(args) or table(*args))
    walk_counts = {1: 0, 2: 0}
    plans = []
    for spec in spec_grid(6, 2, 2):
        for kind in HALVES:
            if kind == "upper" and fused_pairs(spec):
                continue
            region = build_region(spec, kind)
            plan = zeta_module._Plan(region)
            plans.append(plan)
            pairs = pair_holes(spec.right, spec.left)
            assert len(plan.routes) == len(pairs)
            for pair, (cell1, cell2, walks) in zip(pairs, plan.routes):
                assert len(walks) == (1 if pair[0][1] == LEFT else 2), (spec, kind, pair)
                assert cell2 not in region.mates[cell1], (spec, kind, pair)
                walk_counts[len(walks)] += 1
    assert walk_counts == {1: 140, 2: 108}
    assert len(tabled) == 140 + 2 * 108
    tabled.clear()
    for plan in plans:
        for tiling in islice(enumerate_tilings(plan.region), 20):
            outcome(plan.map, tiling)
    assert tabled == []


def test_zeta_builds_one_plan_per_region(monkeypatch):
    # zeta keeps the plan of the last region it mapped: mapping every tiling of
    # one region builds one plan, another region builds its own, and the kept
    # plan maps each tiling as a fresh plan does
    zeta_module = sys.modules["holeyhex.zeta"]
    plan, built = zeta_module._Plan, []
    monkeypatch.setattr(zeta_module, "_Plan", lambda region: built.append(region) or plan(region))
    zeta_module._plan.cache_clear()
    region = build_region(validate(6, 2, [-4, 2], [0, 4]), "lower")
    tilings = list(enumerate_tilings(region))
    images = [zeta(tiling, region) for tiling in tilings]
    assert len(built) == 1 and built[0] is region and len(tilings) == 160
    other = build_region(validate(4, 1, [-2], [2]), "upper")
    zeta(next(enumerate_tilings(other)), other)
    assert len(built) == 2 and built[1] is other
    assert images == [plan(region).map(tiling) for tiling in tilings]


def test_zeta_images_are_valid_tilings():
    for args in INJECTIVE_SPECS:
        spec = validate(*args)
        region = build_region(spec, "lower")
        target = build_region(unholed(spec), "lower")
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
    assert count_region(unholed(wide), "lower").value == 1430  # fewer than holey


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
            count_region(unholed(spec), "lower").value


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
    target = build_region(unholed(spec), "upper")
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
    # zeta's walks look partners up, through their tables of the region's
    # mates, in the tile set that each transmission mutates; every walk must
    # find, cell by cell, the partners that the partner map of the tile set as
    # it stands gives, stepping by its route's rule
    zeta_module = sys.modules["holeyhex.zeta"]  # the package's `zeta` is the function
    current, checked = [], []
    pair_of, rules = {}, {}  # partner hole -> pair; first cell -> (region, step rule)
    path, walk = zeta_module._path, zeta_module._walk

    def checked_path(tiles, region, partner, walks):
        if current:  # a later pair's walks see the set the earlier ones transmitted on
            assert tiles is current[0], (region.spec, partner)
            checked.append(partner)
        else:
            current.append(tiles)
        rules.clear()
        for first, steps in reference_route_steps(region, pair_of[partner]):
            rules[first] = region, steps
        return path(tiles, region, partner, walks)

    def checked_walk(tiles, cell, table):
        region, steps = rules[cell]
        got = outcome(walk, tiles, cell, table)
        assert got == outcome(reference_walk, reference_partner_map(tiles), region, cell, steps)
        return walk(tiles, cell, table)

    monkeypatch.setattr(zeta_module, "_path", checked_path)
    monkeypatch.setattr(zeta_module, "_walk", checked_walk)
    for args, kind in (((6, 1, [-4, -2], [0, 4]), "upper"),
                       ((6, 2, [-4, 2], [0, 4]), "lower"),
                       ((8, 1, [-6, -2, 4], [-4, 0, 6]), "lower")):
        spec = validate(*args)
        region = build_region(spec, kind)
        pair_of.clear()
        for pair in pair_holes(spec.right, spec.left):
            pair_of[hole_cell_half(*pair[1], kind)] = pair
        for tiling in enumerate_tilings(region):
            current.clear()
            zeta(tiling, region)
    assert len(checked) == 54 + 160 + 2 * 186


def test_every_walk_table_follows_its_step_rule():
    # a walk's table has a row for each region cell that its step rule
    # reaches from the first cell, listing the cell's tiles in mates order,
    # each with cell + step, or None where the partner's offset has no step
    zeta_module = sys.modules["holeyhex.zeta"]
    entries = {True: 0, False: 0}  # stepping on, entered backwards
    for spec in WALK_SPECS:
        for kind in HALVES:
            if kind == "upper" and fused_pairs(spec):
                continue
            region = build_region(spec, kind)
            for pair in pair_holes(spec.right, spec.left):
                _, _, walks = zeta_module._route(region, pair)
                rules = reference_route_steps(region, pair)
                assert [first for first, _ in walks] == [first for first, _ in rules]
                for (first, table), (_, steps) in zip(walks, rules):
                    reached = {first} | {nxt for row in table.values() for _, nxt in row}
                    assert set(table) == reached & region.cells, (spec, kind, pair)
                    for cell, row in table.items():
                        mates = region.mates[cell]
                        assert [tile for tile, _ in row] == list(mates.values())
                        for (tile, nxt), (mate, own) in zip(row, mates.items()):
                            assert tile is own
                            step = steps.get((mate[0] - cell[0], mate[1] - cell[1], mate[2]))
                            want = None if step is None else \
                                (cell[0] + step[0], cell[1] + step[1], cell[2])
                            assert nxt == want, (spec, kind, pair, cell, mate)
                            entries[nxt is not None] += 1
    assert entries == {True: 3172, False: 1936}


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


def reference_rule_walk(tiles, region, cell, steps):
    """zeta's walk before its step rule was tabled: each chain cell's tile is
    found among its mates, and the partner's offset is looked up in ``steps``."""
    orient = cell[2]
    ribbon = []
    while cell in region.cells:
        for mate, rhombus in region.mates[cell].items():
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


def reference_route_path(tiles, region, pair) -> list:
    """The ribbon of ``tiles`` between a pair's holes, each walk stepping by
    its route's rule (``reference_rule_walk``)."""
    walks = reference_route_steps(region, pair)
    if len(walks) == 1:  # case (i)
        ribbon, end = reference_rule_walk(tiles, region, *walks[0])
        if end != hole_cell_half(*pair[1], region.kind):
            raise TransmissionError("walk left the region")
        return ribbon
    paths = []
    for first, steps in walks:
        path, end = reference_rule_walk(tiles, region, first, steps)
        if end in region.hole_cells:
            raise TransmissionError("slant walk ran into a hole")
        paths.append(path)
    path1, path2 = paths
    common = set(path1) & set(path2)
    if len(common) != 1:
        raise TransmissionError(
            f"boundary paths share {len(common)} rhombi instead of exactly one")
    turn = common.pop()
    return path1[:path1.index(turn) + 1] + list(reversed(path2[:path2.index(turn)]))


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
        ribbon = reference_route_path(tiles, region, pair)
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
            # and each is the unholed target's own object
            target = build_region(unholed(spec), kind)
            assert all(target.mates[a][b] is rhombus
                       for rhombus in set(tiles) for a, b in [tuple(rhombus)]), (spec, kind)


def test_cut_regions_run_without_probing_neighbors(monkeypatch):
    # once a hexagon's unholed regions have their tables, its holey and free
    # cuts read their tiles from them: no region but an unholed one probes
    zeta_module = sys.modules["holeyhex.zeta"]
    for kind in REGION_KINDS:
        assert build_region(validate(6, 1), kind).rhombi

    def no_probe(cell):
        raise AssertionError("a cut region probed neighbors")

    monkeypatch.setattr(regions, "neighbors", no_probe)
    # the upper region of the second spec has a fused pair, and no map
    cuts = [((6, 1, [2], [4]), HALVES), ((6, 1, [-4, 0], [-2, 2]), ("full", "lower")),
            ((6, 1, [-2], [2]), ("free",)), ((6, 1, [-4, -2], [2, 4]), ("free",))]
    checked = 0
    for args, kinds in cuts:
        spec = validate(*args)
        for kind in kinds:
            region = build_region(spec, kind)
            assert region.hole_cells and region.mates and region.rhombi, (args, kind)
            if kind in HALVES:
                assert zeta_module._Plan(region).routes
                assert verify_injection(spec, kind)["tilings"] > 0
                checked += 1
    assert checked == 3


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


def test_verify_injection_leaves_its_plan_to_zeta(monkeypatch):
    # plans have one constructor, _plan: a tiling of the region verify_injection
    # checked maps with its plan, and an undefined map leaves the kept plan alone
    zeta_module = sys.modules["holeyhex.zeta"]
    plan, built = zeta_module._Plan, []
    monkeypatch.setattr(zeta_module, "_Plan", lambda region: built.append(region) or plan(region))
    zeta_module._plan.cache_clear()
    spec = validate(*INJECTIVE_SPECS[0])
    assert verify_injection(spec, "lower")["ok"]
    region = build_region(spec, "lower")
    tiling = next(enumerate_tilings(region))
    assert zeta(tiling, region) == plan(region).map(tiling)
    assert built == [region]
    for _ in range(2):  # a raise is not cached: each call builds the plan anew
        with pytest.raises(ValueError, match="fuses"):
            verify_injection(validate(4, 1, [2], [0]), "upper")
    assert len(built) == 3
    zeta(tiling, region)
    assert len(built) == 3


def test_a_tile_set_the_walks_cannot_follow_raises():
    # zeta takes a tiling of its region and raises ValueError on any other tile
    # set; the plan's map, which verify_injection calls on enumerated tilings
    # alone, does not check.  There a walk can find no tile of its chain cell,
    # enter a tile backwards, leave the region before its partner hole or meet
    # its other walk in no tile.  (A ribbon tile missing from the tiling, a
    # slant walk ending in a hole, and a transmitted hole not beside the next
    # ribbon tile or its partner stay checked, though the walk tables reach
    # none of them on any tile set.)
    zeta_module = sys.modules["holeyhex.zeta"]
    not_a_tiling = (ValueError, "the tile set is not a tiling of the lower region")
    region = build_region(validate(4, 1, [-2], [0]), "lower")  # one case (i) pair
    plan = zeta_module._Plan(region)
    assert outcome(plan.map, frozenset()) == (TransmissionError, "walk hit an uncovered cell")
    assert outcome(plan.map, region.rhombi) == \
        (TransmissionError, "walk entered a rhombus backwards")
    assert outcome(zeta, frozenset(), region) == outcome(zeta, region.rhombi, region) == \
        not_a_tiling
    found = {}
    for kind in HALVES:
        for tiling in enumerate_tilings(build_region(unholed(region.spec), kind)):
            assert outcome(zeta, tiling, region) == not_a_tiling, kind
            got = outcome(plan.map, tiling)
            key = kind, got[1] if got[0] is TransmissionError else "mapped"
            found[key] = found.get(key, 0) + 1
    # the lower tilings cover the hole cell; the upper ones no cell of the region
    assert found == {("lower", "walk entered a rhombus backwards"): 9,
                     ("lower", "walk left the region"): 3, ("lower", "mapped"): 2,
                     ("upper", "walk hit an uncovered cell"): 42}
    region = build_region(validate(4, 1, [2], [0]), "lower")  # one case (ii) pair
    plan = zeta_module._Plan(region)
    assert outcome(plan.map, region.rhombi) == \
        (TransmissionError, "boundary paths share 0 rhombi instead of exactly one")
    assert outcome(zeta, region.rhombi, region) == not_a_tiling


def far_tile(tiles, region):
    """The least tile of ``tiles`` with no cell beside a hole of ``region``."""
    return min((tile for tile in tiles if not any(
        cell in region.mates[hole] for hole in region.hole_cells for cell in tile)), key=sorted)


# per construction check of the map, the function a fault replaces and the fault,
# made from that function and the region: a slant walk that ends in a hole, or
# a ribbon that is not the tiling's
CONSTRUCTION_FAULTS = {
    "slant walk ran into a hole":
        ("_walk", lambda walk, region: lambda *args: (walk(*args)[0], min(region.hole_cells))),
    "ribbon rhombus missing from tiling":
        ("_path", lambda path, region: lambda tiles, *args: [min(region.rhombi - tiles, key=sorted)]),
    "ribbon rhombus not adjacent to the hole":
        ("_path", lambda path, region: lambda tiles, *args: [far_tile(tiles, region)]),
    "transmitted hole did not reach its partner":
        ("_path", lambda path, region: lambda *args: []),
}


@pytest.mark.parametrize("message", CONSTRUCTION_FAULTS)
def test_each_construction_check_of_the_map_fires(monkeypatch, capsys, message):
    # the walk tables reach none of these checks on any tile set, so each fault
    # is injected; the CLI reports it as a failed verification
    zeta_module = sys.modules["holeyhex.zeta"]
    spec = validate(6, 2, [2], [-4])  # one case (ii) pair, 319 lower tilings
    name, fault = CONSTRUCTION_FAULTS[message]
    monkeypatch.setattr(zeta_module, name,
                        fault(getattr(zeta_module, name), build_region(spec, "lower")))
    assert outcome(verify_injection, spec, "lower") == (TransmissionError, message)
    assert main(["zeta", "--n", "6", "--m", "2", "--left", "2", "--right=-4"]) == 1
    assert capsys.readouterr() == ("", f"verification failed: {message}\n")


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
