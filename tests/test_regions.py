import math
import random

import pytest

from holeyhex.regions import (HALVES, KINDS, LEFT, RIGHT, SpecValidationError, build_region,
                              check, distance, hexagon_cells, hole_cell_half, induced_holes,
                              lgv_points, merge_induced_holes, neighbors, parse_spec,
                              spec_grid, validate)


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
    assert parse_spec(spec.to_text()) == spec


def test_parse_spec_names_missing_fields():
    with pytest.raises(SpecValidationError, match="missing field m="):
        parse_spec("n=4 L=0 R=2")
    with pytest.raises(SpecValidationError) as info:
        parse_spec("L=0 R=2")
    assert info.value.violations == ["missing field n=", "missing field m="]
    for text, token in (("n=4 m", "'m'"), ("n=4 m=x", "'m=x'"), ("n=4 m=1 Q=3", "'Q=3'")):
        with pytest.raises(SpecValidationError, match=token):
            parse_spec(text)


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
        holes = induced_holes(spec)
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
    for cell in [(0, 1, RIGHT), (3, -2, LEFT)]:
        for other in neighbors(cell):
            assert cell in neighbors(other)


def test_free_half_is_not_a_region_kind():
    # a free-boundary count filters tilings of the full region instead
    with pytest.raises(ValueError, match="unknown region kind 'free_half'"):
        build_region(validate(6, 1, [-2], [2]), "free_half")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_region(validate(4, 1), "sideways")


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
