import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holeyhex.arith import product_formula
from holeyhex.matrices import count_region, det_exact, path_count, path_matrix
from holeyhex.oracle import (CONSTRAINTS, BudgetExceededError, _column_steps,
                             count_families, count_free_boundary, count_symmetric,
                             count_tilings, enumerate_families, enumerate_tilings,
                             family_weight, noncrossing_endpoints, tiling_is_exact_cover)
from holeyhex.regions import (TriangularRegion, build_region, hexagon_cells,
                              lgv_points, validate)


def hexagon_region(n, m):
    return TriangularRegion("full", hexagon_cells(n, m), frozenset(), None)


def test_enumerate_small_hexagons():
    for n, m, total in ((1, 1, 3), (2, 1, 20)):
        region = hexagon_region(n, m)
        assert len(list(enumerate_tilings(region))) == total == count_tilings(region)


def test_enumerated_tilings_are_exact_covers_and_deterministic():
    region = build_region(validate(4, 1, [0], [2]), "full")
    first = list(enumerate_tilings(region))
    assert len(first) == 112
    assert all(tiling_is_exact_cover(region, t) for t in first)
    assert first == list(enumerate_tilings(region))
    assert len(set(first)) == 112


@st.composite
def small_regions(draw):
    """Regions with n <= 6, m <= 2 and p <= 2 holes of each orientation.

    Full hexagons stay at n * m <= 4 and halves below (6, 2): beyond that
    the enumerators take seconds per example.
    """
    kind = draw(st.sampled_from(["full", "lower", "upper"]))
    shapes = [(2, 1), (2, 2), (4, 1)]
    if kind != "full":
        shapes += [(4, 2), (6, 1)]
    n, m = draw(st.sampled_from(shapes))
    positions = list(range(-n + 2, n - 1, 2))
    p = draw(st.integers(0, min(2, len(positions) // 2)))
    chosen = draw(st.permutations(positions))[:2 * p]
    return build_region(validate(n, m, chosen[:p], chosen[p:]), kind)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(region=small_regions())
@example(region=build_region(validate(2, 1), "full"))
@example(region=build_region(validate(4, 1, [-2], [2]), "lower"))
@example(region=build_region(validate(4, 1, [0], [2]), "full"))
def test_count_tilings_matches_enumeration(region):
    assert count_tilings(region) == sum(1 for _ in enumerate_tilings(region))
    half = "upper" if region.kind == "upper" else "lower"
    points = noncrossing_endpoints(region.spec, half)
    if points is None:
        return
    for constraint in CONSTRAINTS:
        assert count_families(*points, constraint) == \
            sum(weight for _, weight in enumerate_families(*points, constraint))


def test_count_families_has_no_depth_limit():
    # 1101 columns, far past the interpreter's recursion limit
    points = noncrossing_endpoints(validate(2, 1100), "lower")
    assert count_families(*points, "avoid_diagonal") == 1101 == \
        product_formula("transpose_complement", 2, 1100)
    assert sum(weight for _, weight in enumerate_families(*points, "avoid_diagonal")) == 1101


def reference_column_steps(x, carry, starts, ends, constraint):
    """The recursive search over exit assignments that _column_steps replaced."""
    actives = []
    for i, (sx, sy) in enumerate(starts):
        if sx == x:
            if carry[i] is not None:
                return
            actives.append((i, sy, ends[i]))
        elif carry[i] is not None:
            actives.append((i, carry[i], ends[i]))
    for weight, moves in reference_column_options(x, actives, constraint):
        nxt = list(carry)
        for idx, exit_y, finished in moves:
            nxt[idx] = None if finished else exit_y
        yield weight, tuple(nxt), moves


def reference_column_options(x, actives, constraint):
    actives = sorted(actives, key=lambda item: item[1])
    for (_, y1, _), (_, y2, _) in zip(actives, actives[1:]):
        if y1 == y2:
            return  # two paths entering at one vertex

    def options(pos: int):
        if pos == len(actives):
            yield 1, []
            return
        idx, entry, (ex, ey) = actives[pos]
        cap = ey
        if pos + 1 < len(actives):
            cap = min(cap, actives[pos + 1][1] - 1)
        if constraint == "weighted_below":
            cap = min(cap, x)
        finishing = ex == x
        lo = hi = None
        if finishing:
            lo = hi = ey  # must climb exactly to its end and stop
            if ey > cap or ey < entry:
                return
        else:
            lo, hi = entry, cap
        for exit_y in range(lo, hi + 1):
            if constraint == "avoid_diagonal" and entry <= x <= exit_y:
                continue
            weight = 2 if (constraint == "weighted_below" and exit_y == x) else 1
            for rest_w, rest in options(pos + 1):
                yield weight * rest_w, [(idx, exit_y, finishing)] + rest

    yield from options(0)


@st.composite
def column_states(draw):
    """Column x and k <= 4 paths that start in it, cross into it or idle.

    Entry heights are mostly distinct and ends lie near them, so most
    columns admit several steps; now and then a path that starts in x is
    also carried, or an idle path's end lies left of or below its start.
    """
    k = draw(st.integers(1, 4))
    x = draw(st.integers(-1, 3))
    heights = draw(st.lists(st.integers(x - 4, x + 1), min_size=k, max_size=k,
                            unique=draw(st.integers(0, 5)) > 0))
    starts, ends, carry = [], [], []
    for h in heights:
        role = draw(st.sampled_from(["carried", "starting", "starting", "idle"]))
        sx = {"carried": x - draw(st.integers(1, 2)), "starting": x,
              "idle": x + draw(st.sampled_from([-2, -1, 1, 2]))}[role]
        starts.append((sx, h - draw(st.integers(0, 2)) if role == "carried" else h))
        rise = draw(st.integers(-1 if role == "idle" else 0, 4))
        ends.append((x + draw(st.integers(-1, 2)), h + rise))
        carry.append(h if role == "carried" or draw(st.integers(0, 9)) == 0 else None)
    return x, tuple(carry), starts, ends


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(state=column_states(), constraint=st.sampled_from(CONSTRAINTS))
@example(state=(1, (None, None), [(1, 0), (1, 0)], [(2, 2), (3, 3)]), constraint="none")
@example(state=(2, (0, None), [(1, 0), (2, -1)], [(3, 3), (4, 5)]), constraint="weighted_below")
def test_column_steps_match_the_recursive_search(state, constraint):
    x, carry, starts, ends = state
    got = list(_column_steps(x, carry, starts, ends, constraint))
    want = list(reference_column_steps(x, carry, starts, ends, constraint))
    assert [(w, nxt) for w, nxt, _ in got] == [(w, nxt) for w, nxt, _ in want]
    # each segment climbs from the path's entry to the exit the search chose
    for (_, _, segments), (_, _, moves) in zip(got, want):
        assert sorted((i, y) for i, _, y in segments) == sorted((i, y) for i, y, _ in moves)
        for i, entry, _ in segments:
            assert entry == (starts[i][1] if starts[i][0] == x else carry[i])


def reference_enumerate_families(starts, ends, constraint):
    """The recursive column sweep that enumerate_families replaced."""
    if any(ex < ax or ey < ay for (ax, ay), (ex, ey) in zip(starts, ends)):
        return
    xmax = max(x for x, _ in ends)

    def sweep(x, carry, trails):
        if x > xmax:
            if all(c is None for c in carry):
                yield trails, 1
            return
        for weight, nxt, moves in reference_column_steps(x, carry, starts, ends, constraint):
            grown = list(trails)
            for idx, exit_y, _ in moves:
                entry = starts[idx][1] if starts[idx][0] == x else carry[idx]
                grown[idx] = grown[idx] + tuple((x, y) for y in range(entry, exit_y + 1))
            for rest, w in sweep(x + 1, nxt, tuple(grown)):
                yield rest, weight * w

    yield from sweep(min(x for x, _ in starts), (None,) * len(starts), ((),) * len(starts))


def test_enumerate_families_matches_the_recursive_sweep():
    # the same families with the same weights, in the same order
    pictures = [lgv_points(validate(2, 1), "full"), lgv_points(validate(4, 1, [2], [0]), "lower")]
    for args in [(4, 1, [0], [2]), (4, 2, [-2], [2]), (6, 1, [-4], [2]), (4, 1, [2], [0])]:
        pictures.append(noncrossing_endpoints(validate(*args), "lower"))
    for points in pictures:
        for constraint in CONSTRAINTS:
            got = list(enumerate_families(*points, constraint))
            assert got == list(reference_enumerate_families(*points, constraint))


def test_budget_cap():
    with pytest.raises(BudgetExceededError):
        list(enumerate_tilings(hexagon_region(4, 2), budget=10))


def test_count_families_tiny_hexagon():
    starts = [(0, 1), (1, 0)]
    ends = [(1, 2), (2, 1)]
    assert count_families(starts, ends, "none") == 3


def test_count_families_half_regions():
    spec = validate(2, 1)
    starts, ends = lgv_points(spec, "lower")
    assert count_families(starts, ends, "avoid_diagonal") == 2
    assert count_families(starts, ends, "weighted_below") == 10


def test_families_match_determinants():
    rng = random.Random(12)
    for _ in range(8):
        n = rng.choice([2, 4, 6])
        m = rng.randint(1, 2)
        p = rng.choice([0, 1])
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        spec = validate(n, m, chosen[:p], chosen[p:])
        points = noncrossing_endpoints(spec, "lower")
        for kind, constraint in (("lower", "avoid_diagonal"),
                                 ("upper", "weighted_below")):
            det = det_exact(path_matrix(spec, kind))
            counted = 0 if points is None else count_families(*points, constraint)
            assert counted == abs(det)


def test_noncrossing_assignment_for_toward_holes():
    # a right hole left of a left hole swaps the hole points with the
    # nearest boundary pair; the identity assignment admits no path at all
    spec = validate(4, 1, [2], [0])
    starts, ends = lgv_points(spec, "lower")
    assert count_families(starts, ends, "avoid_diagonal") == 0
    starts, ends = noncrossing_endpoints(spec, "lower")
    assert ends == [(3, 2), (5, 4)]  # boundary start feeds the hole end
    assert count_families(starts, ends, "avoid_diagonal") == \
        abs(det_exact(path_matrix(spec, "lower")))
    # stacked toward holes outnumbering the boundary paths leave nothing
    assert noncrossing_endpoints(validate(6, 1, [0, 2], [-4, -2]), "lower") is None
    assert count_region(validate(6, 1, [0, 2], [-4, -2]), "lower").value == 0


def test_full_point_determinant_counts_tilings():
    # the glued full picture holds at determinant level, holes included
    for args in [(2, 1, [], []), (4, 1, [0], [2]), (6, 1, [-4], [2]),
                 (6, 1, [-2, 2], [-4, 0])]:
        spec = validate(*args)
        starts, ends = lgv_points(spec, "full")
        rows = [[Fraction(path_count(s, e, "plain")) for e in ends] for s in starts]
        assert abs(det_exact(rows)) == count_tilings(build_region(spec, "full"))


def test_full_point_identity_families_only_for_unholed():
    spec = validate(4, 1)
    starts, ends = lgv_points(spec, "full")
    assert count_families(starts, ends, "none") == product_formula("box", 4, 1)
    # with holes the identity assignment no longer matches the tiling count;
    # only the determinant does (see test above)
    holey = validate(4, 1, [0], [2])
    starts, ends = lgv_points(holey, "full")
    assert count_families(starts, ends, "none") == 110
    assert count_tilings(build_region(holey, "full")) == 112


def test_box_formula_from_families():
    for n in (2, 4):
        for m in (1, 2):
            spec = validate(n, m)
            starts, ends = lgv_points(spec, "full")
            assert count_families(starts, ends, "none") == product_formula("box", n, m)


def test_enumerate_families_weights_two_ways():
    spec = validate(4, 1, [0], [2])
    starts, ends = lgv_points(spec, "lower")
    for constraint in ("avoid_diagonal", "weighted_below"):
        total = 0
        for paths, weight in enumerate_families(starts, ends, constraint):
            assert weight == family_weight(paths, constraint)
            flat = [v for path in paths for v in path]
            assert len(flat) == len(set(flat))  # vertex-disjoint
            total += weight
        assert total == count_families(starts, ends, constraint)


def test_count_symmetric():
    spec = validate(2, 1)
    assert count_symmetric(spec, "horizontal") == 2
    assert count_symmetric(spec, "vertical") == 10
    with pytest.raises(ValueError, match="R = -L"):
        count_symmetric(validate(4, 1, [-2], [0]), "vertical")
    with pytest.raises(ValueError):
        count_symmetric(spec, "diagonal")


def test_count_free_boundary():
    assert count_free_boundary(2, 1, []) == 10
    assert count_free_boundary(2, 1, []) == product_formula("vertical_symmetric", 2, 1)
    from holeyhex.matrices import count_region
    assert count_free_boundary(4, 1, [-2]) == \
        count_region(validate(4, 1, [-2], [2]), "upper_weighted").value
