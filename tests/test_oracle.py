import random
import sys
from fractions import Fraction
from itertools import islice, product, zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from holeyhex import oracle
from holeyhex.arith import product_formula
from holeyhex.matrices import count_region, det_exact, path_matrix
from holeyhex.oracle import (CONSTRAINTS, WINDOW, BudgetExceededError, _column, _columns,
                             _forced, _Sweep, count_families, count_tilings, enumerate_tilings,
                             noncrossing_endpoints, tiling_is_exact_cover)
from holeyhex.regions import (KINDS, LEFT, RIGHT, TriangularRegion, build_region, fused_pairs,
                              lgv_points, neighbors, spec_grid, validate)
from helpers import hexagon_region, path_count


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


def reference_exit_product(x, carry, entering, ends, constraint) -> list:
    """The (weight, next carry, segments) of every way through column x:
    the per-carry product of exit choices that count_families stepped
    through before it moved one path at a time.

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


def reference_enumerate_families_stack(starts, ends, constraint="none"):
    """Yield (paths, weight) for every vertex-disjoint family: the library's
    enumerator before it left for the tests.

    Each path is the full tuple of lattice points it visits.  The column
    steps are reference_exit_product's, searched depth first on an explicit
    stack (no recursion limit).  A node keeps the active paths' trails
    beside its carry and the finished ones on a shared cons list, so its
    cost grows with the active paths, not with all k.
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
        steps = reference_exit_product(x, carry, entering.get(x, ()), ends, constraint)
        for step, nxt, segments in reversed(steps):  # first step's families first
            grown, done = {}, finished
            for i, entry, exit_y in segments:
                trail = trails.get(i, ()) + tuple((x, y) for y in range(entry, exit_y + 1))
                if ends[i][0] == x:
                    done = ((i, trail), done)
                else:
                    grown[i] = trail
            stack.append((x + 1, nxt, grown, done, weight * step))


def reference_family_weight(paths, constraint):
    """Recompute a family's weight from the stored paths (post-hoc check)."""
    if constraint != "weighted_below":
        return 1
    touches = sum(1 for path in paths for (x, y) in path if x == y)
    return 2 ** touches


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
            sum(weight for _, weight in reference_enumerate_families_stack(*points, constraint))


def reference_layer(region, stop):
    """The per-cell transfer sweep that count_tilings' windows replaced, over
    the first ``stop`` of the region's own ``order``: the layer is rebuilt
    once per cell, and hole cells are not in it."""
    _, ahead = region.order
    layer = {0: 1}
    for offsets in ahead[:stop]:
        nxt = {}
        for mask, ways in layer.items():
            if mask & 1:
                nxt[mask >> 1] = nxt.get(mask >> 1, 0) + ways
                continue
            for off in offsets:
                if not mask >> off & 1:
                    key = (mask | 1 << off) >> 1
                    nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer


def reference_count_tilings(region):
    """The per-cell sweep over every cell, mirror-symmetric region or not."""
    return reference_layer(region, len(region.cells)).get(0, 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(region=small_regions())
def test_count_tilings_matches_the_per_cell_sweep(region):
    assert count_tilings(region) == reference_count_tilings(region)


def test_count_tilings_matches_the_per_cell_sweep_on_free_and_fused_regions():
    free = fused = 0
    for spec in spec_grid(6, 2, 2):
        regions = []
        if spec.is_mirror_symmetric:
            regions.append(build_region(spec, "free"))
            free += 1
        if fused_pairs(spec):
            regions.append(build_region(spec, "upper"))
            fused += 1
        for region in regions:
            assert count_tilings(region) == reference_count_tilings(region), \
                (region.kind, spec.to_text())
    assert (free, fused) == (26, 54)
    for spec in (validate(8, 2, [-4], [4]), validate(6, 3, [-2], [2])):  # the benchmark's shapes
        region = build_region(spec, "full")
        assert count_tilings(region) == reference_count_tilings(region), spec.to_text()
    cell = (0, 0, RIGHT)
    empty = TriangularRegion("full", frozenset(), None)
    alone = TriangularRegion("full", frozenset({cell}), None)
    half = TriangularRegion("free", frozenset({cell}), None, frozenset({cell}))
    for region, total in ((empty, 1), (alone, 0), (half, 1)):
        assert count_tilings(region) == reference_count_tilings(region) == total


def test_count_tilings_matches_the_per_cell_sweep_on_mirror_symmetric_regions():
    # count_tilings sweeps these only to their centre line and sums the squares
    symmetric = [spec for spec in spec_grid(6, 2, 2) if spec.is_mirror_symmetric]
    assert (len(symmetric), sum(bool(fused_pairs(spec)) for spec in symmetric)) == (26, 2)
    regions = [build_region(spec, kind) for spec in symmetric for kind in KINDS]
    regions += [build_region(validate(10, 3), "full"), build_region(validate(12, 2), "full")]
    for region in regions:
        assert region.mirror_cut is not None, (region.kind, region.spec.to_text())
        assert count_tilings(region) == reference_count_tilings(region), \
            (region.kind, region.spec.to_text())


def test_the_centre_line_layer_counts_the_free_and_the_full_region():
    # each key of the full region's layer at its centre line is a set of
    # column-0 rhombi crossing the line: the free region covers their left
    # cells with half rhombi, and the full region mirrors each left half
    for spec in spec_grid(6, 2, 2):
        if not spec.is_mirror_symmetric:
            continue
        full = build_region(spec, "full")
        layer = reference_layer(full, full.mirror_cut)
        assert sum(layer.values()) == count_tilings(build_region(spec, "free")), spec.to_text()
        assert sum(ways * ways for ways in layer.values()) == count_tilings(full), spec.to_text()


def grid_regions():
    """Every region of ``spec_grid(8, 2, 2)``: full, lower and upper (fused
    pairs included), and free on the mirrored specs."""
    for spec in spec_grid(8, 2, 2):
        for kind in (*KINDS, "free") if spec.is_mirror_symmetric else KINDS:
            yield build_region(spec, kind)


def test_the_window_sweep_matches_the_per_cell_sweep_on_every_kind():
    kinds, fused, first, last, uneven = {}, 0, 0, 0, 0
    for region in grid_regions():
        assert count_tilings(region) == reference_count_tilings(region), \
            (region.kind, region.spec.to_text())
        kinds[region.kind] = kinds.get(region.kind, 0) + 1
        fused += region.kind == "upper" and bool(fused_pairs(region.spec))
        whole = region.whole or region
        sweep = whole.memo[_Sweep]
        starts = {window.lo for window in sweep.windows}
        ends = {window.lo + window.width - 1 for window in sweep.windows}
        holes = {lo for lo, cell in enumerate(sweep.cells) if cell in region.hole_cells}
        first += bool(holes & starts)
        last += bool(holes & ends)
        uneven += whole.mirror_cut is not None and whole.mirror_cut % WINDOW != 0
    # holes on a window's first and on its last cell, and centre lines that
    # cut a window short, all occur
    assert kinds == {"full": 624, "lower": 624, "upper": 624, "free": 64}
    assert (fused, first, last, uneven) == (286, 1001, 1069, 1249)


def test_a_symmetric_holey_region_squares_its_centre_line_layer():
    # the window sweep stops at the unholed region's centre line, its hole
    # cells covered; its layer's counts square-sum as the per-cell layer's
    # over the region's own order
    seen = 0
    for region in grid_regions():
        if region.whole is None or region.mirror_cut is None:
            continue
        layer = reference_layer(region, region.mirror_cut)
        assert count_tilings(region) == sum(ways * ways for ways in layer.values()), \
            (region.kind, region.spec.to_text())
        seen += 1
    assert seen == 168


def test_every_region_of_a_hexagon_reads_one_set_of_move_tables():
    holey = [build_region(validate(8, 2, left, right), "full")
             for left, right in (([-4], [4]), ([-2], [4]), ([-6, 0], [2, 4]))]
    whole = holey[0].whole
    assert all(region.whole is whole for region in holey)
    count_tilings(holey[0])
    sweep = whole.memo[_Sweep]
    tables = [dict(window) for window in sweep.windows]
    assert sum(map(len, tables)) > 0
    count_tilings(holey[0])  # the same region again finds every pattern in place
    assert [dict(window) for window in sweep.windows] == tables
    for region in holey[1:]:
        count_tilings(region)
        assert whole.memo[_Sweep] is sweep and not region.memo
    count_tilings(whole)
    assert whole.memo[_Sweep] is sweep
    assert [window.lo for window in sweep.windows] == [
        *range(0, whole.mirror_cut, WINDOW), *range(whole.mirror_cut, len(whole.cells), WINDOW)]


def test_count_families_has_no_depth_limit():
    # 1101 columns, far past the interpreter's recursion limit
    points = noncrossing_endpoints(validate(2, 1100), "lower")
    assert count_families(*points, "avoid_diagonal") == 1101 == \
        product_formula("transpose_complement", 2, 1100)
    # the reference at 151 columns, under a limit 100 frames above this test's
    # own depth, which a search recursing once per column would exceed
    points = noncrossing_endpoints(validate(2, 150), "lower")
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert sum(weight for _, weight in
                   reference_enumerate_families_stack(*points, "avoid_diagonal")) == 151
    finally:
        sys.setrecursionlimit(limit)


def reference_slot_column_steps(x, carry, starts, ends, constraint):
    """The k-slot column steps that reference_exit_product replaced.

    ``carry`` holds one entry per path: the height at which it crossed into
    column x, or None while unstarted and after finishing.
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


def to_pairs(x, carry, starts):
    """A k-slot carry at column x as (carry pairs, entering pairs)."""
    pairs = sorted((h, i) for i, h in enumerate(carry) if h is not None)
    return tuple(pairs), tuple(sorted((sy, i) for i, (sx, sy) in enumerate(starts) if sx == x))


def to_slots(pairs, k):
    """(height, path) pairs as a k-slot carry."""
    slots = [None] * k
    for h, i in pairs:
        slots[i] = h
    return tuple(slots)


def reference_column_steps(x, carry, starts, ends, constraint):
    """The recursive search over exit assignments that reference_exit_product replaced."""
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
    # a path carried into the column it starts in has no pair encoding; no
    # sweep reaches it (see test_no_sweep_carries_a_path_into_its_start_column)
    assume(all(carry[i] is None for i, (sx, _) in enumerate(starts) if sx == x))
    slots = list(reference_slot_column_steps(x, carry, starts, ends, constraint))
    want = list(reference_column_steps(x, carry, starts, ends, constraint))
    assert [(w, nxt) for w, nxt, _ in slots] == [(w, nxt) for w, nxt, _ in want]
    pairs, entering = to_pairs(x, carry, starts)
    got = reference_exit_product(x, pairs, entering, ends, constraint)
    assert [(w, to_slots(nxt, len(starts)), list(segments)) for w, nxt, segments in got] == slots
    # each segment climbs from the path's entry to the exit the search chose
    for (_, _, segments), (_, _, moves) in zip(slots, want):
        assert sorted((i, y) for i, _, y in segments) == sorted((i, y) for i, y, _ in moves)
        for i, entry, _ in segments:
            assert entry == (starts[i][1] if starts[i][0] == x else carry[i])
    # moving one path at a time gives the product's weights summed by next carry
    summed = {}
    for w, nxt, _ in got:
        summed[nxt] = summed.get(nxt, 0) + w
    assert _column(x, {pairs: 1}, entering, ends, constraint) == summed


def sweep(layer, steps):
    """The next {carry: weighted count} layer of a column sweep."""
    nxt = {}
    for carry, ways in layer.items():
        for weight, after, _ in steps(carry):
            nxt[after] = nxt.get(after, 0) + weight * ways
    return nxt


def test_no_sweep_carries_a_path_into_its_start_column():
    # checked on every layer the k-slot sweep reaches; the pair sweep reaches the same layers
    for spec in spec_grid(6, 3, 2):
        for kind in ("lower", "upper"):
            pictures = [lgv_points(spec, kind)]
            noncrossing = noncrossing_endpoints(spec, kind)
            if noncrossing not in (None, pictures[0]):
                pictures.append(noncrossing)
            for starts, ends in pictures:
                spans = _columns(starts, ends, "none")
                if spans is None:
                    continue
                columns, entering = spans
                for constraint in CONSTRAINTS:
                    slots, pairs = {(None,) * len(starts): 1}, {(): 1}
                    for x in columns:
                        assert {to_slots(carry, len(starts)): ways
                                for carry, ways in pairs.items()} == slots
                        for carry in slots:
                            assert all(carry[i] is None for i, (sx, _) in enumerate(starts)
                                       if sx == x)
                        slots = sweep(slots, lambda carry: reference_slot_column_steps(
                            x, carry, starts, ends, constraint))
                        pairs = _column(x, pairs, entering.get(x, ()), ends, constraint)
                    assert slots.get((None,) * len(starts), 0) == pairs.get((), 0) == \
                        count_families(starts, ends, constraint)


@st.composite
def endpoint_sets(draw):
    """k <= 4 paths with starts near the origin and ends near their starts.

    Now and then two paths share a start, or an end lies left of or below
    its start (a family with no monotone route).
    """
    starts, ends = [], []
    for _ in range(draw(st.integers(0, 4))):
        if starts and draw(st.integers(0, 4)) == 0:
            start = draw(st.sampled_from(starts))
        else:
            start = (draw(st.integers(-2, 3)), draw(st.integers(-2, 3)))
        starts.append(start)
        ends.append((start[0] + draw(st.integers(-1, 4)), start[1] + draw(st.integers(-1, 4))))
    return starts, ends


def reference_count_families(starts, ends, constraint):
    """The column sweep over reference_exit_product that _column replaced."""
    spans = _columns(starts, ends, constraint)
    if spans is None:
        return 0
    columns, entering = spans
    layer = {(): 1}
    for x in columns:
        layer = sweep(layer, lambda carry: reference_exit_product(
            x, carry, entering.get(x, ()), ends, constraint))
    return layer.get((), 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(points=endpoint_sets(), constraint=st.sampled_from(CONSTRAINTS))
@example(points=([(0, 0), (0, 0)], [(2, 2), (3, 3)]), constraint="none")
@example(points=([(0, 1), (1, 0)], [(1, 2), (2, 1)]), constraint="weighted_below")
@example(points=([(0, 0), (1, 2)], [(2, -1), (3, 4)]), constraint="avoid_diagonal")
def test_count_families_matches_the_exit_product_sweep(points, constraint):
    assert count_families(*points, constraint) == reference_count_families(*points, constraint)


def test_count_families_on_the_largest_benchmark_region():
    # the weighted upper half of n = 12, m = 4, as the benchmark's family ops count it
    spec = validate(12, 4)
    assert count_families(*noncrossing_endpoints(spec, "upper"), "weighted_below") == \
        215334590359516790625 == count_region(spec, "upper_weighted").value


def reference_enumerate_families(starts, ends, constraint):
    """The recursive column sweep that reference_enumerate_families_stack replaced."""
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
            got = list(reference_enumerate_families_stack(*points, constraint))
            assert got == list(reference_enumerate_families(*points, constraint))


def test_budget_cap():
    with pytest.raises(BudgetExceededError):
        list(enumerate_tilings(hexagon_region(4, 2), budget=10))


def test_enumerate_tilings_has_no_depth_limit():
    # 1001 rhombi, one branch node each, far past the interpreter's recursion limit
    region = build_region(validate(2, 250), "lower")
    assert sum(1 for _ in enumerate_tilings(region)) == 251 == count_tilings(region)


def reference_enumerate_index_tilings(cells, partners, budget):
    """The recursive search over an absolute mask that enumerate_tilings replaced."""
    total = len(cells)
    nodes = 0
    chosen = []

    def advance(covered, lo):
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


def reference_tilings(region, budget=10 ** 8):
    """The recursive search's tilings of the region, in its order; a
    free-edge cell is also its own partner, its half rhombus.  A budget
    error's index pairs become their tiles, one tile per pair."""
    cells, _ = region.order
    index = {cell: i for i, cell in enumerate(cells)}
    partners = [sorted([index[nb] for nb in neighbors(cell) if nb in index]
                       + ([i] if cell in region.free_edge else []))
                for i, cell in enumerate(cells)]
    rhombus = {(i, j): frozenset((cells[i], cells[j])) for i, nbs in enumerate(partners) for j in nbs}
    try:
        for pairs in reference_enumerate_index_tilings(cells, partners, budget):
            yield frozenset(map(rhombus.__getitem__, pairs))
    except BudgetExceededError as exc:
        raise BudgetExceededError(exc.nodes, tuple(map(rhombus.__getitem__, exc.partial))) from None


def test_enumerate_tilings_matches_the_recursive_search():
    # the same tilings in the same order; each region is capped at its first
    # 500 tilings (88,000 in all; a 20,000 cap means 1.5 million and minutes)
    for spec in spec_grid(6, 2, 2):
        for kind in KINDS:
            region = build_region(spec, kind)
            got = islice(enumerate_tilings(region), 500)
            assert all(a == b for a, b in zip_longest(got, islice(reference_tilings(region), 500)))


def test_budget_errors_match_the_recursive_search():
    # the same node count and partial choice when the budget runs out
    for args in [(4, 2, [], []), (4, 1, [0], [2]), (6, 2, [-2, 2], [0, 4])]:
        region = build_region(validate(*args), "full")
        for budget in (1, 10, 57, 300):
            with pytest.raises(BudgetExceededError) as got:
                list(enumerate_tilings(region, budget))
            with pytest.raises(BudgetExceededError) as want:
                list(reference_tilings(region, budget))
            assert (got.value.nodes, got.value.partial) == (want.value.nodes, want.value.partial)


# the search's shapes: a rhombus hexagon, a holey full hexagon, two holey
# halves with forced cells among their holes, and a free region with few
# enough tilings to finish inside the budgets
SEARCH_REGIONS = [
    ((4, 2, [], []), "full"),
    ((6, 2, [-2, 2], [0, 4]), "full"),
    ((6, 3, [-4, 2], [-2, 4]), "lower"),
    ((6, 2, [-4, 4], [-2, 0]), "upper"),
    ((4, 1, [-2], [2]), "free"),
]


def search_region(args, kind):
    return build_region(validate(*args), kind)


def outcome_of(search, region, budget):
    """A search's tilings, or the (nodes, partial) of its budget error."""
    try:
        return list(search(region, budget))
    except BudgetExceededError as exc:
        return exc.nodes, exc.partial


def test_every_budget_stops_where_the_recursive_search_stops():
    # for every budget up to 400 both searches raise after the same node
    # with the same partial choice, or both finish with the same tilings;
    # a forced cell taken in place still counts as one branch node
    finished = 0
    for args, kind in SEARCH_REGIONS:
        region = search_region(args, kind)
        for budget in range(1, 401):
            got, want = (outcome_of(search, region, budget)
                         for search in (enumerate_tilings, reference_tilings))
            assert got == want, (args, kind, budget)
            finished += isinstance(got, list)
    assert finished == 275  # the free region's search takes 126 nodes, the others over 400


def test_taking_forced_cells_in_place_changes_no_tiling(monkeypatch):
    # with no cell forced every cell branches through the stack; the
    # tilings and their order stay the same
    for args, kind in SEARCH_REGIONS:
        region = search_region(args, kind)
        got = list(islice(enumerate_tilings(region), 2000))
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_forced", lambda ahead: [0] * (len(ahead) + 1))
            assert got == list(islice(enumerate_tilings(region), 2000)), (args, kind)


def test_forced_cells_are_pinned():
    _, ahead = search_region((6, 3, [-4, 2], [-2, 4]), "lower").order
    forced = _forced(ahead)
    assert (sum(map(bool, forced)), len(ahead), forced[-1]) == (43, 98, 0)
    for lo, off in enumerate(forced[:-1]):
        if off:
            assert ahead[lo] == [off]
            assert sum(lo + off - i in ahead[i] for i in range(lo + off)) == 1


def test_count_families_tiny_hexagon():
    starts = [(0, 1), (1, 0)]
    ends = [(1, 2), (2, 1)]
    assert count_families(starts, ends, "none") == 3


def test_the_empty_family_is_counted_once():
    # det_exact([]) is 1: zero paths form one (empty) family
    for constraint in CONSTRAINTS:
        assert count_families([], [], constraint) == 1
        assert list(reference_enumerate_families_stack([], [], constraint)) == [((), 1)]


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
        rows = [[Fraction(path_count(s, e, "none")) for e in ends] for s in starts]
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
        for paths, weight in reference_enumerate_families_stack(starts, ends, constraint):
            assert weight == reference_family_weight(paths, constraint)
            flat = [v for path in paths for v in path]
            assert len(flat) == len(set(flat))  # vertex-disjoint
            total += weight
        assert total == count_families(starts, ends, constraint)


def test_count_symmetric():
    # horizontally symmetric tilings are the lower half's, vertically symmetric
    # ones the free region's
    spec = validate(2, 1)
    assert count_tilings(build_region(spec, "lower")) == 2
    assert count_tilings(build_region(spec, "free")) == 10
    with pytest.raises(ValueError, match="R = -L"):
        build_region(validate(4, 1, [-2], [0]), "free")
    with pytest.raises(ValueError):
        build_region(spec, "diagonal")


def test_count_families_rejects_unpaired_points_and_unknown_constraints():
    with pytest.raises(ValueError, match="^starts and ends must pair up$"):
        count_families([(1, 0), (2, 0)], [(3, 2)], "none")
    with pytest.raises(ValueError, match="^unknown constraint 'above'$"):
        count_families([(1, 0)], [(3, 2)], "above")


def test_count_free_boundary():
    assert count_tilings(build_region(validate(2, 1), "free")) == 10 == \
        product_formula("vertical_symmetric", 2, 1)
    spec = validate(4, 1, [-2], [2])
    assert count_tilings(build_region(spec, "free")) == count_region(spec, "upper_weighted").value
    # out of reach of filtering the full hexagon's 34,763,300 tilings
    assert count_tilings(build_region(validate(8, 1), "free")) == 24310 == \
        product_formula("vertical_symmetric", 8, 1)
    # the free region exists for any R = -L; a left hole right of centre faces
    # no free boundary, and the weighted upper half (9) does not count it
    spec = validate(4, 1, [2], [-2])
    assert count_tilings(build_region(spec, "free")) == 3
    assert count_region(spec, "upper_weighted").value == 9


def reflect_horizontal(cell):
    c, h, o = cell
    return (c, -h, o)


def reflect_vertical(cell):
    c, h, o = cell
    return (-c, h, LEFT if o == RIGHT else RIGHT)


def reference_count_symmetric(spec, axis):
    """The enumerate-and-filter count that the free-region sweep replaced."""
    reflect = {"horizontal": reflect_horizontal, "vertical": reflect_vertical}[axis]
    count = 0
    for tiling in enumerate_tilings(build_region(spec, "full")):
        if all(frozenset(reflect(cell) for cell in rhombus) in tiling for rhombus in tiling):
            count += 1
    return count


def test_count_symmetric_matches_enumerate_and_filter():
    checked = 0
    for spec in spec_grid(4, 1, 2):
        assert count_tilings(build_region(spec, "lower")) == \
            reference_count_symmetric(spec, "horizontal"), spec.to_text()
        if spec.is_mirror_symmetric:
            assert count_tilings(build_region(spec, "free")) == \
                reference_count_symmetric(spec, "vertical"), spec.to_text()
            checked += 1
    assert checked == 4


def test_horizontal_symmetric_count_is_the_lower_count():
    for spec in spec_grid(6, 2, 2):
        assert count_tilings(build_region(spec, "lower")) == count_region(spec, "lower").value, \
            spec.to_text()


def test_free_boundary_count_is_the_free_count():
    mirrored = [spec for spec in spec_grid(10, 2, 2)
                if spec.is_mirror_symmetric and all(x < 0 for x in spec.left)]
    assert len(mirrored) == 50
    for spec in mirrored:
        assert count_tilings(build_region(spec, "free")) == count_region(spec, "free").value, \
            spec.to_text()


def test_free_region_tilings_unfold_to_distinct_full_tilings():
    unfolded = 0
    for spec in spec_grid(6, 1, 2):
        if not spec.is_mirror_symmetric:
            continue
        free, full = build_region(spec, "free"), build_region(spec, "full")
        images, tilings = set(), 0
        for tiling in enumerate_tilings(free):
            tilings += 1
            assert tiling_is_exact_cover(free, tiling), spec.to_text()
            image = set()
            for rhombus in tiling:
                mirror = frozenset(map(reflect_vertical, rhombus))
                if len(rhombus) == 1:  # the half rhombus on the free edge
                    (cell,) = rhombus
                    assert cell in free.free_edge
                    image.add(rhombus | mirror)
                else:
                    image |= {rhombus, mirror}
            assert tiling_is_exact_cover(full, image), spec.to_text()
            images.add(frozenset(image))
        assert len(images) == tilings == count_tilings(free), spec.to_text()
        unfolded += tilings
    assert unfolded == 6359  # over the 13 mirrored specs


def reference_is_exact_cover(region, tiling):
    """The per-rhombus cover check that the set algebra on region.rhombi replaced;
    a free-edge cell may be covered alone, by its half rhombus."""
    seen = set()
    for rhombus in tiling:
        pair = tuple(rhombus)
        half = len(pair) == 1 and pair[0] in region.free_edge
        if not half and (len(pair) != 2 or pair[1] not in neighbors(pair[0])):
            return False
        for cell in pair:
            if cell in seen or cell not in region.cells:
                return False
            seen.add(cell)
    return len(seen) == len(region.cells)


def corrupted_tilings(region, tiling):
    """Seven ways to break an exact cover, each as a set of rhombi or a list."""
    def right_first(rhombus):
        return sorted(rhombus, key=lambda cell: cell[2] != RIGHT)

    tiles = sorted(tiling, key=sorted)
    first = tiles[0]
    a, b = right_first(first)
    own, cell, nb = next((rhombus, cell, nb) for rhombus in tiles for cell in sorted(rhombus)
                         for nb in neighbors(cell) if nb not in region.cells)
    yield tiling - {first}  # a rhombus dropped
    yield tiles + [first]  # a rhombus duplicated, passed as a list
    yield tiles[1:] + [tiles[1]]  # a duplicate in place of a dropped rhombus
    yield tiling | {frozenset((cell, nb))}  # an extra rhombus
    yield tiling - {first} | {frozenset((a, b, nb))}  # a three-cell "rhombus"
    # a pair with a cell outside the region in place of the cell's rhombus
    yield tiling - {own} | {frozenset((cell, nb))}
    if len(tiles) > 1:
        # two same-orientation pairs in place of two rhombi: each cell once,
        # but neither pair shares an edge
        c, d = right_first(tiles[1])
        yield tiling - {first, tiles[1]} | {frozenset((a, c)), frozenset((b, d))}


def corrupted_free_tilings(region, tiling):
    """Three ways to break a free region's exact cover with half rhombi."""
    tiles = sorted(tiling, key=sorted)
    half = next(rhombus for rhombus in tiles if len(rhombus) == 1)
    inner = next(rhombus for rhombus in tiles if not rhombus & region.free_edge)
    yield tiling - {half}  # a half rhombus dropped
    yield tiles + [half]  # a half rhombus duplicated, passed as a list
    # the half rhombi of two cells off the free edge in place of their rhombus
    yield tiling - {inner} | {frozenset((cell,)) for cell in inner}


def test_exact_cover_matches_the_per_rhombus_reference():
    # each region is capped at its first 2000 tilings (14,871 in all); the
    # unholed n = 4, m = 2 hexagon alone has 232,848, which take 20 s
    compared = corrupted = 0
    for spec in spec_grid(4, 2, 2):
        for kind in KINDS:
            region = build_region(spec, kind)
            for index, tiling in enumerate(islice(enumerate_tilings(region), 2000)):
                assert tiling_is_exact_cover(region, tiling)
                assert reference_is_exact_cover(region, tiling)
                compared += 1
                if index < 3:
                    for bad in corrupted_tilings(region, tiling):
                        assert not tiling_is_exact_cover(region, bad)
                        assert not reference_is_exact_cover(region, bad)
                        corrupted += 1
    assert (compared, corrupted) == (14871, 973)
    # every tiling of the free regions of the mirrored specs, and their half rhombi
    compared = corrupted = 0
    for spec in spec_grid(4, 2, 2):
        if not spec.is_mirror_symmetric:
            continue
        region = build_region(spec, "free")
        for index, tiling in enumerate(enumerate_tilings(region)):
            assert tiling_is_exact_cover(region, tiling)
            assert reference_is_exact_cover(region, tiling)
            compared += 1
            if index < 3:
                for bad in corrupted_free_tilings(region, tiling):
                    assert not tiling_is_exact_cover(region, bad)
                    assert not reference_is_exact_cover(region, bad)
                    corrupted += 1
    assert (compared, corrupted) == (3341, 72)


def test_region_rhombi_are_the_edge_sharing_pairs():
    # and a free region's half rhombi, one per free-edge cell
    for spec in spec_grid(4, 2, 2):
        regions = [build_region(spec, kind) for kind in KINDS]
        if spec.is_mirror_symmetric:
            regions.append(build_region(spec, "free"))
        for region in regions:
            assert region.rhombi == {frozenset((a, b)) for a in region.cells
                                     for b in neighbors(a) if b in region.cells} | \
                {frozenset((cell,)) for cell in region.free_edge}
