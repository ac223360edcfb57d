import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holeyhex import matrices
from holeyhex.arith import GammaPoleError, binomial, hyp_terminating, product_formula
from holeyhex.matrices import (COUNT_KINDS, HALF, _LU_GAMMA_ARGS, _boundary_steps, _record,
                               closed_form_entry, count_region, det_exact, gamma_product,
                               hole_matrix, hole_matrix_entry, path_matrix)
from holeyhex.oracle import count_families, count_tilings, noncrossing_endpoints
from holeyhex.regions import (HALVES, RegionSpec, build_region, lgv_points, spec_grid,
                              validate)
from helpers import outcome, path_count, unholed
from identity_checks import reference_gamma_ratio

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None)


def brute_paths(start, end):
    """All monotone paths as vertex tuples (tiny grids only)."""
    (a, b), (c, d) = start, end
    if a == c and b == d:
        return [((a, b),)]
    out = []
    if a < c:
        out += [((a, b),) + rest for rest in brute_paths((a + 1, b), end)]
    if b < d:
        out += [((a, b),) + rest for rest in brute_paths((a, b + 1), end)]
    return out


def test_path_count_plain():
    assert path_count((0, 0), (2, 1), "none") == 3
    assert path_count((0, 0), (-1, 0), "none") == 0


def test_path_count_avoid_diagonal_against_enumeration():
    for start, end in [((1, 0), (2, 1)), ((1, 0), (4, 3)), ((2, 1), (5, 2))]:
        expected = sum(1 for p in brute_paths(start, end)
                       if all(x != y for x, y in p))
        assert path_count(start, end, "avoid_diagonal") == expected
    assert path_count((1, 0), (2, 1), "avoid_diagonal") == 1


def test_path_count_weighted_against_enumeration():
    for start, end in [((6, 5), (7, 6)), ((1, 0), (4, 3)), ((3, 2), (6, 5))]:
        expected = 0
        for p in brute_paths(start, end):
            if any(y > x for x, y in p):
                continue
            expected += 2 ** sum(1 for x, y in p if x == y)
        assert path_count(start, end, "weighted_below") == expected
    assert path_count((6, 5), (7, 6), "weighted_below") == 3


def test_path_count_rejects_an_unknown_variant():
    with pytest.raises(ValueError, match="^unknown path count variant 'above'$"):
        path_count((1, 0), (2, 1), "above")


def test_path_matrix_values():
    assert path_matrix(validate(2, 1), "lower") == [[2]]
    spec = validate(4, 1, [0], [2])
    assert path_matrix(spec, "lower") == [[14, 5], [2, 1]]
    assert path_matrix(spec, "upper") == [[126, 35], [10, 3]]


@st.composite
def path_matrix_specs(draw, max_n=200):
    """Valid specs with n <= max_n, 1 <= m <= n and p <= 3, drawn to reach the
    zero binomials: m close to n, a hole pair at the edges +-(n - 2), and
    right holes left of left holes (hole-to-hole T < 0, or k > T)."""
    n = 2 * draw(st.integers(1, max_n // 2))
    m = draw(st.integers(1, n) | st.integers(max(1, n - 3), n))
    positions = list(range(-n + 2, n - 1, 2))
    p = draw(st.integers(0, min(3, len(positions) // 2)))
    edge = draw(st.sampled_from([0, 1, -1])) if p else 0
    left, right = ([edge * (n - 2)], [-edge * (n - 2)]) if edge else ([], [])
    inner = positions[1:-1] if edge else positions
    k = p - len(left)
    chosen = draw(st.lists(st.sampled_from(inner), min_size=2 * k, max_size=2 * k, unique=True))
    return validate(n, m, left + chosen[:k], right + chosen[k:])


@settings(DIFFERENTIAL, max_examples=25)
@given(spec=path_matrix_specs())
@example(spec=validate(2, 2))
@example(spec=validate(4, 1, [0], [2]))
@example(spec=validate(10, 3, [-6, 2], [-2, 6]))
@example(spec=validate(12, 2, [4], [-4]))
@example(spec=validate(200, 200, [198], [-198]))              # right hole left of the left one
@example(spec=validate(60, 58, [-58, 0, 4], [-2, 6, 58]))
@example(spec=validate(188, 47, [-2], [2]))                   # the benchmark's count shapes
@example(spec=validate(168, 84, [-2, 4], [-4, 6]))
@example(spec=validate(2, 5))                                 # m > n: slices read k < 0
@example(spec=validate(4, 9, [0], [2]))
@example(spec=validate(6, 11, [-4], [4]))
@example(spec=validate(8, 30, [-6, 4], [2, 6]))
def test_path_matrix_matches_path_count(spec):
    for kind, variant in (("lower", "avoid_diagonal"), ("upper", "weighted_below")):
        starts, ends = lgv_points(spec, kind)
        rows = path_matrix(spec, kind)
        assert rows == [[path_count(s, e, variant) for e in ends] for s in starts]
        assert {type(x) for row in rows for x in row} == {int}


@pytest.mark.parametrize("function, what", [(path_matrix, "path matrix"),
                                            (noncrossing_endpoints, "non-crossing endpoints")])
@pytest.mark.parametrize("kind", ["full", "sideways"])
def test_half_region_pictures_reject_other_kinds(function, what, kind):
    with pytest.raises(ValueError, match=f"^no {what} for kind '{kind}'$"):
        function(validate(6, 2, [-2], [2]), kind)


def test_hole_to_hole_entries():
    spec = validate(8, 1, [0], [4])  # r - l = 4
    assert path_matrix(spec, "lower")[1][1] == 2
    spec = validate(8, 1, [0], [2])  # r - l = 2
    assert path_matrix(spec, "upper")[1][1] == 3


def test_printed_entries_match_path_counts():
    rng = random.Random(8)
    mismatched_display = 0
    for _ in range(25):
        n = rng.randrange(4, 13, 2)
        m = rng.randint(1, 3)
        positions = rng.sample(list(range(-n + 2, n - 1, 2)), 2)
        spec = validate(n, m, positions[:1], positions[1:])
        q_lower = path_matrix(spec, "lower")
        q_upper = path_matrix(spec, "upper")
        size = m + 1
        for i, j in product(range(1, size + 1), repeat=2):
            assert reference_printed_path_entry(spec, "lower", i, j) == q_lower[i - 1][j - 1]
            assert reference_printed_path_entry(spec, "upper", i, j) == q_upper[i - 1][j - 1]
            if i > m and j <= m:
                display = reference_printed_path_entry(spec, "lower", i, j, "display")
                if display != q_lower[i - 1][j - 1]:
                    mismatched_display += 1
                    assert j >= 2  # the printed display form slips only there
    assert mismatched_display > 0  # the documented discrepancy is real


def test_lu_diagonal_and_catalan():
    spec = validate(4, 2, [0], [2])
    for i in range(1, 3):
        assert reference_lu_factor_entry("l_boundary", i, i, spec, "lower") == 1
        assert reference_lu_factor_entry("l_boundary", i, i, spec, "upper") == 1
    # C(1,1) is the n-th Catalan number
    assert reference_lu_factor_entry("u_boundary", 1, 1, validate(2, 1), "lower") == 2
    assert reference_lu_factor_entry("u_boundary", 1, 1, validate(4, 1), "lower") == 14
    assert reference_lu_factor_entry("u_boundary", 1, 1, validate(6, 1), "lower") == 132


LU_SPECS = [
    (4, 3, [-2], [2]),
    (8, 2, [2], [-2]),                # toward pair
    (10, 2, [-6, -2], [2, 6]),        # apart pairs
    (12, 3, [2, 6], [-6, -2]),        # toward pairs
    (12, 2, [-8, 4], [-4, 8]),        # interleaved pairs
]


@pytest.mark.parametrize("kind", ["lower", "upper"])
def test_verify_lu(kind):
    # Q = L * U on all four blocks, plus the hole matrix E on the hole-hole block
    for args in LU_SPECS:
        spec = validate(*args)
        m, p = spec.m, spec.p
        q = path_matrix(spec, kind)
        for i, j in product(range(1, m + p + 1), repeat=2):
            l_block = "l_boundary" if i <= m else "l_hole"
            u_block = "u_boundary" if j <= m else "u_hole"
            total = sum(reference_lu_factor_entry(l_block, i, s, spec, kind)
                        * reference_lu_factor_entry(u_block, s, j, spec, kind)
                        for s in range(1, m + 1))
            if i > m and j > m:
                total += hole_matrix_entry(spec, kind, i - m, j - m)
            assert total == q[i - 1][j - 1], (args, kind, i, j)


def test_hole_matrix_small_values():
    assert hole_matrix(validate(4, 1), "lower") == []
    assert hole_matrix(validate(4, 1, [0], [2]), "lower") == [[Fraction(2, 7)]]
    assert hole_matrix(validate(4, 1, [0], [2]), "upper") == [[Fraction(2, 9)]]


def test_hole_matrix_scalar_equals_det_ratio():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randrange(4, 11, 2)
        m = rng.randint(1, 3)
        positions = rng.sample(list(range(-n + 2, n - 1, 2)), 2)
        spec = validate(n, m, positions[:1], positions[1:])
        for kind, formula in (("lower", "transpose_complement"),
                              ("upper", "vertical_symmetric")):
            det_q = det_exact(path_matrix(spec, kind))
            prefactor = product_formula(formula, n, m)
            assert abs(det_exact(hole_matrix(spec, kind))) == abs(det_q) / prefactor


def test_closed_forms_match_subtraction():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.choice([4, 6, 8, 12, 16])
        m = rng.randint(1, 5)
        p = rng.choice([1, 2])
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        spec = validate(n, m, chosen[:p], chosen[p:])
        for kind in ("lower", "upper"):
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    assert closed_form_entry(spec, kind, i, j) == \
                        hole_matrix_entry(spec, kind, i, j)


def test_closed_form_sign_for_toward_pairs():
    spec = validate(8, 2, [2], [-2])
    assert closed_form_entry(spec, "lower", 1, 1) < 0


def test_gamma_product_needs_cancelling_roots():
    assert gamma_product([Fraction(3, 2)], [Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(ArithmeticError, match="cancel"):
        gamma_product([Fraction(3, 2)], [2])


def test_det_exact():
    assert det_exact([]) == 1
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1], [1, 0]]) == -1
    assert det_exact(path_matrix(validate(2, 1), "lower")) == 2


@pytest.mark.parametrize("matrix, rows", [([[1, 2]], "1 rows of lengths [2]"),
                                          ([[1, 2], [3, 4], [5, 6]], "3 rows of lengths [2, 2, 2]"),
                                          ([[1], [2]], "2 rows of lengths [1, 1]"),
                                          ([[1, 2], [3]], "2 rows of lengths [2, 1]")],
                         ids=["1x2", "3x2", "2x1", "ragged"])
def test_det_exact_rejects_a_non_square_matrix(matrix, rows):
    with pytest.raises(ValueError, match=fr"^det_exact needs a square matrix, got {re.escape(rows)}$"):
        det_exact(matrix)


def fraction_det(matrix):
    """Gaussian elimination over the rationals, pivoting on the first nonzero entry."""
    size = len(matrix)
    work = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    result = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        result *= pivot
        for r in range(col + 1, size):
            factor = work[r][col] / pivot
            if factor:
                for c in range(col, size):
                    work[r][c] -= factor * work[col][c]
    return sign * result


def reference_row_content_det(matrix):
    """The earlier integer elimination: every updated row is divided by its content.

    Clearing entry a under pivot P sets the row to (P/g)*row - (a/g)*top,
    g = gcd(P, a), then divides it by the gcd of its entries; each update's
    row_scale / content is folded in lowest terms.
    """
    size = len(matrix)
    numer = denom = 1
    work = []
    for row in matrix:
        lcm = math.lcm(*(x.denominator for x in row))
        denom *= lcm
        work.append([x.numerator * (lcm // x.denominator) for x in row])
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            numer = -numer
        pivot, *tail = work[col][col:]
        numer *= pivot
        for r in range(col + 1, size):
            row = work[r]
            a = row[col]
            if not a:
                continue
            g = math.gcd(pivot, a)
            row_scale, top_scale = pivot // g, a // g
            new = [row_scale * x - top_scale * y for x, y in zip(row[col + 1:], tail)]
            content = math.gcd(*new)
            if not content:  # a zero row
                return Fraction(0)
            if content > 1:
                new = [x // content for x in new]
            g = math.gcd(row_scale, content)
            numer *= content // g
            denom *= row_scale // g
            row[col:] = [0] + new
    return Fraction(numer, denom)


def reference_recorded_elimination(block):
    """The whole-matrix recorded elimination of an integer block, without row
    swaps: (det, steps), the determinant as a Fraction and each column's
    (content, pivot, tail, row_scales, top_scales).  Every row below the
    pivot with entry a != 0 in the pivot column is updated in full to
    (P/g)*row - (a/g)*top, so nothing rests on the block's symmetry; a row
    with a = 0 records the scales 1, 0."""
    work = [list(row) for row in block]
    numer = denom = 1
    steps = []
    for col in range(len(work)):
        assert work[col][col], f"zero pivot in column {col}"
        top = work[col][col:]
        content = math.gcd(*top)
        pivot, *tail = [x // content for x in top]
        numer *= content * pivot
        row_scales, top_scales = [], []
        for row in work[col + 1:]:
            a = row[col]
            row_scale, top_scale = 1, 0
            if a:
                g = math.gcd(pivot, a)
                row_scale, top_scale = pivot // g, a // g
                row[col + 1:] = [row_scale * x - top_scale * y
                                 for x, y in zip(row[col + 1:], tail)]
                denom *= row_scale
            row_scales.append(row_scale)
            top_scales.append(top_scale)
        steps.append((content, pivot, tuple(tail), tuple(row_scales), tuple(top_scales)))
    return Fraction(numer, denom), tuple(steps)


def test_det_exact_matches_row_content_reference_on_path_matrices():
    # with and without the hexagon half's recorded boundary elimination as its lead
    for spec in spec_grid(6, 3, 2):
        for kind in HALVES:
            q = path_matrix(spec, kind)
            lead = _boundary_steps(spec.n, spec.m, kind)
            assert det_exact(q) == det_exact(q, lead) == reference_row_content_det(q) \
                == fraction_det(q), (spec.to_text(), kind)
    # the benchmark's path-matrix shapes: 49 x 49 and 86 x 86
    for spec, kinds in ((validate(188, 47, [-92, 14], [-30, 146]), HALVES),
                        (validate(168, 84, [-60, 38], [-2, 120]), ["lower"])):
        for kind in kinds:
            q = path_matrix(spec, kind)
            lead = _boundary_steps(spec.n, spec.m, kind)
            assert det_exact(q) == det_exact(q, lead) == reference_row_content_det(q), \
                (spec.to_text(), kind)


@settings(DIFFERENTIAL, max_examples=25)
@given(spec=path_matrix_specs(max_n=100))  # a 200 x 200 determinant takes seconds
@example(spec=validate(2, 2))                                 # p = 0: the lead is the whole matrix
@example(spec=validate(40, 7))
@example(spec=validate(60, 30, [-58], [58]))                  # holes at -+(n - 2)
@example(spec=validate(60, 30, [58], [-58]))
@example(spec=validate(60, 58, [-58, 0, 4], [-2, 6, 58]))     # p = 3
@example(spec=validate(24, 5, [-6, 2, 10], [-10, -2, 14]))
@example(spec=validate(24, 6, [-10, -6, 2, 10], [-8, -2, 6, 14]))  # p = 4
# the replay scales the hole columns (s = 41) first at column 9 (lower) and 8 (upper)
@example(spec=validate(12, 19, [-2], [-8]))
def test_det_exact_with_the_boundary_lead_matches_det_exact(spec):
    for kind in HALVES:
        q = path_matrix(spec, kind)
        # every path matrix of a hexagon half leads with its unholed path matrix,
        # so one recorded elimination per (n, m, half) serves every hole placement
        assert [row[:spec.m] for row in q[:spec.m]] == path_matrix(unholed(spec), kind)
        plain, led = det_exact(q), det_exact(q, _boundary_steps(spec.n, spec.m, kind))
        assert led == plain and type(led) is type(plain) is Fraction, (spec.to_text(), kind)


def test_a_cached_boundary_elimination_is_left_as_it_was():
    spec = validate(24, 6, [-4, 8], [-8, 2])
    entries = {kind: _boundary_steps(24, 6, kind) for kind in HALVES}
    count_region(spec, "full")
    count_region(validate(24, 6, [0], [6]), "full")  # another placement in the same hexagon
    for kind, entry in entries.items():
        assert _boundary_steps(24, 6, kind) is entry == _boundary_steps.__wrapped__(24, 6, kind)


def test_the_record_holds_the_checked_prefactor():
    for n in range(2, 13, 2):
        for m in range(1, 7):
            for kind, formula in (("lower", "transpose_complement"),
                                  ("upper", "vertical_symmetric")):
                prefactor = product_formula(formula, n, m)
                assert _boundary_steps(n, m, kind)[0] == prefactor, (n, m, kind)
                assert prefactor == det_exact(path_matrix(validate(n, m), kind))


def test_a_record_whose_prefactor_disagrees_raises(monkeypatch):
    original = matrices.product_formula
    monkeypatch.setattr(matrices, "product_formula", lambda *args: original(*args) + 1)
    _boundary_steps.cache_clear()
    with pytest.raises(matrices.RouteMismatchError,
                       match=r"^lower: unholed det Q = 21706243125300 "
                             r"but transpose_complement\(12, 3\) = 21706243125301$"):
        _boundary_steps(12, 3, "lower")
    assert _boundary_steps.cache_info().currsize == 0


def test_another_placement_computes_no_half_product(monkeypatch):
    # the halves' prefactors come with the hexagon's record; only full's box is per count
    calls, original = [], matrices.product_formula

    def recording(*args):
        calls.append(args[0])
        return original(*args)

    count_region(validate(16, 4, [-2], [2]), "full")  # records both halves
    monkeypatch.setattr(matrices, "product_formula", recording)
    for kind, want in (("lower", []), ("upper", []), ("free", []), ("full", ["box"])):
        calls.clear()
        count_region(validate(16, 4, [-6], [6]), kind)
        assert calls == want, kind


def test_a_lead_of_another_block_raises():
    # a replayed lead of another block would give a wrong determinant: the other
    # half's record, a larger hexagon's record that fits the 3 x 3 matrix exactly,
    # and a record larger than the matrix
    for spec, want, lead in [(validate(12, 3, [-2], [4]), 8648766395650, (12, 3, "upper")),
                             (validate(12, 2, [-2], [4]), 3846141880, (12, 3, "lower")),
                             (validate(12, 1, [-2], [4]), 426590, (12, 3, "lower"))]:
        q = path_matrix(spec, "lower")
        assert det_exact(q) == det_exact(q, _boundary_steps(spec.n, spec.m, "lower")) == want
        with pytest.raises(ValueError, match="^the lead is not this "):
            det_exact(q, _boundary_steps(*lead))


def test_a_matrix_off_the_lead_in_its_first_row_or_column_raises():
    # the lead's first row, and so its first column, is content * (pivot, *tail)
    # of its first step: one entry of either changed beyond (0, 0) is another
    # leading block; a change outside the m x m block is the rest's to eliminate
    spec = validate(24, 6, [-10, -6, 2, 10], [-8, -2, 6, 14])
    for kind in HALVES:
        q = path_matrix(spec, kind)
        lead = _boundary_steps(spec.n, spec.m, kind)
        for i, j in [(0, j) for j in range(1, spec.m + 1)] + \
                [(i, 0) for i in range(1, spec.m + 1)]:
            changed = [list(row) for row in q]
            changed[i][j] += 1
            if spec.m in (i, j):
                assert det_exact(changed, lead) == det_exact(changed) != det_exact(q)
                continue
            with pytest.raises(ValueError, match="^the lead is not this "):
                det_exact(changed, lead)


def test_a_half_lead_is_taken_exactly_for_the_blocks_it_leads():
    # det_exact checks only a lead's size, first row and first column: enough for
    # a half's own path matrices, whose leading k x k block is the unholed (n, k)
    # block for every k <= m, and the first entry tells the hexagon side n apart
    for spec in spec_grid(8, 3, 2):
        for kind in HALVES:
            q = path_matrix(spec, kind)
            plain = det_exact(q)
            for k in range(1, spec.m + spec.p + 1):
                lead = _boundary_steps(spec.n, k, kind)
                if k <= spec.m:
                    assert det_exact(q, lead) == plain, (spec.to_text(), kind, k)
                    continue
                with pytest.raises(ValueError, match="^the lead is not this "):
                    det_exact(q, lead)
    corners = [path_matrix(validate(n, 1), kind)[0][0] for n in range(2, 61, 2) for kind in HALVES]
    assert len(set(corners)) == len(corners)


def test_the_boundary_elimination_does_not_pivot():
    with pytest.raises(ArithmeticError, match="^zero pivot in column 0; "):
        _record([[0, 1], [1, 0]])
    with pytest.raises(ArithmeticError, match="^zero pivot in column 1; "):
        _record([[2, 4], [4, 8]])
    # a zero pivot in every column of 3 x 3 and 4 x 4 blocks: row k is built from
    # the k pivots above it before its pivot is seen; its Schur entry is
    # a_kk - sum_c a_kc^2 / a_cc = 0 over a diagonal leading block
    rng = random.Random(49)
    for size in (3, 4):
        for k in range(size):
            diagonal = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(k)]
            across = [rng.choice([-2, -1, 1, 2]) * d for d in diagonal]  # a_kc, a multiple of a_cc
            block = [[int(i == j) for j in range(size)] for i in range(size)]
            for c, (d, x) in enumerate(zip(diagonal, across)):
                block[c][c], block[k][c], block[c][k] = d, x, x
            block[k][k] = sum(x * x // d for d, x in zip(diagonal, across))
            for j in range(k + 1, size):  # a nonzero tail, so no step is a trivial one
                block[k][j] = block[j][k] = rng.choice([-1, 1])
            message = f"zero pivot in column {k}; a lead is eliminated without row swaps"
            assert outcome(_record, block) == (ArithmeticError, message), block


def test_the_record_is_the_whole_block_elimination():
    # the record keeps each row from its diagonal on and reads the entry below a
    # pivot from the pivot row; its steps are those of the whole block's elimination
    for n in range(1, 25):
        for m in range(1, 13):
            for kind in HALVES:
                block = path_matrix(RegionSpec(n, m, (), ()), kind)
                assert _record(block) == reference_recorded_elimination(block), (n, m, kind)


def test_the_record_is_the_whole_block_elimination_on_any_symmetric_block():
    # cases the path blocks never produce: zero entries below a pivot (scales 1, 0),
    # negative entries and a first row with content > 1; a strictly diagonally
    # dominant block has no zero pivot
    rng = random.Random(49)
    zero_below = negative = first_content = 0
    for _ in range(300):
        size = rng.randint(1, 7)
        block = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i):
                block[i][j] = block[j][i] = rng.choice([0, 0, 0, -5, -2, -1, 1, 3, 8])
        for i, row in enumerate(block):
            row[i] = rng.choice([-1, 1]) * (sum(map(abs, row)) + rng.randint(1, 9))
        scale = rng.choice([1, 2, 6])  # the first row and column times scale: content >= scale
        block[0] = [scale * x for x in block[0]]
        for row in block:
            row[0] *= scale
        det, steps = _record(block)
        assert (det, steps) == reference_recorded_elimination(block), block
        assert det == fraction_det(block), block
        zero_below += any(0 in top_scales for *_, top_scales in steps)
        negative += any(x < 0 for row in block for x in row)
        first_content += steps[0][0] > 1
    assert min(zero_below, negative, first_content) >= 30, (zero_below, negative, first_content)


@settings(DIFFERENTIAL, max_examples=25)
@given(spec=path_matrix_specs(max_n=100))
@example(spec=validate(100, 50))
@example(spec=validate(100, 100))
@example(spec=validate(188, 47))                              # the benchmark's boundary blocks
@example(spec=validate(168, 84))
def test_the_recorded_steps_match_the_whole_block_elimination(spec):
    for kind in HALVES:
        block = path_matrix(unholed(spec), kind)
        assert _boundary_steps(spec.n, spec.m, kind)[1] == \
            reference_recorded_elimination(block)[1], (spec.to_text(), kind)


@pytest.mark.parametrize("kind, below, above", [("lower", 1615153, 1615152),
                                                ("upper", 2307361, 2307360)])
def test_an_asymmetric_boundary_block_raises(monkeypatch, kind, below, above):
    original = matrices.path_matrix

    def skewed(spec, half):
        block = original(spec, half)
        block[3][1] += 1
        return block

    monkeypatch.setattr(matrices, "path_matrix", skewed)
    _boundary_steps.cache_clear()
    with pytest.raises(matrices.RouteMismatchError,
                       match=rf"^{kind}: the unholed \(12, 5\) boundary block is not symmetric: "
                             rf"entry \(4, 2\) = {below} but \(2, 4\) = {above}$"):
        _boundary_steps(12, 5, kind)
    assert _boundary_steps.cache_info().currsize == 0


def test_count_region_hands_det_exact_each_whole_path_matrix(monkeypatch):
    # perfbench's det_exact span sizes its calls by their first argument, and
    # perfbench/test_perfbench.py::test_self_times_add_up_and_stay_nonnegative
    # asserts max_dim >= 4, which only the whole 4 x 4 path matrix of its
    # count --n 12 --m 3 op meets; moving the boundary replay out of det_exact
    # (ROADMAP item 18) waits until that assertion follows the call shape
    firsts, original = [], matrices.det_exact

    def recording(*args):
        firsts.append(args[0])
        return original(*args)

    monkeypatch.setattr(matrices, "det_exact", recording)
    spec = validate(12, 3, [-2, 4], [-4, 6])
    count_region(spec, "full")
    # per half: the (m+p)-square path matrix, then the p x p hole matrix
    assert [len(first) for first in firsts] == [5, 2, 5, 2]
    assert firsts[0::2] == [path_matrix(spec, kind) for kind in HALVES]


@st.composite
def square_matrices(draw, max_size=12):
    """Square integer or rational matrices, some reshaped to be singular, to
    start with a zero column or to need a row swap at the first pivot.

    The entries come from a seeded Random: drawing 144 entries one by one
    costs hypothesis far more time than the determinants do.
    """
    size = draw(st.sampled_from(range(1, max_size + 1)))  # 0 x 0 is an @example
    bits = draw(st.sampled_from([1, 3, 20, 80]))
    rational = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def entry():
        x = rng.randint(-2 ** bits, 2 ** bits)
        return Fraction(x, rng.randint(1, 2 ** bits)) if rational and rng.random() < 0.7 else x

    rows = [[entry() for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(["as drawn", "singular", "zero first column", "row swap"]))
    if shape == "singular" and size >= 2:
        # the last row becomes a combination of the first and the one above it
        a, b = entry(), entry()
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    elif shape == "zero first column":
        for row in rows:
            row[0] = 0
    elif shape == "row swap" and size >= 2:
        rows[0][0] = 0
        rows[rng.randrange(1, size)][0] = rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)
    return rows


@settings(DIFFERENTIAL, max_examples=150)
@given(matrix=square_matrices())
@example(matrix=[])
@example(matrix=[[0]])
@example(matrix=[[Fraction(-7, 3)]])
@example(matrix=[[0, 0, 1], [0, 2, 3], [4, 5, 6]])
@example(matrix=[[Fraction(1, 2), 1], [1, 2]])
@example(matrix=[[-4, 6], [3, 5]])                   # pivot row content 2, negative pivot
@example(matrix=[[1, 2, 3], [0, 0, 0], [4, 5, 6]])   # a zero row below the first pivot
@example(matrix=[[1, 0, 2], [3, 0, 4], [5, 0, 6]])   # a zero column after the first
def test_det_exact_matches_fraction_elimination(matrix):
    drawn = [list(row) for row in matrix]
    got = det_exact(matrix)
    assert got == fraction_det(matrix) and type(got) is Fraction
    assert matrix == drawn  # the input is left as it was


def test_count_region_routes_and_factors():
    spec = validate(4, 1, [0], [2])
    lower = count_region(spec, "lower")
    assert lower.value == 4 and lower.factors["prefactor"] == 14
    upper = count_region(spec, "upper_weighted")
    assert upper.value == 28
    full = count_region(spec, "full")
    assert full.value == 112
    assert full.value == lower.value * upper.value
    record = full.to_json_dict()
    assert record["count"] == "112" and record["factors"]["box"] == "1764"
    # a half's path_det is -count here, printed from the count's digits
    lower = count_region(validate(4, 1, [0], [-2]), "lower")
    record = lower.to_json_dict()
    assert record["factors"] == {name: str(value) for name, value in lower.factors.items()}
    assert lower.factors["path_det"] < 0 and record["factors"]["path_det"] == "-" + record["count"]


def test_count_region_matches_oracle():
    for args in [(2, 1, [], []), (4, 1, [-2], [2]), (6, 1, [-4, 0], [-2, 2])]:
        spec = validate(*args)
        assert count_region(spec, "full").value == \
            count_tilings(build_region(spec, "full"))


def test_count_region_free_half():
    spec = validate(4, 1, [-2], [2])
    assert count_region(spec, "free_half").value == \
        count_region(spec, "upper_weighted").value == 35
    with pytest.raises(ValueError, match="R = -L"):
        count_region(validate(6, 1, [-2], [4]), "free_half")
    # mirrored, but a left hole right of centre: the free region has 3 tilings, not 9
    with pytest.raises(ValueError, match="every left hole < 0"):
        count_region(validate(4, 1, [2], [-2]), "free")


def double_first_hole_entry(monkeypatch):
    """Make ``hole_matrix`` double entry (1, 1) of every hole matrix."""
    original = matrices.hole_matrix

    def doubled(spec, kind):
        rows = original(spec, kind)
        rows[0][0] *= 2
        return rows

    monkeypatch.setattr(matrices, "hole_matrix", doubled)


@pytest.mark.parametrize("kind, args, message", [
    ("lower", (4, 1, [0], [2]), "lower: |det Q| = 4 but prefactor * |det E| = 8"),
    ("upper", (4, 1, [0], [2]), "upper_weighted: |det Q| = 28 but prefactor * |det E| = 56"),
    ("free", (4, 1, [-2], [2]), "free_half: |det Q| = 35 but prefactor * |det E| = 70"),
])
def test_a_half_count_whose_routes_disagree_raises(monkeypatch, kind, args, message):
    # det E doubled: the path determinant no longer equals prefactor * |det E|,
    # and the message names the kind the count reports
    double_first_hole_entry(monkeypatch)
    with pytest.raises(matrices.RouteMismatchError, match=f"^{re.escape(message)}$"):
        count_region(validate(*args), kind)


def test_a_half_count_that_is_not_an_integer_raises(monkeypatch):
    # a record whose prefactor is a third of the half's product formula scales
    # det Q and prefactor * |det E| alike, so only the integrality check sees it
    original = matrices._boundary_steps

    def third(n, m, kind):
        prefactor, *rest = original(n, m, kind)
        return Fraction(prefactor, 3), *rest

    monkeypatch.setattr(matrices, "_boundary_steps", third)
    with pytest.raises(matrices.RouteMismatchError, match="^lower count is not an integer: 4/3$"):
        count_region(validate(4, 1, [0], [2]), "lower")


def test_hole_determinants_of_opposite_signs_raise(monkeypatch):
    # the upper hole matrix negated: each half's count still checks out in
    # absolute value, but the full count's factorization needs the same sign
    original = matrices.hole_matrix
    monkeypatch.setattr(matrices, "hole_matrix", lambda spec, kind: [
        [-x for x in row] if kind == "upper" else row for row in original(spec, kind)])
    spec = validate(4, 1, [0], [2])
    assert count_region(spec, "upper").value == 28
    with pytest.raises(matrices.RouteMismatchError,
                       match="^hole determinants have opposite signs: 2/7, -2/9$"):
        count_region(spec, "full")


def test_a_full_count_whose_routes_disagree_raises(monkeypatch):
    # box(4, 1) = 1764 plus 1: box * detE * detE is no longer the halves' product
    original = matrices.product_formula
    monkeypatch.setattr(matrices, "product_formula",
                        lambda which, n, m: original(which, n, m) + (which == "box"))
    with pytest.raises(matrices.RouteMismatchError,
                       match=r"^full: box \* detE \* detE = 7060/63 but factor product = 112$"):
        count_region(validate(4, 1, [0], [2]), "full")


def test_an_unknown_count_kind_raises_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("an unknown kind reached the count")

    for name in ("free_boundary_holes", "_boundary_steps", "path_matrix", "hole_matrix",
                 "product_formula"):
        monkeypatch.setattr(matrices, name, no_work)
    for kind in ("sideways", "half", "free_half "):
        with pytest.raises(ValueError, match=f"^unknown count kind {re.escape(repr(kind))}$"):
            count_region(validate(4, 1, [-2], [2]), kind)


def test_every_count_kind_names_its_reported_kind_and_half():
    assert {reported for reported, _ in COUNT_KINDS.values()} == \
        {"full", "lower", "upper_weighted", "free_half"}
    for spelling, (reported, half) in COUNT_KINDS.items():
        assert COUNT_KINDS[reported] == (reported, half), spelling  # each reported kind is a spelling
        assert half is None if reported == "full" else half in HALVES, spelling


def test_hole_determinant_signs_agree():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(4, 17, 2)
        m = rng.randint(1, 5)
        p = rng.choice([1, 2])
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        spec = validate(n, m, chosen[:p], chosen[p:])
        lower = det_exact(hole_matrix(spec, "lower"))
        upper = det_exact(hole_matrix(spec, "upper"))
        assert lower * upper >= 0


# ---------------------------------------------------------------------------
# differential tests of the Schur hole-matrix entries

def per_term_hole_entry(spec, kind, i, j):
    """The Schur sum term by term: one product of the per-half LU factors'
    hole rows for each boundary path s."""
    m = spec.m
    total = reference_hole_to_hole(spec.left[i - 1], spec.right[j - 1], kind)
    for s in range(1, m + 1):
        total -= (reference_lu_factor_entry("l_hole", m + i, s, spec, kind)
                  * reference_lu_factor_entry("u_hole", s, m + j, spec, kind))
    return total


@st.composite
def valid_specs(draw, max_n, max_m, max_p):
    """Valid specs with p >= 1 holes in any order: apart, toward or interleaved."""
    n = 2 * draw(st.integers(2, max_n // 2))
    m = draw(st.integers(1, max_m))
    positions = list(range(-n + 2, n - 1, 2))
    p = draw(st.integers(1, min(max_p, len(positions) // 2)))
    chosen = draw(st.permutations(positions))[:2 * p]
    return validate(n, m, chosen[:p], chosen[p:])


@settings(DIFFERENTIAL, max_examples=150)
@given(spec=valid_specs(40, 12, 3))
@example(spec=validate(10, 2, [-6, -2], [2, 6]))          # apart pairs
@example(spec=validate(12, 3, [2, 6], [-6, -2]))          # toward pairs
@example(spec=validate(12, 2, [-8, 4], [-4, 8]))          # interleaved pairs
@example(spec=validate(40, 12, [-38, 0, 36], [-36, 2, 38]))
@example(spec=validate(6, 1, [-4, 0], [-2, 4]))           # m = 1: the head term alone
@example(spec=validate(8, 2, [-4, 2], [0, 6]))            # m = 2: a single term ratio
@example(spec=validate(232, 348, [-226], [226]))          # the benchmark's heaviest shapes
@example(spec=validate(232, 348, [224], [-228]))
@example(spec=validate(744, 124, [-558], [558]))
def test_hole_matrix_entry_matches_per_term_sum(spec):
    for kind in ("lower", "upper"):
        for i, j in product(range(1, spec.p + 1), repeat=2):
            got = hole_matrix_entry(spec, kind, i, j)
            want = per_term_hole_entry(spec, kind, i, j)
            assert got == want and type(got) is type(want), (spec, kind, i, j)


@settings(DIFFERENTIAL, max_examples=60)
@given(spec=valid_specs(8, 3, 2))
def test_hole_matrix_entry_matches_closed_form(spec):
    for kind in ("lower", "upper"):
        for i, j in product(range(1, spec.p + 1), repeat=2):
            assert hole_matrix_entry(spec, kind, i, j) == closed_form_entry(spec, kind, i, j)


@settings(DIFFERENTIAL, max_examples=20)
@given(spec=valid_specs(8, 3, 2))
def test_full_count_matches_tiling_oracle(spec):
    assert count_region(spec, "full").value == count_tilings(build_region(spec, "full"))


@settings(DIFFERENTIAL, max_examples=40)
@given(spec=valid_specs(8, 3, 2))
@example(spec=validate(6, 2))
@example(spec=validate(6, 1, [0, 2], [-4, -2]))  # no non-crossing assignment
def test_half_counts_match_path_family_oracle(spec):
    points = noncrossing_endpoints(spec, "lower")
    for kind, constraint in (("lower", "avoid_diagonal"),
                             ("upper_weighted", "weighted_below")):
        families = 0 if points is None else count_families(*points, constraint)
        assert count_region(spec, kind).value == families, (spec, kind)


def test_schur_gamma_arguments_start_positive_and_never_decrease():
    # what lets hole_matrix_entry run its term recurrence without pole cases
    for (kind, d), block in product(HALVES.items(), ("l_hole", "u_hole")):
        args = _LU_GAMMA_ARGS[block]
        for n in range(2, 61, 2):
            for x in range(-n + 2, n - 1, 2):
                first, second = args(n, 1, x, d), args(n, 2, x, d)
                for side in (0, 1):
                    assert min(first[side]) >= 1, (kind, block, n, x)
                    assert {b - a for a, b in zip(first[side], second[side])} <= {0, 1, 2}


def test_schur_gamma_arguments_are_affine_in_s():
    # what lets hole_matrix_entry read every term ratio's linear factors off
    # the table at s = 1 and s = 2
    for (kind, d), block in product(HALVES.items(), ("l_hole", "u_hole")):
        args = _LU_GAMMA_ARGS[block]
        for n in range(2, 61, 2):
            for x in range(-n + 2, n - 1, 2):
                first, second = args(n, 1, x, d), args(n, 2, x, d)
                for s in range(1, n + 2):
                    want = [[a + (s - 1) * (b - a) for a, b in zip(*sides)]
                            for sides in zip(first, second)]
                    assert list(args(n, s, x, d)) == want, (kind, block, n, x, s)


def test_hole_matrix_entry_raises_outside_the_hexagon():
    # specs that validate rejects: a value, where one comes back, is the
    # per-term sum's; holes beyond [-n+2, n-2] that put a Gamma argument
    # below 1 raise instead of returning a sum with its pole terms dropped
    raised = 0
    for n in range(2, 9, 2):
        for m in range(1, 4):
            for l, r in product(range(-n - 4, n + 5), repeat=2):
                spec = RegionSpec(n, m, (l,), (r,))
                for kind in ("lower", "upper"):
                    try:
                        got = hole_matrix_entry(spec, kind, 1, 1)
                    except GammaPoleError:
                        raised += 1
                        assert not (-n + 2 <= l <= n - 2 and -n + 2 <= r <= n - 2)
                        continue
                    assert got == per_term_hole_entry(spec, kind, 1, 1), (spec, kind)
    assert raised > 0


def test_a_hole_entry_without_boundary_paths_is_the_hole_to_hole_entry():
    # m = 0, which validate rejects: the Schur sum over s = 1..m is empty
    spec = RegionSpec(4, 0, (-2,), (2,))
    for kind, want in (("lower", 2), ("upper", 10)):
        assert hole_matrix_entry(spec, kind, 1, 1) == per_term_hole_entry(spec, kind, 1, 1) == want


def test_a_fraction_too_long_to_print_shows_its_size_and_last_digits():
    # str() refuses the numerator's 5001 digits; the denominator prints as it is
    x = Fraction(10**5000 + 7, 3)
    assert matrices._show(x) == "<16610-bit integer ending in 000000007>/3"
    assert matrices._show(-x) == "-<16610-bit integer ending in 000000007>/3"


def test_hole_matrix_entry_rejects_a_kind_without_halves():
    # before it reads an index, which may lie outside the holes
    spec = validate(10, 2, [-4, 2], [0, 6])
    for kind, (i, j) in product(("full", "upper_weighted"), ((1, 1), (3, 0))):
        with pytest.raises(ValueError, match=f"no hole matrix for kind '{kind}'"):
            hole_matrix_entry(spec, kind, i, j)


def test_hole_indices_outside_the_holes_raise():
    # holes 1..p: an index outside must not alias another hole through a
    # negative list index or give a value; i is read before j
    spec = validate(10, 2, [-4, 2], [0, 6])
    for kind in ("lower", "upper"):
        for function in (hole_matrix_entry, closed_form_entry):
            for i, j, bad in ((0, 1, 0), (1, 0, 0), (3, 1, 3), (1, -1, -1), (3, 0, 3)):
                with pytest.raises(IndexError, match=f"hole index {bad} outside 1..2"):
                    function(spec, kind, i, j)


def test_placements_that_share_a_hole_pair_compute_its_entry_once():
    # an entry reads n, m, its two holes and the half only: the pair (-4, 6)
    # of both placements is computed once per half, 7 distinct pairs in all
    cache = matrices._entry
    cache.cache_clear()
    first = validate(10, 2, [-4, 2], [0, 6])
    second = validate(10, 2, [-4, -8], [6, 4])
    for kind in ("lower", "upper"):
        rows = {spec: hole_matrix(spec, kind) for spec in (first, second)}
        shared = [rows[spec][spec.left.index(-4)][spec.right.index(6)] for spec in rows]
        assert shared[0] is shared[1]
        for spec, matrix in rows.items():
            for i, j in product(range(1, 3), repeat=2):
                assert matrix[i - 1][j - 1] == per_term_hole_entry(spec, kind, i, j)
    assert cache.cache_info()[:2] == (2, 14)  # hits, misses
    # a pole is raised again on every call, never kept
    outside = RegionSpec(4, 1, (-4,), (2,))
    for _ in range(2):
        with pytest.raises(GammaPoleError):
            hole_matrix_entry(outside, "lower", 1, 1)
    assert cache.cache_info().currsize == 14


def test_the_hole_entry_cache_is_bounded():
    # 23 * 23 hole pairs per half at n = 24, m = 1: 1058 entries, past the bound
    cache = matrices._entry
    assert cache.cache_info().maxsize == matrices._ENTRIES == 1024
    cache.cache_clear()
    holes = range(-22, 23, 2)
    for kind, l, r in product(HALVES, holes, holes):
        hole_matrix_entry(RegionSpec(24, 1, (l,), (r,)), kind, 1, 1)
        assert cache.cache_info().currsize <= 1024
    assert cache.cache_info().currsize == 1024
    cache.cache_clear()


# ---------------------------------------------------------------------------
# the half-region formulas as written out once per half.  The paper proves
# its hole-matrix formulas through the printed path entries and the explicit
# LU factors, and no verb computes with them, so this is their only
# spelling; the closed form is a reference for matrices' body, which writes
# it once with the shift d

REFERENCE_LU_GAMMA_ARGS = {
    ("lower", "l_boundary"): lambda n, i, j: (
        [2 * i, n + 1, i + j - 1, 2 * j + n],
        [2 * i - 1, 2 * j, i - j + 1, j - i + n + 1, i + j + n]),
    ("lower", "l_hole"): lambda n, s, l: (
        [s + n - 1, 2 * s + n, n - l + 1, s + l // 2 + n // 2 - 1],
        [s, 2 * s + 2 * n - 2, n // 2 - l // 2 + 1, l // 2 + n // 2, s - l // 2 + n // 2 + 1]),
    ("lower", "u_boundary"): lambda n, i, j: (
        [2 * j, n + 1, i + j - 1, 2 * i + 2 * n - 1],
        [2 * j - 1, j - i + 1, 2 * i + n - 1, i - j + n + 1, i + j + n]),
    ("lower", "u_hole"): lambda n, s, r: (
        [2 * s + 1, s + n, n + r + 1, s + n // 2 - r // 2 - 1],
        [2 * s + n - 1, s + 1, n // 2 - r // 2, n // 2 + r // 2 + 1, s + n // 2 + r // 2 + 1]),
    ("upper", "l_boundary"): lambda n, i, j: (
        [n + 1, i + j - 1, 2 * j + n],
        [2 * j - 1, i - j + 1, j - i + n + 1, i + j + n]),
    ("upper", "l_hole"): lambda n, s, l: (
        [s + n, 2 * s + n, n - l + 2, s + l // 2 + n // 2 - 1],
        [s, 2 * s + 2 * n, n // 2 - l // 2 + 1, l // 2 + n // 2, s - l // 2 + n // 2 + 1]),
    ("upper", "u_boundary"): lambda n, i, j: (
        [n + 1, i + j - 1, 2 * i + 2 * n],
        [j - i + 1, 2 * i + n - 1, i - j + n + 1, i + j + n]),
    ("upper", "u_hole"): lambda n, s, r: (
        [2 * s - 1, s + n, n + r + 2, s + n // 2 - r // 2 - 1],
        [s, 2 * s + n - 1, n // 2 - r // 2, n // 2 + r // 2 + 1, s + n // 2 + r // 2 + 1]),
}

REFERENCE_HOLE_SCALE = {"lower": HALF, "upper": 1}


def reference_lu_factor_entry(block, i, j, spec, kind):
    """One entry of the explicit LU factors of a half-region path matrix.

    ``l_boundary``/``u_boundary`` take boundary indices 1..m; ``l_hole``
    rows and ``u_hole`` columns take a hole index in m+1..m+p.  Signs
    alternate with the boundary index as printed.
    """
    args = REFERENCE_LU_GAMMA_ARGS.get((kind, block))
    if args is None:
        raise ValueError(f"unknown LU block {block!r} for kind {kind!r}")
    n, m = spec.n, spec.m
    if block in ("l_hole", "u_hole"):
        s, x = (j, spec.left[i - m - 1]) if block == "l_hole" else (i, spec.right[j - m - 1])
        sign = -1 if s % 2 == 0 else 1
        return sign * reference_gamma_ratio(*args(n, s, x)) * REFERENCE_HOLE_SCALE[kind]
    if (block == "l_boundary" and j > i) or (block == "u_boundary" and i > j):
        return Fraction(0)
    return reference_gamma_ratio(*args(n, i, j))


def reference_hole_to_hole(l, r, kind):
    if r < l:
        return Fraction(0)
    if kind == "lower":
        return Fraction(binomial(r - l + 1, (r - l) // 2), r - l + 1)
    return Fraction(binomial(r - l + 1, (r - l) // 2))


def reference_printed_path_entry(spec, kind, i, j, mixed_variant="recurrence"):
    """The path-matrix entry (i, j), 1-based, as printed.

    For the lower matrix the hole-row/boundary-column entry is printed in
    two versions that disagree for j >= 2: ``"display"`` (the matrix
    display, which slips) and ``"recurrence"`` (the identity used in the LU
    proof, which matches the path counts).
    """
    n, m = spec.n, spec.m
    half = n // 2
    if kind == "lower":
        if i <= m and j <= m:
            return Fraction(binomial(2 * n, n + j - i) - binomial(2 * n, n + 1 - i - j))
        if i <= m and j > m:
            r = spec.right[j - m - 1]
            return Fraction(2 * i - 1, n + r + 1) * binomial(n + r + 1, half + r // 2 + 1 - i)
        if i > m and j <= m:
            l = spec.left[i - m - 1]
            if mixed_variant == "display":
                k = half - l // 2 - 1 + j
            else:
                k = half - l // 2 + 1 - j
            return Fraction(2 * j - 1, n - l + 1) * binomial(n - l + 1, k)
        return reference_hole_to_hole(spec.left[i - m - 1], spec.right[j - m - 1], kind)
    if kind == "upper":
        if i <= m and j <= m:
            return Fraction(binomial(2 * n, n + j - i) + binomial(2 * n, n + 1 - i - j))
        if i <= m and j > m:
            r = spec.right[j - m - 1]
            return Fraction(binomial(n + r + 1, half + r // 2 + 1 - i))
        if i > m and j <= m:
            l = spec.left[i - m - 1]
            return Fraction(binomial(n - l + 1, half - l // 2 + 1 - j))
        return reference_hole_to_hole(spec.left[i - m - 1], spec.right[j - m - 1], kind)
    raise ValueError(f"no printed entries for kind {kind!r}")


def reference_closed_form_entry(spec, kind, i, j):
    n, m = spec.n, spec.m
    l = spec.left[i - 1]
    r = spec.right[j - 1]
    N, Lh, Rh = Fraction(n, 2), Fraction(l, 2), Fraction(r, 2)
    two = Fraction(2)
    if kind == "lower":
        if r > l:
            series = hyp_terminating(
                [Rh - N + 1, 1, Rh - Lh + 2, N + Rh + HALF],
                [m + N + Rh + 2, Rh - m - N + 2, Rh - Lh + Fraction(3, 2)], 1)
            prefactor = gamma_product(
                [m + n + 1, N + Rh + HALF, Lh + m + N, m + N - Rh - 1,
                 m + Fraction(3, 2), N - Lh + HALF],
                [N - Rh, m - Lh + N + 1, m + N + Rh + 2, m, Lh + N,
                 m + n - HALF],
                pi_half_power=-2)
            return series * prefactor * two ** (r - l + 2) / (r - l + 1)
        series = hyp_terminating(
            [2 - Lh + Rh, Fraction(3, 2), m + n + 1, 1 - m],
            [N + 2 - Lh, N + Rh + 2, Fraction(5, 2)], 1)
        prefactor = gamma_product(
            [m + Fraction(3, 2), N - Lh + HALF, m + n + 1, N + Rh + HALF],
            [m, N - Lh + 2, m + n - HALF, N + Rh + 2],
            pi_half_power=-2)
        return -series * prefactor * two ** (r - l + 2) / 3
    if kind == "upper":
        if r > l:
            series = hyp_terminating(
                [Rh - N + 1, 1, Rh - Lh + 2, N + Rh + Fraction(3, 2)],
                [m + N + Rh + 2, Rh - m - N + 2, Rh - Lh + Fraction(5, 2)], 1)
            prefactor = gamma_product(
                [m + n + 1, N + Rh + Fraction(3, 2), Lh + m + N,
                 m + N - Rh - 1, m + HALF, N - Lh + Fraction(3, 2)],
                [N - Rh, N - Lh + m + 1, N + m + Rh + 2, m, Lh + N,
                 m + n + HALF],
                pi_half_power=-2)
            return series * prefactor * two ** (r - l + 2) / (r - l + 3)
        series = hyp_terminating(
            [2 + Rh - Lh, HALF, m + n + 1, 1 - m],
            [N - Lh + 2, N + Rh + 2, Fraction(3, 2)], 1)
        prefactor = gamma_product(
            [m + HALF, N - Lh + Fraction(3, 2), m + n + 1, N + Rh + Fraction(3, 2)],
            [m, N - Lh + 2, m + n + HALF, N + Rh + 2],
            pi_half_power=-2)
        return -series * prefactor * two ** (r - l + 2)
    raise ValueError(f"no closed form for kind {kind!r}")


@st.composite
def hole_pair_grids(draw):
    """n <= 40, m <= 8 and some hole pairs (l, r), each on the positions of
    the hexagon or one step beyond them, so that the pole and zero cases
    are compared too."""
    n = 2 * draw(st.integers(1, 20))
    m = draw(st.integers(1, 8))
    position = st.integers(-n // 2 - 1, n // 2 + 1).map(lambda k: 2 * k)
    pairs = draw(st.lists(st.tuples(position, position), min_size=1, max_size=6))
    return n, m, pairs


@settings(DIFFERENTIAL, max_examples=40)
@given(grid=hole_pair_grids())
@example(grid=(2, 1, [(-4, -4), (0, 0), (4, -2)]))
@example(grid=(40, 8, [(-42, 42), (-38, 38), (38, -38), (0, 0), (2, -2), (42, 40)]))
def test_half_formulas_match_per_half_references(grid):
    # the closed form for each kind, full included: value and type, or
    # exception and message
    n, m, pairs = grid
    for kind in ("lower", "upper", "full"):
        for l, r in pairs:
            spec = RegionSpec(n, m, (l,), (r,))
            assert (outcome(closed_form_entry, spec, kind, 1, 1)
                    == outcome(reference_closed_form_entry, spec, kind, 1, 1)), (spec, kind)
