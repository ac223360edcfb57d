"""Path-count matrices, hole matrices, and exact counts.

The source of truth for every matrix entry is the reflection-principle path
count; the printed hypergeometric closed forms are evaluated only as
cross-checks.  The printed path entries and the explicit LU factors, through
which the paper proves the hole-matrix formulas, are test references
(tests/test_matrices.py); only the LU factors' hole rows are kept here, as
the terms of the Schur sum.  The hole (Schur-complement) matrices are
computed by the subtraction formula

    e[i][j] = Q[m+i][m+j] - sum_{s=1..m} B(s; l_i) * D(s; r_j)

without materialising the full (m+p) x (m+p) matrix, which keeps large-n
sweeps cheap.  An entry reads only n, m, its two holes and the half, so it
is computed once per (n, m, l_i, r_j, half) and kept, at most _ENTRIES of
them, for every placement that shares the pair.

The path matrices of one hexagon half share their leading m x m block
(boundary starts to boundary ends), so its elimination is recorded once per
(n, m, half), with its determinant checked against the half's product
formula, about 0.8 MiB at n = 200 and 4.9 MiB at n = 400 (m = n/2), and
replayed for every hole placement, which does per-entry work only on its
hole rows and columns, one hole column at a time; regions._UNHOLED_REGIONS
records are kept.  The block is symmetric, so the record reads the entry
below each pivot from the pivot row and builds each row once, from its
diagonal on, when it becomes the pivot row: each entry is one dot product
with the earlier pivot rows (left-looking order), and the steps are those
of the whole block's elimination.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (GammaPoleError, binomial, factor_ratios, gamma_product, gamma_ratio,
                    hyp_terminating, product_formula, ratio_series)
from .regions import (_UNHOLED_REGIONS, RegionSpec, free_boundary_holes, half_shift,
                      lgv_points)

HALF = Fraction(1, 2)

Matrix = list  # of list of Fraction/int rows


class RouteMismatchError(ArithmeticError):
    """Two supposedly equal exact computation routes disagreed."""


def _show(x) -> str:
    """An exact value for an error message.

    Integers too long for str() under Python's int-to-decimal digit limit
    show as their bit length and last nine digits, so that a message about
    a count with tens of thousands of digits can always be built.
    """
    try:
        return str(x)
    except ValueError:
        x = Fraction(x)
        if x.denominator != 1:
            return f"{_show(x.numerator)}/{_show(x.denominator)}"
        k = abs(x.numerator)
        return f"{'-' if x < 0 else ''}<{k.bit_length()}-bit integer ending in {k % 10**9:09d}>"


# ---------------------------------------------------------------------------
# path counts

def _binomial_row(t: int, lo: int, hi: int) -> list:
    """C(t, k) at index k - lo for lo <= k <= hi, 0 where k < 0 or k > t: one
    ``math.comb``, then the multiplicative recurrence; no binomial when the
    window misses 0..t."""
    first, last = max(lo, 0), min(hi, t)
    if first > last:
        return [0] * (hi - lo + 1)
    row = [0] * (first - lo) + [math.comb(t, first)]
    for k in range(first, last):
        row.append(row[-1] * (t - k) // (k + 1))
    return row + [0] * (hi - last)


def _spans(points) -> dict:
    """Per coordinate total x + y of the points, their least and greatest x."""
    xs = {}
    for x, y in points:
        xs.setdefault(x + y, []).append(x)
    return {total: (min(group), max(group)) for total, group in xs.items()}


# Every path-matrix entry, Schur term, hole-matrix entry and closed form
# below is written once for both halves, with some of its parameters
# moved by the half's shift d = half_shift(kind, ...).
def path_matrix(spec: RegionSpec, kind: str) -> Matrix:
    """The (m+p) x (m+p) constrained path-count matrix for a half region.

    Paths avoid the diagonal below the axis (d = 0) and are weighted by
    their diagonal touches above it (d = 1).  Entries are ints: from start
    (a, b) to end (c, e), with T = c + e - a - b steps, the entry is
    C(T, c - a) + (2d - 1) C(T, e - a), the reflection principle's sum or
    difference.  C(T, k) is 0 unless 0 <= k <= T, so both terms are 0 when
    T < 0.  The step totals take at most (1 + |L|)(1 + |R|) values; for each
    one only the window of k that its entries read (bounded by the least and
    greatest a and c among the points of each total) is built once per call,
    0 outside 0..T.  A row's m boundary ends (n + j, n + 1 - j) share
    T = 2n + 1 - a - b, along which c - a rises and e - a falls by one: its
    first m entries add or subtract two slices of that window, the second
    reversed.  Only the hole ends' entries are read one at a time.
    """
    combine = operator.add if half_shift(kind, "path matrix") else operator.sub
    starts, ends = lgv_points(spec, kind)
    n, m = spec.n, spec.m
    windows = {}  # step total -> least and greatest k read, as c - a or e - a = u - c - a
    for v, (alo, ahi) in _spans(starts).items():
        for u, (clo, chi) in _spans(ends).items():
            lo, hi = windows.get(u - v, (math.inf, -math.inf))
            windows[u - v] = (min(lo, clo - ahi, u - chi - ahi),
                              max(hi, chi - alo, u - clo - alo))
    rows = {t: (lo, _binomial_row(t, lo, hi)) for t, (lo, hi) in windows.items()}
    matrix = []
    for a, b in starts:
        lo, row = rows[2 * n + 1 - a - b]
        x, y = n + 1 - a - lo, n + 1 - m - a - lo  # c - a at j = 1 and e - a at j = m
        out = list(map(combine, row[x:x + m], row[y:y + m][::-1]))
        for c, e in ends[m:]:
            lo, row = rows[c + e - a - b]
            out.append(combine(row[c - a - lo], row[e - a - lo]))
        matrix.append(out)
    return matrix


def _hole_to_hole(l: int, r: int, d: int) -> Fraction:
    """The hole-hole entry: a ballot number below, its numerator above."""
    if r < l:
        return Fraction(0)
    return Fraction(binomial(r - l + 1, (r - l) // 2), (r - l + 1) ** (1 - d))


# ---------------------------------------------------------------------------
# hole matrices

# Gamma arguments of the hole rows of the explicit LU factors (rows of L,
# ``l_hole``, and columns of U, ``u_hole``), as (numerators, denominators),
# for both halves: d is half_shift(kind, ...).  Each takes (n, s, x, d) with s the
# boundary index and x the hole position, l for ``l_hole`` and r for
# ``u_hole``.  Hole entries carry the sign (-1)**(s+1) and, in the lower
# region, a factor 1/2: HALF ** (1 - d).
_LU_GAMMA_ARGS = {
    "l_hole": lambda n, s, l, d: (
        [s + n - 1 + d, 2 * s + n, n - l + 1 + d, s + l // 2 + n // 2 - 1],
        [s, 2 * s + 2 * n - 2 + 2 * d, n // 2 - l // 2 + 1, l // 2 + n // 2,
         s - l // 2 + n // 2 + 1]),
    "u_hole": lambda n, s, r, d: (
        [2 * s + 1 - 2 * d, s + n, n + r + 1 + d, s + n // 2 - r // 2 - 1],
        [2 * s + n - 1, s + 1 - d, n // 2 - r // 2, n // 2 + r // 2 + 1,
         s + n // 2 + r // 2 + 1]),
}


def _hole(positions, index: int) -> int:
    """The position of hole ``index``, where the holes are numbered from 1."""
    if not 1 <= index <= len(positions):
        raise IndexError(f"hole index {index} outside 1..{len(positions)}")
    return positions[index - 1]


def hole_matrix_entry(spec: RegionSpec, kind: str, i: int, j: int) -> Fraction:
    """Entry (i, j), 1-based, of the p x p hole matrix by subtraction.

    The entry reads only n, m, the left hole l_i, the right hole r_j and the
    half, so it is computed once per (n, m, l_i, r_j, d) by ``_entry`` and
    kept; an unknown kind raises ValueError before an index outside the
    holes raises IndexError.
    """
    d = half_shift(kind, "hole matrix")
    return _entry(spec.n, spec.m, _hole(spec.left, i), _hole(spec.right, j), d)


# Schur entries kept, each a Fraction of at most a few hundred bytes at the
# benchmark's sizes: the 364 distinct entries of a seed-1 correlation_sweep
# pass fit
_ENTRIES = 1024


@lru_cache(maxsize=_ENTRIES)
def _entry(n: int, m: int, l: int, r: int, d: int) -> Fraction:
    """The hole-matrix entry of left hole l and right hole r in the (n, m)
    half of shift d.

    The Schur sum over s = 1..m of l_hole(s; l) * u_hole(s; r) (the signs
    cancel) is built by its term recurrence.  Every Gamma argument g in
    _LU_GAMMA_ARGS is affine in s with slope 0, 1 or 2, so term(s+1)/term(s)
    is a ratio of products of the linear factors g(1) + t + slope * (s - 1),
    t < slope, read off the table at s = 1 and s = 2.  For holes inside
    [-n+2, n-2] every argument is >= 1 at s = 1 and none decreases in s, so
    every term is finite and nonzero: there is one run of terms, with no
    zero or pole case.  Only the s = 1 term needs a gamma_ratio;
    arith.ratio_series sums the rest from the ratios.  A GammaPoleError is
    raised again on every call, as lru_cache keeps no exception.
    """
    l_hole, u_hole = _LU_GAMMA_ARGS["l_hole"], _LU_GAMMA_ARGS["u_hole"]
    total = _hole_to_hole(l, r, d)
    if m < 1:
        return total
    # the Gamma arguments of the Schur term at s = 1 and, below, at s = 2
    (l_num, l_den), (u_num, u_den) = l_hole(n, 1, l, d), u_hole(n, 1, r, d)
    nums, dens = l_num + u_num, l_den + u_den
    if min(nums + dens) < 1:
        raise GammaPoleError(
            f"Schur term of hole pair ({l}, {r}) at n={n} has a Gamma argument "
            f"below 1; hole positions must lie in [{2 - n}, {n - 2}]")
    (l_num, l_den), (u_num, u_den) = l_hole(n, 2, l, d), u_hole(n, 2, r, d)
    acc_n, acc_d = ratio_series(factor_ratios(_linear_factors(nums, l_num + u_num),
                                              _linear_factors(dens, l_den + u_den), m - 1))
    # head * (acc_n / acc_d) * HALF ** (2 - 2d), the two hole scales, as one Fraction
    head = gamma_ratio(nums, dens)
    return total - Fraction(head.numerator * acc_n, head.denominator * acc_d * 4 ** (1 - d))


def _linear_factors(firsts, seconds) -> list:
    """prod Gamma(g(s+1)) / Gamma(g(s)) over Gamma arguments g given at s = 1, 2.

    With slope = g(2) - g(1), the quotient for one g is the product of
    g(1) + t + slope * (s - 1) over t < slope: the factors (g(1) + t, slope)
    of arith.factor_ratios, at k = s - 1.
    """
    return [(a + t, b - a) for a, b in zip(firsts, seconds) for t in range(b - a)]


def hole_matrix(spec: RegionSpec, kind: str) -> Matrix:
    """The p x p Schur-complement matrix isolating the holes' contribution."""
    half_shift(kind, "hole matrix")
    p = spec.p
    return [[hole_matrix_entry(spec, kind, i, j) for j in range(1, p + 1)]
            for i in range(1, p + 1)]


# ---------------------------------------------------------------------------
# hypergeometric closed forms for the hole-matrix entries

def closed_form_entry(spec: RegionSpec, kind: str, i: int, j: int) -> Fraction:
    """The printed hypergeometric closed form of a hole-matrix entry.

    Exact evaluation; serves as a cross-check of hole_matrix_entry, which
    stays authoritative.  The two branches split on the sign of r_j - l_i;
    the upper half's parameters are the lower half's moved by d = 1.
    """
    n, m, d = spec.n, spec.m, half_shift(kind, "closed form")
    l = _hole(spec.left, i)
    r = _hole(spec.right, j)
    N, Lh, Rh = Fraction(n, 2), Fraction(l, 2), Fraction(r, 2)
    two = Fraction(2)
    if r > l:
        series = hyp_terminating(
            [Rh - N + 1, 1, Rh - Lh + 2, N + Rh + HALF + d],
            [m + N + Rh + 2, Rh - m - N + 2, Rh - Lh + Fraction(3, 2) + d], 1)
        prefactor = gamma_product(
            [m + n + 1, N + Rh + HALF + d, Lh + m + N, m + N - Rh - 1,
             m + Fraction(3, 2) - d, N - Lh + HALF + d],
            [N - Rh, m - Lh + N + 1, m + N + Rh + 2, m, Lh + N,
             m + n - HALF + d],
            pi_half_power=-2)
        return series * prefactor * two ** (r - l + 2) / (r - l + 1 + 2 * d)
    series = hyp_terminating(
        [2 - Lh + Rh, Fraction(3, 2) - d, m + n + 1, 1 - m],
        [N + 2 - Lh, N + Rh + 2, Fraction(5, 2) - d], 1)
    prefactor = gamma_product(
        [m + Fraction(3, 2) - d, N - Lh + HALF + d, m + n + 1, N + Rh + HALF + d],
        [m, N - Lh + 2, m + n - HALF + d, N + Rh + 2],
        pi_half_power=-2)
    return -series * prefactor * two ** (r - l + 2) / (3 - 2 * d)


# ---------------------------------------------------------------------------
# determinants and counts

def _clear(rows, col: int, pivot: int, tail) -> int:
    """Clear column ``col`` of the integer ``rows`` in place under the reduced
    pivot row (pivot, *tail): entry a turns its row into (P/g)*row - (a/g)*top,
    g = gcd(P, a).  Returns the product of the P/g."""
    denom = 1
    for row in rows:
        a = row[col]
        if a:
            g = math.gcd(pivot, a)
            row_scale, top_scale = pivot // g, a // g
            row[col + 1:] = [row_scale * x - top_scale * y for x, y in zip(row[col + 1:], tail)]
            denom *= row_scale
    return denom


def _eliminate(work, start: int) -> tuple:
    """Eliminate columns start.. of the integer rows ``work`` in place, each
    pivot row divided by its content; returns the determinant factor as
    (numer, denom), numer 0 when a column has no pivot."""
    size = len(work)
    numer = denom = 1
    for col in range(start, size):
        pivot_row = next((r for r in range(col, size) if work[r][col]), None)
        if pivot_row is None:
            return 0, 1
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            numer = -numer
        top = work[col][col:]
        content = math.gcd(*top)
        if content > 1:
            top = [x // content for x in top]
        pivot, *tail = top
        numer *= content * pivot
        denom *= _clear(work[col + 1:], col, pivot, tail)
    return numer, denom


def _record(block) -> tuple:
    """Eliminate the symmetric integer ``block`` as ``_eliminate`` would, with
    no row swaps (a zero pivot raises ArithmeticError), and record it:
    (det, steps), the determinant as a Fraction and each column's
    (content, pivot, tail, row_scales, top_scales), the P/g and a/g applied
    to each row below the pivot (1 and 0 where a = 0).

    Each row is built once, from its diagonal on, when it becomes the pivot
    row (left-looking order).  Row i is lam_i * S_i, with S the rational Schur
    complement, which stays symmetric, and lam_i the product of the P/g
    applied to row i so far.  So row i's entry below pivot c is c's reduced
    entry in column i times content_c * lam_i / lam_c, an exact division,
    which gives that step's scales.  With nu_c = (a/g)_c times the P/g of the
    later pivots, the row is lam_i * block[i][j] - sum_c nu_c * tail_c[j],
    one dot product per entry: the steps of the whole block's elimination.
    """
    steps = []  # per pivot: content, pivot, lam, tail, row_scales, top_scales
    columns = [[] for _ in block]  # column j's entries of the reduced pivot rows
    numer = denom = 1
    for i, row in enumerate(block):
        lam = 1
        for (content, pivot, lam_c, _, row_scales, top_scales), x in zip(steps, columns[i]):
            a = content * x * lam // lam_c
            g = math.gcd(pivot, a) if a else pivot  # the scales 1, 0 where a = 0
            row_scale, top_scale = pivot // g, a // g
            lam *= row_scale
            row_scales.append(row_scale)
            top_scales.append(top_scale)
        denom *= lam
        nu, later = [], 1  # the scales just appended are row i's
        for *_, row_scales, top_scales in reversed(steps):
            nu.append(top_scales[-1] * later)
            later *= row_scales[-1]
        nu.reverse()
        top = [lam * x - sum(map(operator.mul, nu, column))
               for x, column in zip(row[i:], columns[i:])]
        if not top[0]:
            raise ArithmeticError(f"zero pivot in column {i}; a lead is eliminated "
                                  "without row swaps")
        content = math.gcd(*top)
        if content > 1:
            top = [x // content for x in top]
        pivot, *tail = top
        numer *= content * pivot
        for column, x in zip(columns[i + 1:], tail):
            column.append(x)
        steps.append((content, pivot, lam, tail, [], []))
    return Fraction(numer, denom), tuple(
        (content, pivot, tuple(tail), tuple(row_scales), tuple(top_scales))
        for content, pivot, _, tail, row_scales, top_scales in steps)


@lru_cache(maxsize=_UNHOLED_REGIONS)
def _boundary_steps(n: int, m: int, kind: str) -> tuple:
    """The unholed (n, m) half's path matrix, which leads every path matrix of
    that hexagon half, eliminated as a ``det_exact`` lead: (prefactor, steps),
    its determinant, checked here against the half's product formula (a
    mismatch raises RouteMismatchError), and its ``_record`` steps.  The
    block is symmetric, C(2n, n + j - i) +- C(2n, n + 1 - i - j), so it is
    checked to be and eliminated from its upper triangle; an asymmetric
    block raises RouteMismatchError."""
    block = path_matrix(RegionSpec(n, m, (), ()), kind)
    if any(map(operator.ne, block, map(list, zip(*block)))):
        i, j = next((i, j) for i, row in enumerate(block) for j in range(i)
                    if row[j] != block[j][i])
        raise RouteMismatchError(
            f"{kind}: the unholed ({n}, {m}) boundary block is not symmetric: entry "
            f"({i + 1}, {j + 1}) = {_show(block[i][j])} but ({j + 1}, {i + 1}) = "
            f"{_show(block[j][i])}")
    det, steps = _record(block)
    formula = "vertical_symmetric" if half_shift(kind, "prefactor") else "transpose_complement"
    prefactor = product_formula(formula, n, m)
    if det != prefactor:
        raise RouteMismatchError(f"{kind}: unholed det Q = {_show(det)} but {formula}({n}, {m}) = "
                                 f"{_show(prefactor)}")
    return prefactor, steps


def _replay(work, steps) -> int:
    """Replay ``steps``, the recorded elimination of the leading k x k block of
    the integer rows ``work``, on the rest of them in place; returns the
    denominator factor.  The first k rows of ``work`` are their borders only
    (column k on), held here as one list per hole column.  Each recorded
    column first multiplies every remaining border entry by s = c/g, c the
    pivot row's content and g its gcd with the row's border, so that c
    divides the whole pivot row; then, in one pass per hole column, each later
    lead row's entry x becomes (s*r)*x - q*t, r and q that row's recorded
    scales and t the pivot row's entry over g."""
    k, size = len(steps), len(work)
    columns = [list(c) for c in zip(*work[:k])]
    rest = work[k:]
    denom = 1
    for col, (content, pivot, tail, row_scales, top_scales) in enumerate(steps):
        g = math.gcd(content, *(c[col] for c in columns))
        s = content // g
        if s > 1:
            denom *= s ** (size - k)
            for row in rest:
                row[k:] = [s * x for x in row[k:]]
            row_scales = [s * r for r in row_scales]
        top = [c[col] // g for c in columns]
        for c, t in zip(columns, top):
            c[col + 1:] = [r * x - q * t for x, r, q in zip(c[col + 1:], row_scales, top_scales)]
        denom *= _clear(rest, col, pivot, [*tail, *top])
    return denom


def det_exact(matrix: Matrix, lead: tuple | None = None) -> Fraction:
    """Exact determinant of an int/Fraction matrix by elimination on integer rows.

    Each row is first multiplied by the lcm of its denominators.  A row is
    divided by its content (the gcd of its entries) once, when it becomes
    the pivot row; this is what keeps the entries small.  Clearing entry a
    of a later row under pivot P replaces that row by (P/g)*row - (a/g)*top,
    g = gcd(P, a), with no gcd over the row.  The contents and pivots are
    tracked as one numerator, the row multipliers P/g and lcms as one
    denominator.  Pivot on the first nonzero entry of each column; the
    determinant of the empty matrix is 1; a non-square one raises ValueError.

    ``lead``, the leading k x k block's elimination as ``_boundary_steps``
    records it, (determinant, steps) with the first k rows integer, is
    replayed without pivoting on the rest of the matrix (``_replay``) before
    the last size - k columns are eliminated as above; the result is the
    same Fraction, and the first k rows are read only from column k on.  The
    block's first row is content * (pivot, *tail) of the first step, and as
    the recorded block is symmetric, so is its first column: a matrix whose
    size, first row or first column differs from it raises ValueError.  The
    check is complete on a half's own path matrices: their leading k x k block
    depends only on n, the half and k <= m, and a lead of k > m raises.
    """
    size = len(matrix)
    if any(len(row) != size for row in matrix):
        raise ValueError(f"det_exact needs a square matrix, got {size} rows of lengths "
                         f"{[len(row) for row in matrix]}")
    lead_det, steps = lead or (1, ())
    k = len(steps)
    if k:
        content, pivot, tail = steps[0][:3]
        first = tuple(content * x for x in (pivot, *tail))
        if (k > size or tuple(matrix[0][:k]) != first
                or tuple(row[0] for row in matrix[:k]) != first):
            raise ValueError(f"the lead is not this {size} x {size} matrix's leading "
                             f"{k} x {k} block")
    denom = 1
    work = []
    for row in [*(row[k:] for row in matrix[:k]), *matrix[k:]]:  # a lead row's border only
        lcm = math.lcm(*(x.denominator for x in row))
        denom *= lcm
        work.append([x.numerator * (lcm // x.denominator) for x in row])
    denom *= _replay(work, steps)
    numer, rest_denom = _eliminate(work, len(steps))
    return Fraction(lead_det * numer, denom * rest_denom)


@dataclass(frozen=True)
class CountResult:
    """An exact count together with the factors that produced it."""

    spec: RegionSpec
    kind: str
    value: int
    factors: dict

    def to_json_dict(self) -> dict:
        # str() prints an int as "a" and a Fraction as "a/b", or "a" when b = 1;
        # a factor of value +-count (a half's path_det) reuses the count's digits
        count = str(self.value)
        shown = {-self.value: "-" + count, self.value: count}  # "0" wins at count 0
        return {
            "spec": self.spec.to_text(),
            "kind": self.kind,
            "count": count,
            "factors": {name: shown.get(value) or str(value)
                        for name, value in self.factors.items()},
        }


# every accepted count-kind spelling -> (the kind a CountResult reports, the half it
# counts or None for both); free_half is the weighted upper half's count (Ciucu 1997)
COUNT_KINDS = {"full": ("full", None), "lower": ("lower", "lower"),
               "upper": ("upper_weighted", "upper"), "upper_weighted": ("upper_weighted", "upper"),
               "free": ("free_half", "upper"), "free_half": ("free_half", "upper")}


def count_region(spec: RegionSpec, kind: str) -> CountResult:
    """Exact (weighted) tiling count of a region, via two asserted routes.

    lower           |det Q_lower|  == TC(n,m) * |det E_lower|
    upper_weighted  |det Q_upper|  == VS(n,m) * |det E_upper|
    full            lower * upper_weighted == box(n,m) * detE_lower * detE_upper
    free_half       == upper_weighted, for a spec facing a free boundary

    ``kind`` may be any spelling in COUNT_KINDS.  A disagreement between
    routes means a formula bug and raises RouteMismatchError.
    """
    if kind not in COUNT_KINDS:
        raise ValueError(f"unknown count kind {kind!r}")
    kind, half = COUNT_KINDS[kind]
    n, m = spec.n, spec.m
    if kind == "free_half":
        free_boundary_holes(spec, "free_half count")
    if half:
        lead = _boundary_steps(n, m, half)
        det_q, prefactor = det_exact(path_matrix(spec, half), lead), lead[0]
        det_e = det_exact(hole_matrix(spec, half))
        if abs(det_q) != prefactor * abs(det_e):
            raise RouteMismatchError(
                f"{kind}: |det Q| = {_show(det_q)} but prefactor * |det E| = "
                f"{_show(prefactor * abs(det_e))}")
        value = abs(det_q)
        if value.denominator != 1:
            raise RouteMismatchError(f"{kind} count is not an integer: {_show(value)}")
        return CountResult(spec, kind, value.numerator, {
            "prefactor": prefactor,
            "hole_det": det_e,
            "path_det": det_q,
        })
    lower = count_region(spec, "lower")
    upper = count_region(spec, "upper_weighted")
    box = product_formula("box", n, m)
    det_lower = lower.factors["hole_det"]
    det_upper = upper.factors["hole_det"]
    product = box * det_lower * det_upper
    if det_lower * det_upper < 0:
        raise RouteMismatchError(
            f"hole determinants have opposite signs: {_show(det_lower)}, "
            f"{_show(det_upper)}")
    if product != lower.value * upper.value:
        raise RouteMismatchError(
            f"full: box * detE * detE = {_show(product)} but factor product = "
            f"{_show(lower.value * upper.value)}")
    return CountResult(spec, "full", lower.value * upper.value, {
        "box": box,
        "lower": lower.value,
        "upper_weighted": upper.value,
        "hole_det_lower": det_lower,
        "hole_det_upper": det_upper,
    })
