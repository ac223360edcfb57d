"""Path-count matrices, their LU factors, hole matrices, and exact counts.

The source of truth for every matrix entry is the reflection-principle path
count; the printed Gamma-ratio and hypergeometric closed forms are evaluated
only as cross-checks.  The hole (Schur-complement) matrices are computed by
the subtraction formula

    e[i][j] = Q[m+i][m+j] - sum_{s=1..m} B(s; l_i) * D(s; r_j)

without materialising the full (m+p) x (m+p) matrix, which keeps large-n
sweeps cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (GammaPoleError, binomial, factor_ratios, gamma_product, gamma_ratio,
                    hyp_terminating, product_formula, ratio_series)
from .regions import HALVES, RegionSpec, half_shift, lgv_points

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

def path_count(start, end, variant: str = "plain") -> int:
    """Number of north/east lattice paths from start to end.

    ``avoid_diagonal`` counts paths never touching y = x via the reflection
    difference P(end) - P(end reflected); ``weighted_below`` counts paths
    weakly below the diagonal with weight 2 per diagonal touch, which the
    reflection principle turns into the sum P(end) + P(end reflected).
    Both endpoints are expected weakly below y = x - 1.
    """
    return _reflected_count(start, end, variant, math.comb)


def _reflected_count(start, end, variant: str, comb) -> int:
    """path_count with the binomial coefficient taken from ``comb``."""
    (a, b), (c, d) = start, end

    def plain(cx, dy):
        east, north = cx - a, dy - b
        if east < 0 or north < 0:
            return 0
        return comb(east + north, east)

    if variant == "plain":
        return plain(c, d)
    if variant == "avoid_diagonal":
        return plain(c, d) - plain(d, c)
    if variant == "weighted_below":
        return plain(c, d) + plain(d, c)
    raise ValueError(f"unknown path count variant {variant!r}")


# Every path-matrix entry, LU factor entry, hole-matrix entry and closed
# form below is written once for both halves, with some of its parameters
# moved by the half's shift d = half_shift(kind, ...).
def path_matrix(spec: RegionSpec, kind: str) -> Matrix:
    """The (m+p) x (m+p) constrained path-count matrix for a half region.

    Paths avoid the diagonal below the axis (d = 0) and are weighted by
    their diagonal touches above it (d = 1).  Entries are ints.  They share
    few binomials (334 distinct ones for the 2401 entries at n = 188,
    m = 47, p = 2), so each is computed once per call.
    """
    variant = "weighted_below" if half_shift(kind, "path matrix") else "avoid_diagonal"
    starts, ends = lgv_points(spec, kind)
    comb = functools.cache(math.comb)
    return [[_reflected_count(s, e, variant, comb) for e in ends] for s in starts]


def _hole_to_hole(l: int, r: int, d: int) -> Fraction:
    """The hole-hole entry: a ballot number below, its numerator above."""
    if r < l:
        return Fraction(0)
    return Fraction(binomial(r - l + 1, (r - l) // 2), (r - l + 1) ** (1 - d))


def printed_path_entry(spec: RegionSpec, kind: str, i: int, j: int,
                       mixed_variant: str = "recurrence") -> Fraction:
    """The closed-form matrix entry as printed, for cross-checking.

    Indices are 1-based.  For the lower matrix the hole-row/boundary-column
    entry appears in print in two versions that disagree for j >= 2;
    ``mixed_variant`` selects ``"display"`` (the matrix display, which the
    cross-check reports as off) or ``"recurrence"`` (the identity used in
    the LU proof, which matches the path counts).  The upper entries add
    the reflected binomial where the lower ones subtract it, and lack the
    lower ones' ballot factors (2i-1)/(n+r+1) and (2j-1)/(n-l+1).
    """
    n, m, d = spec.n, spec.m, half_shift(kind, "printed entries")
    half = n // 2
    for name, index in (("row", i), ("column", j)):
        _hole(range(1, m + spec.p + 1), index, 1, name)
    if i <= m and j <= m:
        return Fraction(binomial(2 * n, n + j - i) + (2 * d - 1) * binomial(2 * n, n + 1 - i - j))
    if i <= m:
        r = spec.right[j - m - 1]
        ballot = Fraction((2 * i - 1) ** (1 - d), (n + r + 1) ** (1 - d))
        return ballot * binomial(n + r + 1, half + r // 2 + 1 - i)
    if j <= m:
        l = spec.left[i - m - 1]
        if mixed_variant == "display" and d == 0:
            k = half - l // 2 - 1 + j
        else:
            k = half - l // 2 + 1 - j
        ballot = Fraction((2 * j - 1) ** (1 - d), (n - l + 1) ** (1 - d))
        return ballot * binomial(n - l + 1, k)
    return _hole_to_hole(spec.left[i - m - 1], spec.right[j - m - 1], d)


# ---------------------------------------------------------------------------
# LU factor entries

# Gamma arguments of the explicit LU factor entries, as (numerators,
# denominators), for both halves: d is HALVES[kind].  Boundary blocks
# take (n, i, j, d); hole blocks take (n, s, x, d) with s the boundary index
# and x the hole position, l for ``l_hole`` and r for ``u_hole``.  Each
# boundary block carries a pair Gamma(2i-1)/Gamma(2i-1) or
# Gamma(2j-1)/Gamma(2j-1) that cancels at d = 1, so that one list serves
# both halves.  Hole entries carry the sign (-1)**(s+1) and, in the lower
# region, a factor 1/2: HALF ** (1 - d).
_LU_GAMMA_ARGS = {
    "l_boundary": lambda n, i, j, d: (
        [2 * i - d, n + 1, i + j - 1, 2 * j + n],
        [2 * i - 1, 2 * j - d, i - j + 1, j - i + n + 1, i + j + n]),
    "l_hole": lambda n, s, l, d: (
        [s + n - 1 + d, 2 * s + n, n - l + 1 + d, s + l // 2 + n // 2 - 1],
        [s, 2 * s + 2 * n - 2 + 2 * d, n // 2 - l // 2 + 1, l // 2 + n // 2,
         s - l // 2 + n // 2 + 1]),
    "u_boundary": lambda n, i, j, d: (
        [2 * j - d, n + 1, i + j - 1, 2 * i + 2 * n - 1 + d],
        [2 * j - 1, j - i + 1, 2 * i + n - 1, i - j + n + 1, i + j + n]),
    "u_hole": lambda n, s, r, d: (
        [2 * s + 1 - 2 * d, s + n, n + r + 1 + d, s + n // 2 - r // 2 - 1],
        [2 * s + n - 1, s + 1 - d, n // 2 - r // 2, n // 2 + r // 2 + 1,
         s + n // 2 + r // 2 + 1]),
}


def lu_factor_entry(block: str, i: int, j: int, spec: RegionSpec, kind: str) -> Fraction:
    """One entry of the explicit LU factors of a half-region path matrix.

    ``l_boundary``/``u_boundary`` take boundary indices 1..m (diagonal
    entries of the L factor evaluate to exactly 1); ``l_hole`` rows and
    ``u_hole`` columns take a hole index in m+1..m+p, with the relevant
    hole position read off the spec.  Signs alternate with the boundary
    index as printed.
    """
    args, d = _LU_GAMMA_ARGS.get(block), HALVES.get(kind)
    if args is None or d is None:
        raise ValueError(f"unknown LU block {block!r} for kind {kind!r}")
    n, m = spec.n, spec.m
    boundary = range(1, m + 1)
    if block in ("l_hole", "u_hole"):
        s, x = ((j, _hole(spec.left, i, m + 1)) if block == "l_hole"
                else (i, _hole(spec.right, j, m + 1)))
        _hole(boundary, s, 1, "boundary")
        sign = -1 if s % 2 == 0 else 1
        return sign * gamma_ratio(*args(n, s, x, d)) * HALF ** (1 - d)
    for index in (i, j):
        _hole(boundary, index, 1, "boundary")
    if (block == "l_boundary" and j > i) or (block == "u_boundary" and i > j):
        return Fraction(0)
    return gamma_ratio(*args(n, i, j, d))


def _hole(positions, index: int, first: int, name: str = "hole") -> int:
    """The position of hole ``index``, where the holes are numbered from ``first``.

    Any other 1-based index is checked by passing the range of its values.
    """
    if not first <= index < first + len(positions):
        raise IndexError(f"{name} index {index} outside {first}..{first + len(positions) - 1}")
    return positions[index - first]


def hole_matrix_entry(spec: RegionSpec, kind: str, i: int, j: int) -> Fraction:
    """Entry (i, j), 1-based, of the p x p hole matrix by subtraction.

    The Schur sum over s = 1..m of l_hole(s; l) * u_hole(s; r) (the signs
    cancel) is built by its term recurrence.  Every Gamma argument g in
    _LU_GAMMA_ARGS is affine in s with slope 0, 1 or 2, so term(s+1)/term(s)
    is a ratio of products of the linear factors g(1) + t + slope * (s - 1),
    t < slope, read off the table at s = 1 and s = 2.  For holes inside
    [-n+2, n-2] every argument is >= 1 at s = 1 and none decreases in s, so
    every term is finite and nonzero: there is one run of terms, with no
    zero or pole case.  Only the s = 1 term needs a gamma_ratio;
    arith.ratio_series sums the rest from the ratios.
    """
    n, m, d = spec.n, spec.m, half_shift(kind, "hole matrix")
    l = _hole(spec.left, i, 1)
    r = _hole(spec.right, j, 1)
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
    acc_n = acc_d = 1
    if m > 1:
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
    l = _hole(spec.left, i, 1)
    r = _hole(spec.right, j, 1)
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

def det_exact(matrix: Matrix) -> Fraction:
    """Exact determinant of an int/Fraction matrix by elimination on integer rows.

    Each row is first multiplied by the lcm of its denominators.  Clearing
    entry a of a row under pivot P replaces the row by (P/g)*row - (a/g)*top,
    g = gcd(P, a), and then divides it by its content (the gcd of its
    entries); the content division is what keeps the entries small.  The
    pivots, contents and row multipliers are tracked as one numerator and
    one denominator.  Pivot on the first nonzero entry of each column; the
    determinant of the empty matrix is 1.
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
            # this update scaled the determinant by row_scale / content
            g = math.gcd(row_scale, content)
            numer *= content // g
            denom *= row_scale // g
            row[col:] = [0] + new
    return Fraction(numer, denom)


def verify_lu(spec: RegionSpec, kind: str) -> dict:
    """Check Q = L*U entrywise on the three boundary-touching blocks.

    Returns {"ok": bool, "checked": int, "first_failure": (block, i, j) or
    None}.
    """
    m, p = spec.m, spec.p
    q = path_matrix(spec, kind)
    boundary, holes = range(1, m + 1), range(m + 1, m + p + 1)
    checked = 0
    failure = None
    for name, rows, cols, l_block, u_block in (
            ("boundary", boundary, boundary, "l_boundary", "u_boundary"),
            ("boundary_to_hole", boundary, holes, "l_boundary", "u_hole"),
            ("hole_to_boundary", holes, boundary, "l_hole", "u_boundary")):
        for i in rows:
            for j in cols:
                # L and U are triangular on the boundary indices
                total = sum(lu_factor_entry(l_block, i, s, spec, kind)
                            * lu_factor_entry(u_block, s, j, spec, kind)
                            for s in range(1, min(i, j, m) + 1))
                checked += 1
                if total != q[i - 1][j - 1] and failure is None:
                    failure = (name, i, j)
    return {"ok": failure is None, "checked": checked, "first_failure": failure}


@dataclass(frozen=True)
class CountResult:
    """An exact count together with the factors that produced it."""

    spec: RegionSpec
    kind: str
    value: int
    factors: dict

    def to_json_dict(self) -> dict:
        # str() prints an int as "a" and a Fraction as "a/b", or "a" when b = 1
        return {
            "spec": self.spec.to_text(),
            "kind": self.kind,
            "count": str(self.value),
            "factors": {name: str(value) for name, value in self.factors.items()},
        }


# every accepted count-kind spelling -> the kind a CountResult reports
COUNT_KINDS = {"full": "full", "lower": "lower",
               "upper": "upper_weighted", "upper_weighted": "upper_weighted",
               "free": "free_half", "free_half": "free_half"}


def count_region(spec: RegionSpec, kind: str) -> CountResult:
    """Exact (weighted) tiling count of a region, via two asserted routes.

    lower           |det Q_lower|  == TC(n,m) * |det E_lower|
    upper_weighted  |det Q_upper|  == VS(n,m) * |det E_upper|
    full            lower * upper_weighted == box(n,m) * detE_lower * detE_upper
    free_half       == upper_weighted, requires R = -L

    ``kind`` may be any spelling in COUNT_KINDS.  A disagreement between
    routes means a formula bug and raises RouteMismatchError.
    """
    kind = COUNT_KINDS.get(kind, kind)
    n, m = spec.n, spec.m
    if kind == "free_half":
        if not spec.is_mirror_symmetric:
            raise ValueError("free_half requires R = -L")
        inner = count_region(spec, "upper_weighted")
        return CountResult(spec, "free_half", inner.value, inner.factors)
    if kind in ("lower", "upper_weighted"):
        half_kind = kind.removesuffix("_weighted")  # upper_weighted is the upper half
        det_q = det_exact(path_matrix(spec, half_kind))
        prefactor = product_formula("vertical_symmetric" if HALVES[half_kind]
                                    else "transpose_complement", n, m)
        det_e = det_exact(hole_matrix(spec, half_kind))
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
    if kind == "full":
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
    raise ValueError(f"unknown count kind {kind!r}")
