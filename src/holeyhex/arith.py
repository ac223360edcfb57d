"""Exact arithmetic for hexagon tiling counts.

Everything in this module is integer or rational and exact: binomial
coefficients with the zero-outside-range convention, ratios of Gamma
values at integer and half-integer arguments (a half-integer rewritten as
integer ones, a power of 4 and sqrt(pi); then all cancelled pairwise into
falling factorials),
terminating series summed from reduced ratios of linear term factors (the
Schur hole sums and the hypergeometric sums; the sums come back unreduced),
and the three classical product formulas that count hexagon tilings and two
of their symmetry classes.  The products are built from prime exponents: no
big integer is ever divided.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from typing import Iterator, Sequence, Union

Rational = Union[Fraction, int]


class GammaPoleError(ArithmeticError):
    """A Gamma pole appeared where nothing cancels it."""


class NonTerminatingSeriesError(ValueError):
    """A hypergeometric sum was requested that does not terminate."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, extended by 0 whenever k < 0 or k > n.

    This matches Gamma(n+1)/(Gamma(k+1)Gamma(n-k+1)) on 0 <= k <= n and is
    identically zero everywhere else, so Pascal's rule holds for all
    integer arguments with n >= 1.
    """
    if 0 <= k <= n:
        return math.comb(n, k)
    return 0


def gamma_ratio(numerator_args: Sequence[int], denominator_args: Sequence[int]) -> Fraction:
    """Exact product(Gamma(a_i)) / product(Gamma(b_j)) for integer arguments.

    A pole among the denominator arguments (a nonpositive integer) makes the
    whole ratio zero.  A pole among the numerator arguments that is not
    matched by a denominator pole has no finite value and raises
    GammaPoleError; matched pole pairs are refused as well since no caller
    in this package needs reflection-style limits.

    Both lists are sorted and paired largest with largest, so each pair
    Gamma(a)/Gamma(b) cancels to a falling factorial: (a-1)!/(b-1)! on the
    numerator side when a >= b, its inverse on the denominator side
    otherwise.  Only the unpaired smallest arguments of the longer list
    take a full factorial.
    """
    num_poles = sum(1 for a in numerator_args if a <= 0)
    den_poles = sum(1 for b in denominator_args if b <= 0)
    if num_poles > den_poles:
        raise GammaPoleError("gamma pole in numerator")
    if num_poles and num_poles == den_poles:
        raise GammaPoleError("pole-for-pole gamma ratio is undefined without limits")
    if den_poles:
        return Fraction(0)
    tops = sorted(numerator_args, reverse=True)
    bottoms = sorted(denominator_args, reverse=True)
    num = den = 1
    for a, b in zip(tops, bottoms):
        if a >= b:
            num *= math.perm(a - 1, a - b)
        else:
            den *= math.perm(b - 1, b - a)
    for a in tops[len(bottoms):]:
        num *= math.factorial(a - 1)
    for b in bottoms[len(tops):]:
        den *= math.factorial(b - 1)
    return Fraction(num, den)


def gamma_product(numerators: Sequence, denominators: Sequence,
                  pi_half_power: int = 0) -> Fraction:
    """Exact prod Gamma(num) / prod Gamma(den) * pi^(pi_half_power/2).

    Arguments may be integers or half-integers.  Each half-integer is turned
    into integer Gamma arguments, a power of 4 and one sqrt(pi), for k >= 0:
    Gamma(k + 1/2) = sqrt(pi) Gamma(2k + 1) / (4^k Gamma(k + 1)) and
    Gamma(1/2 - k) = sqrt(pi) (-4)^k Gamma(k + 1) / Gamma(2k + 1).  One
    gamma_ratio then pairs all the integer arguments.  The sqrt(pi) factors
    must cancel against pi_half_power exactly; the caller pairing them up is
    what keeps this module free of floating point.
    """
    sides = ([], [])  # the integer Gamma arguments above and below the bar
    fours = flips = 0  # the exponent of 4 and the number of sign changes
    power = pi_half_power
    for side, args in enumerate((numerators, denominators)):
        sign = -1 if side else 1  # a denominator's factors enter inverted
        for a in map(Fraction, args):
            if a.denominator == 1:
                sides[side].append(int(a))
                continue
            if a.denominator != 2:
                raise ValueError(f"Gamma argument {a} is not a half-integer")
            k = math.floor(a)  # a = k + 1/2, and a = 1/2 - (-k) when k < 0
            same, other = (2 * k + 1, k + 1) if k >= 0 else (1 - k, 1 - 2 * k)
            sides[side].append(same)
            sides[1 - side].append(other)
            fours -= sign * k
            flips -= min(k, 0)
            power += sign
    if power != 0:
        raise ArithmeticError("sqrt(pi) factors do not cancel")
    return (-1) ** flips * Fraction(4) ** fours * gamma_ratio(*sides)


def factor_ratios(tops: Sequence[tuple[int, int]], bottoms: Sequence[tuple[int, int]],
                  count: int) -> list[tuple[int, int]]:
    """The integer ratios p_k / q_k, k < count, of two products of linear factors.

    A factor (c, slope) stands for c + slope * k; p_k is the product of the
    ``tops`` and q_k that of the ``bottoms``.  A factor in both lists cancels.
    Each remaining one is laid out as a column over k and every product is
    taken in one C-level pass over the columns.  The pairs are what
    ratio_series sums.
    """
    bottoms = list(bottoms)
    kept = []
    for factor in tops:
        if factor in bottoms:
            bottoms.remove(factor)
        else:
            kept.append(factor)
    return list(zip(_factor_products(kept, count), _factor_products(bottoms, count)))


def _factor_products(factors: Sequence[tuple[int, int]], count: int) -> Iterator[int]:
    """prod (c + slope * k) over the factors, for each k < count."""
    columns = [range(c, c + slope * count, slope) if slope else repeat(c, count)
               for c, slope in factors]
    return map(math.prod, zip(repeat(1, count), *columns))


def ratio_series(ratios: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """1 + r_1 (1 + r_2 (... (1 + r_K))) for integer ratios r_k = p_k / q_k.

    Summed by backward Horner over one common denominator.  Each ratio is
    cut by gcd(p_k, q_k) before its step, which keeps the partial sums
    small; the sum itself comes back unreduced, so that a caller folds in
    its own factors before one Fraction.
    """
    num = den = 1
    for p, q in reversed(ratios):
        g = math.gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        den *= q
        num = den + p * num
    return num, den


def hyp_terminating(
    num_params: Sequence[Rational],
    den_params: Sequence[Rational],
    z: Rational,
) -> Fraction:
    """Exact value of a terminating generalised hypergeometric series.

    Sums sum_k (a_1)_k ... (a_p)_k / ((b_1)_k ... (b_q)_k) * z^k / k! over
    the terminating range.  The termination index is the smallest k at
    which some numerator Pochhammer vanishes, i.e. the smallest 1 - a over
    nonpositive-integer numerator parameters a; denominator parameters are
    only checked for poles up to that index.  Over the parameters' common
    denominator s each term ratio is a ratio of linear factors in k, summed
    by factor_ratios and ratio_series.
    """
    num = [Fraction(a) for a in num_params]
    den = [Fraction(b) for b in den_params]
    z = Fraction(z)
    if z == 0:
        return Fraction(1)
    stops = [1 - a for a in num if a.denominator == 1 and a <= 0]
    if not stops:
        raise NonTerminatingSeriesError(
            "no nonpositive integer among the numerator parameters"
        )
    kmax = int(min(stops))
    # the first b with b + k = 0 at some k < kmax - 1, a pole before the series stops
    pole = max((b for b in den if b.denominator == 1 and 2 - kmax <= b <= 0), default=None)
    if pole is not None:
        raise ZeroDivisionError(f"denominator parameter {pole} hits a pole at term {1 - pole}")
    s = math.lcm(*(x.denominator for x in num + den))
    # a + k = (s a + s k) / s, k + 1 = (s + s k) / s, and the powers of s
    # left over fold into z; k + 1 then cancels against a parameter a = 1
    c = z * Fraction(s) ** (len(den) + 1 - len(num))
    tops = [(int(s * a), s) for a in num] + [(c.numerator, 0)]
    bottoms = [(int(s * b), s) for b in den] + [(s, s), (c.denominator, 0)]
    return Fraction(*ratio_series(factor_ratios(tops, bottoms, kmax - 1)))


# kind -> (n, m) -> blocks (imax, jmax, triangle, top, bottom); the product is
# the product over the blocks of prod (i + j + top) / (i + j + bottom) over
# 1 <= i <= imax and j <= jmax, with j >= i in a triangle (where imax <= jmax)
# and j >= 1 otherwise.  Every base i + j + top or i + j + bottom lies in
# [1, 2(n + m)).  box is MacMahon's prod_{i, j, k} (i+j+k-1)/(i+j+k-2) over
# k <= n, telescoped in k; transpose_complement's first block, a single row,
# is its constant C(n+m-1, n-1) = prod_{t < n} (m + t) / t.
_PRODUCTS = {
    "box": lambda n, m: ((n, 2 * m, False, n - 1, -1),),
    "transpose_complement": lambda n, m: ((1, n - 1, False, m - 1, -1),
                                          (n - 2, n - 2, True, 2 * m + 1, 1)),
    "vertical_symmetric": lambda n, m: ((n, n, True, 2 * m - 1, -1),),
}
PRODUCT_KINDS = tuple(_PRODUCTS)


def _product_tree(values: list) -> int:
    """Product of ``values`` as a balanced binary tree of multiplications."""
    if len(values) <= 2:
        return math.prod(values)
    half = len(values) // 2
    return _product_tree(values[:half]) * _product_tree(values[half:])


def product_formula(kind: str, n: int, m: int) -> int:
    """One of the three classical tiling-count products for the n,2m,n hexagon.

    ``box`` counts all tilings (equivalently plane partitions in an
    n x 2m x n box), ``transpose_complement`` counts the horizontally
    symmetric tilings, and ``vertical_symmetric`` the vertically symmetric
    ones.  Each product is collected into one exponent per base: the k
    index pairs with i + j = s put +k on the base s + top and -k on
    s + bottom.  Row i of a block covers an interval of sums, so marking
    each row's two ends in a difference array and taking one prefix sum
    gives every base's exponent without visiting the pairs.  A sieve of
    smallest prime factors, built per call, splits the bases into primes:
    from the largest base down, each composite hands its exponent down to
    its smallest prime p and to base // p.  The result is the product of
    the prime powers, multiplied as a balanced tree.  A negative
    prime exponent means the quotient is not an integer and raises
    ArithmeticError, which catches index-range transcription mistakes
    immediately.
    """
    if n < 1 or m < 1:
        raise ValueError("hexagon sides must be positive")
    if kind not in _PRODUCTS:
        raise ValueError(f"unknown product formula kind: {kind!r}")
    if kind == "transpose_complement" and n % 2:
        raise ValueError("transpose_complement requires even n")
    steps = [0] * (2 * (n + m) + 1)
    for imax, jmax, triangle, top, bottom in _PRODUCTS[kind](n, m):
        for i in range(1, imax + 1):
            first, last = i + (i if triangle else 1), i + jmax
            steps[first + top] += 1
            steps[last + top + 1] -= 1
            steps[first + bottom] -= 1
            steps[last + bottom + 1] += 1
    exponents = list(accumulate(steps))
    spf = list(range(len(steps)))  # the smallest prime factor of each base
    for p in range(2, math.isqrt(len(steps) - 1) + 1):
        if spf[p] == p:
            for q in range(p * p, len(steps), p):
                if spf[q] == q:
                    spf[q] = p
    for base in range(len(steps) - 1, 3, -1):
        e, p = exponents[base], spf[base]
        if e and p < base:
            exponents[p] += e
            exponents[base // p] += e
            exponents[base] = 0
    if min(exponents[2:]) < 0:
        raise ArithmeticError(f"{kind} product did not reduce to an integer")
    return _product_tree([p ** e for p, e in enumerate(exponents[2:], 2) if e])
