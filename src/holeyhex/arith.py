"""Exact arithmetic for hexagon tiling counts.

Everything in this module is integer or rational and exact: binomial
coefficients with the zero-outside-range convention, rising factorials,
ratios of Gamma values at integer arguments, terminating hypergeometric
sums, and the three classical product formulas that count hexagon tilings
and two of their symmetry classes.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Sequence, Union

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


def pochhammer(a: Rational, b: int) -> Fraction:
    """Rising factorial a(a+1)...(a+b-1); the empty product (b = 0) is 1."""
    if b < 0:
        raise ValueError("pochhammer length must be nonnegative")
    result = Fraction(1)
    a = Fraction(a)
    for t in range(b):
        result *= a + t
    return result


def gamma_ratio(numerator_args: Sequence[int], denominator_args: Sequence[int]) -> Fraction:
    """Exact product(Gamma(a_i)) / product(Gamma(b_j)) for integer arguments.

    A pole among the denominator arguments (a nonpositive integer) makes the
    whole ratio zero.  A pole among the numerator arguments that is not
    matched by a denominator pole has no finite value and raises
    GammaPoleError; matched pole pairs are refused as well since no caller
    in this package needs reflection-style limits.
    """
    num_poles = sum(1 for a in numerator_args if a <= 0)
    den_poles = sum(1 for b in denominator_args if b <= 0)
    if num_poles > den_poles:
        raise GammaPoleError("gamma pole in numerator")
    if num_poles and num_poles == den_poles:
        raise GammaPoleError("pole-for-pole gamma ratio is undefined without limits")
    if den_poles:
        return Fraction(0)
    num = 1
    for a in numerator_args:
        num *= math.factorial(a - 1)
    den = 1
    for b in denominator_args:
        den *= math.factorial(b - 1)
    return Fraction(num, den)


def _gamma_half(a: Fraction) -> tuple[Fraction, int]:
    """Gamma(a) for half-integer a as (rational, exponent of sqrt(pi))."""
    value = Fraction(1)
    x = Fraction(1, 2)
    if a >= x:
        while x < a:
            value *= x
            x += 1
    else:
        while x > a:
            x -= 1
            value /= x
    return value, 1


def gamma_product(numerators: Sequence, denominators: Sequence,
                  pi_half_power: int = 0) -> Fraction:
    """Exact prod Gamma(num) / prod Gamma(den) * pi^(pi_half_power/2).

    Arguments may be integers or half-integers.  The sqrt(pi) factors from
    half-integer arguments must cancel against pi_half_power exactly; the
    caller pairing them up is what keeps this module free of floating
    point.
    """
    num_int, den_int = [], []
    value = Fraction(1)
    power = pi_half_power
    for a in numerators:
        a = Fraction(a)
        if a.denominator == 1:
            num_int.append(int(a))
        else:
            v, p = _gamma_half(a)
            value *= v
            power += p
    for b in denominators:
        b = Fraction(b)
        if b.denominator == 1:
            den_int.append(int(b))
        else:
            v, p = _gamma_half(b)
            value /= v
            power -= p
    if power != 0:
        raise ArithmeticError("sqrt(pi) factors do not cancel")
    return value * gamma_ratio(num_int, den_int)


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
    only checked for poles up to that index.
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
    total = Fraction(0)
    term = Fraction(1)
    for k in range(kmax):
        total += term
        if k + 1 == kmax:
            break
        factor = z
        for a in num:
            factor *= a + k
        for b in den:
            if b + k == 0:
                raise ZeroDivisionError(
                    f"denominator parameter {b} hits a pole at term {k + 1}"
                )
            factor /= b + k
        term *= factor / (k + 1)
    return total


# kind -> (n, m) -> (const, imax, jmax, triangle, top, bottom): the product is
# const * prod (i + j + top) / (i + j + bottom) over 1 <= i <= imax and
# j <= jmax, with j >= i in a triangle and j >= 1 otherwise.  box is
# MacMahon's prod_{i, j, k} (i+j+k-1)/(i+j+k-2) over k <= n, telescoped in k.
_PRODUCTS = {
    "box": lambda n, m: (1, n, 2 * m, False, n - 1, -1),
    "transpose_complement": lambda n, m: (
        binomial(n + m - 1, n - 1), n - 2, n - 2, True, 2 * m + 1, 1),
    "vertical_symmetric": lambda n, m: (1, n, n, True, 2 * m - 1, -1),
}
PRODUCT_KINDS = tuple(_PRODUCTS)


def product_formula(kind: str, n: int, m: int) -> int:
    """One of the three classical tiling-count products for the n,2m,n hexagon.

    ``box`` counts all tilings (equivalently plane partitions in an
    n x 2m x n box), ``transpose_complement`` counts the horizontally
    symmetric tilings, and ``vertical_symmetric`` the vertically symmetric
    ones.  Each product is evaluated as one exact integer quotient and
    asserted to leave no remainder, which catches index-range
    transcription mistakes immediately.
    """
    if n < 1 or m < 1:
        raise ValueError("hexagon sides must be positive")
    if kind not in _PRODUCTS:
        raise ValueError(f"unknown product formula kind: {kind!r}")
    if kind == "transpose_complement" and n % 2:
        raise ValueError("transpose_complement requires even n")
    const, imax, jmax, triangle, top, bottom = _PRODUCTS[kind](n, m)
    sums = Counter(i + j for i in range(1, imax + 1)
                   for j in range(i if triangle else 1, jmax + 1))
    numerator = const * math.prod((s + top) ** k for s, k in sums.items())
    value, remainder = divmod(numerator, math.prod((s + bottom) ** k for s, k in sums.items()))
    if remainder:
        raise ArithmeticError(f"{kind} product did not reduce to an integer")
    return value
