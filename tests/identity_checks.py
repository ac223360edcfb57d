"""Samplers for the classical hypergeometric identities used by the entry
closed forms, the rising factorial they are written in, and the Gamma ratio
as a plain quotient of factorial products.  Each check returns the number
of sampled tuples verified exactly; shared by the unit tests and the
acceptance suite."""

from fractions import Fraction
import math
import random

from holeyhex.arith import (GammaPoleError, NonTerminatingSeriesError, gamma_ratio,
                            hyp_terminating)

HALF = Fraction(1, 2)


def pochhammer(a, b: int) -> Fraction:
    """Rising factorial a(a+1)...(a+b-1); the empty product (b = 0) is 1."""
    if b < 0:
        raise ValueError("pochhammer length must be nonnegative")
    result = Fraction(1)
    a = Fraction(a)
    for t in range(b):
        result *= a + t
    return result


def reference_gamma_ratio(numerator_args, denominator_args) -> Fraction:
    """prod Gamma(a_i) / prod Gamma(b_j) at integers as one quotient of two
    factorial products, with arith.gamma_ratio's pole rules and messages."""
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


def check_wellpoised_5f4(samples: int, seed: int = 2024) -> int:
    """Very-well-poised terminating 5F4 summation against its Gamma product."""
    rng = random.Random(seed)
    verified = 0
    while verified < samples:
        a = rng.randint(2, 10)
        b = rng.randint(1, a - 1)
        c = rng.randint(1, a - b)  # keeps a - b - c + 1 positive
        big_n = rng.randint(0, 5)
        d = -big_n
        lhs = hyp_terminating(
            [a, Fraction(a, 2) + 1, b, c, d],
            [Fraction(a, 2), a - b + 1, a - c + 1, a - d + 1], 1)
        rhs = gamma_ratio(
            [a - b + 1, a - c + 1, a - d + 1, a - b - c - d + 1],
            [a + 1, a - b - c + 1, a - b - d + 1, a - c - d + 1])
        assert lhs == rhs, (a, b, c, d)
        verified += 1
    return verified


def _halves(rng, lo, hi):
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def check_balanced_4f3_transformation(samples: int, seed: int = 2025) -> int:
    """Balanced 4F3 transformation: both sides summed exactly."""
    rng = random.Random(seed)
    verified = 0
    while verified < samples:
        a = _halves(rng, 1, 4)
        b = _halves(rng, 1, 4)
        c = _halves(rng, 1, 4)
        e = _halves(rng, 3, 6)
        f = _halves(rng, 3, 6)
        big_n = rng.randint(0, 4)
        g = a + b + c - e - f - big_n + 1
        try:
            lhs = hyp_terminating([a, b, c, -big_n], [e, f, g], 1)
            prefactor = (pochhammer(e - a, big_n) * pochhammer(f - a, big_n)
                         / (pochhammer(e, big_n) * pochhammer(f, big_n)))
            rhs = prefactor * hyp_terminating(
                [-big_n, a, a + c - e - f - big_n + 1, a + b - e - f - big_n + 1],
                [g, a - e - big_n + 1, a - f - big_n + 1], 1)
        except (ZeroDivisionError, GammaPoleError, NonTerminatingSeriesError):
            continue
        assert lhs == rhs, (a, b, c, e, f, big_n)
        verified += 1
    return verified


def check_wellpoised_7f6_reduction(samples: int, seed: int = 2026) -> int:
    """Very-well-poised terminating 7F6 reduced to a balanced-style 4F3."""
    rng = random.Random(seed)
    verified = 0
    while verified < samples:
        a = _halves(rng, 3, 8)
        b = _halves(rng, 1, 3)
        c = _halves(rng, 1, 3)
        d = _halves(rng, 1, 3)
        e = _halves(rng, 1, 3)
        big_n = rng.randint(0, 4)
        try:
            lhs = hyp_terminating(
                [a, a / 2 + 1, b, c, d, e, -big_n],
                [a / 2, a - b + 1, a - c + 1, a - d + 1, a - e + 1, a + big_n + 1], 1)
            prefactor = (pochhammer(a + 1, big_n) * pochhammer(a - d - e + 1, big_n)
                         / (pochhammer(a - d + 1, big_n) * pochhammer(a - e + 1, big_n)))
            rhs = prefactor * hyp_terminating(
                [a - b - c + 1, d, e, -big_n],
                [a - b + 1, a - c + 1, -a + d + e - big_n], 1)
        except (ZeroDivisionError, GammaPoleError, NonTerminatingSeriesError):
            continue
        assert lhs == rhs, (a, b, c, d, e, big_n)
        verified += 1
    return verified
