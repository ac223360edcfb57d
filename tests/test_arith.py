import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holeyhex import arith
from holeyhex.arith import (GammaPoleError, NonTerminatingSeriesError, binomial,
                            factor_ratios, gamma_ratio, hyp_terminating, product_formula,
                            ratio_series)
from holeyhex.matrices import closed_form_entry, det_exact, path_matrix
from holeyhex.oracle import count_tilings
from holeyhex.regions import validate
from helpers import hexagon_region, outcome
from identity_checks import pochhammer, reference_gamma_ratio


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_pascal_rule():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 40)
        k = rng.randint(-5, n + 5)
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_pochhammer_values():
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(7, 2), 0) == 1
    assert pochhammer(-2, 4) == 0


def test_pochhammer_recurrence():
    rng = random.Random(2)
    for _ in range(100):
        a = Fraction(rng.randint(-8, 8), rng.choice([1, 2]))
        b = rng.randint(0, 10)
        assert pochhammer(a, b + 1) == pochhammer(a, b) * (a + b)


def test_pochhammer_negative_length():
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_gamma_ratio_values():
    assert gamma_ratio([5], [3]) == 12
    assert gamma_ratio([3], [0]) == 0
    assert gamma_ratio([4, 2], [3, 3]) == Fraction(6, 4)


def test_gamma_ratio_numerator_pole():
    with pytest.raises(GammaPoleError):
        gamma_ratio([0], [2])
    with pytest.raises(GammaPoleError):
        gamma_ratio([0], [0])


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(tops=st.lists(st.integers(-3, 2000), max_size=6),
       bottoms=st.lists(st.integers(-3, 2000), max_size=6))
@example(tops=[0], bottoms=[2])
@example(tops=[-3, 0, 5], bottoms=[-1, 1500])
@example(tops=[0, 5], bottoms=[-1, 3])
@example(tops=[3], bottoms=[0, 5])
@example(tops=[1500, 1500, 3, 3], bottoms=[3, 1500, 2000])
@example(tops=[], bottoms=[2000, 1, 1])
@example(tops=[7, 7, 7, 2, 1, 1], bottoms=[])
def test_gamma_ratio_matches_factorial_products(tops, bottoms):
    # value and type, or error class and message, poles included
    assert outcome(gamma_ratio, tops, bottoms) == outcome(reference_gamma_ratio, tops, bottoms)


def test_gamma_ratio_pairs_arguments_instead_of_building_factorials(monkeypatch):
    tops, bottoms = [2000, 1999, 7, 7, 1], [1998, 3, 900, 7, 2]
    expected = reference_gamma_ratio(tops, bottoms), reference_gamma_ratio([6, 5, 4], [10])
    calls = []
    real = math.factorial
    monkeypatch.setattr(arith.math, "factorial", lambda x: calls.append(x) or real(x))
    # lists of equal length cancel pair by pair and build no factorial
    assert gamma_ratio(tops, bottoms) == expected[0]
    assert calls == []
    # only the two smallest numerator arguments are left over after the pair
    assert gamma_ratio([6, 5, 4], [10]) == expected[1]
    assert sorted(calls) == [3, 4]


def test_hyp_terminating_values():
    assert hyp_terminating([-1, 2], [3], 1) == Fraction(1, 3)
    assert hyp_terminating([5, Fraction(1, 2)], [7], 0) == 1
    # direct three-term sum 1 - 2 + 1
    assert hyp_terminating([-2, 1], [1], 1) == 0


def test_hyp_terminating_errors():
    with pytest.raises(NonTerminatingSeriesError):
        hyp_terminating([1, 2], [3], 1)
    with pytest.raises(ZeroDivisionError):
        hyp_terminating([-5, 1], [-2], 1)


def test_hyp_matches_independent_accumulation():
    # recompute every term from scratch and sum in reversed order
    rng = random.Random(3)
    for _ in range(60):
        terminator = -rng.randint(0, 6)
        num = [Fraction(terminator), Fraction(rng.randint(1, 9), rng.choice([1, 2]))]
        den = [Fraction(rng.randint(1, 9), rng.choice([1, 2]))]
        z = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        terms = []
        for k in range(1 - terminator):
            term = Fraction(z) ** k / arith.math.factorial(k)
            for a in num:
                term *= pochhammer(a, k)
            for b in den:
                term /= pochhammer(b, k)
            terms.append(term)
        expected = sum(reversed(terms), Fraction(0)) if z != 0 else Fraction(1)
        assert hyp_terminating(num, den, z) == expected


def test_ratio_series_sums_from_the_innermost_ratio():
    assert ratio_series([]) == (1, 1)
    assert ratio_series([(3, 4)]) == (7, 4)  # 1 + 3/4
    assert ratio_series([(-5, 2)]) == (-3, 2)
    # 1 + (1/2)(1 + 1/3), unreduced
    assert ratio_series([(1, 2), (1, 3)]) == (10, 6)
    # each ratio is cut to lowest terms before its step; the sum is not
    assert ratio_series([(2, 4)]) == (3, 2)


def reference_ratio_series(ratios):
    """Backward Horner on the ratios exactly as given, with no gcd."""
    num = den = 1
    for p, q in reversed(ratios):
        num, den = q * den + p * num, q * den
    return num, den


def reference_gcd_ratio_series(ratios):
    """ratio_series with each ratio cut by its gcd and q * den formed twice
    per step, as the step was written before it formed it once."""
    num = den = 1
    for p, q in reversed(ratios):
        g = math.gcd(p, q)
        if g > 1:
            p, q = p // g, q // g
        num, den = q * den + p * num, q * den
    return num, den


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ratios=st.lists(st.tuples(st.integers(-720, 720),
                                 st.integers(-720, 720).filter(bool)), max_size=12))
@example(ratios=[(0, 5), (6, -4), (-9, -3)])
@example(ratios=[(12, 8), (-15, 10), (0, -7), (360, 720)])
def test_ratio_series_matches_unreduced_horner(ratios):
    # the same value as Horner with no gcd, and the same unreduced pair,
    # which callers fold their own factors into, as the two-product step
    num, den = ratio_series(ratios)
    assert type(num) is int and type(den) is int
    assert Fraction(num, den) == Fraction(*reference_ratio_series(ratios))
    assert (num, den) == reference_gcd_ratio_series(ratios)


def test_factor_ratios_of_no_terms():
    assert factor_ratios([(3, 1), (5, 2)], [(4, 1)], 0) == []
    assert factor_ratios([], [], 0) == []


def test_factor_ratios_multiply_linear_factors_per_term():
    # p_k = (3 + k)(5 + 2k), q_k = 4 + k
    assert factor_ratios([(3, 1), (5, 2)], [(4, 1)], 3) == [(15, 4), (28, 5), (45, 6)]
    # no factors at all is the empty product 1 on both sides
    assert factor_ratios([], [], 2) == [(1, 1), (1, 1)]


def test_factor_ratios_slope_zero_constants():
    assert factor_ratios([(7, 0), (2, 1)], [(3, 0), (1, 1)], 3) == [(14, 3), (21, 6), (28, 9)]
    # a repeated constant counts as often as it appears
    assert factor_ratios([(2, 0), (2, 0)], [(3, 0)], 2) == [(4, 3), (4, 3)]


def test_factor_ratios_negative_constants():
    # (-3 + k) runs through zero and changes sign; constants keep their sign
    assert factor_ratios([(-3, 1), (-2, 0)], [(-5, 2)], 5) == [
        (6, -5), (4, -3), (2, -1), (0, 1), (-2, 3)]


def test_factor_ratios_cancel_factors_in_both_lists():
    # (2 + k) and one of the two (1 + 2k) cancel; (2, 2) is not (1, 1)
    got = factor_ratios([(2, 1), (1, 2), (1, 2), (2, 2)], [(1, 2), (2, 1), (1, 1)], 3)
    assert got == [(2, 1), (12, 2), (30, 3)]
    # cancelled against each other completely
    assert factor_ratios([(4, 1), (-1, 0)], [(-1, 0), (4, 1)], 2) == [(1, 1), (1, 1)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(tops=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 3)), max_size=6),
       bottoms=st.lists(st.tuples(st.integers(-20, 20), st.integers(0, 3)), max_size=6),
       count=st.integers(0, 12))
def test_factor_ratios_match_per_term_products(tops, bottoms, count):
    got = factor_ratios(tops, bottoms, count)
    assert len(got) == count
    for k, (p, q) in enumerate(got):
        assert p * math.prod(c + s * k for c, s in bottoms) == \
            q * math.prod(c + s * k for c, s in tops)


def reference_hyp_terminating(num_params, den_params, z):
    """The former evaluation: one Fraction term ratio per step, summed forward."""
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


rationals = st.one_of(st.integers(-12, 12),
                      st.builds(Fraction, st.integers(-24, 24), st.integers(1, 4)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(num=st.lists(rationals, max_size=4), den=st.lists(rationals, max_size=3),
       stop=st.none() | st.integers(0, 30), where=st.integers(0, 4), z=rationals)
@example(num=[1, 2], den=[3], stop=None, where=0, z=1)                   # no stop
@example(num=[1], den=[-2, Fraction(-2)], stop=5, where=0, z=1)          # a pole
@example(num=[Fraction(1, 2)], den=[-3], stop=3, where=1, z=Fraction(-1, 3))  # pole past the stop
@example(num=[Fraction(3, 2), 1], den=[Fraction(5, 4)], stop=30, where=2, z=Fraction(-7, 3))
def test_hyp_terminating_matches_per_term_reference(num, den, stop, where, z):
    if stop is not None:
        num = num[:where] + [-stop] + num[where:]
    got = outcome(hyp_terminating, num, den, z)
    assert got == outcome(reference_hyp_terminating, num, den, z)
    if got[0] is not Fraction:
        assert issubclass(got[0], (NonTerminatingSeriesError, ZeroDivisionError))


def test_hyp_terminating_cancels_k_plus_one_at_half_integer_parameters(monkeypatch):
    # the r > l closed form has the numerator parameter 1; with half-integer
    # parameters (s = 2) it and k + 1 both come as 2 + 2k and must cancel
    # before any product is taken
    multiplied = []

    def recording_products(factors, count):
        multiplied.append([factor for factor in factors if factor[1]])
        return factor_products(factors, count)

    factor_products = arith._factor_products
    monkeypatch.setattr(arith, "_factor_products", recording_products)
    closed_form_entry(validate(20, 10, [-2], [2]), "lower", 1, 1)
    assert len(multiplied) == 2
    tops, bottoms = multiplied
    for c, slope in tops:
        assert all(c * other_slope != other_c * slope for other_c, other_slope in bottoms)
    assert {slope for _, slope in tops + bottoms} == {2}


@pytest.mark.parametrize("kind,n,m,value", [
    ("box", 1, 1, 3),
    ("box", 2, 1, 20),
    ("transpose_complement", 2, 1, 2),
    ("transpose_complement", 4, 1, 14),
    ("vertical_symmetric", 2, 1, 10),
    ("vertical_symmetric", 4, 1, 126),
])
def test_product_formula_values(kind, n, m, value):
    assert product_formula(kind, n, m) == value


def test_box_formula_matches_tiling_oracle():
    for n in range(1, 5):
        for m in (1, 2):
            assert product_formula("box", n, m) == count_tilings(hexagon_region(n, m))


def test_product_formula_errors():
    with pytest.raises(ValueError, match="sides must be positive"):
        product_formula("box", 0, 1)
    with pytest.raises(ValueError, match="sides must be positive"):
        product_formula("vertical_symmetric", 2, 0)
    with pytest.raises(ValueError, match="requires even n"):
        product_formula("transpose_complement", 3, 1)
    with pytest.raises(ValueError, match="unknown product formula kind"):
        product_formula("mystery", 2, 1)


@pytest.mark.parametrize("kind", arith.PRODUCT_KINDS)
def test_product_formula_rejects_a_non_integer_product(kind, monkeypatch):
    # every bottom one higher: box(2, 1) becomes 10/3, transpose_complement(4, 1)
    # 7/4 and vertical_symmetric(1, 1) 3/2
    blocks = arith._PRODUCTS[kind]
    monkeypatch.setitem(arith._PRODUCTS, kind, lambda n, m: tuple(
        (imax, jmax, triangle, top, bottom + 1)
        for imax, jmax, triangle, top, bottom in blocks(n, m)))
    n, m = {"box": (2, 1), "transpose_complement": (4, 1), "vertical_symmetric": (1, 1)}[kind]
    with pytest.raises(ArithmeticError, match="did not reduce to an integer"):
        product_formula(kind, n, m)


def literal_product(kind, n, m):
    """The three classical products written out factor by factor."""
    if kind == "box":
        acc = Fraction(1)
        for i in range(1, n + 1):
            for j in range(1, 2 * m + 1):
                for k in range(1, n + 1):
                    acc *= Fraction(i + j + k - 1, i + j + k - 2)
    elif kind == "transpose_complement":
        acc = Fraction(binomial(n + m - 1, n - 1))
        for i in range(1, n - 1):
            for j in range(i, n - 1):
                acc *= Fraction(2 * m + i + j + 1, i + j + 1)
    else:
        acc = Fraction(1)
        for i in range(1, n + 1):
            acc *= Fraction(2 * i + 2 * m - 1, 2 * i - 1)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                acc *= Fraction(i + j + 2 * m - 1, i + j - 1)
    return acc


@pytest.mark.parametrize("kind", arith.PRODUCT_KINDS)
def test_product_formula_matches_literal_products(kind):
    sides = range(2, 13, 2) if kind == "transpose_complement" else range(1, 13)
    for n in sides:
        for m in range(1, 5):
            assert product_formula(kind, n, m) == literal_product(kind, n, m), (n, m)


def test_box_matches_macmahon_hyperfactorials():
    hyper = [1]  # hyper[k] = 0! 1! ... (k-1)!
    for k in range(240):
        hyper.append(hyper[-1] * arith.math.factorial(k))
    for n in range(1, 61):
        for m in {1, max(1, n // 3), n}:
            a, b, c = n, 2 * m, n
            num = hyper[a] * hyper[b] * hyper[c] * hyper[a + b + c]
            den = hyper[a + b] * hyper[b + c] * hyper[c + a]
            assert product_formula("box", n, m) * den == num, (n, m)


@pytest.mark.parametrize("kind,half", [("transpose_complement", "lower"),
                                       ("vertical_symmetric", "upper")])
def test_symmetric_products_match_unholed_path_determinants(kind, half):
    for n, m in ((2, 1), (6, 3), (12, 5), (24, 4), (24, 11)):
        assert product_formula(kind, n, m) == abs(det_exact(path_matrix(validate(n, m), half)))


# The former evaluation: the same pairs grouped by i + j in a Counter, one
# numerator and one denominator power product, and one exact divmod.
REFERENCE_PRODUCTS = {
    "box": lambda n, m: (1, n, 2 * m, False, n - 1, -1),
    "transpose_complement": lambda n, m: (
        binomial(n + m - 1, n - 1), n - 2, n - 2, True, 2 * m + 1, 1),
    "vertical_symmetric": lambda n, m: (1, n, n, True, 2 * m - 1, -1),
}


def reference_product(kind, n, m):
    const, imax, jmax, triangle, top, bottom = REFERENCE_PRODUCTS[kind](n, m)
    sums = Counter(i + j for i in range(1, imax + 1)
                   for j in range(i if triangle else 1, jmax + 1))
    numerator = const * math.prod((s + top) ** k for s, k in sums.items())
    value, remainder = divmod(numerator, math.prod((s + bottom) ** k for s, k in sums.items()))
    assert not remainder
    return value


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(kind=st.sampled_from(arith.PRODUCT_KINDS), n=st.integers(1, 150), m=st.integers(1, 80))
@example(kind="box", n=200, m=100)
@example(kind="transpose_complement", n=200, m=100)
@example(kind="vertical_symmetric", n=200, m=100)
@example(kind="vertical_symmetric", n=149, m=80)
def test_product_formula_matches_reference(kind, n, m):
    if kind == "transpose_complement":
        n += n % 2
    value = product_formula(kind, n, m)
    assert type(value) is int
    assert value == reference_product(kind, n, m)


def reference_gamma_half(a):
    """Gamma(a) / sqrt(pi) for half-integer a by stepping from Gamma(1/2)."""
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
    return value


def test_gamma_half_closed_form():
    for twice in range(-81, 162, 2):
        a = Fraction(twice, 2)
        value = arith.gamma_product([a], [], -1)
        assert type(value) is Fraction and value == reference_gamma_half(a)
        assert arith.gamma_product([], [a], 1) == 1 / value
    with pytest.raises(ValueError, match="not a half-integer"):
        arith.gamma_product([Fraction(1, 3)], [], -1)


def reference_gamma_product(numerators, denominators, pi_half_power=0):
    """arith.gamma_product argument by argument: each half-integer Gamma value
    stepped from Gamma(1/2) with its own sqrt(pi), the integer ones as one
    quotient of factorial products; the same errors and messages."""
    integers = ([], [])
    value = Fraction(1)
    power = pi_half_power
    for side, args in enumerate((numerators, denominators)):
        for a in map(Fraction, args):
            if a.denominator == 1:
                integers[side].append(int(a))
            elif a.denominator != 2:
                raise ValueError(f"Gamma argument {a} is not a half-integer")
            elif side:
                value /= reference_gamma_half(a)
                power -= 1
            else:
                value *= reference_gamma_half(a)
                power += 1
    if power != 0:
        raise ArithmeticError("sqrt(pi) factors do not cancel")
    return value * reference_gamma_ratio(*integers)


# integers (poles at 0 and below included) as ints, half-integers as Fractions
half_or_whole = st.integers(-41, 401).map(lambda t: Fraction(t, 2) if t % 2 else t // 2)


def half_integers(args):
    return sum(Fraction(a).denominator == 2 for a in args)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(tops=st.lists(half_or_whole, max_size=6), bottoms=st.lists(half_or_whole, max_size=6),
       unbalanced=st.sampled_from([0, 0, 0, 1]))
@example(tops=[Fraction(-81, 2), 3], bottoms=[Fraction(161, 2), 0], unbalanced=0)
@example(tops=[0, Fraction(1, 2)], bottoms=[2], unbalanced=0)
@example(tops=[-1, Fraction(-3, 2)], bottoms=[0, Fraction(5, 2)], unbalanced=0)
@example(tops=[Fraction(-1, 2), Fraction(-5, 2)], bottoms=[Fraction(-3, 2)], unbalanced=0)
@example(tops=[Fraction(7, 2)], bottoms=[Fraction(1, 3)], unbalanced=0)
@example(tops=[Fraction(200, 3), 0], bottoms=[], unbalanced=1)
@example(tops=[Fraction(9, 2), 4], bottoms=[Fraction(9, 2), 4], unbalanced=1)
def test_gamma_product_matches_the_per_argument_route(tops, bottoms, unbalanced):
    # value and type, or error class and message: poles, stray thirds, sqrt(pi) left over
    power = half_integers(bottoms) - half_integers(tops) + unbalanced
    assert outcome(arith.gamma_product, tops, bottoms, power) == \
        outcome(reference_gamma_product, tops, bottoms, power)
