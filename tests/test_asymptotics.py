import math
import random
from fractions import Fraction

import pytest

from holeyhex.asymptotics import (CSV_HEADER, aspect_m, classify_regime, entry_asym,
                                  finite_correlation, predicted_interaction, separation_sweep,
                                  size_sweep)
from holeyhex.regions import LEFT, RIGHT, InducedHole, distance, merge_induced_holes, validate

from helpers import cauchy

SQRT3 = math.sqrt(3.0)


def test_entry_asym_values():
    assert math.isclose(entry_asym(2, 0, 1.0, "lower"), SQRT3 / (2 * math.pi))
    assert math.isclose(entry_asym(2, 0, 1.0, "upper"), 1 / (2 * SQRT3 * math.pi))


def test_entry_asym_ratio_identity():
    rng = random.Random(13)
    for _ in range(50):
        r = rng.randrange(-10, 12, 2)
        l = rng.randrange(-10, 12, 2)
        if r == l:
            continue
        xi = rng.uniform(0.3, 3.0)
        ratio = entry_asym(r, l, xi, "lower") / entry_asym(r, l, xi, "upper")
        assert math.isclose(ratio, xi * (xi + 2))


def test_entry_asym_errors():
    with pytest.raises(ValueError):
        entry_asym(2, 2, 1.0, "lower")
    with pytest.raises(ValueError):
        entry_asym(2, 0, -1.0, "lower")


def test_both_laws_are_the_exact_cauchy_determinant():
    # with every side-two hole its own point charge, the bulk law is 3^p C(L, R)^2
    # and the free-boundary law of left holes alone C(L, -L), the mirror images
    # standing in for R: each pins the per-charge constant and the exponent scale
    rng = random.Random(14)
    for p in range(5):
        for _ in range(100):
            positions = rng.sample(range(-40, 41, 2), 2 * p)
            left, right = positions[:p], positions[p:]
            holes = [InducedHole(LEFT, (l,)) for l in left] + \
                [InducedHole(RIGHT, (r,)) for r in right]
            assert math.isclose(predicted_interaction(holes, "bulk"),
                                3 ** p * cauchy(left, right) ** 2, rel_tol=1e-12), (left, right)
            left = rng.sample(range(-40, 0, 2), p)
            holes = [InducedHole(LEFT, (l,)) for l in left]
            assert math.isclose(predicted_interaction(holes, "free_boundary"),
                                cauchy(left, [-l for l in left]), rel_tol=1e-12), left


def test_free_boundary_prediction_rejects_a_hole_right_of_the_conductor():
    # a left-pointing run at or right of the centre line has no mirror image across it
    for left in ([0], [2], [-4, 2]):
        with pytest.raises(ValueError, match="^free-boundary holes must lie left of the conductor$"):
            predicted_interaction(merge_induced_holes(left, []), "free_boundary")


def test_predicted_interaction_pair():
    holes = merge_induced_holes([-2], [2])
    expected = 3 / (4 * math.pi ** 2) / distance(-2, 2) ** 2
    assert math.isclose(predicted_interaction(holes, "bulk"), expected)


def test_predicted_interaction_free_single_hole():
    holes = merge_induced_holes([-2], [])
    # mirror pair at distance d(-2, 2) = 2*sqrt(3), exponent -1
    expected = 1 / (2 * math.pi) / (2 * SQRT3)
    assert math.isclose(predicted_interaction(holes, "free_boundary"), expected)


def test_predicted_interaction_preconditions():
    with pytest.raises(ValueError, match="charge zero"):
        predicted_interaction(merge_induced_holes([], [0, 4]), "bulk")
    with pytest.raises(ValueError, match="left-pointing"):
        predicted_interaction(merge_induced_holes([], [2]), "free_boundary")


def test_bulk_prediction_consistent_with_entry_asymptotics():
    # the pair constant equals the product of the two entry limits
    for l, r in [(-2, 2), (-4, 2), (0, 6)]:
        holes = merge_induced_holes([l], [r])
        product = entry_asym(r, l, 1.0, "lower") * entry_asym(r, l, 1.0, "upper")
        assert math.isclose(predicted_interaction(holes, "bulk"), product)
        assert math.isclose(product, 1 / (math.pi * (r - l)) ** 2)


def test_free_prediction_matches_upper_entry_limit():
    for d in (2, 4, 8):
        holes = merge_induced_holes([-d], [])
        assert math.isclose(predicted_interaction(holes, "free_boundary"),
                            entry_asym(d, -d, 1.0, "upper"))


def test_finite_correlation_reports():
    spec = validate(40, 20, [-2], [2])
    report = finite_correlation(spec, "bulk")
    assert 0 < report.omega <= 1
    assert abs(report.det_lower) <= 1 and abs(report.det_upper) <= 1
    assert CSV_HEADER.count(",") == report.csv_row().count(",")


def test_finite_correlation_ratio_converges():
    # At a fixed small separation the ratio to the Coulomb prediction
    # converges as n grows (to the finite-separation limit, which still
    # carries a correction factor; it approaches 1 only at wide separations).
    ratios = [finite_correlation(validate(n, n // 2, [-2], [2]), "bulk").ratio
              for n in (40, 80, 160)]
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
    wide = [finite_correlation(validate(n, n // 2, [-24], [24]), "bulk").ratio
            for n in (240, 360)]
    assert abs(1 - wide[1]) < abs(1 - wide[0])
    assert abs(1 - wide[1]) < 0.15


def test_finite_correlation_unholed_is_trivial():
    report = finite_correlation(validate(8, 4), "bulk")
    assert report.omega == 1.0 and report.predicted == 1.0 and report.ratio == 1.0


def test_finite_correlation_free_requires_mirror():
    with pytest.raises(ValueError):
        finite_correlation(validate(8, 4, [-2], [4]), "free_boundary")
    report = finite_correlation(validate(20, 10, [-2], [2]), "free_boundary")
    assert report.omega == abs(report.det_upper)


def test_aspect_m():
    assert aspect_m(Fraction(1), 40) == 20
    assert aspect_m(Fraction(1, 2), 40) == 10
    assert aspect_m(Fraction(2), 40) == 40


def test_classify_regime():
    away = validate(8, 4, [-2], [2])     # leftmost hole points left
    toward = validate(8, 4, [2], [-2])   # leftmost hole points right
    assert classify_regime(away, 1) == "critical"
    assert classify_regime(away, 2) == "exponential_decay"
    assert classify_regime(toward, 2) == "exponential_growth"
    assert classify_regime(away, Fraction(1, 2)) == "exponential_growth"
    assert classify_regime(toward, Fraction(1, 2)) == "exponential_decay"
    with pytest.raises(ValueError):
        classify_regime(validate(8, 4), 2)
    with pytest.raises(ValueError, match="^xi must be positive$"):
        classify_regime(away, 0)


def test_regime_matches_determinant_trend():
    for xi in (Fraction(1, 2), Fraction(2)):
        for left, right in ([-1], [1]), ([1], [-1]):
            _, trend = size_sweep(left, right, xi, [40, 80], scale_holes=True)
            q = 2 * round(40 / 8)
            spec = validate(40, aspect_m(xi, 40), [left[0] * q], [right[0] * q])
            expected = classify_regime(spec, xi)
            observed = "exponential_growth" if trend > 0 else "exponential_decay"
            assert observed == expected


def test_an_unknown_model_is_named():
    spec = validate(20, 10, [-2], [2])
    for call in (lambda: finite_correlation(spec, "bulkk"),
                 lambda: separation_sweep(20, Fraction(1), [2, 4], "bulkk"),
                 lambda: size_sweep([-2], [2], Fraction(1), [8, 16], False, "bulkk")):
        with pytest.raises(ValueError, match="^unknown model 'bulkk'$"):
            call()


def test_separation_sweep_shape():
    reports, slope, intercept = separation_sweep(40, Fraction(1), [2, 4], "bulk")
    assert len(reports) == 2
    assert slope < 0
    assert all(r.n == 40 and r.m == 20 for r in reports)
