"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Three checks fail by design of the underlying mathematics rather than of
this implementation, and their assertion messages carry the analysis:

* criterion 5 (determinant bounds): the claimed bounds |det E| <= 1 are
  refuted by exact counting -- e.g. n=8, m=1, L={-6}, R={6} has 4719 lower
  tilings against 1430 for the unholed region, confirmed independently by
  the brute-force oracle, so the holey count exceeds the unholed one and
  the scalar hole determinant is 33/10.
* criterion 5 (count inequality on the criterion-2 sweep): the single spec
  n=6, m=1, L={-4}, R={4} has 232848 tilings versus 226512 without holes.
* criterion 8 (bulk Coulomb fit at n=200, d in {2,4,8,16}): the Coulomb
  form is the large-separation limit and its finite-separation correction
  decays like 1/separation; at the stated separations the fitted slope is
  -1.72 and the prefactor is 65% low for any correct evaluation.  The
  companion check in the proper two-scale window passes.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from identity_checks import (check_balanced_4f3_transformation,
                             check_wellpoised_5f4, check_wellpoised_7f6_reduction)

from holeyhex.arith import product_formula
from holeyhex.asymptotics import (aspect_m, classify_regime, separation_sweep,
                                  size_sweep)
from holeyhex.matrices import (closed_form_entry, count_region, det_exact,
                               hole_matrix, hole_matrix_entry)
from holeyhex.oracle import (count_families, count_free_boundary, count_symmetric,
                             count_tilings, noncrossing_endpoints)
from holeyhex.regions import build_region, spec_grid, validate
from holeyhex.zeta import verify_injection


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_unholed_sanity():
    started = time.time()
    ok = True
    for n in (2, 4):
        for m in (1, 2):
            spec = validate(n, m)
            box = product_formula("box", n, m)
            formula = count_region(spec, "full").value
            oracle = count_tilings(build_region(spec, "full"))
            ok = ok and box == formula == oracle
    ok = ok and product_formula("box", 2, 1) == 20
    elapsed = time.time() - started
    ok = ok and elapsed < 10
    announce("1", ok, f"unholed counts = box formula = oracle ({elapsed:.1f}s)")
    assert ok


def test_criterion_2_factorization():
    started = time.time()
    checked = 0
    for spec in spec_grid(6, 2, 2):
        full = count_region(spec, "full")
        box = product_formula("box", spec.n, spec.m)
        lower = count_region(spec, "lower").value
        upper = count_region(spec, "upper_weighted").value
        product = box * full.factors["hole_det_lower"] * full.factors["hole_det_upper"]
        oracle = count_tilings(build_region(spec, "full"))
        assert product == lower * upper == full.value == oracle, spec.to_text()
        checked += 1
    elapsed = time.time() - started
    ok = elapsed < 300
    announce("2", ok, f"factorization exact on {checked} specs vs tiling oracle ({elapsed:.1f}s)")
    assert ok


def test_criterion_3_half_region_counts():
    checked = 0
    for spec in spec_grid(6, 2, 2):
        points = noncrossing_endpoints(spec, "lower")
        if points is None:
            lower = upper = 0
        else:
            lower = count_families(*points, "avoid_diagonal")
            upper = count_families(*points, "weighted_below")
        assert lower == count_region(spec, "lower").value, spec.to_text()
        assert upper == count_region(spec, "upper_weighted").value, spec.to_text()
        checked += 1
    announce("3", True, f"half-region determinants equal the path-family oracle on {checked} specs")


def test_criterion_4_free_boundary_equivalence():
    cases = [(2, 1, []), (4, 1, [-2]), (4, 2, [-2]), (6, 1, [-4, -2])]
    values = {}
    for n, m, left in cases:
        spec = validate(n, m, left, [-x for x in left])
        symmetric = count_symmetric(spec, "vertical")
        weighted = count_region(spec, "upper_weighted").value
        free = count_free_boundary(n, m, left)
        assert symmetric == weighted == free, spec.to_text()
        values[(n, m, tuple(left))] = symmetric
    assert values[(2, 1, ())] == 10
    announce("4", True, f"vertical-symmetric = weighted-upper = free-boundary on {len(cases)} specs")


def _bound_sweep(samples=220, seed=20250810):
    rng = random.Random(seed)
    specs = []
    while len(specs) < samples:
        n = rng.randrange(8, 41, 2)
        m = rng.randint(1, 20)
        p = rng.randint(1, 3)
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        specs.append(validate(n, m, sorted(chosen[:p]), sorted(chosen[p:])))
    return specs


def test_criterion_5_determinant_bounds():
    specs = _bound_sweep()
    violations = []
    for spec in specs:
        det_lower = det_exact(hole_matrix(spec, "lower"))
        det_upper = det_exact(hole_matrix(spec, "upper"))
        if abs(det_lower) > 1 or abs(det_upper) > 1:
            violations.append((spec.to_text(), det_lower, det_upper))
    ok = not violations
    announce("5 (bounds)", ok,
             f"|det E| <= 1 on {len(specs)} specs: {len(violations)} violations")
    assert ok, (
        f"{len(violations)} of {len(specs)} sampled specs exceed the claimed bound "
        f"|det E| <= 1; first: {violations[0]}.  This is not an implementation "
        "artifact: at n=8, m=1, L=-6, R=6 the brute-force oracle counts 4719 "
        "lower-region tilings against 1430 for the unholed region, so the exact "
        "hole determinant is 4719/1430 = 33/10 > 1.  The bound (and the "
        "injection said to prove it) fails whenever an apart-pointing pair is "
        "separated widely relative to m."
    )


def test_criterion_5_determinant_signs():
    specs = _bound_sweep()
    for spec in specs:
        det_lower = det_exact(hole_matrix(spec, "lower"))
        det_upper = det_exact(hole_matrix(spec, "upper"))
        assert det_lower * det_upper >= 0, spec.to_text()
    announce("5 (signs)", True,
             f"sign(det E_lower) = sign(det E_upper) on {len(specs)} specs")


def test_criterion_5_count_inequality():
    offenders = []
    for spec in spec_grid(6, 2, 2):
        if spec.p == 0:
            continue
        holey = count_region(spec, "full").value
        box = product_formula("box", spec.n, spec.m)
        if holey > box:
            offenders.append((spec.to_text(), holey, box))
    ok = not offenders
    announce("5 (count inequality)", ok,
             f"holey <= unholed on the criterion-2 sweep: {len(offenders)} violations")
    assert ok, (
        f"the count inequality fails on {offenders}: the holey hexagon n=6, m=1, "
        "L=-4, R=4 has 232848 tilings (oracle-confirmed) against 226512 for the "
        "unholed hexagon, so removing this hole pair increases the count."
    )


def test_criterion_6_injection():
    injective = [(4, 1, [0], [2]), (4, 1, [-2], [0]), (6, 1, [2], [4]),
                 (6, 1, [-4, 0], [-2, 2])]
    for args in injective:
        report = verify_injection(validate(*args), "lower")
        assert report["ok"], report
    monotone = [(4, 1, [2], [-2]), (6, 1, [0], [-4]), (6, 1, [4], [-4]),
                (8, 1, [-6, 6], [-2, 2])]
    for args in monotone:
        report = verify_injection(validate(*args), "upper")
        assert report["valid_images"] and report["weight_monotone"], report
    announce("6", True,
             f"injection exhaustive on {len(injective)} specs; weight monotone on "
             f"{len(monotone)} upper specs")


def test_criterion_7_closed_forms():
    rng = random.Random(77)
    checked = 0
    discrepancies = []
    for _ in range(40):
        n = rng.choice([4, 8, 12, 16, 20, 24, 30])
        m = rng.randint(1, 10)
        p = rng.choice([1, 2])
        positions = list(range(-n + 2, n - 1, 2))
        if len(positions) < 2 * p:
            continue
        chosen = rng.sample(positions, 2 * p)
        spec = validate(n, m, sorted(chosen[:p]), sorted(chosen[p:]))
        for kind in ("lower", "upper"):
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    closed = closed_form_entry(spec, kind, i, j)
                    subtraction = hole_matrix_entry(spec, kind, i, j)
                    checked += 1
                    if closed != subtraction:
                        discrepancies.append((spec.to_text(), kind, i, j))
    ok = not discrepancies
    announce("7", ok, f"hypergeometric closed forms exact on {checked} entries")
    assert ok, discrepancies


def test_criterion_8_bulk_coulomb_as_stated():
    started = time.time()
    reports, slope, intercept = separation_sweep(200, Fraction(1), [2, 4, 8, 16], "bulk")
    theory = 3.0 / (4.0 * math.pi ** 2)
    prefactor = math.exp(intercept)
    slope_ok = abs(slope + 2.0) <= 0.1
    prefactor_ok = abs(prefactor - theory) <= 0.15 * theory
    elapsed = time.time() - started
    ok = slope_ok and prefactor_ok and elapsed < 60
    announce("8 (bulk, stated window)", ok,
             f"slope={slope:.3f} (want -2 +/- 0.1), prefactor off by "
             f"{(prefactor - theory) / theory:+.1%} (want within 15%), {elapsed:.1f}s")
    assert ok, (
        f"fitted slope {slope:.4f} and prefactor {prefactor:.5f} vs {theory:.5f}: "
        "at separations 4..32 the exact interaction still carries its "
        "finite-separation correction (the ratio to the Coulomb form rises "
        "0.46 -> 0.84 across these points), so no correct evaluation can meet "
        "the stated tolerances at n=200 with d in {2,4,8,16}; see the "
        "asymptotic-window check, which passes."
    )


def test_criterion_8_bulk_coulomb_asymptotic_window():
    started = time.time()
    reports, slope, intercept = separation_sweep(400, Fraction(1), [12, 16, 24, 32], "bulk")
    theory = 3.0 / (4.0 * math.pi ** 2)
    prefactor = math.exp(intercept)
    elapsed = time.time() - started
    ok = abs(slope + 2.0) <= 0.1 and abs(prefactor - theory) <= 0.15 * theory and elapsed < 60
    announce("8 (bulk, asymptotic window)", ok,
             f"slope={slope:.3f}, prefactor off by {(prefactor - theory) / theory:+.1%}, "
             f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_free_boundary():
    started = time.time()
    reports, slope, intercept = separation_sweep(400, Fraction(1), [16, 24, 40],
                                                 "free_boundary")
    theory = 1.0 / (2.0 * math.pi)
    prefactor = math.exp(intercept)
    elapsed = time.time() - started
    ok = abs(slope + 1.0) <= 0.1 and elapsed < 60
    announce("8 (free boundary)", ok,
             f"slope={slope:.3f} (want -1 +/- 0.1), prefactor off by "
             f"{(prefactor - theory) / theory:+.1%}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_regimes():
    matches = []
    for xi in (Fraction(1, 2), Fraction(2)):
        for left, right in ([-1], [1]), ([1], [-1]):
            _, trend = size_sweep(left, right, xi, [40, 80, 120, 160],
                                  scale_holes=True)
            q = 2 * round(160 / 8)
            spec = validate(160, aspect_m(xi, 160),
                            [left[0] * q], [right[0] * q])
            expected = classify_regime(spec, xi).tag
            observed = "exponential_growth" if trend > 0 else "exponential_decay"
            matches.append(observed == expected)
    ok = all(matches)
    announce("9", ok, f"log|det E| trend sign matches the regime in {sum(matches)}/4 cases")
    assert ok


def test_criterion_10_hypergeometric_identities():
    counts = (check_wellpoised_5f4(50), check_balanced_4f3_transformation(50),
              check_wellpoised_7f6_reduction(50))
    ok = all(c >= 50 for c in counts)
    announce("10", ok, f"summation and transformation identities exact on {counts} samples")
    assert ok
