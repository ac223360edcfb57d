"""Real-valued interaction asymptotics and finite-size sweeps.

Determinants entering any report are computed exactly (Schur form, rational
arithmetic) and converted to floats only at the end; the constants of the
predicted interactions use ordinary double precision.

The predicted interactions follow the electrostatic picture: each induced
hole carries its charge, the bulk interaction multiplies pairwise distances
raised to half the product of the charges, and the free-boundary interaction
adjoins mirror charges across the conductor and halves the exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from statistics import linear_regression
from typing import Sequence

from .matrices import det_exact, hole_matrix
from .regions import (InducedHole, RegionSpec, distance, free_boundary_holes, half_shift,
                      merge_induced_holes, validate)

# holes in the bulk, or left-pointing holes facing a free boundary (image charges)
MODELS = ("bulk", "free_boundary")


@dataclass(frozen=True)
class CorrelationReport:
    n: int
    m: int
    xi: float
    det_lower: float
    det_upper: float
    omega: float
    predicted: float
    ratio: float

    def csv_row(self) -> str:
        # str of a float is its repr: the shortest string that reads back the same
        return ",".join(str(getattr(self, field.name)) for field in fields(self))


CSV_HEADER = ",".join(field.name for field in fields(CorrelationReport))


def entry_asym(r: int, l: int, xi: float, kind: str) -> float:
    """Large-separation limit entry of a hole matrix at aspect ratio xi.

    The lower and upper variants differ only by the factor xi*(xi+2).
    """
    if r == l:
        raise ValueError("undefined separation r = l")
    if xi <= 0:
        raise ValueError("xi must be positive")
    base = (2.0 / (xi + 1.0)) ** (r - l + 2) / (math.pi * (r - l))
    scale = math.sqrt(xi * (xi + 2.0))
    return base / scale if half_shift(kind, "entry limit") else scale * base


def _single_hole_constant(charge: int, model: str) -> float:
    value = 1.0
    for s in range(abs(charge) // 2):
        if model == "bulk":
            value *= 3.0 ** (s + 0.5) * math.factorial(s) ** 2 / (2.0 * math.pi)
        else:
            value *= 3.0 ** (s / 2.0) * math.factorial(s) / math.sqrt(2.0 * math.pi)
    return value


def predicted_interaction(holes: Sequence[InducedHole], model: str = "bulk") -> float:
    """Coulomb-law prediction for a family of well-separated induced holes."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if model == "bulk":
        if sum(h.charge for h in holes) != 0:
            raise ValueError("bulk interaction needs total charge zero")
        charged = [(h.position, h.charge) for h in holes]
        exponent_scale = 0.5
    else:
        if any(h.charge > 0 for h in holes):
            raise ValueError("free-boundary interaction needs left-pointing holes only")
        if any(h.position >= 0 for h in holes):
            raise ValueError("free-boundary holes must lie left of the conductor")
        charged = [(h.position, h.charge) for h in holes]
        charged += [(-pos, -q) for pos, q in charged]  # mirror images
        exponent_scale = 0.25
    value = 1.0
    for _, q in charged:
        value *= _single_hole_constant(q, model)
    for i in range(1, len(charged)):
        for j in range(i):
            (xi_, qi), (xj, qj) = charged[i], charged[j]
            value *= distance(xi_, xj) ** (exponent_scale * qi * qj)
    return value


def finite_correlation(spec: RegionSpec, model: str = "bulk") -> CorrelationReport:
    """Exact finite-size determinants against the asymptotic prediction."""
    # a free boundary's right holes are images; the model is checked before any determinant
    holes = (merge_induced_holes(free_boundary_holes(spec, "free_boundary model"), ())
             if model == "free_boundary" else merge_induced_holes(spec.left, spec.right))
    predicted = predicted_interaction(holes, model)
    det_lower = det_exact(hole_matrix(spec, "lower"))
    det_upper = det_exact(hole_matrix(spec, "upper"))
    omega = float(det_lower * det_upper) if model == "bulk" else abs(float(det_upper))
    ratio = omega / predicted if predicted else math.inf
    return CorrelationReport(
        n=spec.n, m=spec.m, xi=2.0 * spec.m / spec.n,
        det_lower=float(det_lower), det_upper=float(det_upper),
        omega=omega, predicted=predicted, ratio=ratio,
    )


def aspect_m(xi: Fraction, n: int) -> int:
    """The number of boundary paths for aspect ratio xi: m = round(xi*n/2)."""
    m = round(Fraction(xi) * n / 2)
    if m < 1:
        raise ValueError("aspect ratio too small for this n")
    return m


def _fit(reports, field: str, xs, x_scale, name: str, given) -> tuple:
    """The reports, one per x, and the least-squares line of log |field| against
    x_scale(x); each log is taken as its report arrives."""
    if len(set(xs)) < 2:
        raise ValueError(f"a fit needs at least two distinct {name}, got {list(given)}")
    kept, fit_x, fit_y = [], [], []
    for x, report in zip(xs, reports):
        kept.append(report)
        fit_x.append(x_scale(x))
        fit_y.append(math.log(abs(getattr(report, field))))
    return kept, linear_regression(fit_x, fit_y)


def separation_reports(n: int, xi: Fraction, half_separations: Sequence[int],
                       model: str = "bulk"):
    """Correlations for hole pairs at positions -d, +d with d in the list.

    A generator, so that separation_sweep takes each report's logarithm
    before the next report is computed.
    """
    m = aspect_m(xi, n)
    for d in half_separations:
        yield finite_correlation(validate(n, m, [-d], [d]), model)


def separation_sweep(n: int, xi: Fraction, half_separations: Sequence[int],
                     model: str = "bulk"):
    """separation_reports with the fit of log omega against log distance.

    Returns (reports, slope, intercept) where slope and intercept come from
    the least-squares fit of log omega against log pairwise distance.
    Fewer than two distinct distances raise ValueError before any report
    is computed.
    """
    reports, (slope, intercept) = _fit(
        separation_reports(n, xi, half_separations, model), "omega",
        [distance(-d, d) for d in half_separations], math.log, "separations", half_separations)
    return reports, slope, intercept


def size_reports(left: Sequence[int], right: Sequence[int], xi: Fraction,
                 n_values: Sequence[int], scale_holes: bool = False, model: str = "bulk"):
    """Correlations for fixed or n-scaled holes across hexagon sizes.

    With ``scale_holes`` the given positions are treated as fractions of n
    in quarters, i.e. position q becomes 2*round(q*n/8) -- this keeps hole
    separations growing with n, which is what exposes the off-critical
    exponential regimes.  A generator, like separation_reports, for size_sweep.
    """
    for n in n_values:
        m = aspect_m(xi, n)
        if scale_holes:
            lefts = [2 * round(q * n / 8) for q in left]
            rights = [2 * round(q * n / 8) for q in right]
        else:
            lefts, rights = list(left), list(right)
        yield finite_correlation(validate(n, m, lefts, rights), model)


def size_sweep(left: Sequence[int], right: Sequence[int], xi: Fraction,
               n_values: Sequence[int], scale_holes: bool = False, model: str = "bulk"):
    """size_reports with the trend of log |det_upper| in n.

    Returns (reports, trend) with ``trend`` the least-squares slope of
    log |det_upper| against n.  Fewer than two distinct n raise ValueError
    before any report is computed.
    """
    reports, (slope, _) = _fit(size_reports(left, right, xi, n_values, scale_holes, model),
                               "det_upper", n_values, float, "n values", n_values)
    return reports, slope


def classify_regime(spec: RegionSpec, xi) -> str:
    """Off-critical behaviour of the hole interaction in the separations, as its
    tag: critical, exponential_decay or exponential_growth.

    At xi = 1 the interaction is critical (power law).  Away from xi = 1
    the leftmost hole decides: its matrix row (left-pointing) or column
    (right-pointing) carries the factor (2/(xi+1))**separation, and the
    determinant follows that row or column.  For xi > 1 a left-pointing
    leftmost hole therefore sends the determinant to zero and a
    right-pointing one makes it grow; for xi < 1 the converse holds.
    """
    if spec.p < 1:
        raise ValueError("regime classification needs at least one hole")
    xi = Fraction(xi)
    if xi <= 0:
        raise ValueError("xi must be positive")
    if xi == 1:
        return "critical"
    leftmost_is_left = min(spec.left) < min(spec.right)
    if xi > 1:
        return "exponential_decay" if leftmost_is_left else "exponential_growth"
    return "exponential_growth" if leftmost_is_left else "exponential_decay"
