"""Output checks by independent routes, run outside the timed region.

Every check parses only the fields it needs and ignores the rest, so extra
JSON keys or trailing CSV columns added later still pass.  A check returns
``None`` when the output agrees and a ``Failure`` otherwise.  The routes:

* count JSON: the factors multiply out (half kinds: count = prefactor *
  |hole_det| = |path_det|; full: count = box * hole_det_lower *
  hole_det_upper = lower * upper_weighted), ``box`` equals MacMahon's
  hyperfactorial form, and each hole determinant equals the determinant of
  the hypergeometric closed-form entries;
* formulas: ``box`` by MacMahon, the two symmetry classes by a fraction-free
  determinant of the hole-free path matrix;
* correlate and sweep: every determinant float is the correctly rounded value
  of the closed-form determinant, omega is finite and nonzero whenever the
  exact omega is nonzero, and a fitted slope matches the fit of exact logs;
* brute force: counts equal ``count_region`` or the path-family counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

FIT_REL_TOL = 1e-9  # fits are float computations, not correctly rounded values
DIGIT_CHUNK = 4000  # below the interpreter's default int/str conversion limit


@dataclass(frozen=True)
class Failure:
    reason: str   # reason class
    detail: str


class _Mismatch(Exception):
    def __init__(self, reason, detail):
        super().__init__(detail)
        self.failure = Failure(reason, detail)


def _expect(condition: bool, detail: str, reason: str = "check_mismatch") -> None:
    if not condition:
        raise _Mismatch(reason, detail)


# ---------------------------------------------------------------------------
# independent arithmetic

def parse_int(text) -> int:
    """Decimal string to int in chunks, so that outputs longer than the
    interpreter's int/str digit limit (a limit this process leaves as it is)
    still parse.  Also serves as ``json.loads(parse_int=...)``."""
    if isinstance(text, int):
        return text
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for start in range(0, len(digits), DIGIT_CHUNK):
        chunk = digits[start:start + DIGIT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    numerator, _, denominator = text.partition("/")
    return Fraction(parse_int(numerator), parse_int(denominator) if denominator else 1)


def hyperfactorial(k: int) -> int:
    """H(k) = 0! 1! ... (k-1)!."""
    result, factorial = 1, 1
    for i in range(1, k):
        factorial *= i
        result *= factorial
    return result


def macmahon(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box, MacMahon's hyperfactorial form."""
    h = hyperfactorial
    num = h(a) * h(b) * h(c) * h(a + b + c)
    den = h(a + b) * h(b + c) * h(c + a)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError("MacMahon quotient is not an integer")
    return quotient


def small_det(matrix) -> Fraction:
    """Determinant by the Leibniz expansion (used for p x p, p <= 3)."""
    size = len(matrix)
    total = Fraction(0)
    for perm in permutations(range(size)):
        inversions = sum(1 for i, j in combinations(range(size), 2) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def bareiss_det(matrix) -> int:
    """Fraction-free determinant of an integer matrix."""
    work = [[int(x) for x in row] for row in matrix]
    size = len(work)
    sign, previous = 1, 1
    for k in range(size - 1):
        if work[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if work[r][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // previous
        previous = work[k][k]
    return sign * work[-1][-1] if size else 1


def closed_det(hh, spec, kind: str) -> Fraction:
    """Hole-matrix determinant from the closed-form entries."""
    region = hh.regions.validate(*spec)
    p = region.p
    return small_det([[hh.matrices.closed_form_entry(region, kind, i, j)
                       for j in range(1, p + 1)] for i in range(1, p + 1)])


def _float_or_none(value: Fraction):
    try:
        return float(value)
    except OverflowError:
        return None


def _check_real(name: str, reported: float, exact: Fraction) -> None:
    """Value first (a wrong number), then magnitude (a lost number)."""
    expected = _float_or_none(exact)
    if expected is not None:
        _expect(reported == expected, f"{name}={reported!r}, closed form gives {expected!r}")
    if exact != 0:
        if reported == 0:
            magnitude = _exact_log_abs(Fraction(exact)) / math.log(10)
            raise _Mismatch("underflow", f"{name} printed as 0; exact value ~1e{magnitude:.0f}")
        if not math.isfinite(reported):
            raise _Mismatch("float_overflow", f"{name} printed as {reported!r}")
    _expect(expected is not None, f"{name}={reported!r} but the exact value exceeds a double")


def _exact_log_abs(x: Fraction) -> float:
    return math.log(abs(x.numerator)) - math.log(x.denominator)


def _slope(xs, ys) -> float:
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


# ---------------------------------------------------------------------------
# per-verb checks

def _load_json(out: str):
    return json.loads(out, parse_int=parse_int)


def _check_count(hh, op, out: str, rc) -> None:
    _expect(rc == 0, f"exit code {rc}")
    doc = _load_json(out)
    n, m, _, _ = op.spec
    count = parse_int(doc["count"])
    factors = doc["factors"]
    if op.params["kind"] == "full":
        box = parse_int(factors["box"])
        lower_det = parse_rational(factors["hole_det_lower"])
        upper_det = parse_rational(factors["hole_det_upper"])
        _expect(box == macmahon(n, n, 2 * m), "box differs from MacMahon's formula")
        _expect(lower_det == closed_det(hh, op.spec, "lower"), "hole_det_lower differs")
        _expect(upper_det == closed_det(hh, op.spec, "upper"), "hole_det_upper differs")
        _expect(count == box * lower_det * upper_det, "count != box * detE_lower * detE_upper")
        _expect(count == parse_int(factors["lower"]) * parse_int(factors["upper_weighted"]),
                "count != lower * upper_weighted")
        return
    half = "lower" if op.params["kind"] == "lower" else "upper"
    prefactor = parse_int(factors["prefactor"])
    hole_det = parse_rational(factors["hole_det"])
    _expect(hole_det == closed_det(hh, op.spec, half), "hole_det differs from closed form")
    _expect(count == prefactor * abs(hole_det), "count != prefactor * |hole_det|")
    _expect(count == abs(parse_rational(factors["path_det"])), "count != |path_det|")


def _check_formulas(hh, op, out: str, rc) -> None:
    _expect(rc == 0, f"exit code {rc}")
    value = parse_int(_load_json(out)["value"])
    n, m, _, _ = op.spec
    which = op.params["which"]
    if which == "box":
        _expect(value == macmahon(n, n, 2 * m), "box differs from MacMahon's formula")
        return
    half = "lower" if which == "transpose_complement" else "upper"
    region = hh.regions.validate(n, m, (), ())
    det = bareiss_det(hh.matrices.path_matrix(region, half))
    _expect(value == abs(det), f"{which} differs from the hole-free path determinant")


def _check_report(hh, spec, model: str, row: dict) -> Fraction:
    """Check one correlation report (JSON object or CSV row); returns exact omega."""
    n, m, _, _ = spec
    _expect(int(row["n"]) == n and int(row["m"]) == m, "n, m do not match the spec")
    lower = closed_det(hh, spec, "lower")
    upper = closed_det(hh, spec, "upper")
    omega = lower * upper if model == "bulk" else abs(upper)
    _check_real("det_lower", float(row["det_lower"]), lower)
    _check_real("det_upper", float(row["det_upper"]), upper)
    _check_real("omega", float(row["omega"]), omega)
    predicted = float(row["predicted"])
    if predicted:
        _expect(float(row["ratio"]) == float(row["omega"]) / predicted,
                "ratio != omega / predicted")
    return omega


def _check_correlate(hh, op, out: str, rc) -> None:
    _expect(rc == 0, f"exit code {rc}")
    _check_report(hh, op.spec, op.params["model"], _load_json(out))


def _parse_csv(out: str):
    lines = out.splitlines()
    comments = [line[1:].strip() for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if line and not line.startswith("#")))
    fit = {}
    for comment in comments:
        for token in comment.split():
            key, _, value = token.partition("=")
            fit[key] = float(value)
    return rows, fit


def _check_fit(name: str, reported: float, xs, ys) -> None:
    expected = _slope(xs, ys)
    _expect(math.isclose(reported, expected, rel_tol=FIT_REL_TOL, abs_tol=1e-12),
            f"{name}={reported!r}, exact logs give {expected!r}")


def _check_sweep(hh, op, out: str, rc) -> None:
    _expect(rc == 0, f"exit code {rc}")
    rows, fit = _parse_csv(out)
    params = op.params
    xi = Fraction(params["xi"])
    if "separations" in params:
        n = params["size"]
        m = int(xi * n / 2)
        specs = [(n, m, (-d,), (d,)) for d in params["separations"]]
        xs = [math.log(math.sqrt(3.0) / 2.0 * 2 * d) for d in params["separations"]]
    else:
        specs = [(n, int(xi * n / 2), tuple(2 * round(q * n / 8) for q in params["left"]),
                  tuple(2 * round(q * n / 8) for q in params["right"]))
                 for n in params["n_values"]]
        xs = [float(n) for n in params["n_values"]]
    _expect(len(rows) == len(specs), f"{len(rows)} rows for {len(specs)} specs")
    omegas, uppers = [], []
    for spec, row in zip(specs, rows):
        omegas.append(_check_report(hh, spec, params["model"], row))
        uppers.append(closed_det(hh, spec, "upper"))
    if "separations" in params:
        _check_fit("slope", fit["slope"], xs, [_exact_log_abs(w) for w in omegas])
    else:
        _check_fit("trend", fit["trend"], xs, [_exact_log_abs(u) for u in uppers])


def _parse_spec_text(text: str) -> tuple:
    fields = dict(token.split("=", 1) for token in text.split())

    def ints(value):
        return tuple(int(v) for v in value.split(",") if v)
    return int(fields["n"]), int(fields["m"]), ints(fields["L"]), ints(fields["R"])


def _verify_specs(max_n, max_m, max_p) -> list[tuple]:
    specs = []
    for n in range(2, max_n + 1, 2):
        positions = range(-n + 2, n - 1, 2)
        for m in range(1, max_m + 1):
            specs.append((n, m, (), ()))
            for p in range(1, max_p + 1):
                for chosen in combinations(positions, 2 * p):
                    for left in combinations(chosen, p):
                        right = tuple(x for x in chosen if x not in left)
                        specs.append((n, m, left, right))
    return specs


def _check_verify(hh, op, out: str, rc) -> None:
    lines = out.splitlines()
    rows = [line.split(" | ") for line in lines if not line.startswith("#")]
    params = op.params
    expected = _verify_specs(params["max_n"], params["max_m"], params["max_p"])
    _expect(len(rows) == len(expected), f"{len(rows)} rows for {len(expected)} specs")
    mismatches = 0
    for spec, row in zip(expected, rows):
        _expect(_parse_spec_text(row[0]) == spec, f"unexpected spec {row[0].strip()!r}")
        formula, got = int(row[1]), int(row[2])
        truth = hh.matrices.count_region(hh.regions.validate(*spec), "full").value
        _expect(got == truth, f"{row[0].strip()}: oracle {got} != count_region {truth}")
        _expect(formula == truth, f"{row[0].strip()}: formula {formula} != {truth}")
        _expect(row[3].strip() == ("ok" if formula == got else "MISMATCH"), "status column")
        mismatches += formula != got
    _expect(rc == (1 if mismatches else 0), f"exit code {rc} with {mismatches} mismatches")


def _tilings(hh, spec, kind: str) -> int:
    region = hh.regions.validate(*spec)
    if kind == "lower":
        return hh.matrices.count_region(region, "lower").value
    return hh.oracle.count_tilings(hh.regions.build_region(region, "upper"))


def _check_zeta(hh, op, out: str, rc) -> None:
    doc = _load_json(out)
    kind = op.params["kind"]
    n, m, _, _ = op.spec
    tilings = parse_int(doc["tilings"])
    images = parse_int(doc["distinct_images"])
    _expect(tilings == _tilings(hh, op.spec, kind), "tilings differs from the count")
    _expect(images <= min(tilings, _tilings(hh, (n, m, (), ()), kind)),
            "more distinct images than tilings of either region")
    ok = doc["valid_images"] is True and images == tilings
    if kind == "upper":
        ok = ok and doc["weight_monotone"] is True
    _expect(doc["ok"] is ok, "ok flag inconsistent with the report")
    _expect(rc == (0 if ok else 1), f"exit code {rc} for ok={ok}")


def _check_call(hh, op, result, rc=None) -> None:
    region = hh.regions.validate(*op.spec)
    if op.verb == "count_tilings":
        truth = hh.matrices.count_region(region, "full").value
    else:
        kind = "lower" if op.params["kind"] == "lower" else "upper_weighted"
        truth = hh.matrices.count_region(region, kind).value
    _expect(result == truth, f"{op.verb} gave {result}, count_region gives {truth}")


CHECKS = {
    "count": _check_count,
    "formulas": _check_formulas,
    "correlate": _check_correlate,
    "sweep": _check_sweep,
    "verify": _check_verify,
    "zeta": _check_zeta,
    "count_tilings": _check_call,
    "count_families": _check_call,
}


def check(hh, op, output, rc=None):
    """Check one op's output (stdout text, or the returned value of a direct
    call).  Returns None or a Failure."""
    try:
        CHECKS[op.verb](hh, op, output, rc)
    except _Mismatch as exc:
        return exc.failure
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Failure("unparsable", f"{type(exc).__name__}: {exc}")
    return None
