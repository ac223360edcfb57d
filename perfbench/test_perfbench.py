"""Tests of the benchmark itself: determinism, checker sensitivity, tracing."""

from __future__ import annotations

import importlib
import io
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bench_checks  # noqa: E402
import bench_ops  # noqa: E402
import bench_spans  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def hh():
    return SimpleNamespace(**{name: importlib.import_module(f"holeyhex.{name}")
                              for name in run.MODULES})


def cli_op(verb, argv, spec=(), **params):
    return bench_ops.Op(verb, tuple([verb] + argv), spec, params)


def call_cli(hh, op):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = hh.cli.main(list(op.argv))
    return rc, out.getvalue()


def corrupt_first_digit(text: str, start: int) -> str:
    """Change the first nonzero digit at or after ``start``."""
    match = re.compile(r"[1-9]").search(text, start)
    digit = int(match.group())
    return text[:match.start()] + str(digit % 9 + 1) + text[match.end():]


def corrupt_json_field(text: str, key: str) -> str:
    return corrupt_first_digit(text, text.index(f'"{key}"') + len(key) + 2)


def test_same_seed_same_op_list(hh):
    for workload in bench_ops.WORKLOADS:
        first = bench_ops.generate(hh, workload, 7, 2)
        assert first == bench_ops.generate(hh, workload, 7, 2)
        assert first != bench_ops.generate(hh, workload, 8, 2)


def test_rounds_follow_seconds():
    assert bench_ops.rounds_for(1) == 1
    assert bench_ops.rounds_for(4 * bench_ops.ROUND_SECONDS) == 4


def test_reference_scaling_follows_the_calibrations():
    ref = run.REF_CALIB_NS
    assert run.to_reference(1000, ref, ref) == 1000
    assert run.to_reference(1000, 2 * ref, 2 * ref) == 500
    assert run.to_reference(1000, ref // 2, 3 * ref // 2) == 1000
    assert run.calibrate() > 0


JSON_CASES = [
    (cli_op("count", ["--n", "10", "--m", "2", "--left=-2", "--right=4", "--kind", "full"],
            (10, 2, (-2,), (4,)), kind="full"), ["count", "box", "hole_det_lower"]),
    (cli_op("count", ["--n", "12", "--m", "3", "--left=-4,2", "--right=0,6", "--kind", "lower"],
            (12, 3, (-4, 2), (0, 6)), kind="lower"), ["count", "prefactor", "hole_det"]),
    (cli_op("count", ["--n", "12", "--m", "3", "--left=-4", "--right=4", "--kind", "free"],
            (12, 3, (-4,), (4,)), kind="free"), ["count", "path_det"]),
    (cli_op("formulas", ["--which", "box", "--n", "8", "--m", "2"], (8, 2, (), ()),
            which="box"), ["value"]),
    (cli_op("formulas", ["--which", "transpose_complement", "--n", "8", "--m", "3"],
            (8, 3, (), ()), which="transpose_complement"), ["value"]),
    (cli_op("formulas", ["--which", "vertical_symmetric", "--n", "8", "--m", "3"],
            (8, 3, (), ()), which="vertical_symmetric"), ["value"]),
    (cli_op("correlate", ["--n", "40", "--m", "20", "--left=-2,6", "--right=2,10",
                          "--model", "bulk"], (40, 20, (-2, 6), (2, 10)), model="bulk"),
     ["det_lower", "det_upper", "omega"]),
    (cli_op("correlate", ["--n", "40", "--m", "20", "--left=-6", "--right=6",
                          "--model", "free_boundary"], (40, 20, (-6,), (6,)),
            model="free_boundary"), ["det_upper", "omega"]),
    (cli_op("zeta", ["--n", "4", "--m", "1", "--left=0", "--right=2", "--kind", "lower"],
            (4, 1, (0,), (2,)), kind="lower"), ["tilings"]),
    (cli_op("zeta", ["--n", "4", "--m", "1", "--left=-2", "--right=2", "--kind", "upper"],
            (4, 1, (-2,), (2,)), kind="upper"), ["tilings"]),
]


@pytest.mark.parametrize("op,fields", JSON_CASES, ids=lambda case: getattr(case, "verb", ""))
def test_json_checkers_flag_one_corrupted_digit(hh, op, fields):
    rc, out = call_cli(hh, op)
    assert bench_checks.check(hh, op, out, rc) is None
    for field in fields:
        failure = bench_checks.check(hh, op, corrupt_json_field(out, field), rc)
        assert failure is not None and failure.reason == "check_mismatch", field


SWEEPS = [
    cli_op("sweep", ["--xi", "1", "--model", "bulk", "--size", "40", "--separations", "2,4,8",
                     "--fit"], xi="1", model="bulk", size=40, separations=(2, 4, 8)),
    cli_op("sweep", ["--xi", "1/2", "--n-values", "16,32,48", "--left=-1", "--right=2",
                     "--scale-holes", "--fit"], xi="1/2", model="bulk",
           n_values=(16, 32, 48), left=(-1,), right=(2,)),
]


@pytest.mark.parametrize("op", SWEEPS, ids=["separations", "sizes"])
def test_sweep_checker_flags_one_corrupted_digit(hh, op):
    rc, out = call_cli(hh, op)
    assert bench_checks.check(hh, op, out, rc) is None
    lines = out.splitlines()
    header = lines[0].split(",")
    for column in ("det_lower", "det_upper", "omega"):
        row = lines[2].split(",")
        row[header.index(column)] = corrupt_first_digit(row[header.index(column)], 0)
        bad = "\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n"
        assert bench_checks.check(hh, op, bad, rc).reason == "check_mismatch", column
    fit = corrupt_first_digit(out, out.index("#"))
    assert bench_checks.check(hh, op, fit, rc).reason == "check_mismatch"


def test_sweep_checker_ignores_trailing_columns(hh):
    op = SWEEPS[0]
    rc, out = call_cli(hh, op)
    lines = out.splitlines()
    widened = [lines[0] + ",extra"] + [line + ",1" for line in lines[1:-1]] + lines[-1:]
    assert bench_checks.check(hh, op, "\n".join(widened) + "\n", rc) is None


def test_verify_checker_flags_one_corrupted_digit(hh):
    op = cli_op("verify", ["--max-n", "4", "--max-m", "1", "--max-p", "1"],
                max_n=4, max_m=1, max_p=1)
    rc, out = call_cli(hh, op)
    assert bench_checks.check(hh, op, out, rc) is None
    lines = out.splitlines()
    cells = lines[-2].split(" | ")
    cells[2] = corrupt_first_digit(cells[2], 0)
    bad = "\n".join(lines[:-2] + [" | ".join(cells)] + lines[-1:]) + "\n"
    assert bench_checks.check(hh, op, bad, rc).reason == "check_mismatch"


@pytest.mark.parametrize("op", [
    bench_ops.Op("count_tilings", (), (8, 2, (-2,), (4,)), {}),
    bench_ops.Op("count_families", (), (10, 3, (-2,), (4,)), {"kind": "lower"}),
    bench_ops.Op("count_families", (), (10, 3, (-2,), (4,)), {"kind": "upper"}),
], ids=["tilings", "families_lower", "families_upper"])
def test_call_checker_flags_one_corrupted_digit(hh, op):
    result = bench_ops.run_call(hh, op)
    assert bench_checks.check(hh, op, result) is None
    bad = int(corrupt_first_digit(str(result), 0))
    assert bench_checks.check(hh, op, bad).reason == "check_mismatch"


def test_underflow_is_a_failure_not_a_mismatch(hh):
    n = 232
    op = cli_op("correlate", ["--n", str(n), "--m", "348", f"--left=-{n - 2}", f"--right={n - 2}",
                              "--model", "bulk"], (n, 348, (-(n - 2),), (n - 2,)), model="bulk")
    rc, out = call_cli(hh, op)
    assert json.loads(out)["omega"] == 0.0
    assert bench_checks.check(hh, op, out, rc).reason == "underflow"


def test_macmahon_matches_box_formula(hh):
    for n, m in [(1, 1), (2, 1), (4, 3), (10, 5)]:
        assert bench_checks.macmahon(n, n, 2 * m) == hh.arith.product_formula("box", n, m)


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(40)]
    value, percentile = run.tail(values)
    assert percentile == 75
    assert sum(1 for v in values if v > value) == 10


def _traced(hh, work):
    tracer = bench_spans.Tracer()
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_wraps_every_binding_and_restores(hh):
    originals = {"det_exact": hh.asymptotics.det_exact,
                 "verify_injection": hh.cli.verify_injection}
    tracer = bench_spans.Tracer()
    tracer.install()
    try:
        bound = tracer.bound_names()
        for name in ("holeyhex.matrices.gamma_ratio", "holeyhex.matrices.product_formula",
                     "holeyhex.asymptotics.det_exact", "holeyhex.asymptotics.hole_matrix",
                     "holeyhex.cli.verify_injection", "holeyhex.zeta.zeta", "holeyhex.zeta",
                     "holeyhex.oracle.enumerate_tilings", "holeyhex.zeta.enumerate_tilings"):
            assert name in bound, name
        assert hh.asymptotics.det_exact is not originals["det_exact"]
    finally:
        tracer.uninstall()
    assert hh.asymptotics.det_exact is originals["det_exact"]
    assert hh.cli.verify_injection is originals["verify_injection"]
    assert tracer.absent == []


def test_missing_target_is_reported_absent(hh, monkeypatch):
    monkeypatch.setitem(bench_spans.TARGETS, "matrices",
                        bench_spans.TARGETS["matrices"] + ("no_such_function",))
    tracer = bench_spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["matrices.no_such_function"]


def test_self_times_add_up_and_stay_nonnegative(hh):
    ops = bench_ops.generate(hh, "brute_force", 3, 1)[:4] + [
        cli_op("count", ["--n", "12", "--m", "3", "--left=-2", "--right=4", "--kind", "full"],
               (12, 3, (-2,), (4,)), kind="full"),
        SWEEPS[0]]
    outcomes = []
    tracer = _traced(hh, lambda: outcomes.extend(run.execute(hh, op) for op in ops))
    assert all(stat.self_ns >= 0 for stat in tracer.stats.values())
    assert all(stat.self_ns <= stat.incl_ns or stat.incl_ns == 0
               for stat in tracer.stats.values())
    op_ns = sum(outcome.ns for outcome in outcomes)
    # the module self times add up to the spanned time, which is nearly all op time
    assert sum(tracer.self_ns_by_module().values()) == tracer.root_ns <= op_ns
    assert tracer.root_ns > 0.9 * op_ns
    assert tracer.stats["cli.main"].calls >= 1
    assert tracer.stats["arith.product_formula.box"].calls >= 1
    assert tracer.counts["matrices.det_exact.max_dim"] >= 4


def test_generator_time_excludes_the_consumer(hh):
    region = hh.regions.build_region(hh.regions.validate(2, 1, (), ()), "full")

    def consume():
        for _ in hh.oracle.enumerate_tilings(region):
            time.sleep(0.005)

    tracer = _traced(hh, consume)
    stat = tracer.stats["oracle.enumerate_tilings"]
    yielded = tracer.counts["oracle.enumerate_tilings.yielded"]
    assert stat.calls == 1 and yielded == hh.arith.product_formula("box", 2, 1)
    assert stat.incl_ns < 0.005 * 1e9 * yielded / 2


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(bench_ops.WORKLOADS)


def test_traced_pass_reports_every_layer_metric(hh):
    ops = bench_ops.generate(hh, "brute_force", 5, 1)[:3]
    untraced, _ = run.run_pass(hh, ops)
    tracer = bench_spans.Tracer()
    tracer.install()
    try:
        traced, _ = run.run_pass(hh, ops)
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics("brute_force", tracer, traced, untraced, ops)
    assert set(metrics) == set(run.per_layer_units())
    assert 0 < metrics["trace.coverage"] <= 1


def test_checks_parse_values_beyond_the_digit_limit():
    digits = "7" + "0" * 9999
    assert bench_checks.parse_int(digits) == 7 * 10 ** 9999
    assert bench_checks.parse_int("-" + digits) == -7 * 10 ** 9999
    assert bench_checks.parse_rational(digits + "/" + digits[:5000]) == 10 ** 5000
    with pytest.raises(ValueError):
        bench_checks.parse_int("12a")
