"""Benchmark of the holeyhex engine: seeded workloads, checked outputs, metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_count --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client sends sequential ops in one
single-threaded process.  An op is an in-process call of
``holeyhex.cli.main(argv)`` with stdout and stderr captured, or a direct call
of a public library function where no verb exists.  The op list comes from
the seed and is sized from --seconds (see ``bench_ops.ROUND_SECONDS``), so a
run measures the same ops on every commit.

Times are reported in seconds at a reference speed.  The host's speed
drifts by up to 1.5x within seconds (shared cores changing speed state), so
a short calibration loop of the benchmark's own (``calibrate``) runs before
every op and after the last one, and each op's wall time is scaled by the
reference calibration time over the mean of the two calibrations around it.
The calibration is fixed benchmark code: a change to holeyhex cannot move it,
only the op times it scales.  Raw wall times are printed beside the scaled
ones in the readable report.

--trace 0 measures the untraced run and reports the end-to-end metrics.
--trace 1 runs the same op list untraced and then traced, and reports the
per-layer metrics; the difference of the two runs is the tracing overhead.

Every output is checked by an independent route after the timed region
(``bench_checks``).  One JSON record per op is printed, then a readable
report, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts ops
that raised, exited 2 on a valid spec, or failed their check; ``correct`` is
false only when some output disagreed with its independent route.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import resource
import statistics
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import bench_checks
import bench_ops
import bench_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("arith", "regions", "matrices", "oracle", "zeta", "asymptotics", "cli")
SETUP_REPEATS = 9
PASS_CAP_S = 70.0  # ops left when a pass exceeds this are not attempted
# Wall time of one ``calibrate`` call at the reference speed (about its time
# in the fast state of a 2-core x86-64 container with CPython 3.11).
REF_CALIB_NS = 10_000_000

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Layers each workload is predicted to spend most of its time in.
PREDICTED = {
    "exact_count": ("arith.product_formula.",),
    "correlation_sweep": ("matrices.hole_matrix", "arith.gamma_ratio"),
    "brute_force": ("oracle.", "zeta."),
}

COUNTERS = {
    "matrices.det_exact.max_dim": "count",
    "matrices.det_exact.result_bits": "bit",
    "arith.product_formula.result_bits": "bit",
    "matrices.hole_matrix.entries": "count",
    "regions.build_region.cells": "count",
    "oracle.enumerate_tilings.yielded": "count",
    "cli.main.out_bytes": "B",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every metric a traced run reports, in order."""
    units = {}
    for name in bench_spans.span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    for module in bench_spans.TARGETS:
        units[f"{module}.share"] = "1"
    units.update({"trace.overhead_s": "s", "trace.coverage": "1",
                  "trace.predicted_share": "1", "trace.prediction_met": "1"})
    return units


@dataclass
class Outcome:
    result: object    # CLI exit code, or the value a direct call returned
    out: str
    err: str
    error: BaseException | None
    ns: int           # wall time
    ref_ns: float = 0.0  # wall time scaled to the reference speed


def calibrate() -> int:
    """Wall time of a fixed mix of the kinds of work holeyhex does: big-integer
    products, interpreted integer arithmetic, and a dict keyed by tuples.

    The dict part tracks the host's memory-bound slowdowns, which the
    arithmetic alone follows only in part."""
    start = perf_counter_ns()
    product = 1
    for factor in range(1, 1200):
        product *= factor
    total = 0
    for i in range(60_000):
        total += i * i % 7
    table = {}
    for i in range(12_000):
        table[i, i * 7 % 13, -i] = i
    for i in range(0, 12_000, 3):
        total += table[i, i * 7 % 13, -i]
    return perf_counter_ns() - start


def to_reference(ns: int, before: int, after: int) -> float:
    """Scale a wall time by the calibrations measured just before and after it."""
    return ns * 2 * REF_CALIB_NS / (before + after)


def load_holeyhex() -> SimpleNamespace:
    """Import holeyhex afresh from the checkout's sources."""
    for key in [k for k in sys.modules if k == "holeyhex" or k.startswith("holeyhex.")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"holeyhex.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"holeyhex was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def execute(hh, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    error = result = None
    start = perf_counter_ns()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.argv:
                result = hh.cli.main(list(op.argv))
            else:
                result = bench_ops.run_call(hh, op)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        error = exc
    ns = perf_counter_ns() - start
    return Outcome(result, out.getvalue(), err.getvalue(), error, ns)


def run_pass(hh, ops) -> tuple[list[Outcome], int]:
    """Run ops in order; returns their outcomes and the summed op wall time.

    Garbage left by one op is collected before the next starts, outside the
    op's timing, so that no op pays for its predecessor's cycles.  A
    calibration runs before the first op and after every op, and sets each
    op's ``ref_ns``.
    """
    outcomes = []
    before = calibrate()
    for op in ops:
        if sum(o.ns for o in outcomes) > PASS_CAP_S * 1e9:
            break
        gc.collect()
        outcome = execute(hh, op)
        after = calibrate()
        outcome.ref_ns = to_reference(outcome.ns, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes, sum(o.ns for o in outcomes)


def _exit2_reason(err: str) -> str:
    if "integer string conversion" in err:
        return "digit_limit"
    if "too large for a float" in err or "OverflowError" in err:
        return "float_overflow"
    if "math domain error" in err:
        return "log_domain"
    return "exit2_other"


def classify(hh, op, outcome: Outcome):
    """None for a good op, else a Failure with its reason class."""
    if outcome.error is not None:
        return bench_checks.Failure("raised", f"{type(outcome.error).__name__}: {outcome.error}")
    if not op.argv:
        return bench_checks.check(hh, op, outcome.result)
    if outcome.result == 2:
        lines = outcome.err.strip().splitlines() or [""]
        return bench_checks.Failure(_exit2_reason(outcome.err), lines[-1][:200])
    return bench_checks.check(hh, op, outcome.out, outcome.result)


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100
    percentile = (100 * (count - 10)) // count
    rank = math.ceil(percentile * count / 100)
    return ordered[rank - 1], percentile


def layer_metrics(workload: str, tracer, traced, untraced, ops) -> dict[str, float]:
    metrics = {}
    for name, stat in tracer.stats.items():
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.s"] = stat.incl_ns / 1e9
        metrics[f"{name}.self_s"] = stat.self_ns / 1e9
    for name in COUNTERS:
        metrics[name] = tracer.counts[name]
    metrics["cli.main.out_bytes"] = sum(len(o.out.encode()) for op, o in zip(ops, traced)
                                        if op.argv)
    traced_ns = sum(o.ns for o in traced)
    for module, ns in tracer.self_ns_by_module().items():
        metrics[f"{module}.share"] = ns / traced_ns
    metrics["trace.overhead_s"] = (sum(o.ref_ns for o in traced)
                                   - sum(o.ref_ns for o in untraced)) / 1e9
    metrics["trace.coverage"] = tracer.root_ns / traced_ns
    predicted = PREDICTED[workload]
    metrics["trace.predicted_share"] = sum(
        stat.self_ns for name, stat in tracer.stats.items()
        if name.startswith(predicted)) / traced_ns
    metrics["trace.prediction_met"] = int(largest_self(tracer).startswith(predicted))
    return metrics


def largest_self(tracer) -> str:
    return max(tracer.stats, key=lambda name: tracer.stats[name].self_ns)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holeyhex" / "__init__.py").is_file():
        print(f"error: holeyhex sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    # set-up: import holeyhex, generate and validate the op list; repeated, median kept
    rounds = bench_ops.rounds_for(args.seconds)
    setup_times, setup_wall, ops = [], [], None
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        start = perf_counter_ns()
        hh = load_holeyhex()
        generated = bench_ops.generate(hh, args.workload, args.seed, rounds)
        ns = perf_counter_ns() - start
        after = calibrate()
        setup_wall.append(ns / 1e9)
        setup_times.append(to_reference(ns, before, after) / 1e9)
        before = after
        if ops is not None and generated != ops:
            print("error: the op list is not reproducible from the seed", file=sys.stderr)
            return 1
        ops = generated

    untraced, op_ns = run_pass(hh, ops)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [o.ref_ns / 1e9 for o in untraced]
    tail_s, tail_pct = tail(latencies)
    wall = [o.ns / 1e9 for o in untraced]
    end_to_end = {
        "ops_per_s": len(untraced) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib,
    }
    outcomes, layers = untraced, None
    if args.trace:
        tracer = bench_spans.Tracer()
        tracer.install()
        try:
            outcomes, _ = run_pass(hh, ops[:len(untraced)])
        finally:
            tracer.uninstall()
        layers = layer_metrics(args.workload, tracer, outcomes,
                               untraced[:len(outcomes)], ops)

    # checks of the reported pass, outside the timed region
    failures = [classify(hh, op, outcome) for op, outcome in zip(ops, outcomes)]
    for index, (op, outcome, failure) in enumerate(zip(ops, outcomes, failures)):
        print(json.dumps({
            "op": index, "call": op.label(), "sizes": op.sizes(),
            "s": outcome.ns / 1e9, "ref_s": outcome.ref_ns / 1e9,
            "exit": outcome.result if op.argv else None,
            "verdict": "fail" if failure else "ok",
            "reason": failure.reason if failure else None,
            "detail": failure.detail if failure else None,
        }))
    attempted = len(outcomes)
    failed = sum(1 for f in failures if f is not None)
    correct = not any(f and f.reason in ("check_mismatch", "unparsable") for f in failures)

    print(f"# workload {args.workload}, seed {args.seed}, {rounds} rounds, "
          f"{attempted} of {len(ops)} ops attempted, trace {args.trace}")
    notes = {
        "ops_per_s": f"wall {len(wall) / (op_ns / 1e9):.6g}",
        "op_p50_s": f"n={len(untraced)}, wall {statistics.median(wall):.6g}",
        "op_tail_s": f"p{tail_pct}, n={len(untraced)}, wall {tail(wall)[0]:.6g}",
        "setup_s": f"median of {SETUP_REPEATS}, wall {statistics.median(setup_wall):.6g}",
    }
    for name, unit in END_TO_END.items():
        print(f"#   {name:<34} {end_to_end[name]:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"#   {'fail_ratio':<34} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} failed of {attempted} attempted")
    for reason, count in sorted(Counter(f.reason for f in failures if f).items()):
        print(f"#     failure class {reason}: {count}")
    if layers is not None:
        for name, unit in per_layer_units().items():
            print(f"#   {name:<34} {layers[name]:>14.6g} {unit}")
        if tracer.absent:
            print(f"#   absent from the package: {', '.join(tracer.absent)}")
        print(f"#   largest self time: {largest_self(tracer)}; "
              f"predicted {PREDICTED[args.workload]} "
              f"{'met' if layers['trace.prediction_met'] else 'NOT met'}")

    if args.trace:
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
