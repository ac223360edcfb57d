"""Per-layer spans for holeyhex, recorded from outside the package.

The tracer replaces each listed public function by a timing wrapper in every
``holeyhex`` module that binds it.  Imported names are copies (for example
``matrices.gamma_ratio`` and ``asymptotics.det_exact``), so wrapping only the
defining module would miss most calls.  ``uninstall`` puts the originals back.

Spans nest on one stack.  A span's self time is its duration minus the
durations of the spans opened while it was on top of the stack, so the self
times of all spans add up exactly to the time covered by the outermost spans.
Times are integer nanoseconds, which keeps that sum exact and self time
nonnegative.  Generator functions are timed only while their own frames run:
each resumption is one span, and the consumer's work between two items is not
charged to the generator.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "holeyhex"

# module -> public functions wrapped in the traced run
TARGETS = {
    "cli": ("main",),
    "arith": ("product_formula", "gamma_ratio"),
    "regions": ("validate", "build_region"),
    "matrices": ("count_region", "path_matrix", "det_exact", "hole_matrix",
                 "hole_matrix_entry"),
    "oracle": ("count_tilings", "enumerate_tilings", "count_families"),
    "zeta": ("verify_injection", "zeta"),
    "asymptotics": ("finite_correlation", "separation_sweep", "size_sweep"),
}

PRODUCT_KINDS = ("box", "transpose_complement", "vertical_symmetric")


def span_names() -> list[str]:
    """Every span name the tracer can report, in a fixed order."""
    names = []
    for module, functions in TARGETS.items():
        for function in functions:
            if (module, function) == ("arith", "product_formula"):
                names += [f"arith.product_formula.{kind}" for kind in PRODUCT_KINDS]
            else:
                names.append(f"{module}.{function}")
    return names


def _fraction_bits(value) -> int:
    numerator = getattr(value, "numerator", value)
    denominator = getattr(value, "denominator", 1)
    return abs(numerator).bit_length() + denominator.bit_length()


class SpanStat:
    __slots__ = ("calls", "incl_ns", "self_ns", "active")

    def __init__(self):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.active = 0  # recursion depth; inclusive time counts the outermost call only


class Tracer:
    """Collects call counts, inclusive and self times, and size counters."""

    def __init__(self):
        self.stats = {name: SpanStat() for name in span_names()}
        self.counts = Counter()
        self.absent: list[str] = []
        self.root_ns = 0  # time covered by outermost spans
        self._stack: list[int] = []  # child time accumulated per open span
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, stat: SpanStat) -> int:
        stat.active += 1
        self._stack.append(0)
        return perf_counter_ns()

    def _close(self, stat: SpanStat, start: int) -> None:
        duration = perf_counter_ns() - start
        children = self._stack.pop()
        stat.active -= 1
        stat.self_ns += duration - children
        if not stat.active:
            stat.incl_ns += duration
        if self._stack:
            self._stack[-1] += duration
        else:
            self.root_ns += duration

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, name: str, original, measure):
        stats = self.stats

        def wrapper(*args, **kwargs):
            stat = stats.get(name)
            if stat is None:  # product_formula: one span per kind
                kind = args[0] if args else kwargs.get("kind")
                stat = stats.setdefault(f"{name}.{kind}", SpanStat())
            stat.calls += 1
            start = self._open(stat)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(stat, start)
            if measure is not None:
                measure(self.counts, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, name: str, original):
        stat = self.stats[name]
        counts = self.counts

        def resumed(generator):
            try:
                while True:
                    start = self._open(stat)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        self._close(stat, start)
                    counts[f"{name}.yielded"] += 1
                    yield item
            finally:
                generator.close()

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return resumed(original(*args, **kwargs))

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded holeyhex module that binds it.

        A target missing from its module is recorded in ``absent`` instead of
        raising, so a later refactor cannot break a traced run.
        """
        modules = [module for key, module in list(sys.modules.items())
                   if module is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            for function in functions:
                name = f"{module_name}.{function}"
                original = getattr(home, function, None) if home else None
                if not callable(original):
                    self.absent.append(name)
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap_function(name, original, MEASURES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def bound_names(self) -> set[str]:
        """``module.attr`` for every binding currently wrapped."""
        return {f"{module.__name__}.{attr}" for module, attr, _ in self._patches}

    # -- results ----------------------------------------------------------

    def self_ns_by_module(self) -> dict[str, int]:
        totals = {module: 0 for module in TARGETS}
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat.self_ns
        return totals


def _measure_det(counts, args, result):
    counts["matrices.det_exact.max_dim"] = max(counts["matrices.det_exact.max_dim"],
                                               len(args[0]))
    counts["matrices.det_exact.result_bits"] += _fraction_bits(result)


def _measure_product(counts, args, result):
    counts["arith.product_formula.result_bits"] += _fraction_bits(result)


def _measure_hole_matrix(counts, args, result):
    counts["matrices.hole_matrix.entries"] += sum(len(row) for row in result)


def _measure_region(counts, args, result):
    counts["regions.build_region.cells"] += len(result.cells)


MEASURES = {
    "matrices.det_exact": _measure_det,
    "arith.product_formula": _measure_product,
    "matrices.hole_matrix": _measure_hole_matrix,
    "regions.build_region": _measure_region,
}
