"""Seeded op lists for the holeyhex benchmark workloads.

An op is one in-process call of ``holeyhex.cli.main(argv)`` or, where no
verb exists, one direct call of a public library function.  Ops are plain
data; ``generate`` builds the list for a workload from a seed, validating
every region spec with ``holeyhex.regions.validate`` on the way.

Each workload is a sequence of identically shaped rounds.  A round holds one
op per slot; a slot fixes the op type, the sizes (n, m, number of hole pairs)
and, alternating from round to round, the region kind.  The seed picks the
hole positions and the op order.  An op's cost depends on its sizes far more
than on where its holes sit, so the work of a run is nearly independent of the
seed and runs with different seeds are comparable.  Where the cost does follow
the holes (the brute-force oracles), the seed's holes are kept only when the
region's tiling count falls in a fixed band.
"""

from __future__ import annotations

import random
from itertools import combinations
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact_count", "correlation_sweep", "brute_force")

# Nominal seconds of one round with the parent implementation (3.5 to 3.9 s
# at the reference speed of ``run.calibrate``, measured on a 2-core x86-64
# container with CPython 3.11).  ``rounds_for``
# turns --seconds into a fixed number of rounds, so a run measures the same op
# list on every commit, however fast the code under test is.
ROUND_SECONDS = 4.0


@dataclass(frozen=True)
class Op:
    verb: str                       # CLI verb, or "count_tilings" / "count_families"
    argv: tuple = ()                # CLI arguments; empty for direct calls
    spec: tuple = ()                # (n, m, left, right) for single-region ops
    params: dict = field(default_factory=dict)  # what the checker needs

    def label(self) -> str:
        if self.argv:
            return "holeyhex " + " ".join(self.argv)
        n, m, left, right = self.spec
        extra = "".join(f" {k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.verb}(n={n} m={m} L={_csv(left)} R={_csv(right)}{extra})"

    def sizes(self) -> dict:
        if self.spec:
            n, m, left, _ = self.spec
            return {"n": n, "m": m, "p": len(left)}
        return {k: v for k, v in self.params.items() if k in ("n_values", "size", "max_n")}


def rounds_for(seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _m(xi: Fraction, n: int) -> int:
    m = Fraction(xi) * n / 2
    if m.denominator != 1 or m < 1:
        raise ValueError(f"xi={xi} gives no integer m at n={n}")
    return int(m)


def _spec_argv(n, m, left, right) -> list[str]:
    argv = ["--n", str(n), "--m", str(m)]
    if left:
        argv.append("--left=" + _csv(left))
    if right:
        argv.append("--right=" + _csv(right))
    return argv


class _OpFactory:
    """Draws the seeded choices of one workload and validates every spec."""

    def __init__(self, hh, workload: str, seed: int):
        self.hh = hh
        self.rng = random.Random(f"{workload}/{seed}")
        self._families: dict[tuple, list] = {}

    def spec(self, n, m, left, right) -> tuple:
        valid = self.hh.regions.validate(n, m, left, right)
        return (valid.n, valid.m, valid.left, valid.right)

    def holes(self, n: int, p: int, reach: int | None = None) -> tuple[list, list]:
        """p left and p right positions, all with |x| <= reach."""
        reach = n - 2 if reach is None else reach
        chosen = self.rng.sample(range(-reach, reach + 1, 2), 2 * p)
        return sorted(chosen[:p]), sorted(chosen[p:])

    def mirrored(self, n: int, p: int) -> tuple[list, list]:
        """Left holes left of the centre line and their mirror images (R = -L)."""
        left = sorted(self.rng.sample(range(-(n - 2), 0, 2), p))
        return left, sorted(-x for x in left)

    def cli(self, verb, argv, spec=(), **params) -> Op:
        return Op(verb, tuple([verb] + argv), spec, params)

    # -- exact_count ------------------------------------------------------

    def count(self, kind, n, xi, p) -> Op:
        m = _m(xi, n)
        left, right = self.mirrored(n, p) if kind == "free" else self.holes(n, p)
        spec = self.spec(n, m, left, right)
        return self.cli("count", _spec_argv(*spec) + ["--kind", kind], spec, kind=kind)

    def formulas(self, which, n, xi) -> Op:
        m = _m(xi, n)
        spec = self.spec(n, m, [], [])
        return self.cli("formulas", ["--which", which, "--n", str(n), "--m", str(m)],
                        spec, which=which)

    def exact_count_round(self, r: int) -> list[Op]:
        half = Fraction(1, 2)
        kind, other = ("lower", "upper")[r % 2], ("upper", "lower")[r % 2]
        formula = ("transpose_complement", "vertical_symmetric")[r % 2]
        return [
            self.count(kind, 80, half, 0),
            self.count(other, 80, half, 2),
            self.count(kind, 64, half, 1),
            self.formulas(formula, 120, half),
            self.formulas("box", 32, half),
            # the median falls among these six
            *(self.count(k, 100, half, p) for k in ("lower", "upper") for p in (0, 1, 2)),
            self.count("free", 72, 1, 1),
            self.count("full", 40, half, 1),
            # more than 4300 decimal digits: the CLI cannot print the value
            self.formulas(formula, 200, 1),
            # the tail percentile falls among these three
            self.count(kind, 188, half, 2),
            self.count(other, 188, half, 2),
            self.count(kind, 188, half, 1),
            # the two heaviest slots alternate, so that five of them lie
            # beyond the tail percentile and it falls mid-group
            # (the count at n = 168 has more than 4300 decimal digits: the
            # CLI cannot print it)
            self.count("full", 56, 1, 2) if r % 2 == 0 else self.count(other, 168, 1, 2),
        ]

    # -- correlation_sweep ------------------------------------------------

    def correlate(self, model, n, xi, left, right) -> Op:
        spec = self.spec(n, _m(xi, n), left, right)
        return self.cli("correlate", _spec_argv(*spec) + ["--model", model], spec,
                        model=model)

    def separation_sweep(self, n, xi, separations, model="bulk") -> Op:
        for d in separations:  # hole pair at -d, +d
            self.spec(n, _m(xi, n), [-d], [d])
        argv = ["--xi", str(xi), "--model", model, "--size", str(n),
                "--separations", _csv(separations), "--fit"]
        return self.cli("sweep", argv, xi=str(xi), model=model, size=n,
                        separations=tuple(separations))

    def size_sweep(self, xi, n_values, left_eighths, right_eighths) -> Op:
        for n in n_values:
            self.spec(n, _m(xi, n), [2 * round(q * n / 8) for q in left_eighths],
                      [2 * round(q * n / 8) for q in right_eighths])
        argv = ["--xi", str(xi), "--n-values", _csv(n_values),
                "--left=" + _csv(left_eighths), "--right=" + _csv(right_eighths),
                "--scale-holes", "--fit"]
        return self.cli("sweep", argv, xi=str(xi), model="bulk", n_values=tuple(n_values),
                        left=tuple(left_eighths), right=tuple(right_eighths))

    def correlation_sweep_round(self, r: int) -> list[Op]:
        rng = self.rng
        third, half = Fraction(1, 3), Fraction(1, 2)

        def far_pair():  # holes near the sides
            return [-(230 - 2 * rng.randint(0, 3))], [230 - 2 * rng.randint(0, 3)]

        return [
            self.correlate("bulk", 40, 3, *self.holes(40, 1)),
            self.correlate("bulk", 80, 1, *self.holes(80, 1)),
            self.correlate("free_boundary", 96, 1, *self.mirrored(96, 1)),
            self.correlate("bulk", 120, third, *self.holes(120, 3, reach=60)),
            self.size_sweep(half, [72, 144, 216], [-rng.randint(1, 3)], [rng.randint(1, 3)]),
            self.correlate("bulk", 160, half, *self.holes(160, 2)),
            # the median falls among these six
            *(self.separation_sweep(144, 1, sorted(rng.sample(range(2, 42, 2), 4)))
              for _ in range(3)),
            *(self.correlate("bulk", 248, 1, *self.holes(248, 1)) for _ in range(3)),
            self.correlate("bulk", 248, half, *self.holes(248, 3)),
            # xi = 3 with holes near the sides: omega is below the smallest double;
            # the tail percentile falls among these three
            *(self.correlate("bulk", 232, 3, *far_pair()) for _ in range(3)),
            # the two heaviest slots alternate (see exact_count_round):
            # xi = 1/3 at n >= 696 with holes at -3n/4, 3n/4: omega exceeds the
            # double range; xi = 3: the far pair's omega underflows, and the fit
            # takes log(0)
            self.size_sweep(third, [480, 600, 744], [-3], [3]) if r % 2 == 0
            else self.separation_sweep(256, 3, [2 * rng.randint(28, 32), 254]),
        ]

    # -- brute_force ------------------------------------------------------

    def call(self, verb, spec, **params) -> Op:
        return Op(verb, (), spec, params)

    def banded(self, n, m, p, kind, lo, hi) -> tuple:
        """A seeded spec with p hole pairs whose half region has lo..hi tilings.

        Transmission checks cost a fixed time per tiling, so the band keeps the
        work of an op nearly independent of the seed.  Every hole placement of
        the family is counted, whatever the seed, so set-up time does not
        depend on the seed either.
        """
        key = (n, m, p, kind)
        if key not in self._families:
            hh = self.hh
            family = []
            for chosen in combinations(range(-n + 2, n - 1, 2), 2 * p):
                for left in combinations(chosen, p):
                    right = tuple(x for x in chosen if x not in left)
                    if kind == "upper" and any(r + 2 in left for r in right):
                        continue  # toward-pointing pair at spacing two: no transmission
                    spec = self.spec(n, m, left, right)
                    region = hh.regions.build_region(hh.regions.validate(*spec), kind)
                    family.append((hh.oracle.count_tilings(region), spec))
            self._families[key] = family
        return self.rng.choice([spec for tilings, spec in self._families[key]
                                if lo <= tilings <= hi])

    def zeta_op(self, n, m, p, kind, lo, hi) -> Op:
        spec = self.banded(n, m, p, kind, lo, hi)
        return self.cli("zeta", _spec_argv(*spec) + ["--kind", kind], spec, kind=kind)

    def brute_force_round(self, r: int) -> list[Op]:
        kind, other = ("lower", "upper")[r % 2], ("upper", "lower")[r % 2]
        verify = self.cli("verify", ["--max-n", "6", "--max-m", "1", "--max-p", "2"],
                          max_n=6, max_m=1, max_p=2)
        return [
            self.call("count_families", self.spec(12, 2, *self.holes(12, 1)), kind=kind),
            self.call("count_families", self.spec(10, 3, *self.holes(10, 1)), kind=other),
            self.call("count_families", self.spec(12, 3, *self.holes(12, 1)), kind="lower"),
            self.call("count_tilings", self.spec(8, 2, *self.holes(8, 1))),
            self.call("count_tilings", self.spec(6, 3, *self.holes(6, 1))),
            self.zeta_op(6, 2, 2, "lower", 20, 300),
            # the median falls among these six
            verify,
            verify,
            *(self.zeta_op(6, 2, 1, "lower", 300, 350) for _ in range(4)),
            self.zeta_op(6, 2, 2, "upper", 400, 600),
            self.call("count_tilings", self.spec(12, 2, (), ())),
            # the tail percentile falls among these three
            *(self.zeta_op(6, 3, 2, "lower", 850, 1000) for _ in range(3)),
            # the two heaviest slots alternate (see exact_count_round)
            self.call("count_families", self.spec(12, 4, (), ()), kind="upper") if r % 2 == 0
            else self.call("count_tilings", self.spec(10, 3, (), ())),
        ]


def generate(hh, workload: str, seed: int, rounds: int) -> list[Op]:
    """The op list of ``rounds`` rounds; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    factory = _OpFactory(hh, workload, seed)
    make_round = getattr(factory, f"{workload}_round")
    ops = []
    for r in range(rounds):
        batch = make_round(r)
        factory.rng.shuffle(batch)
        ops += batch
    return ops


def run_call(hh, op: Op):
    """Execute a direct-call op; names are looked up at call time so that
    traced wrappers apply."""
    n, m, left, right = op.spec
    spec = hh.regions.validate(n, m, left, right)
    if op.verb == "count_tilings":
        return hh.oracle.count_tilings(hh.regions.build_region(spec, "full"))
    if op.verb == "count_families":
        kind = op.params["kind"]
        points = hh.oracle.noncrossing_endpoints(spec, kind)
        if points is None:
            return 0
        constraint = "avoid_diagonal" if kind == "lower" else "weighted_below"
        return hh.oracle.count_families(*points, constraint)
    raise ValueError(f"unknown direct call {op.verb!r}")
