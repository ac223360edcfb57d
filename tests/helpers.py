"""Helpers shared by several test modules."""

import math
from fractions import Fraction

from holeyhex.matrices import det_exact
from holeyhex.regions import RIGHT, RegionSpec, TriangularRegion, hexagon_cells


def outcome(function, *args):
    """What a call gives: its value and type, or its exception and message."""
    try:
        value = function(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), value


def unholed(spec):
    """The spec's hexagon with no holes."""
    return RegionSpec(spec.n, spec.m, (), ())


def hexagon_region(n, m):
    """The unholed hexagon with sides n, 2m, built by hand: unlike
    ``build_region`` it takes any n >= 1, odd ones included."""
    return TriangularRegion("full", hexagon_cells(n, m), None)


def triangle_cells(n, m, position, orientation, side):
    """The cells of the hexagon with sides n, 2m that have all three vertices in
    the closed triangle of side ``side`` whose vertical edge lies in column
    ``position``, centred on the axis, and whose apex is ``side`` columns along
    the way ``orientation`` points.  At side 2 these are ``hole_cells_full``."""
    way = 1 if orientation == RIGHT else -1

    def inside(c, h):
        along = way * (c - position)
        return along >= 0 and abs(h) + along <= side

    return frozenset((c, h, o) for c, h, o in hexagon_cells(n, m)
                     if inside(c, h - 1) and inside(c, h + 1)
                     and inside(c + (1 if o == RIGHT else -1), h))


def cauchy(left, right):
    """C(L, R) = |det [1/(r_j - l_i)]| / (pi sqrt 3)^p, the critical-limit
    hole determinant of point charges at the positions L and R, from the exact
    determinant.  By the Cauchy evaluation it is the point-charge energy: the
    bulk law of side-two holes is 3^p C(L, R)^2, the free-boundary law of left
    holes alone C(L, -L) (tests/test_asymptotics.py)."""
    det = det_exact([[Fraction(1, r - l) for r in right] for l in left])
    return abs(float(det)) / (math.pi * math.sqrt(3.0)) ** len(left)


def path_count(start, end, variant="none"):
    """Number of north/east lattice paths from start to end: the reference
    count of one path, which ``path_matrix`` entries are checked against.

    ``avoid_diagonal`` counts paths never touching y = x via the reflection
    difference P(end) - P(end reflected); ``weighted_below`` counts paths
    weakly below the diagonal with weight 2 per diagonal touch, which the
    reflection principle turns into the sum P(end) + P(end reflected).
    Both endpoints are expected weakly below y = x - 1.
    """
    (a, b), (c, d) = start, end

    def plain(cx, dy):
        east, north = cx - a, dy - b
        if east < 0 or north < 0:
            return 0
        return math.comb(east + north, east)

    if variant == "none":
        return plain(c, d)
    if variant == "avoid_diagonal":
        return plain(c, d) - plain(d, c)
    if variant == "weighted_below":
        return plain(c, d) + plain(d, c)
    raise ValueError(f"unknown path count variant {variant!r}")
