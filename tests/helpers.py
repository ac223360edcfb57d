"""Helpers shared by several test modules."""

from holeyhex.regions import RIGHT, TriangularRegion, hexagon_cells


def outcome(function, *args):
    """What a call gives: its value and type, or its exception and message."""
    try:
        value = function(*args)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return type(value), value


def hexagon_region(n, m):
    """The unholed hexagon with sides n, 2m, built by hand: unlike
    ``build_region`` it takes any n >= 1, odd ones included."""
    return TriangularRegion("full", hexagon_cells(n, m), frozenset(), None)


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
