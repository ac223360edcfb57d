"""Helpers shared by several test modules."""

from holeyhex.regions import TriangularRegion, hexagon_cells


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
