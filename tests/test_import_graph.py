"""The brute-force routes stay independent of the determinant machinery."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "holeyhex"
DETERMINANT_MODULES = {"matrices", "arith", "asymptotics"}


def imported_names(path):
    """Every dotted-name part of every import in a source file."""
    parts = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
            parts.update(part for name in names for part in name.split("."))
    return parts


@pytest.mark.parametrize("module", ["oracle", "zeta"])
def test_oracles_import_no_determinant_module(module):
    imported = imported_names(SOURCE / f"{module}.py")
    assert "regions" in imported  # the parse sees the package imports at all
    assert not imported & DETERMINANT_MODULES


def test_oracle_imports_no_cell_geometry():
    # which cells form a tile is derived in regions alone, by TriangularRegion.order
    imported = imported_names(SOURCE / "oracle.py")
    assert "regions" in imported
    assert not imported & {"neighbors", "LEFT", "RIGHT"}


def test_zeta_imports_no_cell_neighbours():
    # zeta reads a cell's edges from its region's tiles, TriangularRegion.mates
    imported = imported_names(SOURCE / "zeta.py")
    assert "regions" in imported
    assert "neighbors" not in imported


def scopes_of(tree, matches):
    """The enclosing class and function names of every node that ``matches``."""
    found = []

    def visit(node, scope):
        if matches(node):
            found.append(scope)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def reads_neighbors(node):
    return isinstance(node, ast.Name) and node.id == "neighbors" or \
        isinstance(node, ast.Attribute) and node.attr == "neighbors"


def test_only_the_unholed_sort_probes_neighbors():
    # which cells form a tile is derived once, by TriangularRegion.order's sort;
    # every other tile table, mates included, reads order
    reads = {path.stem: scopes_of(ast.parse(path.read_text()), reads_neighbors)
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == \
        {"regions": [("TriangularRegion", "order")]}


def builds_factorials(node):
    """A call of a function named factorial or perm, as math's attribute or by
    a bare name imported from math."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in {"factorial", "perm"}


def test_only_gamma_ratio_builds_factorials():
    # every exact Gamma value, half-integers included, goes through gamma_ratio's pairing
    calls = {module: set(scopes_of(ast.parse((SOURCE / f"{module}.py").read_text()),
                                   builds_factorials))
             for module in ("arith", "matrices")}
    assert calls == {"arith": {("gamma_ratio",)}, "matrices": set()}


def test_no_module_keeps_global_state():
    # every function of the package is pure and reentrant: none rebinds a module name
    found = {path.stem: scopes_of(ast.parse(path.read_text()),
                                  lambda node: isinstance(node, ast.Global))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: scopes for module, scopes in found.items() if scopes} == {}
