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


def located(tree, matches):
    """(enclosing class and function names, node) of every node that ``matches``."""
    found = []

    def visit(node, scope):
        if matches(node):
            found.append((scope, node))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (*scope, node.name)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def scopes_of(tree, matches):
    """The enclosing class and function names of every node that ``matches``."""
    return [scope for scope, _ in located(tree, matches)]


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


def called_name(node):
    """The name a call calls, bare or as an attribute; None for any other node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def calls_unholed(node):
    """A call of ``_unholed``, by its bare name or as an attribute."""
    return called_name(node) == "_unholed"


def test_only_the_constructors_look_up_unholed_regions():
    # a cut region holds the region it was cut from, so no table of it goes
    # back to the cache, where an evicted hexagon would be rebuilt
    calls = {path.stem: scopes_of(ast.parse(path.read_text()), calls_unholed)
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: sorted(found) for module, found in calls.items() if found} == \
        {"regions": [("_removed",), ("build_region",)]}


def builds_factorials(node):
    """A call of a function named factorial or perm, as math's attribute or by
    a bare name imported from math."""
    return called_name(node) in {"factorial", "perm"}


def test_only_gamma_ratio_builds_factorials():
    # every exact Gamma value, half-integers included, goes through gamma_ratio's pairing
    calls = {module: set(scopes_of(ast.parse((SOURCE / f"{module}.py").read_text()),
                                   builds_factorials))
             for module in ("arith", "matrices")}
    assert calls == {"arith": {("gamma_ratio",)}, "matrices": set()}


def measures_a_distance(node):
    """A call of ``distance``, by its bare name or as an attribute."""
    return called_name(node) == "distance"


def test_only_the_coulomb_law_and_the_separation_fit_measure_distances():
    # the point-charge energy is written once, in predicted_interaction; the
    # separation sweep's fit is the only other reader of pairwise distances
    calls = {path.stem: set(scopes_of(ast.parse(path.read_text()), measures_a_distance))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: found for module, found in calls.items() if found} == \
        {"asymptotics": {("predicted_interaction",), ("separation_sweep",)}}


def test_no_module_keeps_global_state():
    # every function of the package is pure and reentrant: none rebinds a module name
    found = {path.stem: scopes_of(ast.parse(path.read_text()),
                                  lambda node: isinstance(node, ast.Global))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: scopes for module, scopes in found.items() if scopes} == {}


def unbounded_cache(node):
    """A ``cache`` decorator, or an ``lru_cache`` one called with maxsize None."""
    call = node if isinstance(node, ast.Call) else None
    func = node.func if call else node
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False  # a bare lru_cache keeps its default 128 entries
    maxsize = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(arg, ast.Constant) and arg.value is None for arg in maxsize)


def unbounded_caches(tree):
    """The scopes of every unbounded cache decorator on a function that takes
    parameters; one without parameters holds a single entry."""
    decorators = {id(decorator) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(vars(node.args).values())
                  for decorator in node.decorator_list}
    return scopes_of(tree, lambda node: id(node) in decorators and unbounded_cache(node))


@pytest.mark.parametrize("source, found", [
    ("@functools.cache\ndef f(x): pass", [("f",)]),
    ("@cache\ndef f(*xs): pass", [("f",)]),
    ("@lru_cache(maxsize=None)\ndef f(x): pass", [("f",)]),
    ("class C:\n    @functools.lru_cache(None)\n    def f(self): pass", [("C", "f")]),
    ("@functools.cache\ndef f(): pass", []),
    ("@lru_cache(maxsize=16)\ndef f(x): pass", []),
    ("@lru_cache\ndef f(x): pass", []),
])
def test_the_unbounded_cache_check_sees_each_spelling(source, found):
    assert unbounded_caches(ast.parse(source)) == found


def test_every_cache_with_parameters_is_bounded():
    # per-hexagon caches (regions' unholed regions, matrices' boundary eliminations)
    # keep a fixed number of entries however many hexagons a process counts
    found = {path.stem: unbounded_caches(ast.parse(path.read_text()))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {module: scopes for module, scopes in found.items() if scopes} == {}


def names_halves(node):
    """``HALVES``, by its bare name or as an attribute."""
    return (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) == "HALVES"


def reads_a_half_shift(node):
    """A subscript of ``HALVES`` or a call of its ``get``, or a comparison with
    the half name "lower" or "upper", alone or in a literal tuple, list or set."""
    if isinstance(node, ast.Subscript):
        return names_halves(node.value)
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Attribute) and func.attr == "get" and names_halves(func.value)
    if not isinstance(node, ast.Compare):
        return False
    operands = [item for operand in (node.left, *node.comparators)
                for item in (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                             else [operand])]
    return any(isinstance(item, ast.Constant) and item.value in {"lower", "upper"}
               for item in operands)


@pytest.mark.parametrize("source, found", [
    ("HALVES[kind]", True),
    ("regions.HALVES[kind]", True),
    ("HALVES.get(kind)", True),
    ("kind == 'upper'", True),
    ("'lower' != region.kind", True),
    ("kind in ('lower', 'free_half')", True),
    ("kind == 'free_half'", False),
    ("kind in HALVES", False),
    ("count_region(spec, 'lower')", False),
    ("half_shift(kind, 'path matrix')", False),
])
def test_the_half_rule_check_sees_each_spelling(source, found):
    assert any(map(reads_a_half_shift, ast.walk(ast.parse(source)))) == found


def test_every_per_half_rule_reads_half_shift():
    # each half's shift d comes from the one checked lookup, regions.half_shift:
    # outside regions no module reads HALVES for it or compares a kind with a half
    sites = sorted((path.name, node.lineno) for path in SOURCE.glob("*.py") if path.stem != "regions"
                   for node in ast.walk(ast.parse(path.read_text())) if reads_a_half_shift(node))
    assert not sites, "per-half rules that skip half_shift: " + \
        ", ".join(f"{name}:{line}" for name, line in sites)


def compares_an_orientation(node):
    """A comparison with ``LEFT`` or ``RIGHT``, by its bare name or as an
    attribute, as one of its operands."""
    return isinstance(node, ast.Compare) and any(
        (item.attr if isinstance(item, ast.Attribute) else getattr(item, "id", None))
        in {"LEFT", "RIGHT"} for item in (node.left, *node.comparators))


@pytest.mark.parametrize("source, found", [
    ("o == RIGHT", True),
    ("regions.LEFT != cell[2]", True),
    ("x if first[2] == LEFT else y", True),
    ("LEFT < o <= RIGHT", True),
    ("(c + o, h, -o)", False),
    ("self.orientation * self.side", False),
    ("cells.append((c, h, RIGHT))", False),
    ("stack[-1][1] != item[1]", False),
])
def test_the_orientation_rule_check_sees_each_spelling(source, found):
    assert any(map(compares_an_orientation, ast.walk(ast.parse(source)))) == found


# the two comparisons with an orientation that classify rather than compute: which
# end of a run an induced hole's position is, and which case a hole pair's route is
ORIENTATION_CLASSES = {("regions", ("InducedHole", "position"), "self.orientation == RIGHT"),
                       ("zeta", ("_route",), "orient1 == LEFT")}


def test_every_per_orientation_rule_is_a_formula_in_the_sign():
    # a cell's orientation is the sign o of the column step from its vertical
    # edge to its apex, so each per-orientation rule is one formula in o
    sites = sorted((path.name, node.lineno) for path in SOURCE.glob("*.py")
                   for scope, node in located(ast.parse(path.read_text()), compares_an_orientation)
                   if (path.stem, scope, ast.unparse(node)) not in ORIENTATION_CLASSES)
    assert not sites, "per-orientation rules that branch on a constant: " + \
        ", ".join(f"{name}:{line}" for name, line in sites)


PERFBENCH = SOURCE.parent.parent / "perfbench"

# public names that no program code calls, each kept for a reason
UNCALLED = {
    "zeta.zeta": "perfbench spans it by name, and test_perfbench expects that binding",
    "asymptotics.entry_asym": "ROADMAP item 15 decides it",
    "asymptotics.classify_regime": "ROADMAP item 15 decides it",
}


def loaded_names(tree, skip=None):
    """Every name read in ``tree``, bare or as an attribute, outside ``skip``."""
    names = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def uncalled_public_names():
    """Each public module-level function or class of the package that no other
    package module, no perfbench program and no other code of its own module reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))
             if path.stem != "__init__"}
    bench = set().union(*(loaded_names(ast.parse(path.read_text()))
                          for path in sorted(PERFBENCH.glob("*.py"))
                          if not path.stem.startswith("test_")))
    read = {module: loaded_names(tree) for module, tree in trees.items()}
    found = set()
    for module, tree in trees.items():
        elsewhere = bench.union(*(names for other, names in read.items() if other != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                    not node.name.startswith("_") and node.name not in elsewhere and \
                    node.name not in loaded_names(tree, skip=node):
                found.add(f"{module}.{node.name}")
    return found


def test_every_public_function_has_a_caller():
    # a function that only its own tests call is surface to remove, or an exception
    # with its reason; an exception that gains a caller leaves the list
    assert uncalled_public_names() == set(UNCALLED)
