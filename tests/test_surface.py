"""The package holds what its commands and builders run: a public
top-level function or class of ``src/sphereforge``, or a public method or
property of one of its classes, that no package code names must be one
of the few listed here, each for its stated reason.  Reference code that
only the tests run belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

import sphereforge

UNCALLED = {
    "geometry.convex_hull_brute": "the test oracle of convex_hull; perfbench traces it",
    "geometry.raise_centers": "certifies a given center raise for criterion 06; perfbench traces it",
    "grid.band_cell_order": "a sufficient hole condition of the paper, kept as a test reference; perfbench traces it",
    "grid.is_grid_starconvex": "a sufficient hole condition of the paper, kept as a test reference; perfbench traces it",
    "io.order_to_obj": "the encoder of the shelling-order file, kept next to its decoder",
    "sampling.format_hex_choices": "the encoder of --choices, kept next to its parser",
    "topology.betti_gf2": "the Betti numbers of any complex, which the tests compare with those certify reports",
}


UNNAMED_METHODS = {
    "complexes.VertexId.sort_key": "the order reference that the tests compare vertex order with",
    "complexes.Simplex.vset": "the vertex set of a simplex, which perfbench reads",
    "topology.TopologyCertificate.is_sphere": "the pair of is_ball, which the package names",
}


# The classes of ``errors``, each with the party at fault when it is
# raised.  The message of a refusal says which check failed.
ERRORS = {
    "SphereforgeError": "the base: cli.main and the file decoders catch every refusal by it",
    "DegenerateInput": "the caller: an argument breaks a rule that the called function states",
    "InputParseError": "the file or text argument: it cannot be decoded; the CLI prints 'input error:'",
    "InternalInvariantViolation": "the package: a construction broke one of its own guarantees",
}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_public_member_is_used_by_the_package_or_listed():
    """Names are matched as identifiers and attributes in the package's
    code, outside the member's own definition and the ``__init__``
    re-exports; docstrings and comments do not count."""
    members, named = set(), set()
    for path in sorted(Path(sphereforge.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not own.startswith("_"):
                    members.add(f"{path.stem}.{own}")
            named |= _names(top) - {own}
    uncalled = {m for m in members if m.split(".")[1] not in named}
    assert uncalled == set(UNCALLED)


def test_every_imported_name_is_used_in_its_module():
    """An import that its module no longer names is left behind.  The
    ``__init__`` re-exports and ``from __future__`` imports aside, every
    name a module imports must appear in its code as an identifier."""
    unused = []
    for path in sorted(Path(sphereforge.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in sorted(imported - named)]
    assert unused == []


def _package_trees():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(sphereforge.__file__).parent.glob("*.py"))
    }


def test_every_private_function_is_named_by_the_package():
    """A private top-level function that only the tests name is kept
    alive by them: it must be named, as an identifier or an attribute,
    somewhere in the package outside its own definition."""
    trees = _package_trees()
    private, named = set(), set()
    for module, tree in trees.items():
        for top in tree.body:
            own = None
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_"):
                own = top.name
                private.add(f"{module}.{own}")
            named |= _names(top) - {own}
    assert sorted(f for f in private if f.split(".")[1] not in named) == []


def test_every_error_class_is_raised_by_the_package():
    """An error class that nothing raises is a check that is gone.  Every
    class in ``errors`` but the base ``SphereforgeError`` must be raised
    somewhere in the package, by name."""
    trees = _package_trees()
    classes = {c.name for c in trees["errors"].body if isinstance(c, ast.ClassDef)}
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}
    assert sorted(classes - raised - {"SphereforgeError"}) == []


def test_the_error_classes_are_the_listed_parties_at_fault():
    """``errors`` defines exactly the classes of ``ERRORS``, the base
    aside each a direct subclass of ``SphereforgeError``, so a new class
    needs a stated reason."""
    bases = {
        c.name: [ast.unparse(b) for b in c.bases]
        for c in _package_trees()["errors"].body
        if isinstance(c, ast.ClassDef)
    }
    assert bases == {name: ["Exception" if name == "SphereforgeError" else "SphereforgeError"] for name in ERRORS}


def test_no_function_body_imports():
    """Every import of the package is at the top of its module, where the
    import graph can be read off, not hidden in a function body."""
    local = []
    for module, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{module}.{fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == []


def _class_member(stmt) -> str | None:
    """The name a class-body statement defines as a method or property:
    a ``def``, or an assignment of ``property(...)``."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return stmt.name
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Name)
        and stmt.value.func.id == "property"
    ):
        return stmt.targets[0].id
    return None


def test_every_public_method_is_named_by_the_package_or_listed():
    """A public method or property of a public package class must be
    named, as an identifier or an attribute, somewhere in the package
    outside its own definition; the ``__init__`` re-exports do not
    count.  Names are matched without their class, as the other surface
    tests match them."""
    units = []  # (the public member a statement defines, or None; its names)
    for module, tree in _package_trees().items():
        if module == "__init__":
            continue
        for top in tree.body:
            if not isinstance(top, ast.ClassDef):
                units.append((None, _names(top)))
                continue
            units += [(None, _names(node)) for node in top.decorator_list + top.bases]
            for stmt in top.body:
                name = _class_member(stmt)
                public = name and not name.startswith("_") and not top.name.startswith("_")
                units.append((f"{module}.{top.name}.{name}" if public else None, _names(stmt)))
    unnamed = {
        own
        for own, _ in units
        if own and not any(own.rsplit(".", 1)[1] in names for other, names in units if other != own)
    }
    assert unnamed == set(UNNAMED_METHODS)
