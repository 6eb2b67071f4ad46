"""Every function, method, class and import in src/insep is used by the package itself.

A definition counts as used when its name appears as a name or an attribute
somewhere in src/insep outside the definition's own body.  The check goes by
name, so a method is kept alive by any use of that attribute name.  An imported
name counts as used when its module reads it or lists it in ``__all__``.

The algebra modules also import nothing from the hypersurface code built on them.
"""

import ast
from collections import Counter
from pathlib import Path

import insep

# public names that only the tests and the acceptance criteria reach; an entry
# that is no longer defined, or is now referenced, fails the check
ALLOWED = {
    "strip_timing",  # the report contract that byte-identity checks compare
}


def _references(node):
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def _definitions(node, prefix=""):
    """(qualified name, node) for every def and class below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + child.name
            yield qualname, child
            yield from _definitions(child, qualname + ".")
        else:
            yield from _definitions(child, prefix)


ROOT = Path(insep.__file__).parent


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(ROOT.rglob("*.py"))}


def _unreferenced():
    """Maps each definition that src/insep never names outside its own body to
    "path:line qualname"."""
    modules = _modules()
    total = Counter()
    for tree in modules.values():
        total.update(_references(tree))
    unused = {}
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == _references(node)[name]:
                unused[qualname] = "%s:%d %s" % (path.relative_to(ROOT), node.lineno, qualname)
    return unused


def test_every_definition_is_referenced():
    unused = [where for qualname, where in _unreferenced().items() if qualname not in ALLOWED]
    assert not unused, "defined but never referenced in src/insep: %s" % ", ".join(unused)


def test_every_allowed_name_is_defined_and_unreferenced():
    stale = sorted(ALLOWED - set(_unreferenced()))
    assert not stale, "ALLOWED names that are gone or referenced in src/insep: %s" % (
        ", ".join(stale))


def _exported(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_import_is_used():
    unused = []
    for path, tree in _modules().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # ``import a.b`` binds ``a``
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append("%s:%d %s" % (path.relative_to(ROOT), node.lineno, name))
    assert not unused, "imported but never used in src/insep: %s" % ", ".join(unused)


# the algebra below the hypersurface code: fermat reads groebner, never the reverse
LOWER_LAYERS = ("groebner.py", "upoly.py")
UPPER_LAYERS = {"fermat", "curves", "catalog", "cli"}


def _imported_names(tree):
    """Every module-path component and name that tree imports, at module or function
    level; ``from . import fermat`` names the module as an alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield from alias.name.split(".")


def test_lower_layers_import_no_upper_layer():
    upward = ["%s imports %s" % (name, module)
              for name in LOWER_LAYERS
              for module in _imported_names(ast.parse((ROOT / name).read_text()))
              if module in UPPER_LAYERS]
    assert not upward, "; ".join(upward)
