"""Every module of the package uses every name it imports, and the
public names agree.

No linter ships with the test extra, so this parses each source file with
``ast``. A name counts as used when it appears as a name, as the root of
an attribute chain, inside a quoted annotation, or in ``__all__``. The
package ``__init__`` is exempt: its imports are the public re-exports.
Every ``__all__`` entry must be bound in its module, and every name the
package ``__init__`` re-exports from a module that defines ``__all__``
must be listed there. No function imports from the package: every
import of a package module sits at module level, where the import order
is visible and an import cycle fails at once.
"""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypkob"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) for every import outside ``__future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                yield a.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for n in ast.walk(ann) if ann is not None else ():
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _used(ast.parse(n.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {e.value for e in node.value.elts}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports but never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_are_bound(path):
    mod = importlib.import_module(f"hypkob.{path.stem}")
    unbound = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert unbound == [], f"{path.name} lists unbound names: {unbound}"


def test_reexports_are_listed_in_all():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        mod = importlib.import_module(f"hypkob.{node.module}")
        if hasattr(mod, "__all__"):
            unlisted += [f"{node.module}.{a.name}" for a in node.names
                         if a.name not in mod.__all__]
    assert unlisted == [], f"re-exported but not in __all__: {unlisted}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_package_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("hypkob")):
                found.append(f"{fn.name} (line {node.lineno})")
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "hypkob" for a in node.names):
                found.append(f"{fn.name} (line {node.lineno})")
    assert found == [], f"{path.name} imports from the package in: {found}"
