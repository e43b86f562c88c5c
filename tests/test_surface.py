"""The package's surface, counted and pinned.

Two counts measure how much a caller can ask of the package: the names
that ``hypkob`` re-exports from its modules, and the keyword options, the
parameters with a default over every function of ``src/hypkob``. Both
are counted with ``ast`` from the source, so importing nothing can change
them. A change that grows either count updates its pin here and says why
in CHANGES.md; a change that shrinks one lowers the pin.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypkob"

EXPORTED_NAMES = 67
KEYWORD_OPTIONS = 18


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def exported_names() -> list:
    """The names ``hypkob/__init__.py`` imports from its modules."""
    return [alias.asname or alias.name
            for node in _tree(SRC / "__init__.py").body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def keyword_options() -> list:
    """``module:function`` once for each parameter with a default."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                n = (len(args.defaults)
                     + sum(d is not None for d in args.kw_defaults))
                name = getattr(node, "name", "<lambda>")
                out += [f"{path.stem}:{name}"] * n
    return out


def test_exported_names_are_pinned():
    names = exported_names()
    assert len(set(names)) == len(names)
    assert len(names) == EXPORTED_NAMES, sorted(names)


def test_keyword_options_are_pinned():
    options = keyword_options()
    assert len(options) == KEYWORD_OPTIONS, options
