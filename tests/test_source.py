"""Static checks on the package source, by the standard library's ``ast``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qderiv"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def _module_level_imports(tree):
    """(bound name, line) for each import in the module body or in an
    ``if`` block there, such as ``if TYPE_CHECKING:``; ``__future__``
    imports bind nothing."""
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_import_goes_unused(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in _module_level_imports(tree) if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line) for line, name in unused)
    )


def _names_read(node):
    """Every name ``node`` loads, reads as an attribute or holds as a
    string constant (``__init__._HOMES``, ``cli.SERIES_NAMES``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_public_function_and_class_is_named_outside_its_definition():
    # a public name that no package code outside its own definition reads,
    # and that perfbench/tracer.py does not name, is API only the tests use
    public = []  # (module file, name)
    readers = {}  # name -> {(module file, enclosing top-level name or None)}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                public.append((path.name, owner))
            for name in _names_read(stmt):
                readers.setdefault(name, set()).add((path.name, owner))
    traced = set(_names_read(ast.parse(TRACER.read_text(), str(TRACER))))
    unread = [
        "%s.%s" % (module[:-3], name)
        for module, name in public
        if name not in traced and not readers.get(name, set()) - {(module, name)}
    ]
    assert not unread, "public names nothing outside their own definition reads: %s" % ", ".join(unread)
