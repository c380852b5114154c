"""Static checks on the package source, by the standard library's ``ast``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qderiv"


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
