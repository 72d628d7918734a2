"""The package's surface: every public name has a use."""

import ast
from pathlib import Path

import sthrn

PACKAGE = Path(sthrn.__file__).parent


def test_every_public_name_is_exported_or_used():
    """A public module-level function or class is imported by
    ``sthrn/__init__.py`` or referenced in the package's code, as a name,
    an attribute or an import; a mention in a docstring does not count."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []
