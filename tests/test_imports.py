"""No library module imports a name it never uses.

The check reads every module of ``src/slopelab`` except the package
``__init__`` (whose imports are the public surface) with the standard
``ast`` module.  An import line marked ``# noqa: F401`` is an intended
re-export and is skipped, as a linter would skip it.
"""
import ast
import pathlib

import slopelab

SRC = pathlib.Path(slopelab.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from typing import Optional, Union\nimport os\n\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Union (line 1)"]
    assert unused_imports("import os  # noqa: F401\n") == []


def test_library_modules_use_every_import():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: names for name, names in found.items() if names} == {}
