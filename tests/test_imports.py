"""No library module imports a name it never uses or contains an
``assert`` statement, and every module parses as Python 3.10, the
oldest version ``pyproject.toml`` allows.

The import check reads every module of ``src/slopelab`` except the
package ``__init__`` (whose imports are the public surface) with the
standard ``ast`` module.  An import line marked ``# noqa: F401`` is an
intended re-export and is skipped, as a linter would skip it.
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


def test_library_modules_have_no_assert_statements():
    # python -O drops asserts; a runtime check must raise a real error
    found = {
        path.name: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_library_modules_parse_as_python_3_10():
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
