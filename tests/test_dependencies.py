"""numpy stays the only runtime dependency of the package."""

import ast
import pathlib
import sys

import subcrit

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "subcrit"}


def test_the_package_imports_only_the_stdlib_and_numpy():
    sources = sorted(pathlib.Path(subcrit.__file__).parent.glob("*.py"))
    assert sources
    found = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.split(".")[0])
                             for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert sorted((f, m) for f, m in found if m not in ALLOWED) == []
