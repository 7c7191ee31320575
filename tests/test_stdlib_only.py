"""The package imports nothing outside the standard library, as
pyproject.toml's empty dependency list promises."""

import ast
import sys
from pathlib import Path

import isoreg


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(isoreg.__file__).parent.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "isoreg" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
