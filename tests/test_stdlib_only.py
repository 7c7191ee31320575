"""The package imports nothing outside the standard library, as
pyproject.toml's empty dependency list promises, and nothing that slows
every CLI start: no module imports dataclasses, which pulls in inspect, and
a CLI start imports neither fractions nor decimal, which fractions pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import isoreg


def _imports():
    """(file name, line, module name) of every absolute import in the package."""
    modules = sorted(Path(isoreg.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_package_imports_only_the_standard_library():
    foreign = [
        f"{file}:{line}: {name}"
        for file, line, name in _imports()
        if name.split(".")[0] not in ("isoreg", *sys.stdlib_module_names)
    ]
    assert foreign == []


def test_no_module_imports_dataclasses():
    found = [f"{file}:{line}: {name}" for file, line, name in _imports()
             if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_cli_start_leaves_dataclasses_and_inspect_unimported():
    # -S keeps site-packages hooks out, so only isoreg's own imports count.
    code = (
        "import sys, isoreg.cli; isoreg.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(isoreg.__file__).parent.parent)},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
