"""The library under src/ringlab imports only the standard library and itself."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ringlab"


def _absolute_imports(source: str) -> list[str]:
    """Modules named by the absolute import statements of a module's source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_import_scan_sees_nested_and_lazy_imports():
    source = "import json, numpy.linalg\ndef f():\n    from scipy import sparse\n"
    assert _absolute_imports(source) == ["json", "numpy.linalg", "scipy"]


def test_library_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    outside = [
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path.read_text())
        if name.partition(".")[0] != "ringlab"
        and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
