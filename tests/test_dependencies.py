"""NumPy stays the only runtime dependency: every import of the package is
of the standard library, of NumPy or of the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fdtdkit"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fdtdkit"}


def _imported_modules(path: Path) -> list[str]:
    """Every absolute module name that ``path`` imports, at any depth."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_the_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.rglob("*.py"))
    imported = {(path.name, name) for path in modules for name in _imported_modules(path)}
    # the walk must see the imports it guards, or it would pass on nothing
    assert ("engine.py", "numpy") in imported
    outside = sorted(f"{file}: {name}" for file, name in imported if name.split(".")[0] not in ALLOWED)
    assert outside == []
