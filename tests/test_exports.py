"""Export lists: the package re-exports each public name from the submodule
that defines it, and every submodule export resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import afrelay

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(afrelay.__path__) if m.name != "__main__"
)


def reexport_sources() -> dict[str, str]:
    """Each name the package imports from a submodule, mapped to that
    submodule, read from the package's own import statements."""
    tree = ast.parse(Path(afrelay.__file__).read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_package_exports_are_submodule_exports():
    sources = reexport_sources()
    for name in afrelay.__all__:
        if name == "__version__":
            continue
        assert name in sources, f"{name} is exported but not imported from a submodule"
        module = importlib.import_module(f"afrelay.{sources[name]}")
        assert name in module.__all__, f"{name} is missing from {module.__name__}.__all__"


def test_submodule_exports_resolve():
    for sub in SUBMODULES:
        module = importlib.import_module(f"afrelay.{sub}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (sub, missing)
