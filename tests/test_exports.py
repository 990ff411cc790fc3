"""Export lists: the package re-exports each public name from the submodule
that defines it, every submodule export resolves, every import in
README's code blocks resolves, and README's quick start runs."""

import ast
import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import afrelay

README = Path(__file__).resolve().parents[1] / "README.md"

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


def test_package_exports_are_pinned():
    # the quick start's names, the error its quadrature raises and the version;
    # a new re-export has to show up here
    assert afrelay.__all__ == [
        "ChannelParams",
        "QuadratureError",
        "SimConfig",
        "__version__",
        "bit_error_prob",
        "capacity",
        "combined_cdf",
        "combined_cdf_coeffs",
        "outage",
        "series_coeffs",
        "simulate",
    ]


def readme_blocks() -> list[str]:
    """README's python code blocks, in order."""
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def readme_imports() -> list[ast.stmt]:
    """The afrelay import statements of README's python code blocks."""
    blocks = readme_blocks()
    imports = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] == "afrelay" for m in modules):
                imports.append(node)
    return imports


def test_readme_imports_resolve():
    imports = readme_imports()
    assert imports, "README has no afrelay import"
    for node in imports:
        exec(compile(ast.Module([node], []), "README.md", "exec"), {})
        if isinstance(node, ast.ImportFrom) and node.module == "afrelay":
            # a package-level import is of a documented name, not a submodule
            missing = [a.name for a in node.names if a.name not in afrelay.__all__]
            assert not missing, missing


def test_readme_module_list_matches_exports():
    # each "What is inside" bullet names its module's exports, no more
    # and no fewer, and every submodule has a bullet
    inside = README.read_text().split("## What is inside", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `afrelay\.(\w+)` \((.*?)\)", inside, re.M | re.S)
    assert sorted(m for m, _ in bullets) == SUBMODULES
    for module, names in bullets:
        exports = importlib.import_module(f"afrelay.{module}").__all__
        assert sorted(re.findall(r"`(\w+)`", names)) == sorted(exports), module


def test_readme_quick_start_runs():
    # the first block, the closed forms, run whole: each value it shows is
    # a finite number, and each line marked "raises ValueError" raises it
    block = readme_blocks()[0]
    lines = block.splitlines()
    namespace, shown, refused = {}, 0, 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        line = lines[node.lineno - 1]
        value = compile(ast.Expression(node.value), "README.md", "eval")
        if line.endswith("# raises ValueError"):
            with pytest.raises(ValueError):
                eval(value, namespace)
            refused += 1
        else:
            assert math.isfinite(eval(value, namespace)), line
            shown += 1
    assert (shown, refused) == (5, 1)
