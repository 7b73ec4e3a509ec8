"""Module layering of the package and the integrity of its public names.

The solve pipeline (``fuzzy``, ``laplace``, ``solver``) sits below the
checks in ``validate``, which sit below the command line in ``cli``. An
import against that order, deferred inside a function or not, would bring
back an import cycle.
"""

import ast
import re
from pathlib import Path

import pytest

import fuzzybvp

PACKAGE_DIR = Path(fuzzybvp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
FORBIDDEN = {
    "fuzzy": {"validate", "cli"},
    "laplace": {"validate", "cli"},
    "solver": {"validate", "cli"},
    "validate": {"cli"},
}


def package_imports(path: Path) -> set[str]:
    """Names of the package's own modules that a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "fuzzybvp" and not module.startswith("fuzzybvp."):
                    continue
                module = module.removeprefix("fuzzybvp").lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fuzzybvp."):
                    found.add(alias.name.split(".")[1])
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_no_upward_imports(module):
    imported = package_imports(PACKAGE_DIR / f"{module}.py")
    assert not imported & FORBIDDEN[module], f"{module} imports {imported & FORBIDDEN[module]}"


def test_parser_sees_relative_deferred_and_absolute_imports(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .solver import solve\n"
        "from . import cli\n"
        "def f():\n"
        "    from .validate import check_level_set\n"
        "    import fuzzybvp.laplace\n"
        "    from fuzzybvp.fuzzy import RFun\n"
        "import numpy\n"
    )
    assert package_imports(source) == {"solver", "cli", "validate", "laplace", "fuzzy"}


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore-prefixed name a source file imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "fuzzybvp" and not module.startswith("fuzzybvp."):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda path: path.stem)
def test_no_private_names_cross_modules(path):
    # a private name stays behind its module: an import of one is a rule
    # that leaked out of the module that owns it
    assert private_imports(path) == []


def test_private_import_scan(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .laplace import _BASIS, ClosedForm\n"
        "from fuzzybvp.solver import _two_point\n"
        "def f():\n"
        "    from . import _hidden\n"
        "from __future__ import annotations\n"
        "from numpy import _core\n"
    )
    assert private_imports(source) == ["laplace._BASIS", "fuzzybvp.solver._two_point", "._hidden"]


def test_every_public_name_resolves():
    missing = [name for name in fuzzybvp.__all__ if not hasattr(fuzzybvp, name)]
    assert not missing


def readme_api_names() -> set[str]:
    """The backticked identifiers of the README's ``## API`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_]\w*)`", section))


def test_readme_api_lists_exactly_the_exports():
    assert readme_api_names() == set(fuzzybvp.__all__)


def readme_python_blocks() -> list[str]:
    """The body of every ```python block of the README."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    # the documented quick start runs against the current API
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
