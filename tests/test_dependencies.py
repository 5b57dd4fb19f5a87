"""Every third-party import is declared in ``pyproject.toml``.

CI installs the package with its ``test`` extra (``pip install
".[test]"``), so an import that ``pyproject.toml`` does not declare
fails there and nowhere else.  These tests read the top-level imports
of ``src/`` and ``tests/`` with ``ast`` and drop the standard library
(``sys.stdlib_module_names``) and first-party packages: what ``src/``
imports must be a runtime dependency, what ``tests/`` imports a
runtime dependency or in the ``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
FIRST_PARTY = {"repro", "tests", "benchmarks", "tools"}


def normalized(name: str) -> str:
    """A distribution or import name in PEP 503 form."""
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports(directory: str) -> set:
    names = set()
    for path in sorted((ROOT / directory).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif (isinstance(node, ast.ImportFrom) and not node.level
                  and node.module):
                names.add(node.module.split(".")[0])
    return {normalized(name) for name in names
            if name not in sys.stdlib_module_names
            and name not in FIRST_PARTY}


def declared(requirements) -> set:
    return {normalized(re.split(r"[\s<>=!~;\[(]", requirement, 1)[0])
            for requirement in requirements}


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_src_imports_are_runtime_dependencies(project):
    imports = third_party_imports("src")
    assert "numpy" in imports  # the scan sees what src/ really uses
    assert imports <= declared(project.get("dependencies", []))


def test_test_imports_are_dependencies_or_in_the_test_extra(project):
    imports = third_party_imports("tests")
    assert {"hypothesis", "pytest"} <= imports
    available = declared(project.get("dependencies", [])) | declared(
        project.get("optional-dependencies", {}).get("test", []))
    assert imports <= available
