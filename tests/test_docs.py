"""Docs stay runnable: every fenced ``python`` block executes green.

The README and everything under ``docs/`` are part of the tested
surface: each ``python`` code fence is extracted and executed, blocks
within one file sharing a namespace (so a quickstart block can define
what a later block uses).  Non-python fences (``text`` diagrams,
``bash`` command lines, transcripts) are prose and are skipped.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: every markdown file whose python blocks must run
DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("**/*.md")],
    key=lambda path: str(path.relative_to(REPO)),
)

FENCE = re.compile(
    r"^```python[ \t]*\n(.*?)^```[ \t]*$", re.MULTILINE | re.DOTALL)


def python_blocks(path: Path):
    """All fenced python blocks of one file, with their line numbers."""
    text = path.read_text()
    blocks = []
    for match in FENCE.finditer(text):
        line = text.count("\n", 0, match.start()) + 2  # first code line
        blocks.append((line, match.group(1)))
    return blocks


def test_doc_files_exist_and_carry_code():
    assert [path.name for path in DOC_FILES] == [
        "README.md", "ARCHITECTURE.md", "FAULT_TOLERANCE.md",
        "OBSERVABILITY.md", "STATIC_ANALYSIS.md"]
    for path in DOC_FILES:
        assert python_blocks(path), f"{path.name} has no python examples"


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=lambda path: str(path.relative_to(REPO)))
def test_every_python_block_executes(path):
    namespace = {"__name__": f"docs_{path.stem}"}
    for line, code in python_blocks(path):
        try:
            exec(compile(code, f"{path.name}:{line}", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - the failure path
            pytest.fail(
                f"{path.relative_to(REPO)} block at line {line} failed: "
                f"{type(exc).__name__}: {exc}")


#: modules whose docstring examples (``>>>``) are part of the docs
DOCTEST_MODULES = ["repro.core.columnar", "repro.core.schema",
                   "repro.joins.dbtoaster"]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_docstring_examples_run(module_name):
    import doctest
    import importlib

    results = doctest.testmod(importlib.import_module(module_name))
    assert results.attempted, f"{module_name} has no docstring examples"
    assert not results.failed
