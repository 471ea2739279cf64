"""The runtime needs only the standard library: every module the package
imports is either a standard-library module or part of the package."""

import ast
import sys

from tests.conftest import ROOT

PACKAGE = ROOT / "src" / "ecofence"


def imported_roots(path):
    """The top-level name of each module a source file imports, with
    relative imports as the package's own name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "ecofence" if node.level else node.module.split(".")[0]


def test_every_import_is_the_standard_library_or_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 9
    outside = {
        (path.relative_to(ROOT).as_posix(), root)
        for path in sources
        for root in imported_roots(path)
        if root != "ecofence" and root not in sys.stdlib_module_names
    }
    assert outside == set()
