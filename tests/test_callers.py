"""Library code has callers: every public top-level function and class in
``src/cartansim`` is used by the package itself, a demo or the benchmark.

A name only the tests use belongs in ``tests/`` (``oracles.py`` holds the
reference paths).  A use is a name, attribute or imported name anywhere
outside the definition's own lines; ``__init__.py`` only re-exports, so it
does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cartansim"
MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _uses(tree: ast.AST):
    """(name, line) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def test_every_public_name_has_a_caller_outside_tests():
    uses = {path: list(_uses(ast.parse(path.read_text(encoding="utf-8")))) for path in CALLERS}
    unused = []
    for module in MODULES:
        for node in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and not (path == module and line in own)
                for path, found in uses.items()
                for name, line in found
            ):
                unused.append(f"{module.stem}.{node.name}")
    assert unused == []
