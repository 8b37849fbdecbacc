"""Every name a module imports at its top level is used in that module.

A stand-in for a linter's unused-import rule, over src/, scripts/ and
tests/ with the standard library's ast alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "scripts", "tests") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(path):
    """The (line, name) of each module-level import binding that no name in
    the module reads and its __all__ does not list."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport os.path as osp\nfrom sys import argv, path\n"
                      "__all__ = ['path']\n\ndef f():\n    return os.sep\n")
    assert _unused_imports(module) == [(2, "osp"), (3, "argv")]
