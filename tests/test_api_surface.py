"""Every name the package exports has one home module and a caller besides its re-export."""

import ast
import importlib
from pathlib import Path

import cfhfc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfhfc"
MODULES = {"cfhfc", *(path.stem for path in PACKAGE.glob("*.py"))}
SOURCES = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
           *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_caller():
    used = set()
    for path in SOURCES:
        # a bare name counts in a package module only when it is that module's global
        scope = vars(importlib.import_module(f"cfhfc.{path.stem}")) if path.parent == PACKAGE else {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in MODULES:
                used.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in scope:
                used.add(node.id)
    exported = {name for name in vars(cfhfc) if not name.startswith("_") and name not in MODULES}
    assert sorted(exported - used) == []


def test_every_module_exports_only_its_own_names():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        exported = set(getattr(importlib.import_module(f"cfhfc.{path.stem}"), "__all__", ()))
        assert sorted(exported - defined) == [], path.name
