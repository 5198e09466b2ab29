"""Every exported name resolves, so a deletion that leaves a name behind fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import presdim

MODULES = [module for module in (importlib.import_module(f"presdim.{info.name}")
                                  for info in pkgutil.iter_modules(presdim.__path__))
           if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(presdim.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"presdim.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == [], node.module


def test_one_covering_kernel():
    # every level of every cloud is counted by covering_counts; the per-delta function is gone
    from presdim import boxdim

    assert "covering_counts" in boxdim.__all__ and hasattr(presdim, "covering_counts")
    assert not hasattr(boxdim, "covering_count") and not hasattr(presdim, "covering_count")


def test_one_cylinder_sum():
    # every cylinder number comes from the rows `bowen_root_cylinder` reads; the bracket and refinement are gone
    for name in ("pressure_cylinder_bracket", "refine_partition", "_cylinder_bounds"):
        assert [module.__name__ for module in (presdim, *MODULES) if hasattr(module, name)] == [], name
