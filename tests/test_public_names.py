"""The package's public names are its submodules' ``__all__`` lists.

``fluxstab/__init__.py`` star-imports each submodule, so a name is listed
once, in its own module.  The order of the submodules is read from the
import statements, not restated here.
"""

import ast
import importlib
from pathlib import Path

import fluxstab


def _star_imported_modules() -> list[str]:
    tree = ast.parse(Path(fluxstab.__file__).read_text())
    return [node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is not None]


def test_public_list_is_the_submodules_lists():
    modules = [importlib.import_module(f"fluxstab.{name}")
               for name in _star_imported_modules()]
    want = ["__version__"] + [name for module in modules
                              for name in module.__all__]
    assert fluxstab.__all__ == want
    assert len(set(want)) == len(want)
    for module in modules:
        for name in module.__all__:
            assert getattr(fluxstab, name) is getattr(module, name)
