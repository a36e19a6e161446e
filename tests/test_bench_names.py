"""The benchmark's tracer wraps package functions by name: they must exist.

``bench/tracing.py`` lists the functions it wraps in ``LAYERS`` and the
ones it counts work for in ``WORK``.  A rename or a deletion in the
package would silently drop a span or a counter, so every name is
resolved here.  The file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str) -> ast.Dict:
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            assert isinstance(node.value, ast.Dict)
            return node.value
    raise AssertionError(f"{name} not found in {TRACING}")


def _traced_names() -> list[str]:
    layers = ast.literal_eval(_table("LAYERS"))
    names = [f"{layer}.{fn}" for layer, fns in layers.items() for fn in fns]
    return names + [ast.literal_eval(key) for key in _table("WORK").keys]


@pytest.mark.parametrize("dotted", _traced_names())
def test_traced_name_resolves_in_the_package(dotted):
    module, *path = dotted.split(".")
    obj = importlib.import_module(f"fluxstab.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"{dotted}: no attribute {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)
