"""The functions the benchmark's tracer wraps still exist.

perfbench/tracing.py wraps framestab functions by (module, attribute path),
and a per-layer metric whose function was renamed or removed drops out of a
traced run. The benchmark's files are read as source and not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from framestab import z4

ROOT = Path(__file__).resolve().parent.parent


def _literal(path, name):
    """The literal value assigned to name at the top level of path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path}")


TARGETS = _literal(ROOT / "perfbench" / "tracing.py", "TARGETS")


@pytest.mark.parametrize("module, path, name", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, path, name):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module}.{path} no longer exists"
    assert callable(owner)


def test_weight_scan_keeps_its_cache():
    # the tracer counts scanned words only on a cache miss
    assert callable(z4._weight_scan.cache_info)


def test_per_layer_metrics_read_traced_spans():
    worker = ROOT / "perfbench" / "worker.py"
    spans = {name for _, _, name in TARGETS}
    read = [*_literal(worker, "CALLS").values()]
    for table in ("SELF_S", "COUNTS"):
        read += [s for names in _literal(worker, table).values() for s in names]
    assert set(read) <= spans
