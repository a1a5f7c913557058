"""The functions the benchmark's tracer wraps still exist.

perfbench/tracing.py wraps framestab functions by (module, attribute path),
and a per-layer metric whose function was renamed or removed drops out of a
traced run. The benchmark's files are read as source and not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from framestab import autsearch, catalog, frames, z4

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


@pytest.mark.parametrize("code_id, variant", [("z4-len8-4", "lattice"), ("z4-len8-4", "orbifold")])
def test_after_hooks_read_what_they_need(monkeypatch, code_id, variant):
    # the tracer's _after hooks read result[0] of both |H| functions, the
    # generators of each automorphism group and the report's aut_c; C0 of
    # z4-len8-4 has no twins, so its group comes from automorphism_group
    groups = []
    search = autsearch.automorphism_group
    monkeypatch.setattr(autsearch, "automorphism_group",
                        lambda *args, **kw: groups.append(search(*args, **kw)) or groups[-1])
    autsearch._aut_binary.cache_clear()
    code = catalog.get(code_id).code()
    report = frames.frame_report(code, variant)
    sc = frames.structure_codes(code, variant)
    if variant == "lattice":
        result = frames.enumerate_h_lattice(sc)
    else:
        result = frames.enumerate_h_orbifold(sc, z4.torsion(code))
    assert type(result[0]) is int and result[0] == report.h_count
    assert sum(len(group.generators) for group in groups) > 0
    assert report.aut_c is not None  # C has length 16, so Aut(C) is searched
