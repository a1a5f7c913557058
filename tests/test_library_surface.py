"""The library is what the command line reaches.

Every module of the package is imported by ``framestab.cli``, and every
public module-level name of the computing layers is used somewhere in the
package or the benchmark, not only from the tests. Code that only the tests
need lives in tests/oracles.py. The package and the benchmark are read as
source; nothing from perfbench/ is imported.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framestab"
LAYERS = ("gf2", "z4", "permgrp", "autsearch", "frames")

# public names kept for work the ROADMAP plans, though nothing uses them yet
UNUSED_ALLOWED = {
    ("autsearch", "code_isomorphism"),  # ROADMAP items 6 and 9
    ("permgrp", "SignedPerm"),  # ROADMAP item 3
}


def _sources():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_names(module: str) -> set[str]:
    """Public functions, classes and constants at the top level of a module."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def _references(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that a source file uses.

    A name counts when its own module loads it, when another file reads it
    as an attribute of the imported module or imports it by name, or when a
    tuple literal names it by module and attribute path, as the tracer's
    target table does.
    """
    own = path.stem if path.parent == PACKAGE else None
    tree = ast.parse(path.read_text())
    aliases = {}
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if (node.level == 1 and not source) or source == "framestab":
                aliases.update((a.asname or a.name, a.name) for a in node.names)
            else:
                module = source.removeprefix("framestab.")
                refs.update((module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) and own:
            refs.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, attr = node.elts[:2]
            if (isinstance(module, ast.Constant) and isinstance(module.value, str)
                    and module.value.startswith("framestab.")
                    and isinstance(attr, ast.Constant) and isinstance(attr.value, str)):
                refs.add((module.value.removeprefix("framestab."), attr.value.split(".")[0]))
    return refs


def _unused() -> set[tuple[str, str]]:
    refs = set().union(*(_references(path) for path in _sources()))
    return {(m, name) for m in LAYERS for name in _public_names(m)} - refs


def test_cli_imports_every_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ("import json, sys, framestab, framestab.cli; "
              "print(json.dumps([framestab.__file__, "
              "sorted(m for m in sys.modules if m.split('.')[0] == 'framestab')]))")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    origin, loaded = json.loads(out.splitlines()[-1])
    assert Path(origin).resolve().parent == PACKAGE
    modules = {"framestab"} | {f"framestab.{p.stem}" for p in PACKAGE.glob("*.py")
                               if p.stem != "__init__"}
    assert sorted(modules - set(loaded)) == []


def test_every_public_name_is_used_outside_the_tests():
    unused = _unused()
    assert sorted(unused - UNUSED_ALLOWED) == []
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert sorted(UNUSED_ALLOWED - unused) == []
