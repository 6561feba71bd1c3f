"""Surface guard: every public module-level function or class in
src/refine_es is referenced somewhere in src/ outside its own definition.
A name that only tests use belongs in the tests, not in the package. The
import path of the CLI stays free of scipy, a test-only dependency, of the
process pool, which only a multi-worker sweep needs, and of ctypes, which
only its workers need. Only the CLI reads the environment, so no test hook
can hide in the package."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "refine_es"

# name -> why it stays although nothing in src/ calls it
ALLOWED = {}


def _references(node) -> list[str]:
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def unreferenced_public_names() -> list[str]:
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            refs = [name for other, t in trees.items() for top in t.body
                    if not (other == module and top is node)
                    for name in _references(top)]
            if node.name not in refs:
                unused.append(node.name)
    return sorted(unused)


def test_no_unreferenced_public_names():
    unused = unreferenced_public_names()
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allow-listed name that gets a caller should leave the list
    assert sorted(ALLOWED) == sorted(set(unused) & set(ALLOWED))


def test_only_cli_reads_the_environment():
    # cli.py reads the documented REFINE_ES_SEED; nothing else may read
    # a variable, as the interrupt hook of the ES loop once did
    readers = sorted(p.name for p in SRC.glob("*.py")
                     if {"environ", "getenv"} & set(
                         _references(ast.parse(p.read_text()))))
    assert readers == ["cli.py"]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle.
    # The process pool is imported only by a sweep with more than one worker,
    # and ctypes only inside its workers. numpy imports ctypes too when it
    # can, so the probe makes ctypes unimportable: the CLI must load without.
    probe = ("import sys; sys.modules['ctypes'] = None; import refine_es.cli; "
             "print(sorted(m for m in sys.modules "
             "if m in ('scipy', 'concurrent.futures.process') "
             "or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
