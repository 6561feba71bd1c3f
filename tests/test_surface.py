"""Surface guard: every public module-level function or class in
src/refine_es, and every public method or class attribute of a public class
there, is referenced somewhere in src/ outside its own definition. An
assignment is no reference, and the fields of a dataclass are its record
schema, not members. A name that only tests use belongs in the tests, not
in the package. The import path of the CLI stays free of scipy, a test-only
dependency, of the process pool, which only a multi-worker sweep needs, and
of ctypes, which only a sweep needs, to set the BLAS threads. No module
reads the environment: the plan file is a sweep's only input, and no test
hook can hide in the package."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "refine_es"

# name -> why it stays although nothing in src/ calls it
ALLOWED = {}


def _references(node, skip=None) -> list[str]:
    """The names that `node` reads, outside its subtree `skip`."""
    names = []
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(getattr(sub, "ctx", None), ast.Store):
            continue
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def _members(cls: ast.ClassDef):
    """(name, node) of each method and class attribute of `cls`."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def unreferenced_public_names() -> list[str]:
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    defined = [(node.name, node) for tree in trees.values()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [(f"{cls.name}.{name}", node) for _, cls in list(defined)
                if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                for name, node in _members(cls)]
    unused = []
    for qualified, node in defined:
        name = qualified.rpartition(".")[2]
        if name.startswith("_"):
            continue
        if not any(name in _references(tree, skip=node)
                   for tree in trees.values()):
            unused.append(qualified)
    return sorted(unused)


def test_no_unreferenced_public_names():
    unused = unreferenced_public_names()
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allow-listed name that gets a caller should leave the list
    assert sorted(ALLOWED) == sorted(set(unused) & set(ALLOWED))


def test_no_module_reads_the_environment():
    # no module may read a variable, as the interrupt hook of the ES loop
    # and a seed override of the CLI once did
    readers = sorted(p.name for p in SRC.glob("*.py")
                     if {"environ", "getenv"} & set(
                         _references(ast.parse(p.read_text()))))
    assert readers == []


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle.
    # The process pool is imported only by a sweep with more than one worker,
    # and ctypes only by a sweep. numpy imports ctypes too when it can, so
    # the probe makes ctypes unimportable: the CLI must load without.
    probe = ("import sys; sys.modules['ctypes'] = None; import refine_es.cli; "
             "print(sorted(m for m in sys.modules "
             "if m in ('scipy', 'concurrent.futures.process') "
             "or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
