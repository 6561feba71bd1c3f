"""Count the lines of a package's modules.

    python3 scripts/count_lines.py [PACKAGE_DIR]

For each `.py` module of PACKAGE_DIR (default src/refine_es), in name
order, and then in total, it prints two counts: all lines, as `wc -l`
counts them, and code lines, the lines that are not blank, not a `#`
comment and not part of a module, class or function docstring. Standard
library only.
"""

from __future__ import annotations

import ast
import pathlib
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(all lines, code lines) of the module source `text`."""
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docs)
    return text.count("\n"), code


def package_counts(root) -> dict[str, tuple[int, int]]:
    """{module file name: (all lines, code lines)} of the `.py` modules in
    the directory `root`, in name order."""
    return {path.name: count(path.read_text())
            for path in sorted(pathlib.Path(root).glob("*.py"))}


def main(argv: list[str]) -> int:
    counts = package_counts(argv[0] if argv else "src/refine_es")
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name, (lines, code) in counts.items():
        print(f"{name:<16} {lines:>6} {code:>6}")
    total = [sum(c[i] for c in counts.values()) for i in (0, 1)]
    print(f"{'total':<16} {total[0]:>6} {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
