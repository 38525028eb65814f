"""Print the size of each petalmap module: code lines, all lines, module constants and definitions.

Usage: python3 .github/code_lines.py [PACKAGE_DIR]   (default src/petalmap)

A code line is a line that is not blank, not a comment line and not part
of a module, class or function docstring.  ``lines`` counts every line, as
``wc -l`` does.  ``constants`` counts the module-level UPPER_CASE names
(a private ``_NAME`` too) that an assignment binds, as check_imports.py
finds them: the tuning knobs and frozen values a module carries.
``definitions`` counts the module-level functions and classes, so a change
that folds helpers away shows it.  One row per module, then the total.
Informational: it always exits 0.
"""

import ast
import pathlib
import sys

from check_imports import constants  # the script's own directory is on sys.path


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(path):
    """(code lines, lines, constants, definitions) of one module."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    docs = docstring_lines(tree)
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    definitions = sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) for node in tree.body)
    return code, len(lines), len({name for name, _ in constants(tree)}), definitions


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/petalmap")
    rows = [(path.name, *size(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in zip(*(row[1:] for row in rows)))))
    print("%-22s %6s %6s %10s %12s" % ("module", "code", "lines", "constants", "definitions"))
    for row in rows:
        print("%-22s %6d %6d %10d %12d" % row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
