"""Fail when a name imported into a petalmap module is never read.

Usage: python3 .github/check_imports.py [PACKAGE_DIR]   (default src/petalmap)

A name bound by ``import`` or ``from ... import`` counts as read when the
module loads it anywhere (a bare name, or the head of an attribute chain).
In ``__init__.py`` the names listed in ``__all__`` count as read, since
re-exporting them is the point of importing them.  ``from __future__``
imports are skipped.  Prints one line per unread name and exits 1 if there
is any, 0 otherwise.
"""

import ast
import pathlib
import sys


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def read_names(tree):
    """Every name the module loads, plus the strings of a literal ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unread_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/petalmap")
    found = [(path, name, line) for path in sorted(root.glob("*.py")) for name, line in unread_imports(path)]
    for path, name, line in found:
        print("%s:%d: %r is imported but never read" % (path, line, name))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
