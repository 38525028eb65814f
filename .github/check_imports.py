"""Fail when a name imported into a petalmap module, a constant or a private helper is never read.

Usage: python3 .github/check_imports.py [PACKAGE_DIR]   (default src/petalmap)

A name bound by ``import`` or ``from ... import`` counts as read when the
module loads it anywhere (a bare name, or the head of an attribute chain).
In ``__init__.py`` the names listed in ``__all__`` count as read, since
re-exporting them is the point of importing them.  ``from __future__``
imports are skipped.

A module-level UPPER_CASE constant (a private ``_NAME`` too) counts as
read when some module of the package loads it, as a bare name or as an
attribute (``module.NAME``); being listed in ``__all__`` does not count.
A knob no code reads is a setting that changes nothing.

A module-level private function or class (``_name``, not a dunder) counts
as read the same way.  Tests and the benchmark do not count: a private
helper that only they call is dead code of the package.

Prints one line per unread name and exits 1 if there is any, 0 otherwise.
"""

import ast
import pathlib
import re
import sys

CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


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


def unread_imports(tree):
    read = read_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in read]


def constants(tree):
    """(name, line) for every UPPER_CASE name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                yield target.id, node.lineno


def private_definitions(tree):
    """(name, line) for every module-level private function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def loaded_names(tree):
    """Every bare name the module loads and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/petalmap")
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(root.glob("*.py"))
    }
    found = [
        "%s:%d: %r is imported but never read" % (path, line, name)
        for path, tree in trees.items()
        for name, line in unread_imports(tree)
    ]
    read = set().union(*(loaded_names(tree) for tree in trees.values()))
    found += [
        "%s:%d: constant %r is read by no module of the package" % (path, line, name)
        for path, tree in trees.items()
        for name, line in constants(tree)
        if name not in read
    ]
    found += [
        "%s:%d: private helper %r is read by no module of the package" % (path, line, name)
        for path, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in read
    ]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
