"""Fail when a backticked name in the package's docs names nothing the package has.

Usage: python3 .github/check_doc_names.py [PACKAGE_DIR [README [TESTS_DIR]]]
       (default src/petalmap README.md tests)

The text of every module of the package, of the README and of every test
module (TESTS_DIR/*.py) is searched for backticked spans (`name`,
``name``).  Inside a span two kinds of name are
checked:

- a private name, ``_name`` (dunders and bare underscores aside), which
  must be bound somewhere in the package: a function, class, method,
  parameter or assigned name of any module, or an imported one;
- a name qualified by a package module, ``maps.NAME``, which must be bound
  at the top level of that module (a definition, an assignment or an
  import).  A longer dotted path (``maps.evaluate.points``) is a benchmark
  metric name, not an attribute, and is skipped.

A helper that is renamed or folded away leaves such references behind; the
prose around them then describes code that no longer exists.

Prints one line per stale name and exits 1 if there is any, 0 otherwise.
"""

import ast
import pathlib
import re
import sys

SPAN = re.compile(r"`([^`\n]+)`")


def bound_names(tree):
    """Every name the module binds anywhere: definitions, parameters, assignment targets and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return names


def top_level_names(tree):
    """The names bound at the top level of the module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return names


def stale_names(text, modules, everywhere):
    """(line, reference) for every checked name in the text's backticked spans that the package lacks."""
    qualified = re.compile(r"(?<![\w.])(?:(%s)\.)?(\w+)(\.\w)?" % "|".join(map(re.escape, modules)))
    for number, line in enumerate(text.splitlines(), 1):
        for span in SPAN.findall(line):
            for module, name, deeper in qualified.findall(span):
                if module and not deeper and name not in modules[module]:
                    yield number, "%s.%s" % (module, name)
                elif not module and re.match(r"_[^_]", name) and not name.endswith("__") and name not in everywhere:
                    yield number, name


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/petalmap")
    readme = pathlib.Path(argv[2] if len(argv) > 2 else "README.md")
    texts = {path: path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))}
    trees = {path: ast.parse(text, filename=str(path)) for path, text in texts.items()}
    modules = {path.stem: top_level_names(tree) for path, tree in trees.items() if not path.stem.startswith("__")}
    everywhere = set().union(*(bound_names(tree) for tree in trees.values()))
    texts[readme] = readme.read_text(encoding="utf-8")
    tests = pathlib.Path(argv[3] if len(argv) > 3 else "tests")
    texts.update((path, path.read_text(encoding="utf-8")) for path in sorted(tests.glob("*.py")))
    found = [
        "%s:%d: `%s` names nothing in the package" % (path, number, reference)
        for path, text in texts.items()
        for number, reference in stale_names(text, modules, everywhere)
    ]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
