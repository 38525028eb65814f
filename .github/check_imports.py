"""Fail when a name imported into a petalmap module, a constant or a module-level definition is never read.

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

A module-level public function or class counts as read the same way, or
when the package root exports it in ``__all__``: a public definition that
no module reads and the root does not export is an orphan.

A defaulted parameter of a function or method counts as passed when some
call in the package passes it by keyword, or by position to a callee of
that name (a method's positions do not count ``self``); an unpacked
``*args`` or ``**kwargs`` passes every position or keyword.  A default
that no call of the package overrides is a knob only tests turn.  Dunder
methods and the console entry ``cli.main(argv)`` are exempt.

A parameter of a private function or method counts as free when the
package's calls of it do not all give it the same constant: a literal, an
UPPER_CASE name, or arithmetic or tuples of those, passed or taken from
the default.  A parameter every call fixes to one value is a constant
dressed as an argument.  A function the package also reads other than by
calling it (a callback) is exempt, and so is a call that unpacks
``*args`` or ``**kwargs``.

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


def exported_names(tree):
    """The strings of the module's literal ``__all__``, if it has one."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def read_names(tree):
    """Every name the module loads, plus the strings of a literal ``__all__``."""
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return loaded | exported_names(tree)


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


def definitions(tree):
    """(name, line) for every module-level function or class, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("__"):
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


def defaulted_parameters(tree):
    """(function, parameter, position or None, line) for every defaulted parameter, dunders excluded."""
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield node.name, positional[index].arg, index - (id(node) in methods), node.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None, node.lineno


def passed_arguments(tree):
    """(callee name, position, keyword, ``*`` or ``**``) for every argument some call passes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
            for index, arg in enumerate(node.args):
                yield callee, "*" if isinstance(arg, ast.Starred) else index
            for keyword in node.keywords:
                yield callee, keyword.arg or "**"


def is_constant(node):
    """A literal, an UPPER_CASE name, or arithmetic or tuples of those."""
    if isinstance(node, ast.Name):
        return bool(CONSTANT.match(node.id))
    if isinstance(node, ast.UnaryOp):
        return is_constant(node.operand)
    if isinstance(node, ast.BinOp):
        return is_constant(node.left) and is_constant(node.right)
    if isinstance(node, ast.Tuple):
        return all(map(is_constant, node.elts))
    return isinstance(node, ast.Constant)


def fixed_parameters(trees):
    """(path, function, parameter, line) for every private parameter that all package calls fix to one constant."""
    calls, references = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = getattr(node, "id", getattr(node, "attr", None))
                references[name] = references.get(name, 0) + 1
    for path, tree in trees.items():
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            sites = calls.get(node.name, [])
            if not sites or references[node.name] != len(sites):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(node) in methods :]
            defaults = dict(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults))
            for index, param in enumerate(positional + [a.arg for a in args.kwonlyargs]):
                given = set()
                for call in sites:
                    keywords = {k.arg: k.value for k in call.keywords}
                    if any(isinstance(a, ast.Starred) for a in call.args) or None in keywords:
                        value = None
                    elif index < len(positional) and index < len(call.args):
                        value = call.args[index]
                    else:
                        value = keywords.get(param, defaults.get(param))
                    given.add(ast.dump(value) if value is not None and is_constant(value) else None)
                if len(given) == 1 and None not in given:
                    yield path, node.name, param, node.lineno


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
        for name, line in definitions(tree)
        if name.startswith("_") and name not in read
    ]
    exported = set().union(*(exported_names(tree) for tree in trees.values()))
    found += [
        "%s:%d: public %r is read by no module of the package and not exported" % (path, line, name)
        for path, tree in trees.items()
        for name, line in definitions(tree)
        if not name.startswith("_") and name not in read and name not in exported
    ]
    passed = set().union(*(passed_arguments(tree) for tree in trees.values()))
    found += [
        "%s:%d: default of %r in %s() is passed by no call in the package" % (path, line, name, function)
        for path, tree in trees.items()
        for function, name, position, line in defaulted_parameters(tree)
        if (path.name, function) != ("cli.py", "main")
        and not passed & {(function, name), (function, "**")}
        and (position is None or not passed & {(function, position), (function, "*")})
    ]
    found += [
        "%s:%d: every package call of %s() passes the same constant as %r" % (path, line, function, name)
        for path, function, name, line in fixed_parameters(trees)
    ]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
