"""Source hygiene, read with ``ast`` alone: no library module imports a
name it never uses, every function or method the library defines is
named somewhere besides its own ``def``, and every module-level
UPPER_CASE constant is read somewhere besides its own assignment."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "qburau"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.fixture(scope="module")
def library():
    return {path.name: parse(path) for path in sorted(LIBRARY.glob("*.py"))}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def references(tree):
    """Every name the tree reads or imports, as an identifier: a string
    that happens to spell a name (a message, a regex) does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_unused_imports(library):
    unused = {}
    for name, tree in library.items():
        if name == "__init__.py":       # it imports to re-export
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        missing = sorted(set(imported_names(tree)) - read)
        if missing:
            unused[name] = missing
    assert not unused


@pytest.fixture(scope="module")
def everywhere(library):
    """The library's trees and those of tests/ and perfbench/."""
    return list(library.values()) + [
        parse(path) for folder in ("tests", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_definition_is_named_elsewhere(library, everywhere):
    named = set()
    for tree in everywhere:
        named.update(references(tree))
    uncalled = sorted(
        "%s:%s" % (name, node.name)
        for name, tree in library.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named)
    assert not uncalled


def test_every_constant_is_read(library, everywhere):
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in everywhere for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(
        "%s:%s" % (name, target.id)
        for name, tree in library.items() for node in tree.body
        if isinstance(node, ast.Assign) for target in node.targets
        if isinstance(target, ast.Name) and target.id.isupper()
        and target.id not in read)
    assert not unread
