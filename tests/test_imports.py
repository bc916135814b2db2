"""Every name a package module imports is used in that module.

A stdlib stand-in for pyflakes' unused-import check: each module under
src/fermatlines/ except __init__.py (whose imports are the public
re-exports) is parsed with ast, and a name it imports but never reads,
in code or in a string annotation, fails the test.
"""

import ast
import os

import pytest

import fermatlines

PACKAGE = os.path.dirname(os.path.abspath(fermatlines.__file__))
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotation(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return node.annotation
    return None


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        ann = annotation(node)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            # a string annotation such as -> "Matrix"
            names |= used_names(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        source = fh.read()
    assert unused_imports(source) == []


def test_the_check_sees_unused_and_used_names():
    source = ("import json\nimport os.path\nfrom math import comb, lcm as l\n"
              "def f(x) -> 'json.JSONDecoder':\n    return l(x, 2)\n")
    assert unused_imports(source) == [("os", 2), ("comb", 3)]
