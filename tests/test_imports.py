"""Every name a package module imports is used in that module, and no
package module has an `assert` statement.

A stdlib stand-in for pyflakes' unused-import check: each module under
src/fermatlines/ except __init__.py (whose imports are the public
re-exports) is parsed with ast, and a name it imports but never reads,
in code or in a string annotation, fails the test.  A name only bound
again (an assignment, a loop target) or only mentioned in a docstring or
comment is not read.  An assert anywhere
under src/fermatlines/ fails too: `python -O` strips asserts, so a
correctness guard must raise an explicit error instead.  And verifiers.py
imports none of the dense section helpers it no longer uses, lines.py
imports no canonical kernel or Subspace, and no
package module defines a name that now lives only in the tests' oracles
(tests/oracles.py, tests/polytext.py), was folded into exact's
elimination, or was deleted with the scheme classes that Line replaced.
"""

import ast
import os
import subprocess
import sys

import pytest

import fermatlines

PACKAGE = os.path.dirname(os.path.abspath(fermatlines.__file__))
SOURCES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
MODULES = [f for f in SOURCES if f != "__init__.py"]


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
    """The names tree reads: loaded, or deleted, in code or in a string
    annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def test_the_check_sees_planted_unused_imports():
    """A leftover import is found though its name is still written in the
    module: in the docstring, in a comment, or bound again and never read;
    an import read only inside a function counts as used."""
    source = ('"""Restrictions are reduced Fraction lists."""\n'
              "from fractions import Fraction\n"
              "from math import gcd, lcm\n"
              "from .exact import clear_denominators\n"
              "def f(xs):\n"
              "    import multiprocessing  # gcd of the entries\n"
              "    for gcd in xs:\n"
              "        clear_denominators = xs\n"
              "    return lcm(*xs), multiprocessing.cpu_count()\n")
    assert unused_imports(source) == [("Fraction", 2), ("gcd", 3),
                                      ("clear_denominators", 4)]


def assert_lines(source):
    """Line of each assert statement in source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("module", SOURCES)
def test_module_has_no_assert(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert assert_lines(fh.read()) == []


def test_the_check_sees_asserts():
    source = ("def f(x):\n    assert x > 0, 'guard'\n    asserted = x\n"
              "    return asserted  # assert in a comment\n")
    assert assert_lines(source) == [2]
    assert assert_lines("class C:\n    def g(self):\n        assert self\n") == [3]


def test_verifiers_import_no_dense_section_helpers():
    """The verifiers build sections as sparse terms and rows as the numbers
    they are made of: verifiers.py imports no EulerSection, Euler field,
    rational monomial evaluation or EulerSection basis."""
    with open(os.path.join(PACKAGE, "verifiers.py"), encoding="utf-8") as fh:
        names = {name for name, _ in imported_names(ast.parse(fh.read()))}
    assert names.isdisjoint({"EulerSection", "euler_alpha", "eval_monomials", "omega_basis"})


def test_lines_import_no_canonical_subspace():
    """I_Z(1) and I_p(1) are column_scan's integer forms: lines.py imports
    neither kernel_basis nor Subspace."""
    with open(os.path.join(PACKAGE, "lines.py"), encoding="utf-8") as fh:
        names = {name for name, _ in imported_names(ast.parse(fh.read()))}
    assert names.isdisjoint({"kernel_basis", "Subspace"})


# Restrictions are coefficient lists, span tests go through exact's
# elimination, the parsers and dense references are test helpers, a length-2
# scheme is its Line, classify returns the report's class object, one
# exponent helper (poly.mono_times) adds variables to a monomial, and
# random_solution draws every member (sample_b_through with no points is an
# unconstrained one).
MOVED_OUT = {"BinaryForm", "contains_vector", "_pair_rank", "_pair_independent",
             "mono_parse", "from_json", "fermat", "is_fermat", "support_in",
             "LengthTwoScheme", "SchemeClass", "permute_point", "evaluation_matrix",
             "_pair_exps", "random_deformation"}


def defined_names(source):
    """(name, line) of each function, method and class that source defines,
    at any depth, and of each name assigned at module or class level, in
    line order.  Local variables are not definitions."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    found += [(leaf.id, stmt.lineno) for target in targets
                              for leaf in ast.walk(target) if isinstance(leaf, ast.Name)]
    return sorted(found, key=lambda item: item[1])


@pytest.mark.parametrize("module", SOURCES)
def test_module_defines_no_moved_out_name(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        source = fh.read()
    assert [(name, line) for name, line in defined_names(source) if name in MOVED_OUT] == []


def test_the_check_sees_planted_definitions():
    source = ("class BinaryForm:\n    def is_fermat(self):\n        return True\n"
              "def fermat_form(x):\n    support_in = x\n    return support_in\n"
              "_pair_rank: int = 2\n"
              "class Subspace:\n    contains_vector = None\n")
    assert [(name, line) for name, line in defined_names(source)
            if name in MOVED_OUT] == [("BinaryForm", 1), ("is_fermat", 2),
                                      ("_pair_rank", 7), ("contains_vector", 9)]


def test_line_has_no_json_form():
    """A scheme's report form is lines.scheme_json; Line itself has none."""
    from fermatlines.lines import Line
    assert not hasattr(Line, "to_json")


def test_cli_import_leaves_dataclasses_out():
    """A fresh interpreter importing the CLI loads no dataclasses (nor the
    inspect, ast, dis and tokenize it pulls in): that import time would be
    paid by every run."""
    code = ("import sys, fermatlines.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
