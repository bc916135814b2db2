"""README.md cites the package's names as `module.name` (a call's
arguments may follow, as in `exact.kernel_span_dims(columns, gens)`), the
module being fermatlines or one of its submodules.  Each citation must
resolve to an attribute of that module, so a name that is renamed or
deleted fails here instead of leaving the README stale."""

import importlib
import os
import re

import fermatlines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(os.path.abspath(fermatlines.__file__))
MODULES = {"fermatlines"} | {f[:-3] for f in os.listdir(PACKAGE)
                             if f.endswith(".py") and f != "__init__.py"}
CITATION = re.compile(r"`(\w+)\.(\w+)(?:\([^`]*\))?(?:\[[^`]*\])?`")


def citations(text):
    """The distinct (module, name) pairs that text cites, in order."""
    found = [(mod, name) for mod, name in CITATION.findall(text) if mod in MODULES]
    return list(dict.fromkeys(found))


def unresolved(pairs):
    """The cited pairs whose module has no such attribute."""
    return [(mod, name) for mod, name in pairs
            if not hasattr(importlib.import_module(
                mod if mod == "fermatlines" else "fermatlines." + mod), name)]


def test_readme_citations_resolve():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        pairs = citations(fh.read())
    assert len([mod for mod, _ in pairs if mod != "fermatlines"]) >= 20
    assert unresolved(pairs) == []


def test_the_check_sees_a_stale_citation():
    text = ("`exact.rank_sparse(rows)`, `Line.integer_restriction(x^e)`, `out.jsonl`, "
            "`fermatlines.REGISTRY`, `exact.no_such_name`, `lines.iz_linear`[0], "
            "`verifiers.Subspace(dim)[1]`")
    pairs = citations(text)
    assert pairs == [("exact", "rank_sparse"), ("fermatlines", "REGISTRY"),
                     ("exact", "no_such_name"), ("lines", "iz_linear"),
                     ("verifiers", "Subspace")]
    assert unresolved(pairs) == [("exact", "no_such_name"), ("verifiers", "Subspace")]


def exit_code_line(text):
    """The codes README's "Exit codes:" sentence lists, each entry's
    leading number, in order."""
    listed = text[text.index("Exit codes:") + len("Exit codes:"):]
    listed = listed[:listed.index(".")]
    return [int(entry.split()[0]) for entry in listed.split(";")]


def test_readme_exit_codes_are_the_clis():
    """Every cli.EXIT_* constant is listed with its value, and nothing else."""
    from fermatlines import cli
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        listed = exit_code_line(fh.read())
    constants = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(listed) == sorted(constants)


def test_the_check_sees_a_missing_exit_code():
    text = "Exit codes: 0 all PASS; 1 any FAIL; 130 (128 + SIGINT) interrupted.  More."
    assert exit_code_line(text) == [0, 1, 130]
