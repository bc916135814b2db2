"""Golden reports: verifier output compared line by line with reports
recorded from an earlier version of the verifiers, key order included and
`elapsed_ms` stripped.  A refactor of the verifiers must reproduce them
exactly; a change of a verdict, a dimension or a witness shows up here."""

import json
import os
from functools import partial

import pytest

import fermatlines.verifiers as verifiers
from fermatlines.cli import main, run_lemma
from test_exact import kernel_basis_reference
from test_verifiers import (KERNEL_CLAIMS, _drop_first_product, _drop_last_product,
                            _zero_first_block)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# case -> (golden file, verify arguments).  A case named after its file
# records it; the other cases must reproduce a recorded file another way.
CLI_CASES = {
    "all_n2_d6_seed0.jsonl": ("all_n2_d6_seed0.jsonl",
                              ["all", "--n", "2", "--d", "6", "--seed", "0"]),
    "all_n2_d6_seed0_jobs2": ("all_n2_d6_seed0.jsonl",
                              ["all", "--n", "2", "--d", "6", "--seed", "0",
                               "--jobs", "2"]),
    "all_n1_d4_trials1.jsonl": ("all_n1_d4_trials1.jsonl",
                                ["all", "--n", "1", "--d", "4", "--trials", "1"]),
    "all_n3_d8_seed7_trials1.jsonl": ("all_n3_d8_seed7_trials1.jsonl",
                                      ["all", "--n", "3", "--d", "8", "--seed", "7",
                                       "--trials", "1"]),
    # off the paper's degree d = 2n + 2: secant and tangency FAIL
    "all_n2_d5_trials2.jsonl": ("all_n2_d5_trials2.jsonl",
                                ["all", "--n", "2", "--d", "5", "--trials", "2"]),
    "all_n3_d5_trials2.jsonl": ("all_n3_d5_trials2.jsonl",
                                ["all", "--n", "3", "--d", "5", "--trials", "2"]),
}


def stripped(obj: dict) -> str:
    """The JSON line of a report without its timing, key order kept."""
    obj = dict(obj)
    obj.pop("elapsed_ms", None)
    return json.dumps(obj)


def cli_lines(args, path):
    """Stripped JSONL lines (reports and summary) of one `verify` run."""
    main(args + ["--json", str(path)])
    with open(path, encoding="utf-8") as fh:
        return [stripped(json.loads(line)) for line in fh]


def mutated(run, drop=_drop_first_product, **patches):
    """Stripped report of run() after drop(mp), which by default drops the
    first ideal-product vector, with the verifiers attributes in `patches`
    replaced."""
    with pytest.MonkeyPatch.context() as mp:
        drop(mp)
        for name, value in patches.items():
            mp.setattr(verifiers, name, value)
        return stripped(run().to_json_obj())


def kernel_fail_lines():
    """FAIL reports of the three kernel claims with the first ideal-product
    vector dropped, first as the verifiers build them, then with the
    witnesses' kernel bases canonicalized by the two-rref oracle."""
    return [mutated(run, **patches)
            for patches in ({}, {"kernel_basis": kernel_basis_reference})
            for run in KERNEL_CLAIMS.values()]


def golden(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_reports_match_golden(case, tmp_path, capsys):
    name, args = CLI_CASES[case]
    assert cli_lines(args, tmp_path / name) == golden(name)
    capsys.readouterr()


def test_off_degree_sweep_matches_golden(tmp_path, capsys):
    """`verify all --seed 0 --trials 1` at every n <= 3 and 4 <= d <= 2n+4,
    the runs concatenated: the sweep around the paper's degree d = 2n+2,
    with the kernel claims' FAIL witnesses at d = 4 and the off-degree
    secant and tangency FAILs."""
    lines = []
    for n in (1, 2, 3):
        for d in range(4, 2 * n + 5):
            lines += cli_lines(["all", "--n", str(n), "--d", str(d), "--seed", "0",
                                "--trials", "1"], tmp_path / ("n%d_d%d.jsonl" % (n, d)))
    capsys.readouterr()
    assert lines == golden("all_sweep_seed0_trials1.jsonl")


def test_kernel_fail_witnesses_match_golden():
    lines = kernel_fail_lines()
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail.jsonl")


def test_kernel_fail_witnesses_at_n3_d8_match_golden():
    """The same mutation at the paper's size (3, 8), seed 7, one trial."""
    lines = [mutated(partial(run_lemma, lemma, 3, 8, 0, 7, trials=1))
             for lemma in KERNEL_CLAIMS]
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail_n3_d8.jsonl")


def test_kernel_fail_witnesses_at_n4_d10_match_golden():
    """The same mutation at (4, 10), seed 7, one trial, recorded when the
    witnesses came from a dense reduced echelon basis of the kernel."""
    lines = [mutated(partial(run_lemma, lemma, 4, 10, 0, 7, trials=1))
             for lemma in KERNEL_CLAIMS]
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail_n4_d10.jsonl")


def test_kernel_fail_witnesses_at_n5_d12_match_golden():
    """The same mutation at (5, 12), seed 7, one trial, for kernel-special
    and point-ideal, recorded when a FAIL eliminated the generators a
    second time for its witness.  (kernel-generic takes several times as
    long there.)"""
    lines = [mutated(partial(run_lemma, lemma, 5, 12, 0, 7, trials=1))
             for lemma in ("kernel-special", "point-ideal")]
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail_n5_d12.jsonl")


def test_late_kernel_special_witnesses_match_golden():
    """kernel-special at (2, 6) and (3, 8), seed 7, one trial, with the last
    ideal-product row dropped: the first canonical kernel vectors lie in the
    span, so the witness is found late, not on the first vector tried."""
    lines = [mutated(partial(run_lemma, "kernel-special", n, d, 0, 7, trials=1),
                     drop=_drop_last_product) for n, d in ((2, 6), (3, 8))]
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail_last.jsonl")


@pytest.mark.parametrize("lemma", ["kernel-generic", "point-ideal"])
@pytest.mark.parametrize("n, d", [(2, 6), (3, 8)])
def test_dropping_the_last_product_keeps_redundant_generators_passing(lemma, n, d):
    """The same mutant leaves kernel-generic and point-ideal at PASS: their
    generators are redundant, and the last ideal-product row lies in the
    span of the others.  So only kernel-special is in the golden file."""
    line = mutated(partial(run_lemma, lemma, n, d, 0, 7, trials=1), drop=_drop_last_product)
    assert json.loads(line)["verdict"] == "PASS"


def test_xi_fail_reports_match_golden():
    """xi-special and xi-generic with the first component block of every
    section image zeroed, at (2, 6) and (2, 5) seed 0 with two trials and
    (3, 8) seed 7 with one, reproduce the reports recorded when the images
    were restricted one binary form per component with the first form
    zeroed."""
    lines = [mutated(partial(run_lemma, lemma, n, d, 0, seed, trials=trials),
                     drop=lambda mp: None, _section_image=_zero_first_block)
             for n, d, seed, trials in ((2, 6, 0, 2), (3, 8, 7, 1), (2, 5, 0, 2))
             for lemma in ("xi-special", "xi-generic")]
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("xi_fail.jsonl")
