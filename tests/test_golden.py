"""Golden reports: verifier output compared line by line with reports
recorded from an earlier version of the verifiers, key order included and
`elapsed_ms` stripped.  A refactor of the verifiers must reproduce them
exactly; a change of a verdict, a dimension or a witness shows up here."""

import json
import os

import pytest

import fermatlines.verifiers as verifiers
from fermatlines.cli import main
from test_verifiers import KERNEL_CLAIMS

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


def kernel_fail_lines():
    """FAIL reports of the three kernel claims with the first ideal-product
    vector dropped, first with certification on, then with it forced off."""
    products = verifiers._ideal_product_vectors
    lines = []
    for certify in (True, False):
        for run in KERNEL_CLAIMS.values():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verifiers, "_ideal_product_vectors",
                           lambda *args: products(*args)[1:])
                if not certify:
                    mp.setattr(verifiers, "certify_kernel_span", lambda *args: None)
                lines.append(stripped(run().to_json_obj()))
    return lines


def golden(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_reports_match_golden(case, tmp_path, capsys):
    name, args = CLI_CASES[case]
    assert cli_lines(args, tmp_path / name) == golden(name)
    capsys.readouterr()


def test_kernel_fail_witnesses_match_golden():
    lines = kernel_fail_lines()
    assert all(json.loads(line)["verdict"] == "FAIL" for line in lines)
    assert lines == golden("kernel_fail.jsonl")
