"""Correctness gate: compare verify's JSONL reports with a reference.

A report is stripped of `elapsed_ms` (the only field that may differ
between runs of one configuration).  Its verdict, dims and witness must
equal the reference entry for its (lemma, n, d).  For the lemmas the
workloads run, those do not depend on the seed, so the gate holds for any
seed the benchmark is asked to use (run.SAMPLED_DEFECT says why two lemmas
are not run).
"""

from __future__ import annotations

import hashlib
import json

COMPARED = ("verdict", "dims", "witness")


def ref_key(lemma, n, d) -> str:
    return "%s n=%d d=%d" % (lemma, n, d)


def read_reports(path):
    """Report objects of a JSONL file, without the trailing summary line."""
    reports = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "summary" not in obj:
                reports.append(obj)
    return reports


def strip(report) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


def reports_hash(reports) -> str:
    """sha256 of the stripped reports, in file order."""
    text = "\n".join(json.dumps(strip(r), sort_keys=True) for r in reports)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mismatches(reports, expected, reference):
    """One description per report that is missing, unexpected, or disagrees
    with the reference.  `expected` lists (lemma, seed) in the order verify
    writes them."""
    problems = []
    for i, (lemma, seed) in enumerate(expected):
        if i >= len(reports):
            problems.append("%s seed %d: missing" % (lemma, seed))
            continue
        rep = reports[i]
        if (rep.get("lemma"), rep.get("seed")) != (lemma, seed):
            problems.append("%s seed %d: got %s seed %s"
                            % (lemma, seed, rep.get("lemma"), rep.get("seed")))
            continue
        ref = reference.get(ref_key(lemma, rep.get("n"), rep.get("d")))
        if ref is None:
            problems.append("%s seed %d: no reference" % (lemma, seed))
            continue
        bad = ["%s %r != reference %r" % (f, rep.get(f), ref[f])
               for f in COMPARED if rep.get(f) != ref[f]]
        if bad:
            problems.append("%s seed %d: %s" % (lemma, seed, "; ".join(bad)))
    for rep in reports[len(expected):]:
        problems.append("unexpected report %s seed %s" % (rep.get("lemma"), rep.get("seed")))
    return problems
