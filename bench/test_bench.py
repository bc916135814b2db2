"""Tests of the benchmark itself: span accounting, the tracer, the gate.

    python3 -m pytest bench
"""

import copy
import json
import os
import sys
import threading

import pytest

import gate
import run
import tracing


def test_self_time_on_nested_spans_from_two_threads():
    spans = [
        # thread A: cli.run > run_lemma > verifier > {exact, lines > poly > poly}
        (0, -1, "cli.run", 0.0, 12.0),
        (1, 0, "cli.run_lemma", 0.5, 10.5),
        (2, 1, "verifiers.w-basis", 0.5, 10.5),
        (3, 2, "exact.rank", 1.0, 4.0),
        (4, 2, tracing.HOOK_SPAN, 4.0, 4.5),
        (5, 2, "lines.restrict_poly", 5.0, 8.0),
        (6, 5, "poly.mul", 6.0, 7.0),
        (7, 6, "poly.mul", 6.2, 6.6),
        # thread B, overlapping A in time; its stack starts empty
        (8, -1, "cli.run_lemma", 2.0, 11.0),
        (9, 8, "verifiers.secant", 2.0, 11.0),
        (10, 9, "family.eta", 3.0, 5.0),
        (11, 10, "poly.mul", 3.5, 4.0),
    ]
    m = tracing.layer_metrics(spans)
    approx = lambda x: pytest.approx(x, abs=1e-9)
    # 10 s minus exact 3, hook 0.5, lines 3 (thread A) plus 9 s minus eta 2 (B)
    assert m["verifiers.self_s"] == approx(3.5 + 7.0)
    assert m["exact.self_s"] == approx(3.0)
    assert m["lines.self_s"] == approx(2.0)
    assert m["family.self_s"] == approx(1.5)
    # outer mul 1 s minus nested 0.4 s, nested 0.4 s, thread B 0.5 s
    assert m["poly.self_s"] == approx(1.0 + 0.5)
    assert m["poly.mul.calls"] == 3
    assert m["poly.mul.s"] == approx(1.0 + 0.5)   # nested same-name span not counted twice
    assert m["cli.run_lemma.calls"] == 2
    assert m["cli.run_lemma.s"] == approx(10.0 + 9.0)
    assert m["verifiers.secant.s"] == approx(9.0)
    # run spans 12 s; run_lemma spans cover [0.5, 11] across both threads
    assert m["cli.overhead_s"] == approx(1.5)


def test_self_time_never_counts_a_child_twice():
    spans = [(0, -1, "family.omega_basis", 0.0, 4.0),
             (1, 0, "exact.rref", 1.0, 2.0),
             (2, 0, "exact.rref", 2.0, 3.0)]
    m = tracing.layer_metrics(spans)
    assert m["family.self_s"] == pytest.approx(2.0)
    assert m["exact.self_s"] == pytest.approx(2.0)
    assert m["exact.rref.calls"] == 2


def test_tracer_tracks_parents_per_thread():
    tracer = tracing.Tracer()
    inner = tracer.span("exact.rank", lambda: None)
    outer = tracer.span("verifiers.systems", lambda: inner())
    barrier = threading.Barrier(2)

    def work():
        barrier.wait()
        for _ in range(200):
            outer()

    threads = [threading.Thread(target=work) for _ in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    spans, _counts, _stats = tracer.collect()
    assert len(spans) == 800
    by_id = {s[0]: s for s in spans}
    for state in tracer._states:
        own = {s[0] for s in state.spans}
        for sid, parent, name, t0, t1 in state.spans:
            if name == "exact.rank":
                assert parent in own and by_id[parent][2] == "verifiers.systems"
                assert by_id[parent][3] <= t0 <= t1 <= by_id[parent][4]
            else:
                assert parent == -1


def test_install_reaches_rebound_names_and_uninstall_restores():
    sys.path.insert(0, run.SRC)
    try:
        import fermatlines.cli as cli
        import fermatlines.verifiers as verifiers
        from fermatlines.exact import Matrix
    finally:
        sys.path.remove(run.SRC)
    before = (cli.run_lemma, cli.verify_generic_systems, verifiers.kernel_basis,
              Matrix.rank, Matrix.__dict__["rref"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = cli.run_lemma("systems", 2, 6, 3, 0, trials=1)
    finally:
        tracer.uninstall()
    after = (cli.run_lemma, cli.verify_generic_systems, verifiers.kernel_basis,
             Matrix.rank, Matrix.__dict__["rref"])
    assert after == before
    assert report.verdict == "PASS"
    spans, counts, stats = tracer.collect()
    names = {s[2]: s for s in spans}
    assert names["verifiers.systems"][1] == names["cli.run_lemma"][0]
    assert counts["rng.draws"] > 0
    m = tracing.layer_metrics(spans, counts, stats)
    assert m["exact.rank.calls"] >= 1 and m["exact.elim_cells"] > 0


def _reports(reference):
    reps = []
    for lemma in ("kernel-special", "secant"):
        for seed in (3, 4):
            ref = reference["%s n=2 d=6" % lemma]
            reps.append(dict(lemma=lemma, n=2, d=6, seed=seed, elapsed_ms=17,
                             params={"trials": 5}, **copy.deepcopy(ref)))
    return reps


def _reference():
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


EXPECTED = [("kernel-special", 3), ("kernel-special", 4), ("secant", 3), ("secant", 4)]


def test_gate_accepts_reports_matching_the_reference():
    reference = _reference()
    assert gate.mismatches(_reports(reference), EXPECTED, reference) == []


def test_gate_flags_altered_dims():
    reference = _reference()
    reps = _reports(reference)
    reps[1]["dims"]["lhs"] += 1
    problems = gate.mismatches(reps, EXPECTED, reference)
    assert len(problems) == 1 and "kernel-special seed 4: dims" in problems[0]


def test_gate_flags_missing_and_wrong_verdict():
    reference = _reference()
    reps = _reports(reference)
    reps[2]["verdict"] = "FAIL"
    problems = gate.mismatches(reps[:3], EXPECTED, reference)
    assert len(problems) == 2
    assert "secant seed 3: verdict" in problems[0] and "missing" in problems[1]


def test_report_hash_ignores_elapsed_ms_only():
    reference = _reference()
    a, b = _reports(reference), _reports(reference)
    b[0]["elapsed_ms"] = 99999
    assert gate.reports_hash(a) == gate.reports_hash(b)
    b[0]["dims"]["lhs"] += 1
    assert gate.reports_hash(a) != gate.reports_hash(b)


def test_seed_zero_gives_default_verify_seeds():
    assert run.verify_seeds(run.WORKLOADS["sextic-light-j2"], 0) == [0, 1, 2]
    assert run.verify_seeds(run.WORKLOADS["octic-scale"], 0)[0] == 7
    picked = [tuple(run.verify_seeds(run.WORKLOADS["octic-scale"], s)) for s in range(4)]
    assert len(set(sum(picked, ()))) == 4 * 2   # distinct seeds never overlap


def test_registry_matches_the_cli():
    sys.path.insert(0, run.SRC)
    try:
        from fermatlines.cli import REGISTRY
    finally:
        sys.path.remove(run.SRC)
    assert run.REGISTRY == REGISTRY
