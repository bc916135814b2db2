"""Guard for the benchmark's traced run: every name the span tracer in
bench/tracing.py wraps must still exist, and a traced lemma run must record
its verifier span.  The tracer is imported by path and not modified."""

import importlib
import importlib.util
import os

import fermatlines.cli as cli

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for name, module, attr in tracing.TIMED + tracing.COUNTED:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr)), name


def test_traced_run_lemma_records_the_verifier_span():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rep = cli.run_lemma("incidence", 2, 6, 3, 0)
    finally:
        tracer.uninstall()
    spans, _counts, _stats = tracer.collect()
    names = [span[2] for span in spans]
    assert rep.verdict == "PASS"
    assert names.count("verifiers.incidence") == 1
    assert names.count("cli.run_lemma") == 1
    metrics = tracing.layer_metrics(spans)
    assert metrics["verifiers.incidence.s"] > 0
