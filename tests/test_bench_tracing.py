"""Guard for the benchmark's traced run: every name the span tracer in
bench/tracing.py wraps must still exist, and a traced lemma run must record
its verifier span.  The tracer is imported by path and not modified."""

import importlib
import importlib.util
import os

import fermatlines.cli as cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "bench", "tracing.py")
SRC = os.path.join(ROOT, "src")


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each (module, attribute) of TIMED and COUNTED names a callable of
    the module under this checkout's src/, so deleting a traced name fails
    here and not only in the benchmark's own tests."""
    tracing = load_tracing()
    for name, module, attr in tracing.TIMED + tracing.COUNTED:
        owner = importlib.import_module(module)
        assert os.path.abspath(owner.__file__).startswith(SRC + os.sep), name
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
