"""Span tracer for the benchmark's traced run, and the per-layer accounting.

The tracer wraps the public functions and methods of each fermatlines
module from outside: class attributes are replaced on the class, and module
functions are replaced in every fermatlines namespace that holds them
(``from .lines import restrict_poly`` makes ``fermatlines.verifiers`` hold
its own reference, which must be replaced too).  Nothing under ``src/`` is
edited.  Each wrapped call records a span (id, parent id, name, start,
end); parents are tracked per thread, so ``--jobs 2`` worker threads keep
their own stacks.  Spans are kept in memory and written when the run ends.

Run a traced verify in this process (used by ``run.py --trace 1``)::

    python3 bench/tracing.py SRC_DIR OUT_JSON SPANS_JSONL -- VERIFY_ARGS...
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# Lemma id -> verifier function name, in the order of fermatlines.cli.REGISTRY.
VERIFIERS = {
    "w-basis": "verify_w_basis",
    "kernel-generic": "verify_kernel_generic",
    "kernel-special": "verify_kernel_special",
    "point-ideal": "verify_point_ideal",
    "xi-special": "verify_xi_special",
    "xi-generic": "verify_xi_generic",
    "systems": "verify_generic_systems",
    "secant": "verify_secant",
    "incidence": "verify_incidence",
    "tangency": "verify_tangency",
}

# (span name, module, attribute).  The span name's prefix is the layer.
TIMED = (
    ("exact.rank", "fermatlines.exact", "Matrix.rank"),
    ("exact.rref", "fermatlines.exact", "Matrix.rref"),
    ("exact.kernel_basis", "fermatlines.exact", "kernel_basis"),
    ("exact.subspace_from_vectors", "fermatlines.exact", "Subspace.from_vectors"),
    ("exact.random_solution", "fermatlines.exact", "random_solution"),
    ("exact.solve", "fermatlines.exact", "Matrix.solve"),
    ("lines.restrict_poly", "fermatlines.lines", "restrict_poly"),
    ("lines.restrict_section", "fermatlines.lines", "restrict_section"),
    ("lines.restrict_mod_f", "fermatlines.lines", "restrict_mod_f"),
    ("poly.mul", "fermatlines.poly", "HomogPoly.__mul__"),
    ("poly.partial", "fermatlines.poly", "HomogPoly.partial"),
    ("poly.evaluate", "fermatlines.poly", "HomogPoly.evaluate"),
    ("poly.gen_jd", "fermatlines.poly", "gen_jd"),
    ("family.sample_b_through", "fermatlines.family", "sample_b_through"),
    ("family.eta", "fermatlines.family", "eta"),
    ("family.omega_basis", "fermatlines.family", "omega_basis"),
    ("family.koszul_eta_m", "fermatlines.family", "koszul_eta_m"),
) + tuple(("verifiers." + lemma, "fermatlines.verifiers", fn)
          for lemma, fn in VERIFIERS.items()) + (
    ("cli.run_lemma", "fermatlines.cli", "run_lemma"),
    ("cli.run", "fermatlines.cli", "run"),
)

# (counter name, module, attribute): counted, not timed.
COUNTED = (
    ("lines.classify.calls", "fermatlines.lines", "classify"),
    ("poly.coeffs_on.calls", "fermatlines.poly", "HomogPoly.coeffs_on"),
    ("rng.draws", "fermatlines.rng", "Rng.next_u64"),
)

LAYERS = ("exact", "lines", "poly", "family", "verifiers")
HOOK_SPAN = "trace.hook"


def _elim_hook(stats, args, result):
    m = args[0]
    stats["exact.elim_cells"] += m.nrows * m.ncols
    stats["exact.max_cols"] = max(stats["exact.max_cols"], m.ncols)


def _rref_hook(stats, args, result):
    _elim_hook(stats, args, result)
    bits = stats["exact.rref_out_bits_max"]
    for row in result[0]:
        for x in row:
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    stats["exact.rref_out_bits_max"] = bits


HOOKS = {"exact.rank": _elim_hook, "exact.rref": _rref_hook}
MAX_STATS = ("exact.max_cols", "exact.rref_out_bits_max")


def unit(name):
    """Unit of a per-layer metric."""
    if name == "exact.rref_out_bits_max":
        return "bits"
    if name == "cli.cpu_util":
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.spans = []
        self.counts = Counter()
        self.stats = Counter()


class Tracer:
    """Installs span and count wrappers; `uninstall` restores the originals."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self._states = []
        self._undo = []

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            self._states.append(state)
            return state

    def span(self, name, fn, hook=None):
        """Wrap `fn` so each call records a span named `name`."""
        clock, ids, get_state = time.perf_counter, self._ids, self._state

        def wrapper(*args, **kwargs):
            state = get_state()
            stack = state.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                state.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                # Hook work is a span of its own so no layer is charged for it.
                h0 = clock()
                hook(state.stats, args, result)
                state.spans.append((next(ids), parent, HOOK_SPAN, h0, clock()))
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` so each call increments the counter `name`."""
        get_state = self._state

        def wrapper(*args, **kwargs):
            get_state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, module, attr in TIMED:
            self._patch(module, attr, lambda fn, name=name: self.span(name, fn, HOOKS.get(name)))
        for name, module, attr in COUNTED:
            self._patch(module, attr, lambda fn, name=name: self.counter(name, fn))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            # Aliases such as `__rmul__ = __mul__` are the same call.
            for key, val in list(vars(cls).items()):
                if val is raw:
                    self._undo.append((cls, key, raw))
                    setattr(cls, key, new)
            return
        original = getattr(mod, attr)
        new = make(original)
        for mod_name, ns in list(sys.modules.items()):
            if mod_name != "fermatlines" and not mod_name.startswith("fermatlines."):
                continue
            for key, val in list(vars(ns).items()):
                if val is original:
                    self._undo.append((ns, key, original))
                    setattr(ns, key, new)

    def collect(self):
        """(spans, counts, stats) merged over every thread that ran."""
        spans, counts, stats = [], Counter(), Counter()
        for state in self._states:
            spans.extend(state.spans)
            counts.update(state.counts)
            for key, val in state.stats.items():
                stats[key] = max(stats[key], val) if key in MAX_STATS else stats[key] + val
        return spans, counts, stats


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, counts=None, stats=None):
    """Per-layer metrics from spans (sid, parent, name, t0, t1).

    A span's self time is its duration minus the part of it covered by its
    child spans; a layer's self time sums that over its spans.  `<name>.s`
    is the inclusive time of spans with no ancestor of the same name, and
    `cli.overhead_s` is the time inside `cli.run` when no `cli.run_lemma`
    is running on any thread.
    """
    counts = counts or {}
    stats = stats or {}
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for sid, parent, name, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl = defaultdict(float)
    calls = Counter()
    lemma_spans = []
    for sid, parent, name, t0, t1 in spans:
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        calls[name] += 1
        if name == "cli.run_lemma":
            lemma_spans.append((t0, t1))
        up = parent
        while up >= 0 and by_id[up][2] != name:
            up = by_id[up][1]
        if up < 0:
            incl[name] += t1 - t0
    out = {layer + ".self_s": self_s[layer] for layer in LAYERS}
    for name, _module, _attr in TIMED:
        if name == "cli.run":
            continue
        if name.startswith("verifiers."):
            out[name + ".s"] = incl[name]
            continue
        out[name + ".calls"] = calls[name]
        out[name + ".s"] = incl[name]
    for name, _module, _attr in COUNTED:
        out[name] = counts.get(name, 0)
    for key in ("exact.elim_cells", "exact.max_cols", "exact.rref_out_bits_max"):
        out[key] = stats.get(key, 0)
    out["cli.overhead_s"] = sum((t1 - t0) - _covered(lemma_spans, t0, t1)
                                for _sid, _p, name, t0, t1 in spans if name == "cli.run")
    return out


def main(argv):
    src, out_path, spans_path, sep, *verify_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SRC_DIR OUT_JSON SPANS_JSONL -- VERIFY_ARGS...")
    sys.path.insert(0, src)
    import fermatlines.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(verify_args)
    finally:
        tracer.uninstall()
    spans, counts, stats = tracer.collect()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": len(spans),
                   "metrics": layer_metrics(spans, counts, stats)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
