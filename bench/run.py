"""Benchmark for the fermatlines `verify` CLI: end-to-end and per-layer.

    python3 bench/run.py --workload sextic-all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is run from the checkout's
`src/`, nothing needs installing.  With `--trace 0` each measured pass is one
fresh `verify` process, and the last stdout line holds the end-to-end
metrics.  With `--trace 1` alternating untraced and traced passes (spans
recorded by bench/tracing.py) give the per-layer metrics.  Every report of
every pass goes through the correctness gate (bench/gate.py).  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import gate
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

REGISTRY = tuple(tracing.VERIFIERS)

# `systems` and `tangency` are in no workload: their general-position draws
# are small rationals that land on the degenerate locus for about 3 and 7 of
# every 1000 verify seeds, and verify then reports INDETERMINATE (or FAIL at
# --trials 1) instead of drawing again, so a run on an arbitrary seed would
# not pass the gate.  Both take under 0.1 s, so timing loses nothing.
SAMPLED_DEFECT = ("systems", "tangency")

# Each pass is one `verify all` invocation over `seeds` verify seeds; a run
# repeats the pass on the same inputs.  Benchmark seed s picks the verify
# seeds first_seed + s*seeds + i, so seed 0 gives the default seeds.
WORKLOADS = {
    # The paper's base case at the size users and tests run: every lemma but
    # SAMPLED_DEFECT, many medium matrices, exact-heavy (point-ideal,
    # kernel-*).
    "sextic-all": dict(n=2, d=6, trials=5, jobs=1, first_seed=0, seeds=1,
                       lemmas=tuple(x for x in REGISTRY if x not in SAMPLED_DEFECT)),
    # The paper's size, (3, 8), for the lemmas whose cost there fits a run:
    # restriction to lines and polynomial products of degree 8 in 5
    # variables.  point-ideal (about 345 s per seed), kernel-generic (29 to
    # 209 s) and kernel-special (13 to 24 s, varying with seed and host) do
    # not fit a steady run, so they are left out.
    "octic-scale": dict(n=3, d=8, trials=1, jobs=1, first_seed=7, seeds=2,
                        lemmas=("w-basis", "xi-special", "xi-generic", "secant",
                                "incidence")),
    # Light lemmas where lines/poly/family dominate, and the only use of the
    # threaded `cli` dispatch (--jobs 2).
    "sextic-light-j2": dict(n=2, d=6, trials=5, jobs=2, first_seed=0, seeds=3,
                            lemmas=("w-basis", "xi-special", "xi-generic", "secant",
                                    "incidence")),
}

# Lemmas whose summed elapsed_ms is reported, where the workload runs them.
LEMMA_METRICS = ("kernel-generic", "kernel-special", "point-ideal", "secant", "w-basis")

# Set-up probes: SETUP_PER_PASS before every pass, so they sample the host
# over the whole run, and at least SETUP_RUNS in all.
SETUP_PER_PASS = 3
SETUP_RUNS = 15
# A traced run alternates this many untraced and traced passes and reports
# medians, so trace.overhead_s is not one pair's noise.
TRACE_PASSES = 3
RUN_LIMIT_S = 170.0

# A fresh interpreter that runs verify exactly as the `verify` console
# script does; `python -m fermatlines.cli` would print a runpy
# RuntimeWarning because the package __init__ imports cli.
VERIFY_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from fermatlines.cli import main; sys.exit(main(sys.argv[2:]))")
# The same up to config resolution: `run` is replaced so no lemma runs.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import fermatlines.cli as cli; cli.run = lambda config, out=None: 0; "
              "sys.exit(cli.main(sys.argv[2:]))")


class BenchError(Exception):
    pass


def verify_seeds(spec, seed):
    k = spec["seeds"]
    return [spec["first_seed"] + seed * k + i for i in range(k)]


def verify_args(spec, seeds, workdir):
    args = ["all", "--n", str(spec["n"]), "--d", str(spec["d"]),
            "--trials", str(spec["trials"]), "--jobs", str(spec["jobs"]),
            "--json", os.path.join(workdir, "reports.jsonl")]
    if tuple(spec["lemmas"]) != REGISTRY:
        cfg = os.path.join(workdir, "config.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"lemmas": list(spec["lemmas"])}, fh)
        args += ["--config", cfg]
    for s in seeds:
        args += ["--seed", str(s)]
    return args


def spawn(argv, deadline, log_path):
    """Run argv to completion; (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from wait4, so they cover the process and
    every descendant it waited for; peak RSS is the largest single process,
    not a sum.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run limit of %.0f s reached" % RUN_LIMIT_S)
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(remaining, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError("killed after the %.0f s run limit" % RUN_LIMIT_S)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def read_log(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def setup_time(spec, seeds, workdir, deadline):
    args = verify_args(spec, seeds, workdir)
    log = os.path.join(workdir, "setup.log")
    code, wall, _cpu, _rss = spawn([sys.executable, "-c", SETUP_CODE, SRC] + args,
                                   deadline, log)
    if code != 0:
        raise BenchError("setup probe exited %d: %s" % (code, read_log(log)))
    return wall


class Pass:
    """One verify process over the workload's seeds, gated."""

    def __init__(self, spec, seeds, workdir, reference, deadline, traced=False):
        args = verify_args(spec, seeds, workdir)
        log = os.path.join(workdir, "verify.log")
        json_path = os.path.join(workdir, "reports.jsonl")
        if os.path.exists(json_path):
            os.remove(json_path)
        if traced:
            layer_path = os.path.join(workdir, "layers.json")
            argv = [sys.executable, os.path.join(HERE, "tracing.py"), SRC, layer_path,
                    os.path.join(workdir, "spans.jsonl"), "--"] + args
        else:
            argv = [sys.executable, "-c", VERIFY_CODE, SRC] + args
        self.code, self.wall, self.cpu, self.rss = spawn(argv, deadline, log)
        self.log = read_log(log)
        try:
            self.reports = gate.read_reports(json_path)
        except (OSError, ValueError):
            self.reports = []
        expected = [(lemma, s) for lemma in spec["lemmas"] for s in seeds]
        self.attempted = len(expected)
        self.problems = gate.mismatches(self.reports, expected, reference)
        if self.code != 0:
            self.problems.append("verify exited %d: %s" % (self.code, self.log[-300:]))
        # A nonzero exit fails the whole pass, as it would for a user.
        self.failed = self.attempted if self.code != 0 else min(len(self.problems),
                                                                 self.attempted)
        self.layers = None
        if traced and os.path.exists(layer_path):
            with open(layer_path, encoding="utf-8") as fh:
                self.layers = json.load(fh)["metrics"]

    def lemma_s(self, lemma):
        return sum(r["elapsed_ms"] for r in self.reports if r["lemma"] == lemma) / 1000.0


def provenance():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": nproc, "cpu_model": cpu,
            "git_commit": git_commit(), "src_sha256": tree_hash(SRC)}


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_hash(top):
    """sha256 over the .py files under `top`; identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(top)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, spec, reference, workdir, deadline):
    """(passes, metrics) for one benchmark run."""
    seeds = verify_seeds(spec, args.seed)
    if args.trace:
        plain, traced = [], []
        for _ in range(TRACE_PASSES):
            plain.append(Pass(spec, seeds, workdir, reference, deadline))
            traced.append(Pass(spec, seeds, workdir, reference, deadline, traced=True))
        layers = [t.layers for t in traced if t.layers is not None]
        if not layers:
            raise BenchError("no traced pass wrote its layer metrics")
        values = {name: statistics.median(x[name] for x in layers) for name in layers[0]}
        values["cli.cpu_util"] = statistics.median(p.cpu / p.wall for p in plain)
        values["trace.overhead_s"] = (statistics.median(t.wall for t in traced)
                                      - statistics.median(p.wall for p in plain))
        return plain + traced, {name: metric(v, tracing.unit(name))
                                for name, v in values.items()}
    setups, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        setups += [setup_time(spec, seeds, workdir, deadline) for _ in range(SETUP_PER_PASS)]
        passes.append(Pass(spec, seeds, workdir, reference, deadline))
    while len(setups) < SETUP_RUNS:
        setups.append(setup_time(spec, seeds, workdir, deadline))
    metrics = {
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "cpu_s": metric(statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p.rss for p in passes), "MB"),
    }
    return passes, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the verify seeds (0 gives the default seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep starting passes until this long has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]
    try:
        if not os.path.isfile(os.path.join(SRC, "fermatlines", "cli.py")):
            raise BenchError("no fermatlines source under %s" % SRC)
        prov = provenance()
        if spec["jobs"] > prov["nproc"]:
            raise BenchError("workload needs --jobs %d but only %d cores are available"
                             % (spec["jobs"], prov["nproc"]))
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        workdir = os.path.join(OUT, args.workload)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        passes, metrics = measure(args, spec, reference, workdir, deadline)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write("bench: error: %s\n" % exc)
        return 1

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            sys.stderr.write("bench: gate: %s\n" % problem)
    first = passes[0]
    detail = {
        "workload": args.workload,
        "verify_seeds": verify_seeds(spec, args.seed),
        "passes": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "reports": attempted,
        "failed_reports": failed,
        "reports_sha256": gate.reports_hash(first.reports),
        "provenance": prov,
        "peak_rss_mb_note": "largest single process in the verify tree, not a sum",
    }
    if not args.trace:
        detail["lemma_s"] = {
            "lemma_s." + lemma: metric(statistics.median(p.lemma_s(lemma) for p in passes), "s")
            for lemma in LEMMA_METRICS if lemma in spec["lemmas"]}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
