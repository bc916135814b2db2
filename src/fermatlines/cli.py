"""Command-line front end: run lemma verifications and emit reports.

Usage pattern: `verify <lemma-id|all> [--n N] [--d D] [--m M] [--seed S]...
[--trials K] [--jobs J] [--json PATH] [--config PATH]`.  One JSON line is
written per (lemma, seed) pair, flushed as soon as that pair is done and in
registry order, plus a trailing summary object; stdout gets an aligned
human table, each pair's row also written when the pair is done.
`--trials K` is the number of draws of each sampled claim; `point-ideal`
and `incidence` draw nothing, decide once and ignore it.
`--jobs J` runs the pairs in min(J, pairs, CPUs) forked worker processes;
`--jobs 1` runs them in this process.  Exit code 0 when everything passes,
1 on any FAIL, 2 when the worst outcome is INFEASIBLE or INDETERMINATE, 64
on usage errors, 71 on any other OS error (say, no worker process could be
forked), 74 when the report file cannot be opened, written or flushed
("cannot write reports"), 130 when interrupted (SIGINT, Ctrl-C): then one
line goes to stderr, with no traceback, the reports finished so far stay in
the JSON file, and the `--jobs` workers, which ignore SIGINT, are
terminated.  Exit codes 71 and 74 also write one `error:` line and no
traceback.  A stdout that fails on write, closed (`verify all | head -1`)
or full (`> /dev/full`), ends the table, not the run: the JSON reports are
still written, the exit code is still the verdicts', and no traceback or
exit-time message is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .rng import Rng
from .verifiers import (FAIL, INDETERMINATE, INFEASIBLE, PASS, LemmaReport,
                        verify_generic_systems, verify_incidence,
                        verify_kernel_generic, verify_kernel_special,
                        verify_point_ideal, verify_secant, verify_tangency,
                        verify_w_basis, verify_xi_generic, verify_xi_special)

# Lemma id -> its verifier called as (n, d, m, seed, rng, trials), in
# registry order.  Each lambda looks its verifier up when called, so a
# replaced module global (a monkeypatch, a tracer's wrapper) is the one run.
LEMMAS = {
    "w-basis": lambda n, d, m, seed, rng, trials: verify_w_basis(n, d, rng, trials),
    "kernel-generic":
        lambda n, d, m, seed, rng, trials: verify_kernel_generic(n, d, rng, trials),
    "kernel-special":
        lambda n, d, m, seed, rng, trials: verify_kernel_special(n, d, rng, trials),
    "point-ideal": lambda n, d, m, seed, rng, trials: verify_point_ideal(n, d, seed=seed),
    "xi-special": lambda n, d, m, seed, rng, trials: verify_xi_special(n, d, rng, trials),
    "xi-generic": lambda n, d, m, seed, rng, trials: verify_xi_generic(n, d, rng, trials),
    "systems": lambda n, d, m, seed, rng, trials: verify_generic_systems(n, d, rng, trials),
    "secant": lambda n, d, m, seed, rng, trials: verify_secant(n, d, rng, trials),
    "incidence": lambda n, d, m, seed, rng, trials: verify_incidence(n, d, m, seed=seed),
    "tangency": lambda n, d, m, seed, rng, trials: verify_tangency(n, d, m, rng, trials),
}
REGISTRY = tuple(LEMMAS)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SOFT = 2
EXIT_USAGE = 64
EXIT_OSERR = 71         # sysexits.h EX_OSERR
EXIT_IOERR = 74         # sysexits.h EX_IOERR
EXIT_INTERRUPT = 130    # 128 + SIGINT

CONFIG_KEYS = ("n", "d", "m", "seeds", "lemmas", "trials", "jobs", "json")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_list_of(x, ok) -> bool:
    return isinstance(x, (list, tuple)) and all(map(ok, x))


class RunConfig:
    """One run's settings, stored as given; resolve() validates them.  d
    defaults to 2n+2 and m to d // 2."""

    def __init__(self, n: int = 2, d: int | None = None, m: int | None = None,
                 seeds=(0,), lemmas=REGISTRY, trials: int = 5, jobs: int = 1,
                 output_path: str | None = None):
        self.n, self.d, self.m, self.seeds, self.lemmas = n, d, m, seeds, lemmas
        self.trials, self.jobs, self.output_path = trials, jobs, output_path

    def resolve(self):
        for name in ("n", "d", "m", "trials", "jobs"):
            value = getattr(self, name)
            if not (_is_int(value) or value is None and name in ("d", "m")):
                raise ValueError("%s must be an integer, got %r" % (name, value))
        if not _is_list_of(self.seeds, _is_int):
            raise ValueError("seeds must be a list of integers, got %r" % (self.seeds,))
        if not _is_list_of(self.lemmas, lambda x: isinstance(x, str)):
            raise ValueError("lemmas must be a list of lemma ids, got %r" % (self.lemmas,))
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise ValueError("json must be a path, got %r" % (self.output_path,))
        d = self.d if self.d is not None else 2 * self.n + 2
        m = self.m if self.m is not None else d // 2
        if self.n < 1:
            raise ValueError("--n must be >= 1")
        if d < 4:
            raise ValueError("--d must be >= 4")
        if not 0 < m < d:
            raise ValueError("--m must satisfy 0 < m < d")
        if self.trials < 1:
            raise ValueError("--trials must be >= 1")
        if self.jobs < 1:
            raise ValueError("--jobs must be >= 1")
        for lemma in self.lemmas:
            if lemma not in REGISTRY:
                raise ValueError("unknown lemma id %r" % lemma)
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.lemmas:
            raise ValueError("need at least one lemma")
        return d, m


def run_lemma(lemma: str, n: int, d: int, m: int, seed: int,
              trials: int = 5) -> LemmaReport:
    """Dispatch one (lemma, seed) pair to its verifier."""
    if lemma not in LEMMAS:
        raise ValueError("unknown lemma id %r" % lemma)
    return LEMMAS[lemma](n, d, m, seed, Rng(seed).split(lemma), trials)


def _table_row(cells, widths) -> str:
    return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip() + "\n"


def _work(item) -> LemmaReport:
    """Run one (lemma, n, d, m, seed, trials) item.  A worker is sent this
    module-level function, never `run_lemma` itself, which is looked up here
    at call time: a replacement of `cli.run_lemma` (a monkeypatch, a
    tracer's closure) need not pickle, and forked workers inherit it."""
    return run_lemma(*item)


def _pool(processes: int):
    """A pool of `processes` forked workers.  Fork, not spawn: a worker
    starts with the package imported, and no thread runs here before the
    pool exists.  Each worker ignores SIGINT, so an interrupt reaches only
    this process, whose pool then terminates them.  multiprocessing and
    signal are imported here, so a run in this process never loads them."""
    import multiprocessing
    from signal import SIG_IGN, SIGINT, signal
    return multiprocessing.get_context("fork").Pool(processes, signal, (SIGINT, SIG_IGN))


def _reports(items, jobs: int):
    """Yield the report of each item, in order, as soon as it is done."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(_work, items)
        return
    with _pool(workers) as pool:
        yield from pool.imap(_work, items, chunksize=1)
        pool.close()
        pool.join()


def run(config: RunConfig, out=None) -> int:
    """Execute the configured runs, write reports, return the exit code.
    An `out` that fails on write (any OSError: a closed pipe, a full disk)
    ends the table, not the run.  An OSError of the report file's open,
    writes, flushes or close ends it with EXIT_IOERR, any other with
    EXIT_OSERR.  A KeyboardInterrupt ends the run with EXIT_INTERRUPT, the
    report file closed on the lines already written."""
    out = out if out is not None else sys.stdout

    def show(text):
        nonlocal out
        if out is None:
            return
        try:
            out.write(text)
            out.flush()
        except OSError:
            if out is sys.stdout:   # the interpreter flushes stdout again at exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, out.fileno())
                os.close(devnull)
            out = None

    d, m = config.resolve()
    items = [(lemma, config.n, d, m, seed, config.trials)
             for lemma in config.lemmas for seed in config.seeds]
    # Every column but the last, dims, has a width known before any row
    # (ms is padded to 7 digits), so each row is written as its report is
    # done, the header with the first.
    header = ("lemma", "n", "d", "seed", "verdict", "ms", "dims")
    widest = (max(REGISTRY, key=len), str(config.n), str(d),
              max(map(str, config.seeds), key=len), INDETERMINATE, "9" * 7, "")
    widths = [max(len(h), len(w)) for h, w in zip(header, widest)]
    counts = {PASS: 0, FAIL: 0, INDETERMINATE: 0, INFEASIBLE: 0}
    in_report_file = True   # an OSError now is the report file's
    try:
        with (open(config.output_path, "w", encoding="utf-8") if config.output_path
              else contextlib.nullcontext()) as fh:
            in_report_file = False
            for i, rep in enumerate(_reports(items, config.jobs)):
                counts[rep.verdict] += 1
                if fh:
                    in_report_file = True
                    fh.write(rep.to_json() + "\n")
                    fh.flush()
                    in_report_file = False
                dims = ",".join("%s=%s" % kv for kv in rep.dims.items())
                show((_table_row(header, widths) if i == 0 else "")
                     + _table_row((rep.lemma, str(rep.n), str(rep.d), str(rep.seed),
                                   rep.verdict, str(rep.elapsed_ms), dims), widths))
            summary = {"runs": len(items), "pass": counts[PASS], "fail": counts[FAIL],
                       "indeterminate": counts[INDETERMINATE], "infeasible": counts[INFEASIBLE]}
            in_report_file = True
            if fh:
                fh.write(json.dumps({"summary": summary}) + "\n")
    except OSError as exc:
        if in_report_file:
            sys.stderr.write("error: cannot write reports: %s\n" % exc)
            return EXIT_IOERR
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_OSERR
    except KeyboardInterrupt:
        sys.stderr.write("interrupted\n")
        return EXIT_INTERRUPT
    show("summary: %d runs, %d pass, %d fail, %d indeterminate, %d infeasible\n"
         % tuple(summary.values()))

    if counts[FAIL]:
        return EXIT_FAIL
    if counts[INDETERMINATE] or counts[INFEASIBLE]:
        return EXIT_SOFT
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="verify",
                     description="Run exact verifications of the family lemmas.")
    parser.add_argument("lemma", choices=("all",) + REGISTRY,
                        help="lemma id, or 'all' for the whole registry")
    parser.add_argument("--n", type=int, default=None, help="fiber dimension (default 2)")
    parser.add_argument("--d", type=int, default=None, help="degree (default 2n+2)")
    parser.add_argument("--m", type=int, default=None,
                        help="multiplicity for incidence/tangency (default d//2)")
    parser.add_argument("--seed", dest="seeds", metavar="SEED", type=int, action="append",
                        default=None, help="seed, repeatable (default 0)")
    parser.add_argument("--trials", type=int, default=None,
                        help="samples per genericity claim (default 5); point-ideal "
                             "and incidence decide once and ignore it")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the (lemma, seed) runs, at most one "
                             "per run and per CPU (default 1: run in this process)")
    parser.add_argument("--json", metavar="JSON_PATH", default=None,
                        help="write JSON Lines reports to this path")
    parser.add_argument("--config", default=None,
                        help="JSON config file; explicit flags override it")
    return parser


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = [key for key in obj if key not in CONFIG_KEYS]
    if unknown:
        raise ValueError("unknown config key%s %s (known: %s)"
                         % ("s" * (len(unknown) > 1), ", ".join(map(repr, unknown)),
                            ", ".join(CONFIG_KEYS)))
    return obj


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    file_cfg = {}
    if args.config:
        try:
            file_cfg = _load_config(args.config)
        except (OSError, ValueError) as exc:
            sys.stderr.write("error: cannot read config: %s\n" % exc)
            return EXIT_USAGE
    # the given flags over the config file; RunConfig supplies the rest
    given = {**file_cfg, **{key: value for key, value in vars(args).items()
                            if key in CONFIG_KEYS and value is not None}}
    if args.lemma != "all":
        given["lemmas"] = [args.lemma]
    config = RunConfig(output_path=given.pop("json", None), **given)
    try:
        config.resolve()
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
