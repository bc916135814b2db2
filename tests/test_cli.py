"""CLI surface: registry, dispatch, exit codes, report files, determinism."""

import errno
import gc
import io
import json
import os
import signal
import subprocess
import sys
import weakref

import pytest

import fermatlines.cli as cli
import fermatlines.family as family
import fermatlines.verifiers as verifiers
from fermatlines.cli import (EXIT_FAIL, EXIT_INTERRUPT, EXIT_IOERR, EXIT_OK, EXIT_OSERR,
                             EXIT_SOFT, EXIT_USAGE, REGISTRY, RunConfig, main, run, run_lemma)
from fermatlines.poly import gen_jd
from fermatlines.verifiers import LemmaReport


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_registry_fixed():
    assert len(REGISTRY) == 10
    assert REGISTRY == ("w-basis", "kernel-generic", "kernel-special",
                        "point-ideal", "xi-special", "xi-generic", "systems",
                        "secant", "incidence", "tangency")
    assert isinstance(REGISTRY, tuple)


def test_every_id_dispatches():
    for lemma in REGISTRY:
        rep = run_lemma(lemma, 2, 6, 3, seed=1, trials=1)
        assert rep.lemma == lemma
        assert rep.seed == 1


def test_a_run_enumerates_its_index_set_once(monkeypatch, capsys):
    """One `verify all` at (3, 8) enumerates J_8 once, shared by every
    verifier through family_shape and mutated by none; J_7 and J_9 are
    enumerated where needed and not kept alive after the run."""
    family.family_shape.cache_clear()
    enumerated, others = [], []

    def counting(n, d):
        jd = gen_jd(n, d)
        enumerated.append((n, d))
        if d != 8:
            others.append(weakref.ref(jd))
        return jd

    monkeypatch.setattr(family, "gen_jd", counting)
    monkeypatch.setattr(verifiers, "gen_jd", counting)
    assert main(["all", "--n", "3", "--d", "8", "--trials", "1"]) == EXIT_OK
    capsys.readouterr()
    assert enumerated.count((3, 8)) == 1
    assert {(3, 7), (3, 9)} <= set(enumerated)
    gc.collect()
    assert others and all(ref() is None for ref in others)
    shared, fresh = family.family_shape(3, 8).jd, gen_jd(3, 8)
    assert (shared.members, shared.index) == (fresh.members, fresh.index)
    assert enumerated.count((3, 8)) == 1


def test_single_lemma_run_writes_one_line(tmp_path):
    out = tmp_path / "out.jsonl"
    config = RunConfig(n=2, d=6, seeds=[1], lemmas=["incidence"],
                       output_path=str(out))
    code = run(config, out=io.StringIO())
    assert code == EXIT_OK
    lines = read_jsonl(out)
    assert len(lines) == 2      # one report plus the summary
    assert lines[0]["lemma"] == "incidence" and lines[0]["verdict"] == "PASS"
    assert lines[1]["summary"]["runs"] == 1


def test_incidence_offset_printed():
    buf = io.StringIO()
    config = RunConfig(n=3, d=8, m=4, seeds=[0], lemmas=["incidence"])
    assert run(config, out=buf) == EXIT_OK
    assert "offset=0" in buf.getvalue()


def test_exit_code_lattice(monkeypatch, tmp_path):
    def fake(lemma, n, d, m, seed, trials=5):
        verdicts = {"w-basis": "PASS", "kernel-generic": "FAIL",
                    "kernel-special": "INDETERMINATE"}
        return LemmaReport(lemma, n, d, seed, verdicts[lemma], {}, None, 1)

    monkeypatch.setattr(cli, "run_lemma", fake)
    base = dict(n=2, d=6, seeds=[0])
    assert run(RunConfig(lemmas=["w-basis"], **base), out=io.StringIO()) == EXIT_OK
    assert run(RunConfig(lemmas=["w-basis", "kernel-generic"], **base),
               out=io.StringIO()) == EXIT_FAIL
    assert run(RunConfig(lemmas=["w-basis", "kernel-special"], **base),
               out=io.StringIO()) == EXIT_SOFT
    # FAIL dominates the soft verdicts
    assert run(RunConfig(lemmas=["w-basis", "kernel-generic", "kernel-special"],
                         **base), out=io.StringIO()) == EXIT_FAIL


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-lemma", "--n", "2"])
    assert exc.value.code == EXIT_USAGE
    assert main(["incidence", "--n", "0"]) == EXIT_USAGE
    assert main(["incidence", "--d", "3"]) == EXIT_USAGE
    assert main(["tangency", "--m", "9", "--d", "6"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("cfg,message", [
    ({"seeds": 5}, "seeds must be a list of integers, got 5"),
    ({"seeds": ["a"]}, "seeds must be a list of integers, got ['a']"),
    ({"seeds": [1.5]}, "seeds must be a list of integers, got [1.5]"),
    ({"n": 2.5}, "n must be an integer, got 2.5"),
    ({"n": None}, "n must be an integer, got None"),
    ({"d": "6"}, "d must be an integer, got '6'"),
    ({"m": True}, "m must be an integer, got True"),
    ({"trials": "5"}, "trials must be an integer, got '5'"),
    ({"jobs": [2]}, "jobs must be an integer, got [2]"),
    ({"lemmas": "w-basis"}, "lemmas must be a list of lemma ids, got 'w-basis'"),
    ({"lemmas": [1]}, "lemmas must be a list of lemma ids, got [1]"),
    ({"json": 5}, "json must be a path, got 5"),
    ({"lemmas": []}, "need at least one lemma"),
])
def test_config_values_of_the_wrong_type_are_usage_errors(tmp_path, capsys, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["all", "--config", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("cfg,message", [
    ({"seed": [3]}, "unknown config key 'seed'"),
    ({"trails": 1, "lemma": ["secant"]}, "unknown config keys 'trails', 'lemma'"),
    ({"lemmas": ["incidence"], "m ": 3}, "unknown config key 'm '"),
])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, monkeypatch, cfg, message):
    """A misspelt key is named in the error, and nothing runs: a config
    with "seed" does not quietly run seed 0."""
    monkeypatch.setattr(cli, "run_lemma", None)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["all", "--config", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: cannot read config: %s (known: %s)\n" % (
        message, ", ".join(cli.CONFIG_KEYS))
    assert captured.out == ""


@pytest.mark.parametrize("target", ["dir", "missing/x.jsonl"])
def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys, monkeypatch, target):
    """A report file that cannot be opened exits EXIT_IOERR with one line.
    The path is opened before any lemma runs, so nothing is computed."""
    monkeypatch.setattr(cli, "run_lemma", None)
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    assert main(["incidence", "--json", str(path)]) == EXIT_IOERR == 74
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write reports: ")
    assert captured.err.count("\n") == 1 and str(path) in captured.err


class _FullFile(io.StringIO):
    """A report file on a full disk: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("target", ["/dev/full", "patched open"])
def test_report_write_error_is_a_usage_error(capsys, monkeypatch, target):
    """A report file that fails on write gives the open failure's message
    and exit code, EXIT_IOERR, not a traceback."""
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full")
    if target == "patched open":
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullFile(),
                            raising=False)
    code = main(["secant", "--n", "1", "--d", "4", "--trials", "1", "--json", target])
    assert code == EXIT_IOERR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write reports: ")
    assert captured.err.count("\n") == 1 and "No space left on device" in captured.err


class _FillingFile(io.TextIOWrapper):
    """A real report file on a disk that fills after its first line: the
    second write fails."""

    def write(self, text):
        self.writes = getattr(self, "writes", 0) + 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


def test_report_write_error_after_the_first_line_keeps_it(tmp_path, capsys, monkeypatch):
    """A report file whose second write fails exits EXIT_IOERR with one
    `error:` line and no traceback; the first report is on disk."""
    path = tmp_path / "out.jsonl"
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FillingFile(
        io.FileIO(path, "w"), encoding="utf-8"), raising=False)
    code = main(["incidence", "--seed", "0", "--seed", "1", "--json", str(path)])
    assert code == EXIT_IOERR == 74
    captured = capsys.readouterr()
    assert captured.err == ("error: cannot write reports: [Errno %d] No space left on device\n"
                            % errno.ENOSPC)
    [first] = read_jsonl(path)
    assert (first["lemma"], first["seed"]) == ("incidence", 0)


@pytest.mark.parametrize("json_path", [False, True])
def test_os_error_outside_the_report_file_exits_71(tmp_path, capsys, monkeypatch, json_path):
    """A worker pool that cannot be forked (EAGAIN) ends the run with one
    `error:` line and EXIT_OSERR, not "cannot write reports" and not a
    traceback, with or without a report file; no process starts here."""
    def no_fork(processes):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_pool", no_fork)
    argv = ["incidence", "--seed", "0", "--seed", "1", "--jobs", "2"]
    if json_path:
        argv += ["--json", str(tmp_path / "out.jsonl")]
    assert main(argv) == EXIT_OSERR == 71
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno %d] Resource temporarily unavailable\n" % errno.EAGAIN
    assert captured.out == ""
    if json_path:
        assert read_jsonl(tmp_path / "out.jsonl") == []


def test_defaults_d_and_m():
    config = RunConfig(n=2)
    d, m = config.resolve()
    assert d == 6 and m == 3
    config3 = RunConfig(n=3)
    assert config3.resolve() == (8, 4)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.jsonl"
    cfg.write_text(json.dumps({"n": 3, "d": 8, "m": 4, "seeds": [5],
                               "lemmas": ["incidence"],
                               "json": str(out)}), encoding="utf-8")
    assert main(["all", "--config", str(cfg)]) == EXIT_OK
    lines = read_jsonl(out)
    assert lines[0]["n"] == 3 and lines[0]["d"] == 8 and lines[0]["seed"] == 5
    # an explicit flag wins over the file
    assert main(["all", "--config", str(cfg), "--n", "2", "--d", "6",
                 "--m", "2"]) == EXIT_OK
    lines = read_jsonl(out)
    assert lines[0]["n"] == 2 and lines[0]["d"] == 6
    capsys.readouterr()


def test_multiple_seeds_ordering(tmp_path):
    out = tmp_path / "o.jsonl"
    config = RunConfig(n=2, d=6, seeds=[3, 1], lemmas=["incidence", "tangency"],
                       trials=1, output_path=str(out))
    assert run(config, out=io.StringIO()) == EXIT_OK
    lines = read_jsonl(out)[:-1]
    assert [(l["lemma"], l["seed"]) for l in lines] == [
        ("incidence", 3), ("incidence", 1), ("tangency", 3), ("tangency", 1)]


def test_jobs_concurrent_matches_serial(tmp_path):
    out1 = tmp_path / "serial.jsonl"
    out2 = tmp_path / "jobs.jsonl"
    lemmas = ["incidence", "tangency", "systems"]
    run(RunConfig(n=2, d=6, seeds=[4], lemmas=lemmas, trials=2,
                  output_path=str(out1)), out=io.StringIO())
    run(RunConfig(n=2, d=6, seeds=[4], lemmas=lemmas, trials=2, jobs=3,
                  output_path=str(out2)), out=io.StringIO())
    strip = lambda lines: [{k: v for k, v in l.items() if k != "elapsed_ms"}
                           for l in lines]
    assert strip(read_jsonl(out1)) == strip(read_jsonl(out2))


@pytest.mark.parametrize("jobs", [1, 2])
def test_json_lines_are_written_as_pairs_finish(tmp_path, monkeypatch, jobs):
    """A run that stops at its second pair keeps the first pair's report on
    disk, and the pair's exception reaches the caller.  Forked workers
    inherit the patched `run_lemma`."""
    def second_pair_raises(lemma, n, d, m, seed, trials=5):
        if seed == 1:
            raise RuntimeError("pair 2 stopped")
        return run_lemma(lemma, n, d, m, seed, trials)

    out = tmp_path / "partial.jsonl"
    monkeypatch.setattr(cli, "run_lemma", second_pair_raises)
    config = RunConfig(n=2, d=6, seeds=[0, 1, 2], lemmas=["incidence"],
                       jobs=jobs, output_path=str(out))
    with pytest.raises(RuntimeError, match="pair 2 stopped"):
        run(config, out=io.StringIO())
    first = run_lemma("incidence", 2, 6, 3, 0).to_json_obj()
    (line,) = read_jsonl(out)
    line.pop("elapsed_ms")
    first.pop("elapsed_ms")
    assert line == first


def test_interrupt_exits_130_and_keeps_the_finished_reports(tmp_path, monkeypatch, capsys):
    """A KeyboardInterrupt in the second pair ends the run with exit code
    130 and one stderr line, no traceback; the first pair's JSON line is on
    disk and no summary follows it."""
    def second_pair_interrupted(lemma, n, d, m, seed, trials=5):
        if seed == 1:
            raise KeyboardInterrupt
        return run_lemma(lemma, n, d, m, seed, trials)

    monkeypatch.setattr(cli, "run_lemma", second_pair_interrupted)
    path = tmp_path / "interrupted.jsonl"
    argv = ["incidence", "--seed", "0", "--seed", "1", "--seed", "2", "--json", str(path)]
    assert main(argv) == EXIT_INTERRUPT == 128 + signal.SIGINT
    assert capsys.readouterr().err == "interrupted\n"
    first = run_lemma("incidence", 2, 6, 3, 0).to_json_obj()
    (line,) = read_jsonl(path)
    line.pop("elapsed_ms")
    first.pop("elapsed_ms")
    assert line == first


def test_sigint_to_a_jobs_run_exits_130_without_a_traceback(tmp_path):
    """SIGINT to `verify all --n 5 --d 12 --jobs 2` after its first table
    row: the workers ignore it, the parent stops them and exits 130 with
    one stderr line and no traceback, and the finished reports stay in the
    JSON file."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = tmp_path / "interrupted.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fermatlines", "all", "--n", "5", "--d", "12",
         "--jobs", "2", "--json", str(path)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline().startswith("lemma")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and err == "interrupted\n"
    assert proc.returncode == EXIT_INTERRUPT
    lines = read_jsonl(path)
    assert lines[0]["lemma"] == "w-basis" and "summary" not in lines[-1]


class _RecordingPool:
    """Stands in for the process pool: records its size, runs in-process."""

    def __init__(self, asked, processes):
        asked.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        return map(fn, items)

    def close(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("cpus", [None, 1, 2, 64])
def test_jobs_are_capped_by_pairs_and_cpus(monkeypatch, capsys, cpus):
    """--jobs 10000 over 3 pairs asks for at most min(3, CPUs) workers, and
    for no pool when that is 1; no process starts here."""
    if cpus is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    asked = []
    monkeypatch.setattr(cli, "_pool", lambda processes: _RecordingPool(asked, processes))
    argv = ["incidence", "--seed", "0", "--seed", "1", "--seed", "2", "--jobs", "10000"]
    assert main(argv) == EXIT_OK
    workers = min(3, os.cpu_count() or 1)
    assert asked == ([workers] if workers > 1 else [])
    assert capsys.readouterr().out.count("incidence") == 3


def test_process_pool_run_is_warning_free():
    """Under -W error any warning is fatal, such as the DeprecationWarning
    for forking a multi-threaded process on Python 3.12+."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; from fermatlines.cli import main; sys.exit(main(sys.argv[1:]))",
         "incidence", "--seed", "0", "--seed", "1", "--jobs", "2"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count("PASS") == 2


def test_package_runs_as_a_module():
    """`python -m fermatlines` is the verify command, with no runpy
    RuntimeWarning about a module already imported by the package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fermatlines", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout.startswith("usage: verify")


def test_human_table_has_header_and_summary():
    buf = io.StringIO()
    run(RunConfig(n=2, d=6, seeds=[0], lemmas=["systems"], trials=2), out=buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("lemma")
    assert "summary:" in text


def test_table_rows_are_written_as_reports_finish(monkeypatch):
    """Each row is on stdout before the next report exists, aligned to
    widths known up front, with dims last; the summary line follows."""
    buf = io.StringIO()
    seen = []

    def stub_reports(items, jobs):
        for k, (lemma, n, d, m, seed, trials) in enumerate(items):
            seen.append(buf.getvalue())
            dims = {"basis": 24 * 10 ** k, "kernel_total": 28}
            yield LemmaReport(lemma, n, d, seed, ["PASS", "INDETERMINATE"][k], dims,
                              None, 10 ** (3 * k))

    monkeypatch.setattr(cli, "_reports", stub_reports)
    assert run(RunConfig(n=2, d=6, seeds=[0, 12345], lemmas=["w-basis"]), out=buf) == EXIT_SOFT
    lines = buf.getvalue().splitlines()
    assert seen[0] == ""
    assert seen[1].splitlines() == lines[:2]
    assert lines == [
        "lemma           n  d  seed   verdict        ms       dims",
        "w-basis         2  6  0      PASS           1        basis=24,kernel_total=28",
        "w-basis         2  6  12345  INDETERMINATE  1000     basis=240,kernel_total=28",
        "summary: 2 runs, 1 pass, 0 fail, 1 indeterminate, 0 infeasible"]


class _ClosedAfterFirstWrite(io.StringIO):
    """A stdout whose reader goes away after the first write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_ends_the_table_not_the_run(tmp_path):
    """After the first row the table stops, with no further write, while
    every report is still written and the exit code is the verdicts'."""
    out = _ClosedAfterFirstWrite()
    path = tmp_path / "closed.jsonl"
    config = RunConfig(n=1, d=4, seeds=[0, 1, 2], lemmas=["incidence", "systems"],
                       trials=1, output_path=str(path))
    assert run(config, out=out) == EXIT_OK
    assert out.writes == 2
    assert out.getvalue().splitlines()[0].startswith("lemma")
    assert len(read_jsonl(path)) == 7


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_pipe_is_quiet(tmp_path, jobs):
    """`verify all | head -1` through a real pipe: no traceback or exit-time
    message, the verdicts' exit code, and the whole report file."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = tmp_path / "piped.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from fermatlines.cli import main; sys.exit(main(sys.argv[1:]))",
         "all", "--n", "2", "--d", "6", "--trials", "1", "--jobs", jobs,
         "--json", str(path)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("lemma")
    proc.stdout.close()
    assert proc.stderr.read() == ""
    assert proc.wait(timeout=120) == EXIT_OK
    assert len(read_jsonl(path)) == len(REGISTRY) + 1


class _FullAfterFirstWrite(io.StringIO):
    """A stdout on a disk that fills up after the first write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


@pytest.mark.parametrize("json_path", [False, True])
def test_full_stdout_ends_the_table_not_the_run(tmp_path, capsys, json_path):
    """A stdout write that fails with ENOSPC ends the table as a closed pipe
    does: the exit code is the verdicts' (FAIL here), every report is
    written, and nothing blames the report file."""
    out = _FullAfterFirstWrite()
    path = tmp_path / "full.jsonl"
    config = RunConfig(n=2, d=5, seeds=[0, 1], lemmas=["incidence", "secant"], trials=1,
                       output_path=str(path) if json_path else None)
    assert run(config, out=out) == EXIT_FAIL
    assert out.writes == 2
    assert capsys.readouterr().err == ""
    if json_path:
        lines = read_jsonl(path)
        assert len(lines) == 5 and lines[-1]["summary"]["fail"] >= 1


@pytest.mark.parametrize("json_path", [False, True])
def test_stdout_on_dev_full_is_quiet(tmp_path, json_path):
    """`verify all > /dev/full`: no traceback or exit-time message, the
    verdicts' exit code, and with --json the whole report file."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = tmp_path / "full.jsonl"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "fermatlines", "all", "--n", "2", "--d", "5",
             "--trials", "1"] + (["--json", str(path)] if json_path else []),
            env=dict(os.environ, PYTHONPATH=src), stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=120)
    assert proc.stderr == ""
    assert proc.returncode == EXIT_FAIL
    if json_path:
        assert len(read_jsonl(path)) == len(REGISTRY) + 1


def test_checks_survive_optimized_interpreter():
    """Under python -O every assert is stripped; the guards must not be."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import sys; from fermatlines.cli import main; sys.exit(main(sys.argv[1:]))",
         "kernel-generic", "--n", "2", "--d", "6", "--seed", "0", "--trials", "1"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "PASS" in proc.stdout


def test_all_below_the_xi_scope_reports_instead_of_crashing(tmp_path, capsys):
    """xi-special and xi-generic need n >= 2; at n = 1 they report INFEASIBLE
    and every other lemma still runs."""
    out = tmp_path / "n1.jsonl"
    code = main(["all", "--n", "1", "--d", "4", "--trials", "1", "--json", str(out)])
    assert code == EXIT_SOFT
    lines = read_jsonl(out)
    assert len(lines) == 11
    reports, summary = lines[:-1], lines[-1]["summary"]
    assert [r["lemma"] for r in reports] == list(REGISTRY)
    scoped = {r["lemma"]: r for r in reports if r["verdict"] == "INFEASIBLE"}
    assert set(scoped) == {"xi-special", "xi-generic"}
    assert all(r["witness"] == {"reason": "needs n >= 2"} for r in scoped.values())
    assert summary["runs"] == 10 and summary["infeasible"] == 2
    assert summary["fail"] == 0
    capsys.readouterr()


def test_readme_library_example_runs(capsys):
    """The README's library example uses public names only and runs."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "import _" not in block
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("PASS ")
    assert "well_defined" in printed[1]


def test_exhausted_sampler_reports_infeasible(monkeypatch, tmp_path, capsys):
    """A generic-scheme sampler that runs out of attempts ends the lemma as
    INFEASIBLE with exit code 2 instead of a traceback."""
    monkeypatch.setattr(verifiers, "classify", lambda z: {"tag": "special"})
    out = tmp_path / "exhausted.jsonl"
    code = main(["kernel-generic", "--trials", "1", "--json", str(out)])
    assert code == EXIT_SOFT
    report, summary = read_jsonl(out)
    assert report["lemma"] == "kernel-generic"
    assert report["verdict"] == "INFEASIBLE"
    assert report["witness"] == {"reason": "failed to sample a generic length-2 scheme"}
    assert summary["summary"]["runs"] == 1 and summary["summary"]["infeasible"] == 1
    assert "summary:" in capsys.readouterr().out
