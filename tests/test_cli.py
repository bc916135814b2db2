"""CLI surface: registry, dispatch, exit codes, report files, determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

import fermatlines.cli as cli
from fermatlines.cli import (EXIT_FAIL, EXIT_OK, EXIT_SOFT, EXIT_USAGE,
                             REGISTRY, RunConfig, main, registry, run,
                             run_lemma)
from fermatlines.verifiers import LemmaReport


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_registry_fixed():
    assert len(registry()) == 10
    assert registry() == ("w-basis", "kernel-generic", "kernel-special",
                          "point-ideal", "xi-special", "xi-generic", "systems",
                          "secant", "incidence", "tangency")
    assert registry() == registry()


def test_every_id_dispatches():
    for lemma in REGISTRY:
        rep = run_lemma(lemma, 2, 6, 3, seed=1, trials=1)
        assert rep.lemma == lemma
        assert rep.seed == 1


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


def test_human_table_has_header_and_summary():
    buf = io.StringIO()
    run(RunConfig(n=2, d=6, seeds=[0], lemmas=["systems"], trials=2), out=buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("lemma")
    assert "summary:" in text


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
