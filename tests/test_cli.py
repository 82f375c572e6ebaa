"""CLI surface: subcommands, formats, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "affweyl"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_list_presets():
    r = run("list-presets")
    assert r.returncode == 0
    for name in ("a1-sc", "a2-sc", "folded-a3", "folded-d3", "g2", "t1-inv"):
        assert name in r.stdout


def test_wgroup_operations():
    r = run("wgroup", "length", "--preset", "a1-sc", "--element", "t[2]")
    assert r.returncode == 0 and "length: 4" in r.stdout
    r = run("wgroup", "word", "--preset", "a1-sc", "--element", "t[1]")
    assert "[1, 0]" in r.stdout
    r = run("wgroup", "leq", "--preset", "a1-sc", "--element", "w[1]",
            "--other", "t[1]")
    assert "leq: True" in r.stdout
    r = run("wgroup", "kottwitz", "--preset", "a1-ad", "--element", "t[1]")
    assert "kottwitz_torsion: [1]" in r.stdout


def test_adm_and_formats():
    text = run("adm", "--preset", "a1-sc", "--mu", "1")
    tsv = run("adm", "--preset", "a1-sc", "--mu", "1", "--format", "tsv")
    js = run("adm", "--preset", "a1-sc", "--mu", "1", "--format", "json")
    assert text.returncode == tsv.returncode == js.returncode == 0
    assert "size: 5" in text.stdout
    assert len(tsv.stdout.strip().splitlines()) == 6  # header + 5 elements
    doc = json.loads(js.stdout)
    assert doc["schema"] == "affweyl/1"
    assert doc["size"] == 5 and doc["n_maxima"] == 2
    assert doc["length_cap"] == 64  # caps surface in the metadata


def test_report_and_branch_deterministic():
    for args in (("report", "--preset", "folded-a3", "--format", "json"),
                 ("report", "--preset", "a2-sc", "--format", "tsv"),
                 ("adm", "--preset", "folded-d3", "--facet", "1,2",
                  "--mu", "1,1,0", "--format", "json"),
                 ("branch", "--preset", "a1xa1-sc", "--action", "swap",
                  "--lambda", "1,1", "--format", "json")):
        first = run(*args)
        second = run(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()


def test_branch_output():
    r = run("branch", "--preset", "a1xa1-sc", "--action", "swap",
            "--lambda", "1,1", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["dim_total"] == 4
    assert [(row["mu_free"], row["dim"]) for row in doc["rows"]] == \
        [("2", 3), ("0", 1)]


def test_char_output():
    r = run("char", "--preset", "a1-sc", "--mu", "2", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["dim"] == 3
    r = run("char", "--preset", "d3", "--action", "swap", "--mu", "0,1,0",
            "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["dim"] == 5


def test_fold_output():
    r = run("fold", "--preset", "a2-sc", "--action", "swap")
    assert r.returncode == 0
    assert "nonreduced: True" in r.stdout
    r = run("fold", "--preset", "d3", "--action", "swap", "--format", "json")
    doc = json.loads(r.stdout)
    assert doc["torsion"] == [2]


def test_exit_codes():
    assert run("wgroup", "length", "--preset", "nope",
               "--element", "t[1]").returncode == 2
    assert run("adm", "--preset", "a1-sc", "--mu", "40",
               "--cap", "10").returncode == 2
    assert run("wgroup", "length", "--preset", "a1-sc",
               "--element", "garbage").returncode == 2
    assert run("no-such-command").returncode == 1
    assert run("adm", "--preset", "a1-sc").returncode == 1  # missing --mu


def test_selftest_exits_zero():
    r = run("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "selftest passed" in r.stdout


def test_walk_guard_scales_with_length():
    r = run("wgroup", "word", "--preset", "a1-sc", "--element", "t[6000]",
            "--format", "json")
    assert r.returncode == 0, r.stderr
    assert len(json.loads(r.stdout)["letters"]) == 12000


def test_leq_without_other_is_an_argument_error():
    r = run("wgroup", "leq", "--preset", "a1-sc", "--element", "w[1]")
    assert r.returncode == 1
    assert "affweyl: error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_non_integer_element_entries_are_parse_errors():
    for element in ("t[x]", "w[a]", "t[1]*w[1.5]"):
        r = run("wgroup", "length", "--preset", "a1-sc", "--element", element)
        assert r.returncode == 2, element
        assert "error[cli.element_syntax]" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("adm", "--preset", "a1-sc", "--mu", "x"),
    ("adm", "--preset", "a1-sc", "--mu", "1", "--facet", "0,x"),
    ("branch", "--preset", "a1xa1-sc", "--action", "swap", "--lambda", "1,x"),
], ids=["mu", "facet", "lambda"])
def test_non_integer_coordinate_flags_are_argument_errors(args):
    r = run(*args)
    assert r.returncode == 1
    assert "error: argument " + args[-2] in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_negative_bound_is_an_argument_error():
    r = run("report", "--preset", "a1-sc", "--bound", "-1")
    assert r.returncode == 1
    assert "error: argument --bound" in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ("adm", "--preset", "a1-sc", "--mu", "1,2,3"),
    ("branch", "--preset", "a1xa1-sc", "--action", "swap", "--lambda", "1"),
    ("char", "--preset", "a1-sc", "--mu", "1,2"),
], ids=["adm", "branch", "char"])
def test_coordinate_count_errors_are_named(args):
    r = run(*args)
    assert r.returncode == 2
    assert "error[cli.coordinate_count]" in r.stderr
    assert "error[error]" not in r.stderr


@pytest.mark.parametrize("args,value", [
    (("adm", "--preset", "d3", "--mu"), "-1,0,0"),
    (("branch", "--preset", "d3", "--action", "swap", "--lambda"), "-1,0,0"),
    (("char", "--preset", "a3-sc", "--action", "swap", "--mu"), "-1,0"),
], ids=["adm-mu", "branch-lambda", "char-mu"])
def test_coordinate_list_may_begin_with_a_minus_sign(args, value):
    spaced = run(*args, value)
    glued = run(*args[:-1], f"{args[-1]}={value}")
    assert (spaced.returncode, spaced.stdout, spaced.stderr) == \
        (glued.returncode, glued.stdout, glued.stderr)
    if args[0] == "adm":
        assert spaced.returncode == 0 and "size: " in spaced.stdout
    else:
        assert spaced.returncode == 2
        assert "error[dual.nondominant]" in spaced.stderr
    assert "expected one argument" not in spaced.stderr
