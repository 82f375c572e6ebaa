"""CLI surface: subcommands, formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import child_env

CMD = [sys.executable, "-m", "affweyl"]


def run(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=child_env())


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
    assert run("report", "--preset", "a1-sc", "--cap", "-1").returncode == 1
    assert run("adm", "--preset", "a1-sc", "--mu", "1", "--cap", "-1").returncode == 1


@pytest.mark.parametrize("args, lines", [
    (("wgroup", "word", "--preset", "a1-sc", "--element", "t[20000]",
      "--cap", "40000"), 1),
    (("wgroup", "length", "--preset", "a1-sc", "--element", "t[2]"), 0),
])
def test_closed_stdout_prints_no_traceback(args, lines):
    """A reader that stops early (``| head -1``, or at once) leaves no
    traceback and no message; the exit status is 141.  The word of t[20000]
    is 120 kB, more than a pipe holds, so its writer meets the closed pipe
    after the first line."""
    p = subprocess.Popen(CMD + list(args), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=child_env())
    for _ in range(lines):
        p.stdout.readline()
    p.stdout.close()
    err = p.stderr.read()
    p.stderr.close()
    assert p.wait(timeout=120) == 141, err
    assert b"Traceback" not in err and err == b""


def test_help_into_a_closed_pipe_exits_141_silently():
    """``--help`` fits stdout's buffer, so with a buffered stdout the write
    fails only at the final flush, after ``main`` has returned."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        r = subprocess.run(CMD + ["--help"], stdout=write_end,
                           stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (r.returncode, r.stderr) == (141, b"")


@pytest.mark.parametrize("args, code, stderr", [
    (("list-presets",), 0, ""),
    (("adm", "--preset", "a1-sc", "--mu", "1"), 0, ""),
    (("wgroup", "length", "--preset", "a1-sc", "--element", "garbage"), 2,
     "error[cli.element_syntax]: cannot parse element part 'garbage'\n"),
])
def test_stdout_closed_at_start_keeps_the_exit_code(args, code, stderr):
    """With file descriptor 1 closed before the start (``>&-``),
    ``sys.stdout`` is None: the output goes nowhere, and the command exits
    with its own code and no traceback."""
    r = subprocess.run(CMD + list(args), stderr=subprocess.PIPE, text=True,
                       env=child_env(), preexec_fn=lambda: os.close(1),
                       timeout=120)
    assert (r.returncode, r.stderr) == (code, stderr)


def test_exception_escaping_main_takes_the_ordinary_exit():
    code = ("import affweyl.cli as cli\n"
            "def boom(argv=None):\n"
            "    raise RuntimeError('boom')\n"
            "cli.main = boom\n"
            "cli.run()\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=child_env())
    assert r.returncode == 1
    assert "Traceback" in r.stderr and "RuntimeError: boom" in r.stderr


@pytest.mark.parametrize("args", [
    # the four report commands of the benchmark pool
    ("report", "--preset", "c2-sc", "--format", "json"),
    ("report", "--preset", "folded-a3", "--format", "json"),
    ("report", "--preset", "folded-d3", "--format", "json"),
    ("report", "--preset", "g2", "--format", "json"),
    ("adm", "--preset", "a3-sc", "--mu", "2,2,2", "--format", "json"),
    # 120,040 bytes, more than a pipe holds
    ("wgroup", "word", "--preset", "a1-sc", "--element", "t[20000]",
     "--cap", "40000"),
], ids=["report-c2-sc", "report-folded-a3", "report-folded-d3", "report-g2",
         "adm-a3-sc", "wgroup-word-a1-sc"])
def test_process_stdout_equals_in_process_main(args, capsys):
    from affweyl import cli
    assert cli.main(list(args)) == 0
    in_process = capsys.readouterr().out.encode()
    r = subprocess.run(CMD + list(args), capture_output=True, env=child_env())
    assert (r.returncode, r.stderr) == (0, b"")
    assert r.stdout == in_process


@pytest.mark.parametrize("args, expected", [
    (("length", "--preset", "a1-sc", "--element", "t[2]"),
     "element\tlength\nt[2]\t4\n"),
    (("word", "--preset", "a1-sc", "--element", "t[1]"),
     "element\tletters\tomega\nt[1]\t[1, 0]\tt[0]\n"),
    (("leq", "--preset", "a1-sc", "--element", "w[1]", "--other", "t[1]"),
     "element\tleq\tother\nw[1]\tTrue\tt[1]\n"),
    (("kottwitz", "--preset", "a1-ad", "--element", "t[1]"),
     "element\tkottwitz_free\tkottwitz_torsion\nt[1]\t[]\t[1]\n"),
], ids=["length", "word", "leq", "kottwitz"])
def test_wgroup_tsv_prints_the_fields_as_one_row(args, expected):
    """A wgroup document has no rows: its tsv is the fields ``text`` lists,
    as one header and one row."""
    r = run("wgroup", *args, "--format", "tsv")
    assert (r.returncode, r.stdout) == (0, expected)
    text = run("wgroup", *args)
    header, row = expected.splitlines()
    assert text.stdout == "".join(
        f"{k}: {v}\n" for k, v in zip(header.split("\t"), row.split("\t")))


@pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
def test_adm_facet_is_the_set_of_its_letters(fmt):
    def adm(facet):
        r = run("adm", "--preset", "a2-sc", "--facet", facet, "--mu", "1,0",
                "--format", fmt)
        assert r.returncode == 0, r.stderr
        return r.stdout
    assert adm("1,1") == adm("1")
    assert adm("2,1") == adm("1,2")
    if fmt == "json":
        assert json.loads(adm("2,1,2"))["facet"] == [1, 2]


@pytest.mark.parametrize("preset, facet, mus", [
    ("folded-a3", (), ["1,0,0", "0,1,0", "0,0,1", "1,1,1"]),
    ("folded-a3", (1, 2), ["1,0,0", "0,1,0", "0,0,1", "1,1,1"]),
    ("folded-a2", (), ["1,0", "0,1", "1,1"]),
    ("folded-a2", (1,), ["1,0", "0,1", "1,1"]),
], ids=["folded-a3", "folded-a3-facet", "folded-a2", "folded-a2-facet"])
def test_adm_mu_names_one_dominant_class(preset, facet, mus):
    """Absolute cocharacters of one Weyl orbit print one Adm(mu), and its
    rows are those of ``admissible_set``."""
    from affweyl import facets as fc
    from affweyl.presets import load_group
    outputs = set()
    for mu in mus:
        r = run("adm", "--preset", preset, "--facet", ",".join(map(str, facet)),
                "--mu", mu, "--format", "json")
        assert r.returncode == 0, r.stderr
        outputs.add(r.stdout)
    assert len(outputs) == 1
    group = load_group(preset)
    for mu in mus:
        adm = fc.admissible_set(group, tuple(map(int, mu.split(","))),
                                fc.Facet(group, facet))
        rows = sorted(({"element": group.element_to_string(g), "length": g.length,
                        "maximal": g in adm.maxima} for g in adm.elements),
                      key=lambda r: (r["length"], r["element"]))
        assert json.loads(next(iter(outputs)))["rows"] == rows, mu


def test_unknown_facet_letter_is_a_named_facet_error():
    r = run("adm", "--preset", "a1-sc", "--facet", "5", "--mu", "1")
    assert r.returncode == 2
    assert r.stderr == ("error[facets.unknown_letter]: facet letter 5 names no "
                        "simple affine reflection (they are [0, 1])\n")
    assert r.stdout == ""


def test_selftest_exits_zero():
    r = run("selftest")
    assert r.returncode == 0, r.stdout + r.stderr
    assert "selftest passed" in r.stdout


def test_walk_guard_scales_with_length():
    r = run("wgroup", "word", "--preset", "a1-sc", "--element", "t[6000]",
            "--cap", "12000", "--format", "json")
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


def test_bound_above_the_cap_is_a_cap_error():
    """An explicit bound above the cap is refused before the ball is built."""
    r = run("report", "--preset", "a1-sc", "--bound", "65")
    assert r.returncode == 2
    assert r.stderr == "error[facets.cap_exceeded]: bound 65 exceeds cap 64\n"
    assert r.stdout == ""


@pytest.mark.parametrize("args,height", [
    (("char", "--preset", "a2-sc", "--mu", "99999,0"), 199998),
    (("branch", "--preset", "a2-sc", "--action", "swap",
      "--lambda", "1000000000000,0"), 2000000000000),
])
def test_huge_highest_weight_is_a_cap_error(args, height):
    """`char` and `branch` refuse a height above ``--cap`` before any
    character work; Freudenthal below such a weight would not return."""
    start = time.perf_counter()
    r = subprocess.run(CMD + list(args), capture_output=True, text=True,
                       env=child_env(), timeout=60)
    elapsed = time.perf_counter() - start
    assert r.returncode == 2
    assert r.stderr == f"error[facets.cap_exceeded]: height {height} exceeds cap 64\n"
    assert r.stdout == ""
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("argv,height", [
    (["branch", "--preset", "a3-sc", "--action", "swap", "--lambda", "4,4,4"], 40),
    (["branch", "--preset", "d3", "--action", "swap", "--lambda", "2,1,0"], 10),
    (["char", "--preset", "d3", "--action", "swap", "--mu", "2,2,1"], 12),
    (["char", "--preset", "a2-sc", "--mu", "32,0"], 64),
])
def test_height_at_the_cap_runs_and_above_it_is_refused(argv, height):
    """<weight, 2 rho^vee> of `branch`'s lambda, and of `char`'s mu on the
    fold (its free part), against ``--cap``: equal runs, one over refuses;
    the default cap of 64 admits each of them."""
    from affweyl import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.main(argv + ["--cap", str(height)]) == 0
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--cap", str(height - 1)]) == 2
    assert err.getvalue() == (
        f"error[facets.cap_exceeded]: height {height} exceeds cap {height - 1}\n")


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


@pytest.mark.parametrize("preset,message", [
    ("a2-sc", "mu needs 2 coordinates"),
    ("folded-a3", "mu needs 3 (absolute) or 2 (class) coordinates"),
])
def test_adm_coordinate_count_names_each_count_once(preset, message):
    """One count when the absolute and class counts agree, both otherwise."""
    from affweyl import cli
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["adm", "--preset", preset, "--mu", "1"]) == 2
    assert err.getvalue() == f"error[cli.coordinate_count]: {message}\n"


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


# sha256 of ``report --preset P --format F`` stdout, every shipped preset
REPORT_SHA256 = {
    ("a1-ad", "text"): "cd0813841203ac016dc42aac243bd1c3c431c0124abb99dc46b0141a1726739d",
    ("a1-ad", "tsv"): "37386987f8b32a590d8df30ec3cd9961affbf93bc2382b6fd9ef3ba09f1a28f6",
    ("a1-ad", "json"): "bb177931d173136f8c483f510686225787413632670c9bb84f9eaa74203175a0",
    ("a1-sc", "text"): "63e828e88afe7c76564ffcd82fd17b57f6a3ee9686f9e7569a9d771670e90a9b",
    ("a1-sc", "tsv"): "5ef1bdd8b5083d798f15822d2c0464e5393406936ae70165239b0be09675500f",
    ("a1-sc", "json"): "bd85b885058dc9b3d6e36e1796c0486a040b75bbcdb2b3a03027c7134dffd56e",
    ("a1xa1-sc", "text"): "22b7641461b6333f05c02091678814baf5e4aa4302009713352a512f0cbffdd0",
    ("a1xa1-sc", "tsv"): "189329e4dcf54a2b5f3a6baf5417a4301837473879af71be611e3aee1b908810",
    ("a1xa1-sc", "json"): "4912b968e2e72ba4e4a5f687643611c1cf576ba26cad4243152ed1c1e07409f1",
    ("a2-ad", "text"): "4f6751e9ed6f07a78f7d2149d180980d8b68c1a521ee6dc0e7fb4e9c359af341",
    ("a2-ad", "tsv"): "d4a70c673311dda9609a738c1bf86d24274041ecaddc0fdf11002b013873ad25",
    ("a2-ad", "json"): "292621ca28b0dba32439c188caae291c293a139e76e874e2e6bf5ed110d91e94",
    ("a2-sc", "text"): "2b61c2b45c6f227e6190091b76c0dd18154ac344b822b2d977ed5a932566e97e",
    ("a2-sc", "tsv"): "78bc00c1eae03a5245ad2cb86c43794c8f093c91412fc09a336575e106d03334",
    ("a2-sc", "json"): "7f391d85317bc4b6907248cc063f4313cb9802b4cd80d7a95d66d3ba1a64ac34",
    ("a3-sc", "text"): "a48604aa22f5a99e73c27cedd4024756dd95249079cd4e2f5befdbd3634fbefa",
    ("a3-sc", "tsv"): "5f0325690a435c407be4580023dac3af5fbe649467ed9c2fb95e3c1df2726452",
    ("a3-sc", "json"): "10967f6ddd4ae5d803a26c6c09bf75f311e18fefe299ad68457b50021ed7e16b",
    ("c2-sc", "text"): "ecd7b03b697418e8a782b91feeb215a4f55959c1fb77a1849138d30e787642da",
    ("c2-sc", "tsv"): "be86e623d3e114d8ef2e2b3344c81ec02aab11202c0e07779652fad728760e3e",
    ("c2-sc", "json"): "97aee570d2de9c634df4a1f06e10f9f2b6ece9882e90ef353a7cefa23cac0618",
    ("d3", "text"): "31b1283e34434a343a35679213626f1b51a5e7b1ed9f3efe060106bcea5e09cc",
    ("d3", "tsv"): "31f15dd5aab8ec685f4a0d86418d7a41e4c204d43f16bb719b8c2a185eea0a5c",
    ("d3", "json"): "180a61e0da68e94cf407e2076d85a0cc6c72d2bc4157f11034f9e681a737c647",
    ("folded-a2", "text"): "de9676e2e3fb9ecf7e322620a38c043ae0f676aa01abe95b5ba72a63effbb437",
    ("folded-a2", "tsv"): "5ef1bdd8b5083d798f15822d2c0464e5393406936ae70165239b0be09675500f",
    ("folded-a2", "json"): "a1e819732c09acadaaac0477153c201d83a43a77ced203375de30d3406704747",
    ("folded-a3", "text"): "333498d87647e91eea59edea0ddb1e9cb22bb158965adcaf2d694cde300adfe5",
    ("folded-a3", "tsv"): "637f068bad61bb2e3c6c99f32ff1e3fbbe578ad6ca72132de31a80c3ac041697",
    ("folded-a3", "json"): "97e66aa87af9c3a5a26d3b5a604fa52d35251ec221982ef410bd75a1cda88e21",
    ("folded-d3", "text"): "439a958c75b9cf047ba51558bc713b541a51bcc2882480b362486917179d0294",
    ("folded-d3", "tsv"): "46ca7166be197c51aa4a05b251e565012c1070c47cf1961ad1a1a15f4629e3ff",
    ("folded-d3", "json"): "6f01dfcdee12ed1808f53f4af6bb54182e734c3fba19f80f71e77d2d32fec59f",
    ("g2", "text"): "a095316580404c4ad6c7fe82463d6493f9c369b8a1f2fbb8769492c8ef386f2a",
    ("g2", "tsv"): "c6eaf464b7eeec369e019fc25793de06e38b3dc57cf096e8065581fdf13d4a21",
    ("g2", "json"): "aa71e8c2c4fe42958241e34a749593610bc1ebe002c94e8c338b0f3a92e44c04",
    ("t1", "text"): "16a6512af5bedcc526c16588af488827f196b4a6770c47b3156b83305c3845ec",
    ("t1", "tsv"): "9dd27b4efa06db5932e75f8fddb191e8404ce8aadf2b6545ee0259d8f7ddccde",
    ("t1", "json"): "1ffabafac85d4f7d0f95b9f8c1e43f48002253764d09340b85da669d9201c72c",
    ("t1-inv", "text"): "b2fcd4c269fd4d9c22a80301ec18797799ec31e7542f3d38735a684486f0687f",
    ("t1-inv", "tsv"): "c7f4d1c485de484395907b02d4a397a528c941d329baba73c9ce640c311dff72",
    ("t1-inv", "json"): "828832bec0c5a77c571b6399c2d6cf0b52430e4a477bd9812bdb943730666f51",
}


@pytest.mark.parametrize("preset,fmt", sorted(REPORT_SHA256))
def test_report_bytes_pinned(preset, fmt, capsys):
    from affweyl import cli
    assert cli.main(["report", "--preset", preset, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[preset, fmt]
