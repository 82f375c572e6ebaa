"""Preset catalog: file format, search path, validation failures."""

import os
import subprocess
import sys

import pytest

from affweyl.errors import EchelonnageError, PresetSyntaxError, UnknownPresetError
from affweyl.presets import (DATA_DIR, list_presets, load_action, load_datum,
                             load_group)
from conftest import child_env


def test_catalog_contains_shipped_presets():
    names = {row[0] for row in list_presets()}
    assert {"a1-sc", "a1-ad", "a2-sc", "c2-sc", "g2", "folded-a2",
            "folded-a3", "folded-d3", "t1", "t1-inv"} <= names


def test_search_path_env_var(tmp_path):
    custom = tmp_path / "z9.datum"
    custom.write_text(
        "name z9\nlattice custom\nrank 1\nsimples 0\n"
        "root 2 | coroot 1\nroot -2 | coroot -1\n")
    out = subprocess.run(
        [sys.executable, "-m", "affweyl", "wgroup", "length",
         "--preset", "z9", "--element", "t[1]"],
        capture_output=True, text=True,
        env=child_env(AFFWEYL_PRESET_PATH=str(tmp_path)))
    assert out.returncode == 0 and "length: 2" in out.stdout


def test_missing_action():
    with pytest.raises(UnknownPresetError):
        load_action("a1-sc", "swap")


def test_wall_table_gap(tmp_path):
    bad = tmp_path / "bad.group"
    bad.write_text("name bad\nbase a3-sc\naction swap\nwall -1 1 | 1/2\n")
    os.environ["AFFWEYL_PRESET_PATH"] = str(tmp_path)
    try:
        with pytest.raises(EchelonnageError):
            load_group("bad")
    finally:
        del os.environ["AFFWEYL_PRESET_PATH"]


def test_twisted_group_requires_table(tmp_path):
    from affweyl.iwahori import IwahoriWeylGroup
    act = load_action("a3-sc", "swap")
    with pytest.raises(EchelonnageError):
        IwahoriWeylGroup(act)


def test_bad_stride_rejected(tmp_path):
    bad = tmp_path / "badstride.group"
    bad.write_text("name badstride\nbase a1-sc\naction trivial\nwall 2 | 1/3\n")
    os.environ["AFFWEYL_PRESET_PATH"] = str(tmp_path)
    try:
        with pytest.raises(EchelonnageError):
            load_group("badstride")
    finally:
        del os.environ["AFFWEYL_PRESET_PATH"]


FOLDED_A3_NEGATIVE_STRIDE = ("name negstride\nbase a3-sc\naction swap\n"
                             "wall -1 1 | -1/2\nwall 1 0 | 1/2\n"
                             "wall 2 -1 | 1\nwall 0 1 | 1\n")


@pytest.mark.parametrize("text", [
    FOLDED_A3_NEGATIVE_STRIDE,
    "name negstride\nbase a1-sc\naction trivial\nwall 2 | -1\n",
])
def test_negative_stride_rejected(tmp_path, monkeypatch, text):
    """A negative stride flips its wall's covector: on folded-a3 that used
    to surface as an internal invariant, on a1-sc it was accepted."""
    (tmp_path / "negstride.group").write_text(text)
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    with pytest.raises(EchelonnageError, match="stride must be positive"):
        load_group("negstride")


def test_negative_stride_exits_2(tmp_path):
    (tmp_path / "negstride.group").write_text(FOLDED_A3_NEGATIVE_STRIDE)
    out = subprocess.run(
        [sys.executable, "-m", "affweyl", "wgroup", "length",
         "--preset", "negstride", "--element", "t[1,0]"],
        capture_output=True, text=True,
        env=child_env(AFFWEYL_PRESET_PATH=str(tmp_path)))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error[iwahori.table_gap]: ") and \
        "Traceback" not in out.stderr


def test_decimal_stride_is_a_syntax_error(tmp_path, monkeypatch, capsys):
    """A stride is written p or p/q in integers; 0.5 is refused, though
    it is the rational that folded-a2's 1/2 names."""
    from affweyl import cli
    with open(os.path.join(DATA_DIR, "folded-a2.group")) as f:
        text = f.read()
    assert "wall 1 | 1/2" in text
    path = tmp_path / "folded-a2.group"
    path.write_text(text.replace("wall 1 | 1/2", "wall 1 | 0.5"))
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    assert cli.main(["wgroup", "length", "--preset", "folded-a2", "--element", "t[1]"]) == 2
    assert capsys.readouterr().err.startswith(f"error[presets.syntax]: {path}: wall stride")


def test_datum_preset_roundtrip():
    for name in ("a1-sc", "g2", "d3"):
        datum = load_datum(name)
        assert datum.name == name


GOOD_DATUM = ("name z8\nrank 1\nsimples 0\nroot 2 | coroot 1\nroot -2 | coroot -1\n"
              "action swap | perm 0\n")
BRANCH_Z8 = ["branch", "--preset", "z8", "--action", "swap", "--lambda", "1"]
LENGTH_ZG = ["wgroup", "length", "--preset", "zg", "--element", "t[1]"]


@pytest.mark.parametrize("filename,text,argvs", [
    ("z8.datum", GOOD_DATUM.replace("rank 1", "rank x"), [BRANCH_Z8, ["list-presets"]]),
    ("z8.datum", GOOD_DATUM.replace("simples 0", "simples a"), [BRANCH_Z8, ["list-presets"]]),
    ("z8.datum", GOOD_DATUM.replace("root 2 |", "root 2.0 |"), [BRANCH_Z8, ["list-presets"]]),
    ("z8.datum", GOOD_DATUM.replace("coroot 1\n", "coroot one\n"),
     [BRANCH_Z8, ["list-presets"]]),
    ("z8.datum", GOOD_DATUM.replace("perm 0", "perm x"), [BRANCH_Z8]),
    ("z8.datum", GOOD_DATUM.replace("perm 0", "matrix 1/2"), [BRANCH_Z8]),
    ("z8.datum", GOOD_DATUM.replace("perm 0", ""), [BRANCH_Z8]),
    ("zg.group", "base a1-sc\naction trivial\nwall 2 | 0\n", [LENGTH_ZG, ["list-presets"]]),
    ("zg.group", "base a1-sc\naction trivial\nwall 2 | half\n", [LENGTH_ZG, ["list-presets"]]),
    ("zg.group", "base a1-sc\naction trivial\nwall 2x | 1\n", [LENGTH_ZG, ["list-presets"]]),
])
def test_malformed_preset_gives_named_error(tmp_path, monkeypatch, capsys,
                                            filename, text, argvs):
    from affweyl import cli
    (tmp_path / filename).write_text(text)
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    for argv in argvs:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "error[presets." in err and "Traceback" not in err, (argv, err)


with open(os.path.join(DATA_DIR, "a2-sc.datum")) as _f:
    A2_SC = _f.read()
SWAP_A2 = ["fold", "--preset", "a2-sc", "--action", "swap"]
A2_COMMANDS = [SWAP_A2, ["report", "--preset", "a2-sc"],
               ["wgroup", "length", "--preset", "a2-sc", "--element", "e"]]


@pytest.mark.parametrize("old,new,argvs,error", [
    # a coroot shorter than the rank once reached reflection_matrix
    ("root   2  -1 | coroot   1   0", "root   2  -1 | coroot   1", A2_COMMANDS,
     "error[root_datum.invalid]: coroot of wrong length"),
    ("action swap | perm 1 0", "action swap | matrix 0 1 0 ; 1 0 0", [SWAP_A2],
     "error[folding.invalid_action]: generator has wrong size"),
    # a third simple root, the sum of the other two, once reached the
    # alcove and exited 3
    ("simples 5 2", "simples 5 2 4", A2_COMMANDS,
     "error[root_datum.invalid]: simple roots are linearly dependent"),
])
def test_inconsistent_datum_gives_named_error(tmp_path, monkeypatch, capsys,
                                              old, new, argvs, error):
    from affweyl import cli
    assert old in A2_SC
    (tmp_path / "a2-sc.datum").write_text(A2_SC.replace(old, new))
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    for argv in argvs:
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == error + "\n", (argv, err)


@pytest.mark.parametrize("old,new,argv,message", [
    ("rank 2", "rnk 2", ["report", "--preset", "a2-sc"], "unknown directive 'rnk'"),
    ("perm 1 0", "prem 1 0", SWAP_A2,
     "action swap: unknown action declaration 'prem 1 0'"),
])
def test_syntax_fault_in_found_file_is_named_syntax(tmp_path, monkeypatch, capsys,
                                                     old, new, argv, message):
    """A fault in a preset file that was found is a syntax error naming the
    file; ``presets.unknown`` stays for names that are not found."""
    from affweyl import cli
    assert old in A2_SC
    path = tmp_path / "a2-sc.datum"
    path.write_text(A2_SC.replace(old, new))
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error[presets.syntax]: {path}: {message}\n"
    assert cli.main(["report", "--preset", "a2-sx"]) == 2
    assert capsys.readouterr().err == \
        "error[presets.unknown]: unknown datum preset 'a2-sx'\n"


def test_list_presets_skips_bad_files(tmp_path, monkeypatch, capsys):
    """A bad file costs its own row and one error line; the other presets
    are listed with the same bytes as without it."""
    from affweyl import cli
    (tmp_path / "z9.datum").write_text(GOOD_DATUM.replace("z8", "z9"))
    monkeypatch.setenv("AFFWEYL_PRESET_PATH", str(tmp_path))
    clean_rows = list_presets()
    clean = {}
    for fmt in ("text", "tsv", "json"):
        assert cli.main(["list-presets", "--format", fmt]) == 0
        clean[fmt], err = capsys.readouterr()
        assert err == ""
    (tmp_path / "z8.datum").write_text(GOOD_DATUM.replace("rank 1", "rank x"))
    (tmp_path / "zg.group").write_text("base a1-sc\naction trivial\nwall 2 | 0\n")
    errors = []
    assert list_presets(errors) == clean_rows
    assert len(errors) == 2
    with pytest.raises(PresetSyntaxError):
        list_presets()
    for fmt in ("text", "tsv", "json"):
        assert cli.main(["list-presets", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == clean[fmt]
        lines = err.splitlines()
        assert len(lines) == 2, err
        assert lines[0].startswith("error[presets.syntax]: ") and "z8.datum" in lines[0]
        assert lines[1].startswith("error[presets.syntax]: ") and "zg.group" in lines[1]


def test_list_presets_collects_no_errors_on_clean_catalog():
    errors = []
    assert list_presets(errors) == list_presets() and errors == []
