"""Mutated preset files through ``AFFWEYL_PRESET_PATH``: a shipped
``.datum`` or ``.group`` file of rank 2 or less loses, gains or changes a
token, or has a line truncated, duplicated, deleted or swapped; ``fold``
(every declared action), ``wgroup length`` and ``report --bound 1`` on it
then exit 0 or 2, with no traceback."""

import contextlib
import io
import os
import tempfile
from unittest import mock

from hypothesis import given, settings, strategies as st

from affweyl import cli
from affweyl.presets import DATA_DIR, ENV_VAR

FUZZ = settings(max_examples=500, derandomize=True, deadline=None)


def _shipped():
    """The shipped files whose datum, or base datum, has rank <= 2."""
    files = {}
    for fname in sorted(os.listdir(DATA_DIR)):
        with open(os.path.join(DATA_DIR, fname)) as f:
            files[fname] = f.read().splitlines()

    def rank(lines):
        base = _directive(lines, "base")
        return int(_directive(files[base + ".datum"] if base else lines, "rank"))
    return {fname: lines for fname, lines in files.items() if rank(lines) <= 2}


def _directive(lines, head):
    """The rest of the first ``head`` line, or None."""
    for line in lines:
        first, _, rest = line.partition(" ")
        if first == head:
            return rest.strip()
    return None


FILES = _shipped()
TOKENS = sorted({tok for lines in FILES.values() for line in lines
                 for tok in line.split()} |
                {"0", "-1", "3", "1/2", "-1/2", "0/1", "x", "|", ";", "#"})


@st.composite
def mutated(draw, lines):
    """``lines`` after one to three token or line mutations."""
    lines = [line.split() for line in lines]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i]
        op = draw(st.sampled_from(["drop", "add", "replace", "truncate",
                                   "duplicate", "delete", "swap"]))
        if op in ("drop", "replace", "truncate") and toks:
            j = draw(st.integers(0, len(toks) - 1))
            if op == "drop":
                del toks[j]
            elif op == "replace":
                toks[j] = draw(st.sampled_from(TOKENS))
            else:
                # cut the line inside token j
                toks[j:] = [toks[j][:draw(st.integers(0, max(len(toks[j]) - 1, 0)))]]
        elif op == "add":
            toks.insert(draw(st.integers(0, len(toks))), draw(st.sampled_from(TOKENS)))
        elif op == "duplicate":
            lines.insert(i, list(toks))
        elif op == "delete":
            del lines[i]
        elif op == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
    return [" ".join(toks) for toks in lines]


def commands(fname, lines):
    """``fold`` for every action the file declares (a ``.group`` file's
    base and action), ``wgroup length`` and ``report --bound 1``."""
    name, suffix = os.path.splitext(fname)
    if suffix == ".group":
        folds = [(_directive(lines, "base") or "", _directive(lines, "action") or "")]
    else:
        folds = [(name, line[len("action "):].partition("|")[0].strip())
                 for line in lines if line.startswith("action ")]
    # ``--opt=value``, since a mutated name may begin with a minus sign
    return [["fold", f"--preset={p}", f"--action={a}"] for p, a in folds] + [
        ["wgroup", "length", f"--preset={name}", "--element", "e"],
        ["report", f"--preset={name}", "--bound", "1"]]


@FUZZ
@given(data=st.data())
def test_mutated_preset_exits_0_or_2_without_traceback(data):
    fname = data.draw(st.sampled_from(sorted(FILES)))
    lines = data.draw(mutated(FILES[fname]))
    with tempfile.TemporaryDirectory() as d, mock.patch.dict(os.environ, {ENV_VAR: d}):
        with open(os.path.join(d, fname), "w") as f:
            f.write("\n".join(lines) + "\n")
        for argv in commands(fname, lines):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            assert rc in (0, 2), (fname, lines, argv, rc, err.getvalue())
            assert "Traceback" not in err.getvalue(), (fname, lines, argv)
