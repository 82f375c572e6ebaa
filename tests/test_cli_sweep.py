"""Every command on every preset with each numeric argument at +-10^12:
each exits 0, 1 or 2 with no traceback, and none hangs.

One numeric argument moves at a time; the others keep small values.  A
coordinate list is tried with its first entry at the magnitude and with
every entry at it.  One child interpreter per preset runs that preset's
commands through ``cli.main`` and prints a line before and after each, so
a child stopped by the timeout names the command it was in.  The timeout
is the hang guard, many times a child's run time, and not a bound on it.

``python tests/test_cli_sweep.py PRESET`` (with ``src`` on ``PYTHONPATH``)
is that child."""

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

import pytest

from affweyl.presets import list_presets
from conftest import child_env

BIG = 10 ** 12
TIMEOUT = 60
PRESETS = [name for name, _, _ in list_presets()]
ACTIONS = ["trivial", "swap", "inv"]


def _lists(n, x):
    """Comma lists of n integers: x then zeros, and x throughout."""
    return list(dict.fromkeys([",".join([str(x)] + ["0"] * (n - 1)),
                               ",".join([str(x)] * n)])) if n else [""]


def _one(n):
    return ",".join(["1"] + ["0"] * (n - 1))


def commands(preset):
    """The argv lists of the sweep on one preset."""
    from affweyl.errors import AffweylError
    from affweyl.folding import fold
    from affweyl.presets import load_action, load_group
    group = load_group(preset)
    rank, co = group.datum.rank, group.coinv
    n_cls = co.free_rank + len(co.torsion)
    out = []
    for x in (BIG, -BIG):
        elements = ["t[%s]" % c for c in _lists(n_cls, x)] + ["w[%d]" % x]
        base = "t[%s]" % _one(n_cls)
        for op in ("length", "word", "kottwitz"):
            out += [["wgroup", op, "--preset", preset, "--element", e] for e in elements]
        for e in elements:
            out += [["wgroup", "leq", "--preset", preset, "--element", e, "--other", base],
                    ["wgroup", "leq", "--preset", preset, "--element", base, "--other", e]]
        for op in ("length", "word", "kottwitz", "leq"):
            out.append(["wgroup", op, "--preset", preset, "--element", base,
                        "--other", base, "--cap", str(x)])
        for n in dict.fromkeys([rank, n_cls]):
            out += [["adm", "--preset", preset, "--mu", m] for m in _lists(n, x)]
        out += [["adm", "--preset", preset, "--facet", str(x), "--mu", _one(n_cls)],
                ["adm", "--preset", preset, "--mu", _one(n_cls), "--cap", str(x)],
                ["report", "--preset", preset, "--bound", str(x)],
                ["report", "--preset", preset, "--cap", str(x)]]
        for action in ACTIONS:
            try:
                fd = fold(load_action(preset, action))
                n_char = fd.char_coinv.free_rank + len(fd.char_coinv.torsion)
            except AffweylError:  # a group preset or an undeclared action: exit 2
                n_char = rank
            given = ["--preset", preset, "--action", action]
            out += [["branch", *given, "--lambda", lam] for lam in _lists(rank, x)]
            out += [["char", *given, "--mu", mu] for mu in _lists(n_char, x)]
            out += [["branch", *given, "--lambda", _one(rank), "--cap", str(x)],
                    ["char", *given, "--mu", _one(n_char), "--cap", str(x)]]
    return out


def sweep(preset):
    """Run the preset's commands in this process: print each argv, then its
    exit code and whether it raised past ``cli.main``."""
    from affweyl import cli
    for argv in commands(preset):
        print(json.dumps({"start": argv}), flush=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
        print(json.dumps({"argv": argv, "rc": rc, "stderr": err.getvalue()}), flush=True)


@pytest.mark.parametrize("preset", PRESETS)
def test_numeric_arguments_at_ten_to_the_twelve(preset):
    try:
        run = subprocess.run([sys.executable, os.path.abspath(__file__), preset],
                             capture_output=True, text=True, timeout=TIMEOUT,
                             env=child_env())
    except subprocess.TimeoutExpired as e:
        out = e.stdout or b""
        lines = (out.decode() if isinstance(out, bytes) else out).splitlines()
        pytest.fail(f"no return within {TIMEOUT} s: {lines[-1] if lines else preset}")
    assert run.returncode == 0, run.stderr
    docs = [json.loads(line) for line in run.stdout.splitlines()]
    done = [d for d in docs if "rc" in d]
    assert len(done) == len(docs) // 2 > 0
    bad = [(d["argv"], d["rc"], d["stderr"]) for d in done
           if d["rc"] not in (0, 1, 2) or "Traceback" in d["stderr"]]
    assert bad == []


if __name__ == "__main__":
    sweep(sys.argv[1])
