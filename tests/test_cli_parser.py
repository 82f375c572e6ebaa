"""The one-command parser: ``cli.main`` builds only the invoked command's
subparser, and every recorded benchmark command, help request and usage
error parses as it does with every subparser declared.

The handlers are swapped for one that records the namespace, so a command
parses but computes nothing.  The module needs only the standard library;
``python tests/test_cli_parser.py`` (with ``src`` on ``PYTHONPATH``) runs
the comparison under any interpreter and prints the lists that differ."""

import argparse
import contextlib
import io
import json
import os
from unittest import mock

from affweyl import cli

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "pool.json")

USAGE_ERRORS = [
    [], ["frobnicate"], ["brnch", "--preset", "d3"], ["BRANCH"], ["--format", "json"],
    ["-x"], ["branch"], ["branch", "--preset"],
    ["branch", "--preset", "d3", "--action", "swap", "--lambda", "1,x"],
    ["branch", "--preset", "d3", "--action", "swap", "--lambda", "1,0,0", "--extra"],
    ["char", "--preset", "d3", "--mu", "-1,0"],
    ["wgroup", "leq", "--preset", "a1-sc", "--element", "e"],
    ["wgroup", "frob", "--preset", "a1-sc", "--element", "e"],
    ["adm", "--preset", "a1-sc", "--mu", "1", "--cap", "many"],
    ["report", "--preset", "a1-sc", "--bound", "-1"],
    ["fold", "--preset", "a3-sc", "--action", "swap", "stray"],
    ["list-presets", "--format", "yaml"], ["selftest", "x"],
    ["selftest", "--format", "json"],
]


def argv_lists():
    """Every pool command, the help requests, and the usage errors."""
    with open(POOL) as f:
        pool = json.load(f)
    lists = [list(e["argv"]) for entries in pool.values() for e in entries]
    lists += [["--help"], ["-h"]] + [[name, "--help"] for name in cli.COMMANDS]
    return lists + USAGE_ERRORS


def _recording(record):
    return {name: (record, text, arguments)
            for name, (_, text, arguments) in cli.COMMANDS.items()}


def outcomes(argv):
    """(exit code, namespace, stdout, stderr) of ``cli.main(argv)`` with the
    one-command parser and with every subparser declared."""
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    one = cli.build_parser
    results = []
    for build in (one, lambda command=None: one()):
        seen.clear()
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(cli.COMMANDS, _recording(record)), \
                mock.patch.object(cli, "build_parser", build), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        results.append((code, list(seen), out.getvalue(), err.getvalue()))
    return results


def mismatches():
    return [argv for argv in argv_lists() if len(set(map(repr, outcomes(argv)))) != 1]


def test_one_command_parser_matches_the_full_parser():
    lists = argv_lists()
    assert len(lists) == 624 + 2 + len(cli.COMMANDS) + len(USAGE_ERRORS)
    assert mismatches() == []
    # the help and the usage errors are compared, not skipped
    code, _, out, _ = outcomes(["--help"])[0]
    assert code == 0 and all(name in out for name in cli.COMMANDS)
    code, _, _, err = outcomes(["frobnicate"])[0]
    assert code == 1 and all(name in err for name in cli.COMMANDS)


def test_branch_and_char_declare_one_subparser():
    """A ``branch`` or ``char`` command declares the top-level and its own
    ``-h`` and its five options: seven arguments, where declaring every
    command takes 38."""
    with open(POOL) as f:
        pool = json.load(f)["branch"]
    calls = []
    add_argument = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    counts = set()
    with mock.patch.dict(cli.COMMANDS, _recording(lambda args: 0)), \
            mock.patch.object(argparse._ActionsContainer, "add_argument", counting):
        for entry in pool:
            calls.clear()
            assert cli.main(list(entry["argv"])) == 0, entry["argv"]
            counts.add(len(calls))
        calls.clear()
        cli.build_parser()
        every = len(calls)
    assert len(pool) == 305
    assert max(counts) <= 7, counts
    assert every == 38


if __name__ == "__main__":
    import sys
    bad = mismatches()
    print(f"{len(argv_lists())} argv lists, {len(bad)} differ")
    for argv in bad:
        print(argv)
    sys.exit(1 if bad else 0)
