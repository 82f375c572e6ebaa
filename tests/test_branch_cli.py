"""The CLI through ``cli.main``: no `branch` or `char` argument string
gives a traceback or an internal-invariant exit.  The recorded benchmark
commands replay in the ``-S`` child of
``test_branch_dominant.test_cli_and_branch_pool_run_without_fractions``."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from affweyl import cli
from affweyl.folding import fold
from affweyl.presets import list_presets, load_action
from test_branch_closure import FOLDS


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# every (preset, action) the catalog accepts, "trivial" naming the trivial
# action as None does
VALID = list(FOLDS) + [(name, "trivial") for name, action in FOLDS if action is None]
# and ones it refuses: folded presets, an undeclared action, an unknown name
CASES = VALID + [(name, "swap") for name, kind, _ in list_presets()
                 if kind != "split"] + [("a1-sc", "swap"), ("d3", "bogus"),
                                        ("nope", None)]


def _counts(name, action):
    """Coordinates `branch --lambda` and `char --mu` need."""
    act = load_action(name, action)
    co = fold(act).char_coinv
    return {"branch": act.datum.rank, "char": co.free_rank + len(co.torsion)}


COUNTS = {case: _counts(*case) for case in VALID}
INTS = st.integers(-3, 3).map(str)


def _coords(count):
    """Lists of the right count (nonnegative ones are often dominant), of
    any count, with empty items (stray, leading or trailing commas), and
    blank."""
    right = [st.lists(st.integers(0, 3).map(str), min_size=count,
                      max_size=count).map(",".join)] if count else []
    return st.one_of(*right, st.lists(INTS, max_size=4).map(",".join),
                     st.lists(st.one_of(INTS, st.just("")), max_size=5).map(",".join),
                     st.just(" "))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(command=st.sampled_from(["branch", "char"]), case=st.sampled_from(CASES),
       fmt=st.sampled_from([None, "text", "tsv", "json"]), data=st.data())
def test_branch_and_char_arguments_never_break_the_cli(command, case, fmt, data):
    preset, action = case
    count = COUNTS.get(case, {}).get(command)
    argv = [command, "--preset", preset]
    if action is not None:
        argv += ["--action", action]
    argv += ["--lambda" if command == "branch" else "--mu", data.draw(_coords(count))]
    if fmt is not None:
        argv += ["--format", fmt]
    rc, _, err = _run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err, argv
