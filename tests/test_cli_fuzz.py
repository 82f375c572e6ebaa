"""`adm`, `wgroup`, `fold` and `report` through ``cli.main``: no argument
string gives a traceback or an internal-invariant exit, over every preset."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from affweyl import cli
from affweyl.presets import list_presets, load_group

FUZZ = settings(max_examples=120, derandomize=True, deadline=None)

PRESETS = [name for name, _, _ in list_presets()]
NAMES = st.sampled_from(PRESETS + ["nope"])
FORMATS = st.sampled_from([None, "text", "tsv", "json"])
SMALL = st.integers(-3, 3).map(str)
# actions: the ones the catalog declares, the trivial one and an unknown one
ACTIONS = st.sampled_from(["swap", "inv", "trivial", "bogus"])


def _check(argv, fmt):
    if fmt is not None:
        argv = argv + ["--format", fmt]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def _int_list(items):
    """Comma lists with empty items (stray, leading or trailing commas),
    and blank."""
    return st.one_of(st.lists(items, max_size=4).map(",".join),
                     st.lists(st.one_of(items, st.just("")), max_size=5).map(",".join),
                     st.just(" "))


# an element is parts joined by '*': translations (',' or ';' between the
# coordinates), finite words (letters 0..5, so some out of range), empty
# brackets, stray '*' and unparsable parts
PART = st.one_of(
    st.lists(SMALL, max_size=4).map(lambda c: "t[%s]" % ",".join(c)),
    st.lists(SMALL, max_size=4).map(lambda c: "t[%s]" % ";".join(c)),
    st.lists(st.integers(0, 5).map(str), max_size=4).map(lambda c: "w[%s]" % ",".join(c)),
    st.sampled_from(["", "t[]", "w[]", "e", "1", "t[1", "w]", "x", ";", "t[a]"]))
ELEMENTS = st.lists(PART, max_size=3).map("*".join)


@FUZZ
@given(op=st.sampled_from(["length", "word", "leq", "kottwitz"]), preset=NAMES,
       element=ELEMENTS, other=st.none() | ELEMENTS, fmt=FORMATS)
def test_wgroup_arguments_never_break_the_cli(op, preset, element, other, fmt):
    argv = ["wgroup", op, "--preset", preset, "--element", element]
    if other is not None:
        argv += ["--other", other]
    _check(argv, fmt)


def _mu_counts(name):
    """The coordinate counts `adm --mu` takes: absolute, then class."""
    group = load_group(name)
    co = group.coinv
    return sorted({group.datum.rank, co.free_rank + len(co.torsion)})


MU_COUNTS = {name: _mu_counts(name) for name in PRESETS}
# facets: small letter sets (most name a facet) and fuzzed lists
SMALL_SETS = st.lists(st.integers(0, 3).map(str), max_size=2, unique=True).map(",".join)


@FUZZ
@given(preset=NAMES,
       facet=st.none() | SMALL_SETS | _int_list(st.integers(-1, 5).map(str)),
       cap=st.integers(-3, 6), fmt=FORMATS, data=st.data())
def test_adm_arguments_never_break_the_cli(preset, facet, cap, fmt, data):
    """mu has a count the preset takes, with small entries, or is fuzzed;
    the cap keeps every admissible set small."""
    right = [st.lists(st.integers(-1, 2).map(str), min_size=n, max_size=n).map(",".join)
             for n in MU_COUNTS.get(preset, ())]
    mu = data.draw(st.one_of(*right, _int_list(SMALL)))
    argv = ["adm", "--preset", preset, "--mu", mu, "--cap", str(cap)]
    if facet is not None:
        argv += ["--facet", facet]
    _check(argv, fmt)


@FUZZ
@given(preset=NAMES, action=ACTIONS, fmt=FORMATS)
def test_fold_arguments_never_break_the_cli(preset, action, fmt):
    _check(["fold", "--preset", preset, "--action", action], fmt)


# report recomputes the mu sample and every facet: the presets of relative
# rank 2, small caps and bounds keep each example cheap
RANK_TWO = ["a1xa1-sc", "a2-ad", "a2-sc", "c2-sc", "folded-a3", "folded-d3", "g2"]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(preset=st.sampled_from(RANK_TWO), cap=st.integers(-3, 3),
       bound=st.none() | st.integers(0, 3), fmt=FORMATS)
def test_report_arguments_never_break_the_cli(preset, cap, bound, fmt):
    argv = ["report", "--preset", preset, "--cap", str(cap)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    _check(argv, fmt)
