"""`branch` and `char` against the routes they replaced (tests/oracles.py):
Weyl's character formula against the peel over every projected weight and
the peel over classes with dominant free part, the orbit walk that carries
the torsion against the per-weight twist, the integer row reduction against
the one over Q, and a CLI that runs without loading `fractions`."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import highest_weight as hw
from affweyl.cli import build_parser
from affweyl.folding import CoinvariantLattice, FoldedDatum, fold
from affweyl.errors import InternalInvariantError
from affweyl.linalg import _reduce, dot, integer_left_inverse
from affweyl.presets import load_action
from affweyl.root_data import BasedRootDatum
from conftest import child_env
from oracles import (dominant_character_with_torsion, dominant_peel,
                     fraction_left_inverse, fraction_reduce,
                     full_character_with_torsion, full_weight_peel)
from test_branch_closure import FOLDS, _dominant

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "pool.json")
POOL_SIZES = {"report": 4, "adm": 315, "branch": 305}

SAMPLES = settings(max_examples=25, derandomize=True, deadline=None)


def _check_constituents(fd, dec):
    """Each constituent's character, dominant part and dimension against
    the per-weight twist."""
    for cls, _ in dec:
        full = full_character_with_torsion(fd, cls)
        assert hw.character_with_torsion(fd, cls) == full, cls
        assert dominant_character_with_torsion(fd, cls).entries == {
            w: m for w, m in full.entries.items()
            if fd.datum.is_dominant_char(w.free)}, cls
        assert hw.weyl_dimension(fd.datum, cls.free) == full.dimension(), cls


@pytest.mark.parametrize("name,action", FOLDS)
@SAMPLES
@given(data=st.data())
def test_dominant_peel_matches_the_full_weight_peel(name, action, data):
    act = load_action(name, action)
    fd = fold(act)
    lam = _dominant(act.datum, data)
    dec = hw.restrict_to_fixed_group(act.datum, act, lam, fd)
    assert dec == full_weight_peel(act.datum, lam, fd), (name, action, lam)
    _check_constituents(fd, dec)
    assert dec == dominant_peel(act.datum, lam, fd), (name, action, lam)


def test_pool_commands_match_the_full_weight_routes():
    with open(POOL) as f:
        pool = json.load(f)["branch"]
    parser = build_parser()
    for entry in pool:
        args = parser.parse_args(entry["argv"])
        act = load_action(args.preset, args.action)
        fd = fold(act)
        if args.command == "branch":
            dec = hw.restrict_to_fixed_group(act.datum, act, args.lam, fd)
            assert dec == full_weight_peel(act.datum, args.lam, fd), entry["argv"]
        else:
            co = fd.char_coinv
            dec = [(co.make(args.mu[:co.free_rank], args.mu[co.free_rank:]), 1)]
        _check_constituents(fd, dec)


@pytest.mark.parametrize("name,lam", [("a3-sc", (8, 8, 8)), ("a2-sc", (30, 30)),
                                      ("d3", (6, 4, 2))])
def test_large_weights_match_the_dominant_peel(name, lam):
    """Heights 80, 120 and 46 (the benchmark pool stops at 40); d3 carries
    Z/2 torsion and a2-sc's restricted system is nonreduced."""
    act = load_action(name, "swap")
    fd = fold(act)
    dec = hw.restrict_to_fixed_group(act.datum, act, lam, fd)
    assert dec == dominant_peel(act.datum, lam, fd)


def test_every_fold_has_rho_one_on_its_simple_coroots():
    """The dot action s_i.v = s_i(v + rho') - rho' steps by
    <beta_i^vee, v> + 1 only when <beta_i^vee, 2 rho'> = 2."""
    assert len(FOLDS) == 16
    for name, action in FOLDS:
        fd = fold(load_action(name, action)).datum
        assert [dot(cv, fd.two_rho) for cv in fd.simple_coroots] == \
            [2] * len(fd.simple_coroots), (name, action)


def test_a_fold_without_rho_one_is_an_internal_error():
    """A nonreduced BC1 as the fold's datum (roots 1 and 2 positive, so
    <1^vee, 2 rho'> = 2 * 3 = 6) is refused before any weight is walked."""
    co = CoinvariantLattice(1, [])
    bc1 = BasedRootDatum(1, ((1,), (2,), (-1,), (-2,)), ((2,), (1,), (-2,), (-1,)), (0,))
    fd = FoldedDatum(None, co, bc1, (), ((),), (), True)
    act = load_action("t1", None)
    with pytest.raises(InternalInvariantError, match="2 rho"):
        hw.restrict_to_fixed_group(act.datum, act, (1,), fd)


def test_orbit_walk_carries_order_three_torsion():
    """The shipped folds have torsion Z/2 at most, where adding and taking
    off a torsion offset agree; a fold-shaped A1 whose simple root has
    torsion 1 in Z/3 tells them apart."""
    co = CoinvariantLattice(2, [(0, 3)])
    assert co.torsion == (3,) and co.free_rank == 1
    a1 = BasedRootDatum(1, ((2,), (-2,)), ((1,), (-1,)), (0,))
    fd = FoldedDatum(None, co, a1, (), ((1,),), (3,), False)
    for top in range(5):
        for t in range(3):
            cls = co.make((top,), (t,))
            full = full_character_with_torsion(fd, cls)
            assert hw.character_with_torsion(fd, cls) == full, cls
            assert hw.weyl_dimension(fd.datum, cls.free) == top + 1
    # a step down by alpha takes its torsion 1 off the class: 0, then 2, then 1
    assert hw.character_with_torsion(fd, co.make((2,), (0,))).entries == {
        co.make((2,), (0,)): 1, co.make((0,), (2,)): 1, co.make((-2,), (1,)): 1}


@st.composite
def augmented(draw):
    """Integer rows with 1-4 reduction columns and 0-3 extra columns; a
    combination of the rows is appended half the time (rank-deficient),
    and small entries make zero rows and columns common."""
    n = draw(st.integers(1, 4))
    width = n + draw(st.integers(0, 3))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    if draw(st.booleans()):
        c = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        rows.append([sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(width)])
    return [r[:n] for r in rows], [r[n:] for r in rows], n


@settings(max_examples=300, derandomize=True, deadline=None)
@given(augmented())
def test_integer_reduction_matches_the_fraction_reduction(case):
    rows, extra, n = case
    red, pivots = _reduce(rows, extra, n)
    expected, expected_pivots = fraction_reduce(rows, extra, n)
    assert pivots == expected_pivots
    assert all(type(x) is int for row in red for x in row)
    for i, (got, want) in enumerate(zip(red, expected)):
        if i < len(pivots):
            p = got[pivots[i]]
            assert [Fraction(x, p) for x in got] == want, case
        else:
            # a row off the pivots is fixed only up to scale
            assert all(x * b == y * a for x, a in zip(got, want)
                       for y, b in zip(got, want)), case
            assert [x == 0 for x in got] == [x == 0 for x in want], case
    # the rows as the columns of a left inverse: the same (N, d)
    assert integer_left_inverse(rows) == fraction_left_inverse(rows), case


CHILD = """
import contextlib, hashlib, io, json, sys
import affweyl.cli
def loaded():
    return [m for m in ("fractions", "decimal", "numbers") if m in sys.modules]
out = [loaded()]
codes = set()
wrong = []
with open(sys.argv[1]) as f:
    pool = json.load(f)
runs = (pool["branch"], pool["adm"], pool["report"],
        [{"argv": ["report", "--preset", "d3", "--format", "json"]}])
for entries in runs:
    for e in entries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.add(affweyl.cli.main(list(e["argv"])))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if "sha256" in e and digest != e["sha256"]:
            wrong.append(e["argv"])
    out.append(loaded())
sizes = {w: len(pool[w]) for w in ("branch", "adm", "report")}
print(json.dumps([sorted(codes), sizes, wrong] + out))
"""


def test_cli_and_branch_pool_run_without_fractions():
    """A fresh interpreter (no site hooks) imports the CLI, then runs every
    branch/char pool command, every adm pool command (a3-sc, d3), every
    report pool command (c2-sc, folded-a3, folded-d3, g2) and
    ``report --preset d3`` without loading fractions, decimal or numbers:
    rationals are integer vectors over a denominator, and a folded group's
    wall strides are read as integer covectors.  Each pool command prints
    the bytes its digest pins."""
    r = subprocess.run([sys.executable, "-S", "-c", CHILD, POOL],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    # exit codes, the pool sizes, the commands whose digest differs, then
    # the modules loaded after the import, the branch, adm and report pools
    # and the d3 report
    sizes = {w: POOL_SIZES[w] for w in ("branch", "adm", "report")}
    assert json.loads(r.stdout) == [[0], sizes, [], [], [], [], [], []]
