"""Integer Freudenthal, tabled simple-root coefficients and per-fold
character reuse, each against the rational computation it replaces."""

import contextlib
import io
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import cli
from affweyl import highest_weight as hw
from affweyl.folding import fold, trivial_action
from affweyl.linalg import dot, integer_left_inverse, mat_vec
from affweyl.presets import list_presets, load_action, load_datum
from oracles import solve_rational
from test_branch_closure import enumerated_dominant_weights_below

SAMPLES = settings(max_examples=25, derandomize=True, deadline=None)

# (preset, box): dominant weights with every coordinate in [-box, box], up
# to the sizes of the benchmark's branch ladders; c2-sc and g2 carry
# non-simply-laced forms
FREUDENTHAL_PRESETS = (("a3-sc", 4), ("d3", 3), ("c2-sc", 4), ("g2", 3))

# every pinned action a shipped datum preset declares, plus the trivial
# action on every datum preset
ACTIONS = (("a1xa1-sc", "swap"), ("a2-ad", "swap"), ("a2-sc", "swap"),
           ("a3-sc", "swap"), ("d3", "swap"), ("t1", "inv"))
FOLDS = ACTIONS + tuple((name, None) for name, kind, _ in list_presets()
                        if kind == "split")


def _form(gram, x, y):
    return sum(Fraction(xi) * gij * Fraction(yj)
               for xi, grow in zip(x, gram)
               for gij, yj in zip(grow, [Fraction(v) for v in y]))


def fraction_freudenthal(datum, lam):
    """Oracle: Freudenthal's recursion over Q with rho = two_rho / 2, as
    ``highest_weight.freudenthal`` computed it before its integer form."""
    lam = tuple(lam)
    if datum.rank == 0 or not datum.roots:
        return {lam: 1}
    gram = hw._invariant_form(datum)
    rho = tuple(Fraction(x, 2) for x in datum.two_rho)
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, rho))
    norm_top = _form(gram, lam_rho, lam_rho)
    candidates = enumerated_dominant_weights_below(datum, lam)
    candidates.sort(key=lambda v: -dot(datum.two_rho_check, v))
    mult = {lam: 1}
    for mu in candidates:
        if mu == lam:
            continue
        mu_rho = tuple(Fraction(a) + b for a, b in zip(mu, rho))
        denom = norm_top - _form(gram, mu_rho, mu_rho)
        if denom <= 0:
            mult[mu] = 0
            continue
        acc = 0
        for alpha in datum.positive_roots:
            k = 1
            while True:
                shifted = tuple(a + k * b for a, b in zip(mu, alpha))
                rep, _ = hw.dominant_of_char(datum, shifted)
                m = mult.get(rep, 0)
                if m == 0:
                    sh_rho = tuple(Fraction(a) + b for a, b in zip(shifted, rho))
                    if _form(gram, sh_rho, sh_rho) > norm_top:
                        break
                else:
                    acc += m * _form(gram, shifted, alpha)
                k += 1
        val = 2 * acc / denom
        assert val.denominator == 1
        if int(val):
            mult[mu] = int(val)
    return {w: m for w, m in mult.items() if m}


def _dominant_box(datum, box):
    return [v for v in product(range(-box, box + 1), repeat=datum.rank)
            if datum.is_dominant_char(v)]


# -- Freudenthal in integers ----------------------------------------------------


@pytest.mark.parametrize("name,box", FREUDENTHAL_PRESETS)
@SAMPLES
@given(data=st.data())
def test_integer_freudenthal_matches_fraction_oracle(name, box, data):
    datum = load_datum(name)
    lam = data.draw(st.sampled_from(_dominant_box(datum, box)))
    fast = hw.freudenthal(datum, lam)
    assert fast == fraction_freudenthal(datum, lam)
    assert all(type(m) is int for m in fast.values())


@pytest.mark.parametrize("name,box", FREUDENTHAL_PRESETS)
def test_integer_freudenthal_at_the_largest_weight(name, box):
    datum = load_datum(name)
    lam = max(_dominant_box(datum, box), key=lambda v: (sum(map(abs, v)), v))
    fast = hw.freudenthal(datum, lam)
    assert list(fast.items()) == list(fraction_freudenthal(datum, lam).items())
    assert hw.irreducible_character(datum, lam).dimension() == \
        hw.weyl_dimension(datum, lam)


@pytest.mark.parametrize("name,lam", [("a3-sc", (2, 1, 1)), ("d3", (2, 1, -1)),
                                      ("c2-sc", (2, 1)), ("g2", (1, 1))])
def test_integer_freudenthal_spot_checks_against_kostant(name, lam):
    datum = load_datum(name)
    for mu, m in hw.freudenthal(datum, lam).items():
        assert m == hw.kostant_multiplicity(datum, lam, mu), (lam, mu)


# -- one coefficient solve per fold ----------------------------------------------


def _solve(columns, v):
    """solve_rational for the matrix with these columns (no columns: only
    the zero vector is in their span)."""
    if not columns:
        return None if any(v) else ()
    return solve_rational([list(r) for r in zip(*columns)], v)


@SAMPLES
@given(data=st.data())
def test_left_inverse_agrees_with_solve_rational(data):
    """Independent, dependent and zero columns; vectors in and out of the
    column span."""
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    columns = tuple(data.draw(st.lists(st.tuples(*[entry] * n), max_size=4)))
    if columns and data.draw(st.booleans()):
        # append a combination of the others: a dependent column
        c = data.draw(st.tuples(*[entry] * len(columns)))
        columns += (tuple(sum(ci * col[i] for ci, col in zip(c, columns))
                          for i in range(n)),)
    num, den = integer_left_inverse(columns)
    rows = tuple(tuple(col[i] for col in columns) for i in range(n))
    for _ in range(3):
        if columns and data.draw(st.booleans()):
            c = data.draw(st.tuples(*[entry] * len(columns)))
            v = tuple(sum(ci * col[i] for ci, col in zip(c, columns))
                      for i in range(n))
        else:
            v = data.draw(st.tuples(*[entry] * n))
        scaled = mat_vec(num, v)
        in_span = mat_vec(rows, scaled) == tuple(den * x for x in v)
        expected = _solve(columns, v)
        if not in_span:
            assert expected is None, (columns, v)
        else:
            assert tuple(Fraction(x, den) for x in scaled) == expected, (columns, v)


@pytest.mark.parametrize("name,action", FOLDS)
@SAMPLES
@given(data=st.data())
def test_tabled_coefficients_match_solve_rational(name, action, data):
    fd = fold(load_action(name, action) if action else
              trivial_action(load_datum(name)))
    order = hw.DominanceOrder(fd)
    simples = fd.datum.simple_roots
    n = fd.datum.rank
    entry = st.integers(-5, 5)
    if simples and data.draw(st.booleans()):
        c = data.draw(st.tuples(*[entry] * len(simples)))
        v = tuple(sum(ci * r[i] for ci, r in zip(c, simples)) for i in range(n))
    else:
        v = data.draw(st.tuples(*[entry] * n))
    got = order._coefficients(v)
    want = _solve(simples, v)
    if want is None or any(Fraction(x).denominator != 1 for x in want):
        assert got is None, (name, action, v)
    else:
        assert got == want, (name, action, v)
        assert all(type(x) is int for x in got)


def test_coefficients_outside_the_root_span_are_none():
    fd = fold(trivial_action(load_datum("t1")))
    assert fd.datum.rank == 1 and not fd.datum.roots
    for v in ((1,), (-3,)):
        assert hw.DominanceOrder(fd)._coefficients(v) is None
        assert _solve(fd.datum.simple_roots, v) is None
    assert hw.DominanceOrder(fd)._coefficients((0,)) == ()


# -- one character per constituent ----------------------------------------------


def test_fold_keeps_its_characters():
    fd = fold(load_action("d3", "swap"))
    mu = fd.char_coinv.make((1, 1), (1,))
    first = hw.character_with_torsion(fd, mu)
    first.add(mu, 5)  # a caller's edits stay in its own copy
    again = hw.character_with_torsion(fd, mu)
    assert again[mu] == 1
    assert again == hw.extend_by_component_twist(
        hw.irreducible_character(fd.datum, mu.free), mu, fd)
    assert list(fd.characters) == [mu]


def test_branch_builds_each_character_once(monkeypatch):
    calls = []
    original = hw.freudenthal

    def counting(datum, lam):
        calls.append(tuple(lam))
        return original(datum, lam)

    monkeypatch.setattr(hw, "freudenthal", counting)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["branch", "--preset", "a3-sc", "--action", "swap",
                       "--lambda", "4,4,4", "--format", "json"])
    assert rc == 0
    rows = json.loads(out.getvalue())["rows"]
    assert len(rows) == 25
    # the absolute character only: Weyl's character formula builds no
    # constituent's character
    assert len(calls) == 1
    assert calls[0] == (4, 4, 4)
