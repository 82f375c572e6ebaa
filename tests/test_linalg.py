"""Exact linear algebra against sympy as an independent oracle, the simple-
root left inverse against the per-root solves it replaces, and the solve
and parse counts of a CLI command."""

import contextlib
import io
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from affweyl import cli, presets
from affweyl.folding import fold, trivial_action
from affweyl.linalg import (integer_left_inverse, mat_inverse_int, mat_mul, mat_vec,
                            scaled_coordinates)
from affweyl.presets import list_presets, load_action, load_datum
from oracles import nullspace_rational, solve_rational

SAMPLES = settings(max_examples=200, derandomize=True, deadline=None)

ENTRY = st.integers(-3, 3)


@st.composite
def matrices(draw, min_rows=1):
    """Integer matrices of 1-4 columns, with a dependent row appended half
    the time; small entries make zero rows and columns common."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[ENTRY] * n), min_size=min_rows, max_size=4))
    if rows and draw(st.booleans()):
        c = draw(st.tuples(*[ENTRY] * len(rows)))
        rows.append(tuple(sum(ci * r[j] for ci, r in zip(c, rows)) for j in range(n)))
    return rows, n


def _q(x):
    return Fraction(int(x.p), int(x.q))


def rref_solution(rows, rhs, n):
    """The solution of rows x = rhs read off sympy's rref of [A | b]: pivot
    values, free variables 0, None when the rhs column is a pivot."""
    reduced, pivots = Matrix(rows).row_join(Matrix(rhs)).rref()
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = _q(reduced[i, n])
    return tuple(x)


def _in_span_or_random(draw, columns, n):
    if columns and draw(st.booleans()):
        c = draw(st.tuples(*[ENTRY] * len(columns)))
        return tuple(sum(ci * col[i] for ci, col in zip(c, columns)) for i in range(n))
    return draw(st.tuples(*[ENTRY] * n))


@SAMPLES
@given(data=st.data())
def test_solve_rational_matches_sympy_rref(data):
    rows, n = data.draw(matrices())
    columns = tuple(zip(*rows))
    for _ in range(3):
        rhs = _in_span_or_random(data.draw, columns, len(rows))
        assert solve_rational(rows, rhs) == rref_solution(rows, rhs, n), (rows, rhs)


@SAMPLES
@given(data=st.data())
def test_nullspace_rational_matches_sympy(data):
    rows, n = data.draw(matrices())
    expected = tuple(tuple(_q(x) for x in v) for v in Matrix(rows).nullspace())
    assert nullspace_rational(rows, n) == expected, rows


@st.composite
def square_matrices(draw):
    """Square integer matrices: random ones (mostly singular or not
    unimodular) and products of elementary matrices (unimodular)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return tuple(draw(st.tuples(*[ENTRY] * n)) for _ in range(n))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            c = draw(st.integers(-2, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(r) for r in m)


@SAMPLES
@given(m=square_matrices())
def test_mat_inverse_int_matches_sympy(m):
    det = Matrix(m).det()
    if det not in (1, -1):
        with pytest.raises(ValueError):
            mat_inverse_int(m)
        return
    expected = tuple(tuple(int(x) for x in row) for row in Matrix(m).inv().tolist())
    assert mat_inverse_int(m) == expected
    assert mat_mul(m, expected) == tuple(tuple(int(i == j) for j in range(len(m)))
                                         for i in range(len(m)))


@SAMPLES
@given(data=st.data())
def test_integer_left_inverse_matches_sympy(data):
    """N v / d is the rref solution of A x = v for v in the span of A's
    columns; A N v differs from d v outside it."""
    rows, m = data.draw(matrices())
    columns = tuple(zip(*rows))
    n = len(rows)
    num, den = integer_left_inverse(columns)
    assert den > 0 and all(type(x) is int for row in num for x in row)
    for _ in range(3):
        v = _in_span_or_random(data.draw, columns, n)
        expected = rref_solution(rows, v, m)
        scaled = mat_vec(num, v)
        sol = scaled_coordinates(columns, (num, den), v)
        if expected is None:
            assert mat_vec(rows, scaled) != tuple(den * x for x in v), (rows, v)
            assert sol is None, (rows, v)
        else:
            assert tuple(Fraction(x, den) for x in scaled) == expected, (rows, v)
            assert sol == (scaled, den), (rows, v)


# -- the simple-root left inverse of a datum -------------------------------------


def _datum_actions():
    out = []
    for name, kind, _ in list_presets():
        if kind == "split":
            _, actions = presets._parse_datum_file(presets._find_file(name, ".datum"))
            out.append((name, None))
            out.extend((name, a) for a in sorted(actions))
    return out


def per_root_positive_indices(datum):
    """Oracle: positivity from one ``solve_rational`` per root, as the datum
    computed it before it kept a left inverse of its simple roots."""
    srows = [list(r) for r in zip(*datum.simple_roots)]
    pos = []
    for i, r in enumerate(datum.roots):
        sol = solve_rational(srows, r)
        assert sol is not None
        if all(x >= 0 for x in sol):
            pos.append(i)
        else:
            assert all(x <= 0 for x in sol)
    return tuple(pos)


@pytest.mark.parametrize("name,action", _datum_actions())
def test_positive_indices_match_per_root_solves(name, action):
    datum = load_datum(name)
    fd = fold(load_action(name, action) if action else trivial_action(datum))
    for d in (datum, fd.datum):
        assert d.positive_indices == per_root_positive_indices(d)
        num, den = d.simple_root_inverse
        srows = [list(r) for r in zip(*d.simple_roots)]
        for r in d.roots:
            scaled, sol_den = d._root_coordinates(r)
            assert sol_den == den
            assert tuple(Fraction(x, den) for x in scaled) == solve_rational(srows, r)


# -- one parse and no per-root solve per command ---------------------------------


@pytest.mark.parametrize("argv", [
    ["branch", "--preset", "a3-sc", "--action", "swap", "--lambda", "2,1,2"],
    ["char", "--preset", "a3-sc", "--action", "swap", "--mu", "1,1"],
])
def test_command_parses_once_and_solves_nothing(monkeypatch, argv):
    calls = {"parse": 0, "solve": 0}
    parse = presets._parse_datum_file
    solve = solve_rational

    def counted_parse(path):
        calls["parse"] += 1
        return parse(path)

    def counted_solve(rows, rhs):
        calls["solve"] += 1
        return solve(rows, rhs)

    monkeypatch.setattr(presets, "_parse_datum_file", counted_parse)
    # the rational solve lives in the test oracles only: a module of the
    # package that binds one again is counted, and fails the test
    def binding():
        return [mod for mod in list(sys.modules.values())
                if mod is not None and mod.__name__.startswith("affweyl")
                and hasattr(mod, "solve_rational")]

    for mod in binding():
        monkeypatch.setattr(mod, "solve_rational", counted_solve)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert binding() == []
    assert calls == {"parse": 1, "solve": 0}
