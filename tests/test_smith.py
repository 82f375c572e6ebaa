"""Smith normal form checked against sympy as an independent oracle."""

from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_factors

from affweyl.linalg import mat_mul, mat_inverse_int
from affweyl.smith import smith_normal_form, verify_decomposition
from oracles import invariant_factors


def check_matrix(a):
    s, u, v, _, _ = smith_normal_form(a)
    assert verify_decomposition(a, s, u, v)
    # unimodularity
    for m in (u, v):
        mat_inverse_int(m)
    # divisibility chain and oracle agreement
    mine = list(invariant_factors(a))
    for x, y in zip(mine, mine[1:]):
        assert y % x == 0
    oracle = [int(x) for x in sympy_factors(Matrix(a)) if int(x) != 0]
    assert mine == oracle


def test_fixed_matrices():
    check_matrix(((12, 6, 4), (3, 9, 6), (2, 16, 14)))
    check_matrix(((2, 0), (0, 0)))
    check_matrix(((0, 0), (0, 0)))
    check_matrix(((1,),))
    check_matrix(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))


entry = st.integers(min_value=-9, max_value=9)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.data())
def test_random_matrices(m, n, data):
    a = tuple(tuple(data.draw(entry) for _ in range(n)) for _ in range(m))
    check_matrix(a)


def test_reconstruction_bit_exact():
    a = ((2, -1, 0), (0, 3, -3), (4, 4, 4))
    s, u, v, _, _ = smith_normal_form(a)
    uinv = mat_inverse_int(u)
    vinv = mat_inverse_int(v)
    assert mat_mul(mat_mul(uinv, s), vinv) == a


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.data())
def test_carried_inverses_match_mat_inverse_int(m, n, data):
    """Non-square matrices, zero rows and columns, and torsion (a common
    factor makes every nonzero invariant factor a multiple of it)."""
    factor = data.draw(st.sampled_from((1, 2, 3, 6)))
    zero_row = data.draw(st.none() | st.integers(min_value=0, max_value=m - 1))
    zero_col = data.draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    a = tuple(tuple(0 if i == zero_row or j == zero_col else factor * data.draw(entry)
                    for j in range(n)) for i in range(m))
    s, u, v, uinv, vinv = smith_normal_form(a)
    assert uinv == mat_inverse_int(u)
    assert vinv == mat_inverse_int(v)
    assert verify_decomposition(a, s, u, v, uinv, vinv)


def test_verify_decomposition_rejects_a_wrong_inverse():
    a = ((2, -1, 0), (0, 3, -3), (4, 4, 4))
    s, u, v, uinv, vinv = smith_normal_form(a)
    assert verify_decomposition(a, s, u, v, uinv, vinv)
    wrong = tuple(tuple(x + (i == 0 and j == 0) for j, x in enumerate(row))
                  for i, row in enumerate(uinv))
    assert not verify_decomposition(a, s, u, v, wrong, vinv)
    assert not verify_decomposition(a, s, u, v, uinv, u)
