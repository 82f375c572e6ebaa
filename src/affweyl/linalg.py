"""Small exact linear algebra helpers over Z.

Everything here works on tuples of Python ints, so results are exact by
construction.  Matrices are tuples of rows.  A rational vector is an
integer vector N over a positive denominator d, standing for N / d.
"""

from itertools import zip_longest
from math import gcd, lcm
from operator import add, mul, sub


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def dot(u, v):
    return sum(map(mul, u, v))


def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, col)) for col in bt]) for row in a)


def mat_transpose(m):
    return tuple(zip(*m))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _reduce(rows, extra, n):
    """Gauss-Jordan reduction of the augmented integer rows ``rows | extra``.

    Pivots are taken in the first ``n`` columns only, each at the first row
    with a nonzero entry; the extra columns are carried along.  Each row is
    kept in integers, up to a nonzero scale (its entries' gcd is divided
    out).  Returns the reduced rows (lists of ints) and the pivot columns:
    pivot row i divided by its entry in column ``pivots[i]`` is the
    reduced row over Q.
    """
    aug = [list(row) + list(ext)
           for row, ext in zip_longest(rows, extra, fillvalue=())]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow = aug[r]
        p = prow[col]
        for i, row in enumerate(aug):
            if i != r and (f := row[col]):
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row) or 1
                aug[i] = [x // g for x in row]
        pivots.append(col)
    return aug, pivots


def mat_inverse_int(m):
    """Inverse of a unimodular integer matrix, returned with int entries."""
    n = len(m)
    red, pivots = _reduce(m, identity(n), n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    if any(x % row[i] for i, row in enumerate(red) for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x // row[i] for x in row[n:]) for i, row in enumerate(red))


def integer_left_inverse(columns):
    """(N, d) with N integer such that N v / d solves A x = v, A having the
    given columns, whenever v lies in their span; a free variable is 0.

    One reduction of A | 1 gives the transform T with T A in reduced form:
    the row of N for the i-th pivot column is the i-th row of T, a column
    off the pivots gets a zero row, and d is the least common denominator.
    """
    m = len(columns)
    ambient = len(columns[0]) if columns else 0
    red, pivots = _reduce(tuple(zip(*columns)), identity(ambient), m)
    rows = {col: row for row, col in zip(red, pivots)}
    # a reduced row is primitive and T A is its left part, so no prime of
    # its pivot divides all of its T entries: the pivot is their denominator
    den = lcm(*(abs(row[j]) for j, row in rows.items()))
    num = tuple(tuple(x * den // rows[j][j] for x in rows[j][m:]) if j in rows
                else (0,) * ambient for j in range(m))
    return num, den


def scaled_coordinates(columns, inverse, v):
    """Solve A x = v, A having the given columns, as (N v, d) for
    ``inverse`` = (N, d) = ``integer_left_inverse(columns)``: N v / d are
    the coefficients of v in the columns.  None when v lies outside their
    span."""
    num, den = inverse
    scaled = mat_vec(num, v)
    combo = [0] * len(v)
    for x, col in zip(scaled, columns):
        combo = [a + x * b for a, b in zip(combo, col)]
    if any(a != den * b for a, b in zip(combo, v)):
        return None
    return scaled, den


def primitive_covector(v):
    """An integer covector divided by the gcd of its entries (sign kept)."""
    g = gcd(*v) or 1
    return tuple(x // g for x in v)
