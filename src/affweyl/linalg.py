"""Small exact linear algebra helpers over Z and Q.

Everything here works on tuples of Python ints or Fractions, so results are
exact by construction.  Matrices are tuples of rows.  Only the functions
that return rationals import ``fractions``.
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


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, or None.

    ``rows`` is a sequence of covectors; free variables are set to 0.
    """
    from fractions import Fraction
    if not rows:
        return ()
    n = len(rows[0])
    red, pivots = _reduce(rows, [(b,) for b in rhs], n)
    if any(row[n] for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(red, pivots):
        x[col] = Fraction(row[n], row[col])
    return tuple(x)


def nullspace_rational(rows, n):
    """Basis (tuple of vectors) of the right nullspace of the given covectors."""
    from fractions import Fraction
    red, pivots = _reduce(rows, (), n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, col in zip(red, pivots):
            v[col] = Fraction(-row[fc], row[col])
        basis.append(tuple(v))
    return tuple(basis)


def integer_left_inverse(columns):
    """(N, d) with N integer such that N v / d is the solution
    ``solve_rational`` returns for A x = v, A having the given columns,
    whenever v lies in their span.

    One reduction of A | 1 gives the transform T with T A in reduced form:
    the row of N for the i-th pivot column is the i-th row of T, a column
    off the pivots gets a zero row (a free variable of ``solve_rational``
    is set to 0), and d is the least common denominator.
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


def primitive_covector(v):
    """Scale a rational covector to a primitive integer one, preserving sign."""
    mult = lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)

