"""Small exact linear algebra helpers over Z and Q.

Everything here works on tuples of Python ints or Fractions, so results are
exact by construction.  Matrices are tuples of rows.
"""

from fractions import Fraction
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
    """Gauss-Jordan reduction over Q of the augmented rows ``rows | extra``.

    Pivots are taken in the first ``n`` columns only, each at the first row
    with a nonzero entry; the extra columns are carried along.  Returns the
    reduced rows (lists of Fractions) and the pivot columns, pivot row i
    having its 1 in column ``pivots[i]``.
    """
    aug = [[Fraction(x) for x in row] + [Fraction(x) for x in ext]
           for row, ext in zip_longest(rows, extra, fillvalue=())]
    pivots = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        p = aug[r][col]
        aug[r] = [x / p for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
    return aug, pivots


def mat_inverse_int(m):
    """Inverse of a unimodular integer matrix, returned with int entries."""
    n = len(m)
    red, pivots = _reduce(m, identity(n), n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    if any(x.denominator != 1 for row in red for x in row[n:]):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row[n:]) for row in red)


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, or None.

    ``rows`` is a sequence of covectors; free variables are set to 0.
    """
    if not rows:
        return ()
    n = len(rows[0])
    red, pivots = _reduce(rows, [(b,) for b in rhs], n)
    if any(row[n] != 0 for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(red, pivots):
        x[col] = row[n]
    return tuple(x)


def nullspace_rational(rows, n):
    """Basis (tuple of vectors) of the right nullspace of the given covectors."""
    red, pivots = _reduce(rows, (), n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, col in zip(red, pivots):
            v[col] = -row[fc]
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
    rows = {col: row[m:] for row, col in zip(red, pivots)}
    den = lcm(*(x.denominator for row in rows.values() for x in row))
    num = tuple(tuple(int(x * den) for x in rows[j]) if j in rows
                else (0,) * ambient for j in range(m))
    return num, den


def primitive_covector(v):
    """Scale a rational covector to a primitive integer one, preserving sign."""
    dens = [Fraction(x).denominator for x in v]
    mult = 1
    for d in dens:
        mult = mult * d // gcd(mult, d)
    ints = [int(Fraction(x) * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(ints)
    return tuple(x // g for x in ints)

