"""Small exact linear algebra helpers over Z and Q.

Everything here works on tuples of Python ints or Fractions, so results are
exact by construction.  Matrices are tuples of rows.
"""

from fractions import Fraction
from math import gcd
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
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_transpose(m):
    return tuple(zip(*m))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_inverse(m):
    """Exact inverse of a square rational matrix (tuples of rows)."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_inverse_int(m):
    """Inverse of a unimodular integer matrix, returned with int entries."""
    inv = mat_inverse(m)
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            irow.append(int(x))
        out.append(tuple(irow))
    return tuple(out)


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, or None.

    ``rows`` is a sequence of covectors; free variables are set to 0.
    """
    rows = [[Fraction(x) for x in r] for r in rows]
    rhs = [Fraction(b) for b in rhs]
    if not rows:
        return ()
    n = len(rows[0])
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        rhs[r] = rhs[r] / p
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rhs[i] != 0:
            return None
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = rhs[i]
    return tuple(x)


def nullspace_rational(rows, n):
    """Basis (tuple of vectors) of the right nullspace of the given covectors."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -rows[i][fc]
        basis.append(tuple(v))
    return tuple(basis)


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

