"""Smith normal form over Z with transformation matrices.

``smith_normal_form(A)`` returns ``(S, U, V, U^-1, V^-1)`` with ``U A V = S``,
where U and V are unimodular and S is diagonal with nonnegative invariant
factors d_1 | d_2 | ... .  The inverses are carried through the same
elementary operations that build U and V: a row operation U <- E U is
matched by the column operation U^-1 <- U^-1 E^-1, and a column operation
V <- V E by the row operation V^-1 <- E^-1 V^-1.  All arithmetic is on
Python ints, so intermediate pivot growth is harmless.
"""

from .linalg import identity, mat_inverse_int, mat_mul


def smith_normal_form(a):
    a = [list(row) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    uinv = [list(row) for row in identity(m)]
    vinv = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for row in uinv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        vinv[src] = [x - c * y for x, y in zip(vinv[src], vinv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(m, n):
        # find a pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility d_t | entries of the remaining block
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        t += 1

    return tuple(tuple(tuple(r) for r in mat) for mat in (a, u, v, uinv, vinv))


def verify_decomposition(a, s, u, v, uinv=None, vinv=None):
    """Check U A V = S, U U^-1 = 1, V V^-1 = 1 and A = U^-1 S V^-1 exactly.

    Inverses not given are computed with ``mat_inverse_int``.
    """
    if mat_mul(mat_mul(u, a), v) != s:
        return False
    if uinv is None:
        uinv = mat_inverse_int(u)
    if vinv is None:
        vinv = mat_inverse_int(v)
    return (mat_mul(u, uinv) == identity(len(u))
            and mat_mul(v, vinv) == identity(len(v))
            and mat_mul(mat_mul(uinv, s), vinv) == tuple(tuple(r) for r in a))
