"""Reference routes that only the tests use: enumerations that check the
library's fast paths from their definitions.

Tests import this module as they import ``conftest``.
"""

from fractions import Fraction
from itertools import zip_longest
from math import lcm

from affweyl import highest_weight as hw
from affweyl.errors import InternalInvariantError, PeelingError
from affweyl.linalg import dot, identity, mat_vec
from affweyl.root_data import closure
from affweyl.smith import smith_normal_form


# -- Iwahori-Weyl groups: words and the subword order --------------------------


def all_reduced_words(group, g):
    """Every reduced word of g in the simple affine reflections (l(g) = 0
    gives the empty word only)."""
    if g.length == 0:
        return [()]
    out = []
    for s in group.simple_affine:
        shorter = s.element * g
        if shorter.length < g.length:
            out.extend((s.index,) + rest
                       for rest in all_reduced_words(group, shorter))
    return out


def subword_downset(group, g):
    """All products of subwords of all reduced words of the affine part."""
    om = g.omega
    aff = g.affine_part()
    reachable = set()
    for word in all_reduced_words(group, aff):
        states = {group.identity()}
        for i in word:
            s = group.simple_affine_element(i)
            states |= {x * s for x in states}
        reachable |= states
    return {x * om for x in reachable}


# -- facets and double cosets ----------------------------------------------------


def restricted_lines(facet):
    """One positively-oriented primitive covector per reflection hyperplane
    direction of R_J.

    For reduced restricted systems this is R_J^+ up to scaling; in the
    nonreduced case proportional roots are counted once, matching the
    affine root directions through the facet.
    """
    g = facet.group
    diff = facet._alcove_side_vector()
    out = []
    for lid, prim in enumerate(g.line_primitives):
        if g.families[lid].s_lin not in facet.w0j:
            continue
        val = dot(prim, diff)
        if val == 0:
            raise InternalInvariantError("facet line with degenerate side")
        out.append(prim if val < 0 else tuple(-x for x in prim))
    return out


def double_coset_count(group, cls, facet):
    """|W_{0,J} \\ W_0 / W_{0,mu}| for the stabilizer of the class."""
    stab = {w for w in group.w0.elements
            if group.w0.act_class(w, cls) == cls}
    seen = set()
    count = 0
    for w in group.w0.elements:
        if w in seen:
            continue
        count += 1
        seen.update(closure([w], lambda x: (
            a * x * b for a in facet.w0j for b in stab)))
    return count


def max_double_coset_rep(group, g, facet):
    """The maximal-length element of {(w' g w'')^J}, by full enumeration.

    Uniqueness of the maximum is asserted, and so is agreement with the
    double-coset ascent ``group.dc_rep``.
    """
    seen = set()
    for w1 in facet.parahoric:
        for w2 in facet.parahoric:
            seen.add(group.min_coset_rep(w1 * g * w2, facet.letters))
    top = max(r.length for r in seen)
    tops = [r for r in seen if r.length == top]
    if len(tops) != 1:
        raise InternalInvariantError(
            "maximal double-coset representative is not unique")
    if group.dc_rep(g, facet.letters) != tops[0]:
        raise InternalInvariantError(
            "double-coset ascent disagrees with enumeration")
    return tops[0]


# -- finite Weyl groups and Smith forms ---------------------------------------------


def stabilizer_generators(weyl, mu):
    """Generators of Stab_W(mu): a standard parabolic conjugated back."""
    dom, w = weyl.dominant_representative(mu)
    winv = w.inverse()
    return tuple(winv * weyl.simple_reflections[k] * w
                 for k, a in enumerate(weyl.datum.simple_roots)
                 if dot(dom, a) == 0)


def invariant_factors(a):
    """Nonzero diagonal entries of the Smith normal form of ``a``."""
    s, _, _, _, _ = smith_normal_form(a)
    return tuple(s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))
                 if s[i][i] != 0)


# -- highest weights, exact row reduction and branching ---------------------------


def fraction_reduce(rows, extra, n):
    """``linalg._reduce`` over Q: the same pivot rule, every pivot row
    scaled to a leading 1."""
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


def fraction_left_inverse(columns):
    """``linalg.integer_left_inverse`` read off ``fraction_reduce``: the
    transform rows of the pivot columns over one least common denominator."""
    m = len(columns)
    ambient = len(columns[0]) if columns else 0
    red, pivots = fraction_reduce(tuple(zip(*columns)), identity(ambient), m)
    rows = {col: row[m:] for row, col in zip(red, pivots)}
    den = lcm(*(x.denominator for row in rows.values() for x in row))
    return tuple(tuple(int(x * den) for x in rows[j]) if j in rows
                 else (0,) * ambient for j in range(m)), den


def solve_rational(rows, rhs):
    """One particular solution of rows * x = rhs over Q, read off
    ``fraction_reduce`` (free variables 0), or None."""
    if not rows:
        return ()
    n = len(rows[0])
    red, pivots = fraction_reduce(rows, [(b,) for b in rhs], n)
    if any(row[n] for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in zip(red, pivots):
        x[col] = row[n]
    return tuple(x)


def nullspace_rational(rows, n):
    """Basis of the right nullspace of the given covectors, one vector per
    free column of ``fraction_reduce``."""
    red, pivots = fraction_reduce(rows, (), n)
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


def average_lift(action, cls):
    """The invariant rational representative of a cocharacter coinvariant
    class: the average of a lift over the action."""
    mats = action.dual.group_elements
    rep = cls.lattice.lift(cls)
    acc = [Fraction(0)] * len(rep)
    for g in mats:
        for i, x in enumerate(mat_vec(g, rep)):
            acc[i] += x
    return tuple(x / len(mats) for x in acc)


def full_character_with_torsion(folded, mu_cls):
    """``character_with_torsion`` by the per-weight twist: the connected
    character's every weight, each lifted by its own coefficient solve."""
    conn = hw.irreducible_character(folded.datum, mu_cls.free)
    return hw.extend_by_component_twist(conn, mu_cls, folded)


def full_weight_peel(datum, lam, folded):
    """``restrict_to_fixed_group`` over every projected weight: each round
    takes the top of all remaining weights and subtracts the constituent's
    full character with torsion."""
    co = folded.char_coinv
    remaining = hw.WeightMultiset()
    for w, m in hw.irreducible_character(datum, lam).entries.items():
        remaining.add(co.project(w), m)
    fd = folded.datum
    height = fd.two_rho_check

    def sort_key(cls):
        return (-dot(height, cls.free), cls.free, cls.torsion)

    out = []
    while remaining.entries:
        top = min(remaining.entries, key=sort_key)
        mult = remaining[top]
        if mult < 0 or not fd.is_dominant_char(top.free):
            raise PeelingError(f"cannot peel at {top}")
        for w, m in full_character_with_torsion(folded, top).entries.items():
            remaining.add(w, -m * mult)
        out.append((top, mult))
    out.sort(key=lambda t: sort_key(t[0]))
    return out


def dominant_peel(datum, lam, folded):
    """``restrict_to_fixed_group`` before Weyl's character formula: project
    the absolute character, keep the classes with dominant free part, and
    peel dominant characters with torsion greedily from the top.

    A W0-invariant character is fixed by its classes with dominant free
    part, and a weight of maximal height is dominant (a simple reflection
    raises any other), so the tops are those of a peel of every weight.  A
    round checks the classes it lowers for a negative multiplicity; the
    rest are checked when they come to the top.  Each round removes its top
    for good, so there are at most as many rounds as kept classes.
    """
    co = folded.char_coinv
    fd = folded.datum
    remaining = hw.WeightMultiset()
    for w, m in hw.irreducible_character(datum, lam).entries.items():
        cls = co.project(w)
        if fd.is_dominant_char(cls.free):
            remaining.add(cls, m)
    height = fd.two_rho_check

    def sort_key(cls):
        return (-dot(height, cls.free), cls.free, cls.torsion)

    out = []
    max_rounds = len(remaining)
    while remaining.entries:
        top = min(remaining.entries, key=sort_key)
        mult = remaining[top]
        if mult < 0:
            raise PeelingError("negative multiplicity while peeling")
        for w, m in hw.dominant_character_with_torsion(folded, top).entries.items():
            remaining.add(w, -m * mult)
            if remaining[w] < 0:
                raise PeelingError("negative multiplicity while peeling")
        out.append((top, mult))
        if len(out) > max_rounds:
            raise PeelingError("peeling did not terminate")
    out.sort(key=lambda t: sort_key(t[0]))
    return out
