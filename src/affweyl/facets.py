"""Standard facets, speciality, admissible sets and the finite checks
behind the speciality criteria.

A standard facet is a subset J of the simple affine reflections whose
parahoric subgroup W_J is finite.  Speciality is decided by the subgroup
criterion (W_{0,J} = W_0) and cross-checked against the parallel-wall
definition; a disagreement aborts, since it can only mean a broken preset.

Admissible sets are computed from their definition: downward Bruhat closure
of the translations by Lambda_mu (the W0-orbit of mu's dominant class) for
the alcove, then the max-min double-coset representatives relative to J.
The closure steps by one-letter deletions of a reduced word, so every item
lies below a translation, and the translations, all of one length, are the
alcove maxima.  ``dc_rep`` is monotone for the Bruhat order, so the maxima
relative to a facet are the Bruhat maxima of the at most |W0| images of
the translations, tested all-pairs; the closed-form description
(translations by the J-dominant orbit representatives) stays available as
an independent check, and the tests count the maxima by double cosets
(``tests/oracles.py``).
``speciality_report`` builds each alcove closure, the affine ball and the
length-zero representatives once and shares them between the facets.
Every per-element fact lives in ``iwahori``: an element caches its
deletions and neighbours, and the group its double-coset representatives
per J, so the closures of nested mu and the parity pass reuse them.
"""

from functools import cached_property
from itertools import combinations, product as iproduct, takewhile

from .errors import (CapExceededError, FacetError, InfiniteGroupError,
                     InternalInvariantError)
from .linalg import (dot, integer_left_inverse, mat_transpose, primitive_covector,
                     scaled_coordinates)
from .root_data import closure, dominant_walk


class Facet:
    """A standard facet: J a subset of S_aff with W_J finite."""

    def __init__(self, group, letters):
        self.group = group
        self.letters = tuple(sorted(set(letters)))
        known = {s.index for s in group.simple_affine}
        for j in self.letters:
            if j not in known:
                raise FacetError(f"facet letter {j} names no simple affine "
                                 f"reflection (they are {sorted(known)})")
        self._enumerate()

    def _enumerate(self):
        g = self.group
        cap = len(g.w0) + 1
        elements = closure([g.identity()], lambda w: (
            g.simple_affine_element(j) * w for j in self.letters), cap)
        if len(elements) > cap:
            raise InfiniteGroupError(f"W_J for J={self.letters} is infinite")
        self.parahoric = frozenset(elements)
        finite_parts = {w.w for w in elements}
        if len(finite_parts) != len(elements):
            raise InternalInvariantError(
                "projection to the finite Weyl group is not injective on W_J")
        self.w0j = frozenset(finite_parts)

    @property
    def order(self):
        return len(self.parahoric)

    @cached_property
    def restricted_root_indices(self):
        """Indices into group.rel_roots of the subsystem R_J."""
        g = self.group
        out = []
        for i, (cov, _) in enumerate(g.rel_roots):
            line = g.line_ids.get(primitive_covector(cov))
            if line is None:
                raise InternalInvariantError("relative root without a line")
            if g.families[line].s_lin in self.w0j:
                out.append(i)
        return tuple(out)

    @cached_property
    def walls(self):
        """The simple affine reflections in J, in letter order."""
        return [s for s in self.group.simple_affine if s.index in self.letters]

    @cached_property
    def hull_point(self):
        """A point v / d on the affine hull of the facet, as (v, d)."""
        if not self.walls:
            return (0,) * self.group.coinv.free_rank, 1
        columns = mat_transpose([s.family.covector for s in self.walls])
        sol = scaled_coordinates(columns, integer_left_inverse(columns),
                                 [s.level for s in self.walls])
        if sol is None:
            raise InternalInvariantError("facet equations are inconsistent")
        return sol

    def restricted_roots(self):
        """(R_J, R_J^+) as lists of integer covectors.

        Positivity is oriented at the facet: a root of R_J is positive when
        the base alcove lies on its negative side along the wall through the
        facet.  For facets whose walls pass through the origin this is the
        ambient positivity; for the other standard facets it is the twist
        that makes the minimal-representative length formula hold verbatim.
        """
        g = self.group
        diff = self._alcove_side_vector()
        all_ = [g.rel_roots[i][0] for i in self.restricted_root_indices]
        pos = [cov for cov in all_ if dot(cov, diff) < 0]
        if len(pos) * 2 != len(all_):
            raise InternalInvariantError("facet positivity did not split R_J")
        return all_, pos

    def _alcove_side_vector(self):
        """A positive integer multiple of p0 - hull_point."""
        g = self.group
        v, d = self.hull_point
        return tuple(a * d - b * g.p0_den for a, b in zip(g.p0_num, v))

    def is_special(self):
        """W_{0,J} = W_0, cross-checked against the parallel-wall test."""
        by_subgroup = len(self.w0j) == len(self.group.w0)
        by_walls = self._special_by_parallel_walls()
        if by_subgroup != by_walls:
            raise InternalInvariantError(
                f"speciality criteria disagree on J={self.letters}: "
                f"subgroup={by_subgroup} walls={by_walls}")
        return by_subgroup

    def _special_by_parallel_walls(self):
        """Every wall direction admits a parallel wall containing the facet:
        its covector c lies in the span of the facet's wall covectors, and
        c takes an integer value on the facet's hull."""
        rows = [s.family.covector for s in self.walls]
        inverse = integer_left_inverse(rows)
        v, d = self.hull_point
        return all(scaled_coordinates(rows, inverse, fam.covector) is not None
                   and dot(fam.covector, v) % d == 0 for fam in self.group.families)

    def facet_dominant_rep(self, cls):
        """The unique W_{0,J}-orbit member pairing >= 0 with all of R_J^+."""
        g = self.group
        _, pos = self.restricted_roots()
        orbit = closure([cls], lambda c: (g.w0.act_class(w, c) for w in self.w0j))
        hits = [c for c in orbit if all(dot(cov, c.free) >= 0 for cov in pos)]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"facet-dominant representative is not unique: {hits}")
        return hits[0]

    def __repr__(self):
        return "Facet(%s)" % ",".join(str(j) for j in self.letters)


def enumerate_facets(group):
    """All standard facets (subsets J of S_aff, W_J finite), by size, then J."""
    indices = [s.index for s in group.simple_affine]
    out = []
    for r in range(len(indices) + 1):
        for combo in combinations(indices, r):
            try:
                out.append(Facet(group, combo))
            except InfiniteGroupError:
                continue
    return out


def _dominant(group, mu):
    """The dominant class naming mu's admissible sets: the projection of an
    absolute cocharacter walked to W's dominant chamber, or the dominant
    member of a class's W0-orbit."""
    if hasattr(mu, "free"):
        return group.dominant_class(mu)
    (dom, _), _ = dominant_walk((tuple(mu), ()), group.datum.dual.simple_steps)
    return group.coinv.project(dom)


def lambda_mu(group, mu):
    """Lambda_mu, the translation classes indexing the admissible set of mu
    (an absolute cocharacter or a class): the W0-orbit of mu's dominant
    class, so it depends only on mu's absolute (or W0-) orbit."""
    return group.w0_orbit(_dominant(group, mu))


class AdmissibleSet:
    """Elements and Bruhat maxima of an admissible set; sets compare by
    (elements, maxima) and are unhashable."""

    __hash__ = None

    def __init__(self, elements, maxima):
        self.elements = elements
        self.maxima = maxima

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.maxima) == (other.elements, other.maxima)

    @property
    def size(self):
        return len(self.elements)


def admissible_set(group, mu, facet=None, length_cap=64):
    """The mu-admissible set relative to a facet (alcove when facet is None).

    mu may be an absolute cocharacter (tuple) or a coinvariant class.  The
    alcove case is the downward Bruhat closure of the translations by
    Lambda_mu; for a general facet the elements are the max-min
    double-coset representatives.  ``length_cap`` bounds the length of the
    translations (the enumeration blows up combinatorially beyond it).
    """
    return _relative(group, facet, _alcove(group, _dominant(group, mu), length_cap))


def _alcove(group, cls, length_cap):
    """(closure, maxima) of the alcove Adm(mu), cls mu's dominant class.

    The closure list starts with the translations by Lambda_mu and then
    holds their one-letter deletions, breadth first.  Every other
    item lies strictly below a translation (subword property), and the
    translations all have one length, so the maxima are the translations.
    """
    tops = [group.translation(c) for c in group.w0_orbit(cls)]
    for t in tops:
        if t.length > length_cap:
            raise CapExceededError(
                f"translation length {t.length} exceeds cap {length_cap}")
    adm = closure(tops, lambda g: g.deletions())
    _check_one_component(group, adm)
    return adm, list(dict.fromkeys(tops))


def _relative(group, facet, alcove):
    """The AdmissibleSet relative to the facet, from the alcove closure.

    The maxima relative to the facet are the Bruhat maxima of the images of
    the alcove maxima (the translations): every element of the projected
    set is dc_rep(g) for some g below a translation, and ``dc_rep`` is
    monotone for the Bruhat order.
    """
    adm, maxima = alcove
    if facet is not None and facet.letters:
        rep_of = dict(group.dc_reps(adm, facet.letters))
        adm = set(rep_of.values())
        _check_one_component(group, adm)
        maxima = bruhat_maxima(group, {rep_of[t] for t in maxima})
    return AdmissibleSet(frozenset(adm), frozenset(maxima))


def _check_one_component(group, elements):
    # the Kottwitz class of g depends on g.cls alone: test one g per class
    classes = {g.cls: g for g in elements}
    kclasses = {(k.free, k.torsion) for k in map(group.kottwitz, classes.values())}
    if len(kclasses) > 1:
        raise InternalInvariantError(
            "admissible set spans several connected components")


def bruhat_maxima(group, elements):
    """Elements of the set not strictly below another element of the set.

    The elements are visited in the total order (-length, key()), so the
    Bruhat tests made depend only on the set's contents.
    """
    els = sorted(elements, key=lambda g: (-g.length, g.key()))
    maxima = []
    for g in els:
        longer = takewhile(lambda h: h.length > g.length, els)
        if not any(group.bruhat_leq(g, h) for h in longer):
            maxima.append(g)
    return maxima


def maximal_admissible(group, mu, facet, length_cap=64):
    """(maxima, count) of the admissible set relative to the facet."""
    adm = admissible_set(group, mu, facet, length_cap=length_cap)
    return adm.maxima, len(adm.maxima)


def predicted_maxima(group, mu, facet):
    """Closed-form description of the maxima: translations by the
    facet-dominant representatives of Lambda_mu."""
    reps = {facet.facet_dominant_rep(c) for c in lambda_mu(group, mu)}
    return {group.translation(c) for c in reps}


def parity_check(group, facet, bound):
    """Within each connected component, all strata of bounded length must
    have one parity; returns (ok, witness_pair_or_None).

    Components are indexed by the torsion part of pi1(G)_I; free central
    directions translate the picture without changing lengths.
    """
    return _parity(group, facet, _components(group, bound))


def _components(group, bound):
    """Per torsion class of pi1(G)_I, in key order: the affine ball of radius
    ``bound`` times the class's length-zero representative, by (length, key).
    Each is a Bruhat lower ideal, as the ball is one.  The identity's comes
    first; a torsion twin's, the first times a central t of length zero, is
    left out, as t keeps lengths and ``dc_rep`` and so the parity check."""
    ball = sorted(group.affine_ball(bound), key=lambda g: (g.length, g.key()))
    omegas = group.omega_torsion_representatives()
    return [ball if om.is_identity() else [w * om for w in ball]
            for _, om in sorted(omegas.items())
            if om.is_identity() or not _torsion_twin(group, om)]


def _torsion_twin(group, t):
    """Whether t is a torsion translation commuting with each simple affine
    reflection; such a t lies in the abelian Omega = pi1(G)_I, so is central."""
    return t.w.is_identity() and not any(t.cls.free) and all(
        s.element * t == t * s.element for s in group.simple_affine)


def _parity(group, facet, components):
    for members in components:
        parities = {}
        # dc_reps keeps the (length, key) order of the members
        for u, rep in group.dc_reps(members, facet.letters):
            if rep != u:
                continue
            p = u.length % 2
            if (1 - p) in parities:
                return False, (parities[1 - p], u)
            parities.setdefault(p, u)
    return True, None


def default_mu_sample(group, pairing_bound=10):
    """Dominant classes with <mu, 2 rho> bounded, plus zero and a regular one."""
    co = group.coinv
    box = range(-pairing_bound, pairing_bound + 1)
    out = []
    regular = None
    for cls in co.classes(iproduct(*[box] * co.free_rank)):
        if not group.is_dominant_class(cls):
            continue
        val = group.pairing_two_rho(cls)
        is_reg = all(dot(fam.covector, cls.free) > 0 for fam in group.families)
        if is_reg and (regular is None or
                       val < group.pairing_two_rho(regular)):
            regular = cls
        if val <= pairing_bound:
            out.append(cls)
    if regular is not None and regular not in out:
        out.append(regular)
    out.sort(key=lambda c: (group.pairing_two_rho(c), c))
    return out


def speciality_report(group, mu_sample=None, bound=None, length_cap=64):
    """Per-facet table of the three finite speciality criteria.

    Columns: is_special, parity of strata up to the bound, uniqueness of the
    maximal admissible element over the mu sample.  The three columns are
    expected to agree; rows where they do not are flagged (a finite check
    can in principle miss a witness, so disagreement is reported rather
    than raised).

    Sample entries (classes or cocharacters) are compared by their dominant
    classes.  Two with one free part differ by a torsion class tau.  If
    t^tau is a torsion twin, Adm(mu + tau) = Adm(mu) t^tau relative to
    every facet, so the later entry takes the earlier one's counts.
    """
    if bound is not None and bound > length_cap:
        raise CapExceededError(f"bound {bound} exceeds cap {length_cap}")
    if mu_sample is None:
        mu_sample = default_mu_sample(group)
    classes = [_dominant(group, mu) for mu in mu_sample]
    if bound is None:
        bound = 2 + max((group.translation(c).length for c in classes), default=0)
    facets = enumerate_facets(group)
    counts = {facet.letters: [] for facet in facets}
    first = {}
    for i, cls in enumerate(classes):
        k = first.setdefault(cls.free, i)
        if k != i and _torsion_twin(group, group.translation(cls - classes[k])):
            for n in counts.values():
                n.append(n[k])
            continue
        alcove = _alcove(group, cls, length_cap)
        for facet in facets:
            adm = _relative(group, facet, alcove)
            counts[facet.letters].append(len(adm.maxima))
    components = _components(group, bound)
    rows = []
    for facet in facets:
        special = facet.is_special()
        parity_ok, witness = _parity(group, facet, components)
        counted = counts[facet.letters]
        nonunique = [cls for cls, n in zip(mu_sample, counted) if n != 1]
        rows.append({
            "facet": facet.letters, "special": special, "parity": parity_ok,
            "parity_witness": witness, "unique_max": not nonunique,
            "nonunique_mu": nonunique[0] if nonunique else None,
            "component_counts": tuple(counted), "bound": bound,
            "agree": special == parity_ok == (not nonunique),
        })
    return rows
