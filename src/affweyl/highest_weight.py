"""Highest-weight combinatorics for fixed-point groups of pinned actions.

Characters are computed on the datum handed in.  For dual-group
applications that is ``datum.dual`` (or the fold of ``action.dual``), whose
characters are the original cocharacters; the Weyl group acting on a
datum's characters is ``datum.dual.weyl``.  The pipeline is:

* Freudenthal's recursion for irreducible characters of a connected group,
  over the dominant weights below the highest (a closure of dominant steps
  down by positive roots), spread over orbits by downward simple
  reflections; in integers: with the Weyl-invariant integer Gram matrix
  G = sum of cv cv^T over the coroots, every norm is taken on doubled
  weights, q(2mu + 2rho) = (2mu + 2rho)^T G (2mu + 2rho), so that rho =
  two_rho / 2 never leaves Z; the multiplicity of mu is then
  8 acc / (q(2lam + 2rho) - q(2mu + 2rho)), checked to be exact.
  ``kostant_multiplicity`` (Kostant's alternating sum) and
  ``weyl_dimension`` (Weyl's dimension formula) are independent oracles
  for it, and the latter gives each constituent's dimension;
* the dominance order on the character-side coinvariants, with the
  projected simple roots as cone generators; coefficients in the simple
  roots come from the folded datum's integer left inverse of its simple
  roots, the one its positivity was read from;
* component-group twists: the dominant weights of a connected-group
  irreducible are lifted to the full coinvariant lattice, the torsion
  offsets dictated by the projected simple roots, and the orbit walk
  carries the offsets to the other weights;
* restriction along fold: project an absolute irreducible's weights, keep
  the classes with dominant free part and greedily peel dominant
  characters from the top of the dominance order.

A fold's dominant characters with torsion are built once and kept on the
``FoldedDatum`` (``characters``), so every caller holding the same fold
reuses them.
"""

from math import prod

from .errors import DominanceError, PeelingError
from .folding import fold
from .linalg import dot, mat_vec, vec_add, vec_sub
from .root_data import closure


class WeightMultiset:
    """Finitely supported multiplicity function on a weight lattice."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    @staticmethod
    def _key(w):
        if hasattr(w, "free"):
            return (w.free, w.torsion)
        return (tuple(w), ())

    def add(self, weight, mult=1):
        self.entries[weight] = self.entries.get(weight, 0) + mult
        if self.entries[weight] == 0:
            del self.entries[weight]

    def dimension(self):
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items(), key=lambda kv: self._key(kv[0]))

    def __getitem__(self, w):
        return self.entries.get(w, 0)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, WeightMultiset) and self.entries == other.entries

    def __repr__(self):
        inner = ", ".join(f"{w}:{m}" for w, m in self.items())
        return "{" + inner + "}"


# -- connected-group characters ------------------------------------------------


def _invariant_form(datum):
    """Gram matrix of a Weyl-invariant form on the character lattice."""
    n = datum.rank
    gram = [[0] * n for _ in range(n)]
    for cv in datum.coroots:
        for i in range(n):
            for j in range(n):
                gram[i][j] += cv[i] * cv[j]
    return tuple(tuple(row) for row in gram)


def dominant_weights_below(datum, lam):
    """Dominant weights mu with lam - mu a nonnegative sum of simple roots,
    for dominant lam, lexicographic in the sum's coefficients.  Stembridge
    ("The partial order of dominant weights", Adv. Math. 1998): they are
    reached from lam by positive-root steps down that stay dominant."""
    lam = tuple(lam)
    out = closure([lam], lambda mu: (
        nu for nu in (vec_sub(mu, a) for a in datum.positive_roots)
        if datum.is_dominant_char(nu)))
    out.sort(key=lambda mu: datum._root_coordinates(vec_sub(lam, mu))[0])
    return out


def freudenthal(datum, lam):
    """Multiplicities of the dominant weights of the irreducible with
    highest weight lam, by Freudenthal's recursion (exact, in integers)."""
    if not datum.is_dominant_char(lam):
        raise DominanceError(f"{lam} is not a dominant weight")
    lam = tuple(lam)
    if datum.rank == 0 or not datum.roots:
        return {lam: 1}
    gram = _invariant_form(datum)
    two_rho = datum.two_rho

    def doubled(v):
        return tuple(2 * a + r for a, r in zip(v, two_rho))

    def norm(v):
        return dot(v, mat_vec(gram, v))

    simple = tuple(zip(datum.simple_coroots, datum.simple_roots))
    reps = {}

    def dom_rep(v):
        rep = reps.get(v)
        if rep is None:
            # dominant_of_char's walk, on the weight alone
            rep = v
            while True:
                for cv, alpha in simple:
                    if (n := dot(cv, rep)) < 0:
                        rep = tuple(x - n * a for x, a in zip(rep, alpha))
                        break
                else:
                    break
            reps[v] = rep
        return rep

    # (alpha, G alpha, q(alpha)) for every positive root
    positives = []
    for alpha in datum.positive_roots:
        g_alpha = mat_vec(gram, alpha)
        positives.append((alpha, g_alpha, dot(alpha, g_alpha)))
    norm_top = norm(doubled(lam))
    candidates = dominant_weights_below(datum, lam)
    candidates.sort(key=lambda v: -dot(datum.two_rho_check, v))
    mult = {lam: 1}
    for mu in candidates:
        if mu == lam:
            continue
        mu2 = doubled(mu)
        norm_mu = norm(mu2)
        denom = norm_top - norm_mu
        if denom <= 0:
            mult[mu] = 0
            continue
        acc = 0
        for alpha, g_alpha, q_alpha in positives:
            pair = dot(mu, g_alpha)
            pair2 = dot(mu2, g_alpha)
            shifted = mu
            k = 1
            while True:
                shifted = vec_add(shifted, alpha)
                m = mult.get(dom_rep(shifted), 0)
                if m == 0:
                    # higher shifts leave the weight polytope once the norm
                    # bound is exceeded: q(2 shifted + 2 rho) > q(2 lam + 2 rho)
                    if norm_mu + 4 * k * (pair2 + k * q_alpha) > norm_top:
                        break
                else:
                    acc += m * (pair + k * q_alpha)
                k += 1
        val, rem = divmod(8 * acc, denom)
        if rem:
            raise PeelingError("Freudenthal recursion produced a non-integer")
        if val:
            mult[mu] = val
    return {w: m for w, m in mult.items() if m}


def dominant_of_char(datum, chi):
    """(chi+, w) with w chi = chi+ dominant, w in ``datum.dual.weyl``: the
    characters are the dual datum's cocharacters."""
    return datum.dual.weyl.dominant_representative(chi)


def weyl_orbit_char(datum, mu):
    """Weyl orbit of a dominant character, by the simple reflections that go
    down: v -> v - n alpha_i where n = <alpha_i^vee, v> > 0."""
    simple = tuple(zip(datum.simple_coroots, datum.simple_roots))
    return set(closure([tuple(mu)], lambda v: (
        tuple(x - n * a for x, a in zip(v, alpha))
        for cv, alpha in simple if (n := dot(cv, v)) > 0)))


def irreducible_character(datum, lam):
    """Full weight multiset of the irreducible with highest weight lam."""
    # the orbits of distinct dominant weights are disjoint
    return WeightMultiset({w: m for mu, m in freudenthal(datum, lam).items()
                           for w in weyl_orbit_char(datum, mu)})


def weyl_dimension(datum, lam):
    """Weyl dimension formula (independent of Freudenthal)."""
    if not datum.roots:
        return 1
    rho2 = datum.two_rho
    num = 1
    den = 1
    for i in datum.positive_indices:
        cv = datum.coroots[i]
        num *= dot(cv, tuple(2 * x for x in lam)) + dot(cv, rho2)
        den *= dot(cv, rho2)
    q, rem = divmod(num, den)
    if rem:
        raise PeelingError("Weyl dimension formula produced a non-integer")
    return q


def kostant_multiplicity(datum, lam, mu):
    """Weight multiplicity by Kostant's alternating sum (test oracle)."""
    positives = datum.positive_roots
    memo = {}

    def partitions(v, idx):
        v = tuple(v)
        if all(x == 0 for x in v):
            return 1
        if idx == len(positives):
            return 0
        key = (v, idx)
        if key in memo:
            return memo[key]
        total = partitions(v, idx + 1)
        shifted = vec_sub(v, positives[idx])
        # only finitely many subtractions can stay in the positive cone
        if _in_root_cone(datum, shifted):
            total += partitions(shifted, idx)
        memo[key] = total
        return total

    rho = datum.two_rho  # doubled; scale the whole identity by 2
    total = 0
    for w in datum.dual.weyl.elements:
        arg2 = vec_sub(vec_add(w.apply_cochar(tuple(2 * x for x in lam)),
                               w.apply_cochar(rho)),
                       vec_add(tuple(2 * x for x in mu), rho))
        if any(x % 2 for x in arg2):
            continue
        arg = tuple(x // 2 for x in arg2)
        if not _in_root_cone(datum, arg):
            continue
        total += (-1) ** w.length * partitions(arg, 0)
    return total


def _in_root_cone(datum, v):
    sol = datum._root_coordinates(v)
    return sol is not None and all(x >= 0 for x in sol[0])


# -- dominance order on coinvariants ---------------------------------------------


class DominanceOrder:
    """Partial order on the full coinvariant weight lattice generated by the
    projected positive roots."""

    def __init__(self, folded):
        self.folded = folded
        simples = folded.datum.simple_roots
        self.generators = tuple(
            folded.char_coinv.make(r, t)
            for r, t in zip(simples, folded.simple_torsion))

    def leq(self, lam, mu):
        """lam <= mu iff mu - lam is a nonnegative integer combination of
        the projected simple roots (exact integer feasibility)."""
        diff = mu - lam
        coeffs = self._coefficients(diff.free)
        if coeffs is None or any(c < 0 for c in coeffs):
            return False
        return _torsion_offset(self.folded, coeffs) == diff.torsion

    def _coefficients(self, free_vec):
        return _simple_root_coefficients(self.folded.datum, free_vec)


def _simple_root_coefficients(datum, free_vec):
    """The integer coefficients of free_vec in the simple roots of datum, or
    None when free_vec is not an integer combination of them."""
    sol = datum._root_coordinates(free_vec)
    if sol is None or any(x % sol[1] for x in sol[0]):
        return None
    return tuple(x // sol[1] for x in sol[0])


# -- disconnected groups: torsion lifting ------------------------------------------


def _torsion_offset(folded, coeffs):
    co = folded.char_coinv
    acc = [0] * len(co.torsion)
    for c, tors in zip(coeffs, folded.simple_torsion):
        for i, t in enumerate(tors):
            acc[i] += c * t
    return tuple(a % d for a, d in zip(acc, co.torsion))


def extend_by_component_twist(char, mu_cls, folded):
    """Lift a connected-group character to the component-carrying lattice.

    ``char`` is a weight multiset on the free quotient whose highest weight
    is the free part of mu_cls (with multiplicity one).  The unique
    component-group twist realizing mu_cls as highest weight determines the
    torsion offset of every weight through the projected simple roots; the
    component group itself is folded.component_group.
    """
    co = folded.char_coinv
    height = folded.datum.two_rho_check
    if char.entries:
        top = max(char.entries, key=lambda w: (dot(height, w), w))
        if tuple(top) != tuple(mu_cls.free):
            raise PeelingError("character's highest weight differs from the class")
        if char[top] != 1:
            raise PeelingError("highest weight multiplicity is not 1")
    out = WeightMultiset()
    for w, m in char.entries.items():
        coeffs = _simple_root_coefficients(folded.datum, vec_sub(mu_cls.free, w))
        if coeffs is None:
            raise PeelingError("inconsistent torsion offset: weight does not "
                               "differ from the highest weight by roots")
        off = _torsion_offset(folded, coeffs)
        tors = tuple((a - b) % d for a, b, d in
                     zip(mu_cls.torsion, off, co.torsion))
        out.entries[co.make(tuple(w), tors)] = m  # one class per weight
    return out


def dominant_character_with_torsion(folded, mu_cls):
    """The classes with dominant free part in ``character_with_torsion``:
    Freudenthal's multiplicities, each twisted once, kept per fold in
    ``folded.characters``; every call returns its own copy."""
    char = folded.characters.get(mu_cls)
    if char is None:
        if not folded.datum.is_dominant_char(mu_cls.free):
            raise DominanceError(f"{mu_cls} is not dominant for the folded datum")
        conn = WeightMultiset(freudenthal(folded.datum, mu_cls.free))
        char = folded.characters[mu_cls] = extend_by_component_twist(conn, mu_cls, folded)
    return WeightMultiset(char.entries)


def character_with_torsion(folded, mu_cls):
    """Weight multiset of the irreducible of highest weight mu_cls on the
    full (torsion-carrying) coinvariant lattice: the dominant classes
    spread over W0-orbits by the walk of ``weyl_orbit_char``, a step
    v -> v - n alpha_i taking n times alpha_i's torsion off the class."""
    co = folded.char_coinv
    simple = tuple(zip(folded.datum.simple_coroots, folded.datum.simple_roots,
                       folded.simple_torsion))

    def down(wt):
        v, t = wt
        for cv, alpha, tors in simple:
            if (n := dot(cv, v)) > 0:
                yield (tuple(x - n * a for x, a in zip(v, alpha)),
                       tuple((x - n * a) % d for x, a, d in zip(t, tors, co.torsion)))

    out = WeightMultiset()
    for cls, m in dominant_character_with_torsion(folded, mu_cls).entries.items():
        for v, t in closure([(cls.free, cls.torsion)], down):
            out.entries[co.make(v, t)] = m
    return out


def induced_dimension(folded, mu_cls):
    """dim of the induction of the connected irreducible to the full fixed
    group, computed from the component-twist side of the reciprocity
    isomorphism."""
    return prod(folded.component_group) * weyl_dimension(folded.datum, mu_cls.free)


# -- restriction along folding ------------------------------------------------------


def restrict_to_fixed_group(datum, action, lam, folded=None):
    """Decompose the projection of an absolute irreducible character into
    highest-weight characters of the fixed-point group.

    Returns a sorted list of (class, multiplicity).  The projected
    character and every constituent's are W0-invariant, so their classes
    with dominant free part determine them, and only those are kept and
    peeled; a weight of maximal height is dominant (a simple reflection
    raises any other), so the tops are those of a peel of every weight.
    Peeling is greedy from the top of the dominance order (height
    functional, lexicographic tie break); a negative residue raises, since
    it would falsify the highest-weight theory this computes in.  Each
    round removes its top weight for good (a weight it added would be
    negative and raise), so there are at most as many rounds as kept
    classes.
    """
    if folded is None:
        folded = fold(action)
    if not datum.is_dominant_char(lam):
        raise DominanceError(f"{lam} is not dominant")
    co = folded.char_coinv
    fd = folded.datum
    remaining = WeightMultiset()
    for w, m in irreducible_character(datum, lam).entries.items():
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
        # a round checks the weights it lowers; the rest are checked at the top
        for w, m in dominant_character_with_torsion(folded, top).entries.items():
            remaining.add(w, -m * mult)
            if remaining[w] < 0:
                raise PeelingError("negative multiplicity while peeling")
        out.append((top, mult))
        if len(out) > max_rounds:
            raise PeelingError("peeling did not terminate")
    out.sort(key=lambda t: sort_key(t[0]))
    return out


def highest_weight_table(datum, action, lams, folded=None):
    """Rows (class, dim, #weights, provenance) for every constituent of the
    restrictions of the given absolute highest weights."""
    if folded is None:
        folded = fold(action)
    rows = {}
    for lam in lams:
        for cls, mult in restrict_to_fixed_group(datum, action, lam, folded):
            if cls not in rows:
                char = character_with_torsion(folded, cls)
                rows[cls] = {
                    "mu": cls,
                    "dim": char.dimension(),
                    "n_weights": len(char),
                    "provenance": [],
                }
            rows[cls]["provenance"].append((tuple(lam), mult))
    height = folded.datum.two_rho_check
    return sorted(rows.values(),
                  key=lambda r: (-dot(height, r["mu"].free), r["mu"].free,
                                 r["mu"].torsion))
