"""Highest-weight combinatorics for fixed-point groups of pinned actions.

Characters are computed on the datum handed in; restriction and the
highest-weight table take a fold, which carries its action and so the
datum restricted from (``folded.action.datum``).  For dual-group
applications that is ``datum.dual`` (or the fold of ``action.dual``), whose
characters are the original cocharacters; the Weyl group acting on a
datum's characters is ``datum.dual.weyl``.  The pipeline is:

* Freudenthal's recursion for irreducible characters of a connected group,
  over the dominant weights below the highest (a closure of dominant steps
  down by positive roots); in integers: with the Weyl-invariant integer
  Gram matrix G = sum of cv cv^T over the coroots, every norm is taken on
  doubled weights, q(2mu + 2rho) = (2mu + 2rho)^T G (2mu + 2rho), so that
  rho = two_rho / 2 never leaves Z; the multiplicity of mu is then
  8 acc / (q(2lam + 2rho) - q(2mu + 2rho)), checked to be exact.
  ``weyl_dimension`` (Weyl's dimension formula) is independent of it and
  gives each constituent's dimension;
* one downward orbit walk, ``downward_orbit``, spreads dominant weights
  over their Weyl orbits (v -> v - n alpha_i for n = <alpha_i^vee, v> > 0)
  and carries a torsion coordinate along (t -> t - n tau_i);
* component-group twists: the dominant weights of a connected-group
  irreducible are lifted to the full coinvariant lattice, the torsion
  offsets dictated by the projected simple roots (their coefficients come
  from the folded datum's integer left inverse of its simple roots), and
  the orbit walk carries the offsets to the other weights;
* restriction along fold: Weyl's character formula on the projected
  weights of one Freudenthal character, by the dot action on classes.

Each call builds its own characters; nothing is kept between calls.
"""

from math import prod

from .errors import DominanceError, InternalInvariantError, PeelingError
from .linalg import dot, mat_vec, vec_add, vec_sub
from .root_data import closure


class WeightMultiset:
    """Finitely supported multiplicity function on a weight lattice."""

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def add(self, weight, mult=1):
        self.entries[weight] = self.entries.get(weight, 0) + mult
        if self.entries[weight] == 0:
            del self.entries[weight]

    def dimension(self):
        return sum(self.entries.values())

    def items(self):
        return sorted(self.entries.items())

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


def downward_orbit(start, steps, moduli=()):
    """Every state reached from start = (v, t) by the simple reflections
    that go down: for a step (cv, alpha, tau) with n = <cv, v> > 0,
    v -> v - n alpha and t -> t - n tau mod the moduli.  From a dominant v
    this is v's Weyl orbit, with the torsion t carried along; ``cv`` pairs
    with the leading entries of v, which may carry more."""

    def down(state):
        v, t = state
        for cv, alpha, tau in steps:
            if (n := dot(cv, v)) > 0:
                yield (tuple([p - n * q for p, q in zip(v, alpha)]),
                       tuple([(p - n * q) % d for p, q, d in zip(t, tau, moduli)]))

    return closure([start], down)


def irreducible_character(datum, lam):
    """Full weight multiset of the irreducible with highest weight lam."""
    steps = tuple((cv, a, ()) for cv, a in zip(datum.simple_coroots, datum.simple_roots))
    # the orbits of distinct dominant weights are disjoint
    return WeightMultiset({w: m for mu, m in freudenthal(datum, lam).items()
                           for w, _ in downward_orbit((mu, ()), steps)})


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


# -- disconnected groups: torsion lifting ------------------------------------------


def _simple_root_coefficients(datum, free_vec):
    """The integer coefficients of free_vec in the simple roots of datum, or
    None when free_vec is not an integer combination of them."""
    sol = datum._root_coordinates(free_vec)
    if sol is None or any(x % sol[1] for x in sol[0]):
        return None
    return tuple(x // sol[1] for x in sol[0])


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


def character_with_torsion(folded, mu_cls):
    """Weight multiset of the irreducible of highest weight mu_cls on the
    full (torsion-carrying) coinvariant lattice: Freudenthal's dominant
    multiplicities, each twisted once (``extend_by_component_twist``), then
    spread over W0-orbits by ``downward_orbit``, a step v -> v - n alpha_i
    taking n times alpha_i's torsion off the class."""
    fd, co = folded.datum, folded.char_coinv
    if not fd.is_dominant_char(mu_cls.free):
        raise DominanceError(f"{mu_cls} is not dominant for the folded datum")
    dominant = extend_by_component_twist(
        WeightMultiset(freudenthal(fd, mu_cls.free)), mu_cls, folded)
    steps = tuple(zip(fd.simple_coroots, fd.simple_roots, folded.simple_torsion))
    out = WeightMultiset()
    for cls, m in dominant.entries.items():
        for v, t in downward_orbit((cls.free, cls.torsion), steps, co.torsion):
            out.entries[co.make(v, t)] = m
    return out


def induced_dimension(folded, mu_cls):
    """dim of the induction of the connected irreducible to the full fixed
    group, computed from the component-twist side of the reciprocity
    isomorphism."""
    return prod(folded.component_group) * weyl_dimension(folded.datum, mu_cls.free)


# -- restriction along folding ------------------------------------------------------


def restrict_to_fixed_group(folded, lam):
    """Decompose the projection of an irreducible character of the folded
    action's datum into highest-weight characters of the fixed-point group:
    a sorted list of (class, multiplicity), by Weyl's character formula
    (Humphreys, §24).

    Freudenthal runs once, on lam; ``downward_orbit`` carries each
    weight's class (a step by n alpha_i moves it by -n times alpha_i's
    class, torsion included).  Each class (v, t) then moves by the dot
    action s_i.(v, t) = (v - n beta_i, t - n tau_i), n = <beta_i^vee, v> + 1,
    of the folded simple roots until v + rho' is dominant, and adds its
    multiplicity, signed by its steps, to its end point's coefficient; one
    on a wall (n = 0) drops out.  Exact because beta_i -> (beta_i, tau_i)
    is a homomorphism on the root lattice, so Weyl's denominator identity
    holds on classes with torsion, given <beta_i^vee, 2 rho'> = 2 (checked
    per fold).  A negative coefficient, or dimensions not summing to lam's,
    raises.
    """
    datum = folded.action.datum
    if not datum.is_dominant_char(lam):
        raise DominanceError(f"{lam} is not dominant")
    co, fd = folded.char_coinv, folded.datum
    if any(dot(cv, fd.two_rho) != 2 for cv in fd.simple_coroots):
        raise InternalInvariantError("<simple coroot, 2 rho> != 2 on the fold")
    # x + (x's class's free part) walks, torsion beside; dot reads x alone
    steps = tuple((cv, a + c.free, c.torsion) for cv, a, c in zip(
        datum.simple_coroots, datum.simple_roots, map(co.project, datum.simple_roots)))
    projected = {}
    for mu, m in freudenthal(datum, tuple(lam)).items():
        c = co.project(mu)
        for x, t in downward_orbit((mu + c.free, c.torsion), steps, co.torsion):
            projected[x[datum.rank:], t] = projected.get((x[datum.rank:], t), 0) + m
    simple = tuple(zip(fd.simple_coroots, fd.simple_roots, folded.simple_torsion))
    coeffs = {}
    for (v, t), m in projected.items():
        while True:
            for cv, b, tb in simple:
                if (n := dot(cv, v) + 1) <= 0:
                    break
            else:  # v + rho' is dominant
                coeffs[v, t] = coeffs.get((v, t), 0) + m
                break
            if n == 0:  # on a wall
                break
            v = tuple(p - n * q for p, q in zip(v, b))
            t, m = tuple((p - n * q) % d for p, q, d in zip(t, tb, co.torsion)), -m
    out = sorted(((co.make(*vt), c) for vt, c in coeffs.items() if c),
                 key=lambda r: (-dot(fd.two_rho_check, r[0].free), r[0]))
    if any(c < 0 for _, c in out):
        raise PeelingError("negative multiplicity while peeling")
    if sum(c * weyl_dimension(fd, cls.free) for cls, c in out) != weyl_dimension(datum, lam):
        raise PeelingError("constituent dimensions do not sum to lam's")
    return out


def highest_weight_table(folded, lams):
    """Rows (class, dim, #weights, provenance) for every constituent of the
    restrictions of the given highest weights of the folded action's datum."""
    rows = {}
    for lam in lams:
        for cls, mult in restrict_to_fixed_group(folded, lam):
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
    return sorted(rows.values(), key=lambda r: (-dot(height, r["mu"].free), r["mu"]))
