"""Iwahori-Weyl groups: translations by coinvariants, extended by the
relative Weyl group, with the quasi-Coxeter structure.

Geometry conventions
--------------------
The apartment is V = (free quotient of the cocharacter coinvariants) x R.
A translation t^mu acts by v -> v + mu (free part; torsion classes act
trivially and have length zero).  The chamber cut out by the positive roots
is *opposite* to the chamber containing the base alcove, i.e. the base
alcove sits on the antidominant side of the origin.  With these choices
l(t^mu) = <mu_dom, 2 rho> and the minimal-length coset representative
formulas come out with the signs used throughout.

Wall data
---------
Every vector is exact in integers: a point of V is an integer vector over a
positive denominator (the base point is p0_num / p0_den), and a relative
root is the integer covector of a root on the orbit sums of lifts of the
free basis classes (|Gamma| times the invariant lift).  Hyperplane families
are integer covectors c with walls {v : c(v) in Z}, one per line of
relative roots.  A split group takes the covector of each positive root;
a twisted group takes a declared table (``presets`` reads it from wall
strides), validated against lattice preservation, Weyl symmetry of the
arrangement and integrality of the wall reflections, so a wrong table
fails at construction time rather than corrupting lengths.

A group holds one object per element, keyed by (class, W0 index), so
equality is identity (``setdefault`` makes threads agree on the object).
An element caches its length, reduced word, one-letter deletions and
neighbours s g, g s (s simple affine), each made when first asked for;
s (s g) = g fills the reverse slot too.  The group keeps, per set of letters
J, each element's double-coset representative (``dc_reps``).  No value
changes after construction: a group's tables and walls, an element's class
and finite part, a class's coordinates.  Only caches change (the elements',
the group's and the W0 products'), and each entry is filled once, with the
value any later fill would give.

Products
--------
An element is a pair (translation class, W0 element).  The relative Weyl
group W0 is a ``root_data.FiniteReflectionGroup``: its products walk a left
table once and are memoized.  It also keeps one integer matrix per element
on (free, torsion) class coordinates, so (c, w)(c', w') = (c + w(c'), ww')
costs a memo lookup and one small matrix times vector, with no Smith-form
lift or projection.
"""

from itertools import chain
from math import gcd

from .errors import EchelonnageError, ElementParseError, InternalInvariantError
from .folding import CoinvariantLattice, coinvariants, invariant_pairing
from .linalg import (dot, identity, integer_left_inverse, mat_mul, mat_transpose,
                     mat_vec, primitive_covector, scaled_coordinates, vec_add,
                     vec_scale, vec_sub)
from .root_data import FiniteReflectionGroup, closure


class RelWeylGroup(FiniteReflectionGroup):
    """The relative Weyl group: invariant elements of the absolute one,
    acting on the coinvariant lattice.

    The group is closed on free class-coordinate matrices from the simple
    relative reflections, and the closure is checked to be the whole
    invariant group.  Each element also carries its ambient matrix and its
    class-coordinate matrix, so the action on classes never goes through
    the Smith form.  ``reflections[i]`` is the reflection in the i-th line
    of ``line_covectors``; the first ``n_simple`` lines are the simple ones.
    """

    def __init__(self, action, coinv, line_covectors, n_simple):
        self.action = action
        self.coinv = coinv
        f = coinv.free_rank
        invariant = {}
        for w in action.datum.weyl.elements:
            if all(mat_mul(w.mat, g) == mat_mul(g, w.mat)
                   for g in action.cochar_generators):
                cm = coinv.class_matrix(w.mat)
                fm = tuple(row[:f] for row in cm[:f])
                if fm in invariant:
                    raise InternalInvariantError(
                        "relative Weyl group does not act faithfully on coinvariants")
                invariant[fm] = (w.mat, cm)
        ident = identity(f)
        involutions = [fm for fm in sorted(invariant)
                       if fm != ident and mat_mul(fm, fm) == ident]
        refl = [self._find_reflection(involutions, cov) for cov in line_covectors]
        super().__init__(ident, refl[:n_simple])
        if [w.mat for w in self.elements] != sorted(invariant):
            raise InternalInvariantError(
                "simple relative reflections do not generate the invariant Weyl group")
        for w in self.elements:
            w.abs_mat, w.class_mat = invariant[w.mat]
        self.reflections = tuple(self.by_matrix[r] for r in refl)
        for b in coinv.basis():
            for s in self.simple_reflections:
                if self.act_class(s, b) != coinv.act(s.abs_mat, b):
                    raise InternalInvariantError(
                        "tabled class action disagrees with the coinvariant action")

    @staticmethod
    def _find_reflection(involutions, cov):
        """The involution fixing the hyperplane cov = 0 pointwise.

        The hyperplane is spanned by the primitive integer vectors
        cov[p] e_j - cov[j] e_p, p the first nonzero entry of cov, j != p.
        """
        n = len(cov)
        p = next(i for i, c in enumerate(cov) if c)
        kernel = []
        for j in range(n):
            if j != p:
                v = [cov[p] * (i == j) - cov[j] * (i == p) for i in range(n)]
                g = gcd(*v)
                kernel.append(tuple(x // g for x in v))
        hits = [m for m in involutions if all(mat_vec(m, b) == b for b in kernel)]
        if len(hits) != 1:
            raise InternalInvariantError(
                f"{len(hits)} reflections fix the hyperplane of a relative line")
        return hits[0]

    def act_class(self, w, cls):
        """The class w(cls), through w's class-coordinate matrix."""
        coords = mat_vec(w.class_mat, cls.free + cls.torsion)
        f = self.coinv.free_rank
        return self.coinv.make(coords[:f], coords[f:])


class IwahoriWeylElement:
    """Element (translation class, finite part) of an Iwahori-Weyl group;
    it hashes by its key, so sets of elements keep one order across runs."""

    __slots__ = ("group", "cls", "w", "_hash", "_len", "_word", "_omega", "_next",
                 "_dels")

    def __init__(self, group, cls, w, key):
        self.group = group
        self.cls = cls
        self.w = w
        self._hash = hash(key)
        self._len = None
        self._word = None
        self._omega = None
        # s g for each simple affine s, then g s, by the group's slot numbers
        self._next = None
        self._dels = None

    def key(self):
        return (self.cls.free, self.cls.torsion, self.w.index)

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        g = self.group
        cls = self.cls + g.w0.act_class(self.w, other.cls)
        return g.element(cls, self.w * other.w)

    def inverse(self):
        g = self.group
        winv = self.w.inverse()
        cls = -(g.w0.act_class(winv, self.cls))
        return g.element(cls, winv)

    def is_identity(self):
        return self.w.is_identity() and self.cls.is_zero()

    @property
    def length(self):
        if self._len is None:
            self._len = self.group._length(self)
        return self._len

    def reduced_word(self):
        """(omega, letters): self = s_{letters[0]} ... s_{letters[-1]} * omega."""
        if self._word is None:
            self._word, self._omega = self.group._walk(self)
        return self._omega, self._word

    @property
    def omega(self):
        if self._omega is None:
            self.reduced_word()
        return self._omega

    def deletions(self):
        """The elements s_1 ... (s_k omitted) ... s_n omega, for k = 1 .. n,
        of the reduced word self = s_1 ... s_n omega, made once: each is
        prefix(k-1) * suffix(k+1)."""
        if self._dels is None:
            om, letters = self.reduced_word()
            simple = [self.group.simple_affine_element(i) for i in letters]
            n = len(simple)
            # suffix[n - 1 - k] = s_{k+2} ... s_n omega, what follows letter k + 1
            suffix = [om]
            for s in reversed(simple[1:]):
                suffix.append(s * suffix[-1])
            out = []
            prefix = None
            for k in range(n):
                tail = suffix[n - 1 - k]
                out.append(tail if prefix is None else prefix * tail)
                if k + 1 < n:  # the whole word's product would go unread
                    prefix = simple[k] if prefix is None else prefix * simple[k]
            self._dels = out
        return self._dels

    def __repr__(self):
        return self.group.element_to_string(self)


def _element_ints(body, part):
    try:
        return [int(x) for x in body.split(",") if x.strip() != ""]
    except ValueError:
        raise ElementParseError(f"non-integer entry in element part {part!r}") from None


class WallFamily:
    __slots__ = ("line_id", "covector", "w_vec", "unit_class", "s_lin")

    def __init__(self, line_id, covector, w_vec, unit_class, s_lin):
        self.line_id = line_id
        self.covector = covector
        self.w_vec = w_vec
        self.unit_class = unit_class
        self.s_lin = s_lin


class SimpleAffine:
    __slots__ = ("index", "family", "level", "element")

    def __init__(self, index, family, level, element):
        self.index = index
        self.family = family
        self.level = level
        self.element = element


class IwahoriWeylGroup:
    """W = (cocharacter coinvariants) x| W0 with length and Bruhat order."""

    def __init__(self, action, wall_table=None, name=""):
        self.action = action
        self.datum = action.datum
        self.name = name or (action.datum.name + "-iw")
        self.coinv = coinvariants(action.dual)
        self._elements = {}
        # one {g: dc_rep(g, J)} per set of letters J, filled by dc_reps
        self._dc_memos = {}
        self._build_pi1()
        self._build_relative_roots()
        self._build_walls(wall_table)
        self._build_base_alcove()
        self._build_simple_affine()

    # -- construction --------------------------------------------------------

    def _build_pi1(self):
        n = self.datum.rank
        cols = [cv for cv in self.datum.coroots]
        co = self.coinv
        for j in range(co.num_relations):
            cols.append(co.relation_column(j))
        self.pi1 = CoinvariantLattice(n, cols)

    def _build_relative_roots(self):
        datum = self.datum
        co = self.coinv
        # each free basis class is realized by the orbit sum of a lift:
        # |Gamma| times its invariant (average) representative, in integers
        realized = []
        for rep in map(co.lift, co.basis()[:co.free_rank]):
            images = [mat_vec(g, rep) for g in self.action.dual.group_elements]
            realized.append(tuple(map(sum, zip(*images))))
        positive = set(datum.positive_indices)
        seen = {}
        # (integer covector on the realized basis, positive): the direction,
        # sign and equalities of the covector on the invariant lifts
        self.rel_roots = []
        for idx, r in enumerate(datum.roots):
            cov = tuple(dot(real, r) for real in realized)
            pos = idx in positive
            if cov in seen:
                if self.rel_roots[seen[cov]][1] != pos:
                    raise InternalInvariantError("relative positivity is inconsistent")
            else:
                seen[cov] = len(self.rel_roots)
                self.rel_roots.append((cov, pos))
        for cov, pos in self.rel_roots:
            neg = tuple(-x for x in cov)
            if pos and neg in seen and self.rel_roots[seen[neg]][1]:
                raise InternalInvariantError(
                    "a relative root and its negative are both positive")
        # lines through positive relative roots, simple lines first
        simple_first = []
        for i in datum.simples:
            cov = tuple(dot(real, datum.roots[i]) for real in realized)
            prim = primitive_covector(cov)
            if prim not in simple_first:
                simple_first.append(prim)
        others = []
        for cov, pos in self.rel_roots:
            if not pos:
                continue
            prim = primitive_covector(cov)
            if prim not in simple_first and prim not in others:
                others.append(prim)
        others.sort()
        self.line_primitives = tuple(simple_first + others)
        self.n_simple_lines = len(simple_first)
        # the line of every relative root direction, under either sign
        self.line_ids = {}
        for line_id, prim in enumerate(self.line_primitives):
            self.line_ids[prim] = self.line_ids[tuple(-x for x in prim)] = line_id
        self.w0 = RelWeylGroup(self.action, co, self.line_primitives, self.n_simple_lines)

    def _kottwitz_of_class(self, cls):
        return self.pi1.project(self.coinv.lift(cls))

    def _build_walls(self, wall_table):
        """One family per line from ``wall_table``, a list of integer wall
        covectors (default: the positive roots', split groups only)."""
        if wall_table is None:
            if not self.action.is_trivial() and self.line_primitives:
                raise EchelonnageError(
                    "a wall table must be declared for twisted groups")
            wall_table = [cov for cov, pos in self.rel_roots if pos]
        assigned = {}
        for cov in wall_table:
            prim = primitive_covector(cov)
            line_id = self.line_ids.get(prim)
            if line_id is None or self.line_primitives[line_id] != prim:
                raise EchelonnageError(
                    f"wall direction {cov} is not a relative root direction")
            if line_id in assigned:
                raise EchelonnageError("duplicate wall entry for a root direction")
            assigned[line_id] = cov
        missing = [self.line_primitives[i] for i in range(len(self.line_primitives))
                   if i not in assigned]
        if missing:
            raise EchelonnageError(f"wall table gap: no entry for {missing}")
        self.families = []
        for line_id in range(len(self.line_primitives)):
            cprime = assigned[line_id]
            s_lin = self.w0.reflections[line_id]
            w_vec = self._w_vec(cprime, s_lin)
            unit_class = self._unit_class(w_vec)
            self.families.append(WallFamily(line_id, cprime, w_vec, unit_class, s_lin))
        # the finite Weyl group must permute the wall families (and their
        # negatives); its simple reflections generate it
        famset = set()
        for fam in self.families:
            famset.add(fam.covector)
            famset.add(tuple(-x for x in fam.covector))
        for s in self.w0.simple_reflections:
            st = mat_transpose(s.mat)
            for fam in self.families:
                if mat_vec(st, fam.covector) not in famset:
                    raise EchelonnageError(
                        "wall arrangement is not Weyl-symmetric; bad stride table")

    def _w_vec(self, cprime, s_lin):
        f = self.coinv.free_rank
        x0 = None
        for k in range(f):
            e = tuple(1 if i == k else 0 for i in range(f))
            if dot(cprime, e) != 0:
                x0 = e
                break
        diff = vec_sub(x0, mat_vec(s_lin.mat, x0))
        c = dot(cprime, x0)
        if any(d % c for d in diff):
            raise EchelonnageError(
                "wall reflections do not preserve the translation lattice")
        return tuple(d // c for d in diff)

    def _unit_class(self, w_vec):
        hits = [cls for cls in self.coinv.classes([w_vec])
                if self._kottwitz_of_class(cls).is_zero()]
        if len(hits) != 1:
            raise EchelonnageError(
                "wall translation class is not uniquely determined by the "
                f"Kottwitz kernel (found {len(hits)})")
        return hits[0]

    def _build_base_alcove(self):
        f = self.coinv.free_rank
        if not self.families:
            self.p0_num = (0,) * f
            self.p0_den = 1
            return
        # rho = r / d solves c(rho) = 1 on the simple lines, every c(r) must
        # be positive, and p0 = -rho / (2 max c(rho)) = -r / (2 max c(r))
        columns = mat_transpose([fam.covector for fam in self.families[:self.n_simple_lines]])
        sol = scaled_coordinates(columns, integer_left_inverse(columns),
                                 (1,) * self.n_simple_lines)
        if sol is None:
            raise InternalInvariantError("no regular direction for the base alcove")
        r = sol[0]
        vals = [dot(fam.covector, r) for fam in self.families]
        if any(v <= 0 for v in vals):
            raise InternalInvariantError("base direction is not regular dominant")
        den = 2 * max(vals)
        g = gcd(den, *r)
        self.p0_num = tuple(-x // g for x in r)
        self.p0_den = den // g
        for fam in self.families:
            v = dot(fam.covector, self.p0_num)
            if v % self.p0_den == 0 or not (-self.p0_den < v < 0):
                raise InternalInvariantError("base point is not interior to the alcove")

    def _build_simple_affine(self):
        walls = []
        for fam in self.families:
            for level in (0, -1):
                s = self.element(fam.unit_class.scale(level), fam.s_lin)
                if s.length == 1:
                    walls.append((fam, level, s))
        zero_walls = [w for w in walls if w[1] == 0]
        neg_walls = [w for w in walls if w[1] == -1]
        if len(zero_walls) != self.n_simple_lines or \
                sorted(w[0].line_id for w in zero_walls) != list(range(self.n_simple_lines)):
            raise InternalInvariantError("origin walls do not match the simple lines")
        zero_walls.sort(key=lambda w: w[0].line_id)
        neg_walls.sort(key=lambda w: w[0].line_id)
        entries = []
        if neg_walls:
            entries.append((0, neg_walls[0]))
        for i, w in enumerate(zero_walls):
            entries.append((i + 1, w))
        for j, w in enumerate(neg_walls[1:]):
            entries.append((self.n_simple_lines + 1 + j, w))
        entries.sort()
        self.simple_affine = tuple(
            SimpleAffine(idx, w[0], w[1], w[2]) for idx, w in entries)
        for s in self.simple_affine:
            s.element._word = (s.index,)
            s.element._omega = self.identity()
        self._slot = {s.index: k for k, s in enumerate(self.simple_affine)}

    # -- basic elements -------------------------------------------------------

    def element(self, cls, w):
        """The group's one element with class cls and finite part w."""
        key = (cls.free, cls.torsion, w.index)
        g = self._elements.get(key)
        if g is None:
            g = self._elements.setdefault(key, IwahoriWeylElement(self, cls, w, key))
        return g

    def identity(self):
        return self.element(self.coinv.zero(), self.w0.identity)

    def translation(self, cls):
        """t^mu for a coinvariant class mu."""
        return self.element(cls, self.w0.identity)

    def class_from_coords(self, coords):
        co = self.coinv
        need = co.free_rank + len(co.torsion)
        if len(coords) != need:
            raise ElementParseError(
                f"expected {need} coordinates (free then torsion), got {len(coords)}")
        return co.make(tuple(coords[:co.free_rank]), tuple(coords[co.free_rank:]))

    def project_cocharacter(self, mu):
        return self.coinv.project(mu)

    # -- length and words ------------------------------------------------------

    def _act_point(self, g, nums):
        moved = mat_vec(g.w.mat, nums)
        return vec_add(moved, vec_scale(self.p0_den, g.cls.free))

    def _length(self, g):
        q = self._act_point(g, self.p0_num)
        d = self.p0_den
        total = 0
        for fam in self.families:
            a = dot(fam.covector, self.p0_num)
            b = dot(fam.covector, q)
            if a > b:
                a, b = b, a
            total += b // d - a // d
        return total

    def _walk(self, g):
        """Greedy wall-crossing toward the base alcove.

        Returns (letters, omega) with g = s_{letters[0]} ... s_{letters[-1]} * omega,
        the letters forming the lexicographically least reduced word.
        """
        p = self._act_point(g, self.p0_num)
        d = self.p0_den
        letters = []
        # a valid walk crosses exactly l(g) walls
        bound = g.length
        while True:
            for s in self.simple_affine:
                cov = s.family.covector
                v = dot(cov, p)
                lvl = s.level * d
                base = dot(cov, self.p0_num)
                if (v - lvl) * (base - lvl) < 0:
                    # wall separates p from the base alcove: cross it
                    r = v - lvl
                    p = tuple(x - r * wv for x, wv in zip(p, s.family.w_vec))
                    letters.append(s.index)
                    break
            else:
                break
            if len(letters) > bound:
                raise InternalInvariantError("alcove walk crossed more walls than the length")
        om = g
        for i in letters:
            om = self.simple_affine_element(i) * om
        if om.length != 0:
            raise InternalInvariantError("walk remainder has positive length")
        return tuple(letters), om

    def simple_affine_element(self, index):
        try:
            return self.simple_affine[self._slot[index]].element
        except KeyError:
            raise ElementParseError(
                f"no simple affine reflection with index {index}") from None

    def left_neighbour(self, j, g):
        """s_j g, made once per element."""
        return self._neighbour(g, j, False)

    def right_neighbour(self, g, j):
        """g s_j, made once per element."""
        return self._neighbour(g, j, True)

    def _neighbour(self, g, j, right):
        s = self.simple_affine_element(j)
        k = self._slot[j] + right * len(self._slot)
        h = (g._next or self._slots(g))[k]
        if h is None:
            h = g._next[k] = g * s if right else s * g
            (h._next or self._slots(h))[k] = g
        return h

    def _slots(self, g):
        """g's neighbour slots, empty until first asked for."""
        g._next = [None] * (2 * len(self._slot))
        return g._next

    def element_from_word(self, letters, omega=None):
        g = self.identity() if omega is None else omega
        for i in reversed(letters):
            g = self.simple_affine_element(i) * g
        return g

    # -- Bruhat order -----------------------------------------------------------

    def bruhat_leq(self, u, v):
        """Subword criterion on v's reduced word v = s_1 ... s_n omega: u <= v
        iff u, stepping down to s_i u at each letter where that is shorter,
        ends at omega.  Right multiplication by omega keeps lengths, and u in
        another component never reaches omega."""
        if u.length > v.length:
            return False
        om, letters = v.reduced_word()
        cur = u
        for i in letters:
            su = self.left_neighbour(i, cur)
            if su.length < cur.length:
                cur = su
        return cur == om

    # -- Kottwitz morphism -------------------------------------------------------

    def kottwitz(self, g):
        """Class of g in pi1(G)_I (constant on the affine Weyl group)."""
        return self._kottwitz_of_class(g.cls)

    # -- coset representatives ----------------------------------------------------

    def min_coset_rep(self, g, letters):
        """Minimal-length representative of g W_J, J given by S_aff letters."""
        cur = g
        while True:
            for j in letters:
                cand = self.right_neighbour(cur, j)
                if cand.length < cur.length:
                    cur = cand
                    break
            else:
                return cur

    def double_coset_max(self, g, letters):
        """The maximal element of W_J g W_J (W_J finite).

        Each step raises the length by one, and the maximum is at most
        2 l(w_J) above g.  W_J embeds in W0, so l(w_J), its number of
        reflections, is at most the number of lines of W0.
        """
        cur = g
        for _ in range(2 * len(self.line_primitives) + 1):
            up = chain((self.left_neighbour(j, cur) for j in letters),
                       (self.right_neighbour(cur, j) for j in letters))
            nxt = next((h for h in up if h.length > cur.length), None)
            if nxt is None:
                return cur
            cur = nxt
        raise InternalInvariantError("double coset ascent exceeded 2 l(w_J) steps")

    def dc_rep(self, g, letters):
        """The representative of maximal length among the minimal-length
        representatives over the double coset W_J g W_J."""
        return self.min_coset_rep(self.double_coset_max(g, letters), letters)

    def dc_reps(self, elements, letters):
        """(g, dc_rep(g)) for the elements, in a stable sort by length.

        The group keeps one memo of representatives per J, filled as the
        elements are visited; an element already in it costs one lookup.
        s_j g and g s_j (j in J) lie in the double coset W_J g W_J, so a
        representative found for either is reused.  When the elements form a
        Bruhat lower ideal, an element with a descent in J meets its shorter
        neighbour, which lies in the ideal and was visited first; so
        ``dc_rep`` runs only on the minimal element of a double coset, and,
        over several lower ideals, once per double coset over all of them.
        """
        rep_of = self._dc_memos.setdefault(frozenset(letters), {})
        for g in sorted(elements, key=lambda g: g.length):
            rep = rep_of.get(g)
            if rep is None:
                for j in letters:
                    rep = rep_of.get(self.left_neighbour(j, g))
                    if rep is None:
                        rep = rep_of.get(self.right_neighbour(g, j))
                    if rep is not None:
                        break
                if rep is None:
                    rep = self.dc_rep(g, letters)
                rep_of[g] = rep
            yield g, rep

    # -- dominance on classes -------------------------------------------------------

    def rel_value(self, cov, cls):
        return dot(cov, cls.free)

    def is_dominant_class(self, cls):
        return all(self.rel_value(fam.covector, cls) >= 0 for fam in self.families)

    def dominant_class(self, cls):
        """The dominant representative of the W0-orbit of a class."""
        walls = [fam.covector for fam in self.families[:self.n_simple_lines]]
        return self.w0.descend(cls, walls, self.rel_value, self.w0.act_class)[0]

    def w0_orbit(self, cls):
        return set(closure([cls], lambda c: (
            self.w0.act_class(s, c) for s in self.w0.simple_reflections)))

    def pairing_two_rho(self, cls):
        """<cls, 2 rho_B> through any representative (well-defined)."""
        return invariant_pairing(self.action, cls, self.datum.two_rho)

    # -- element parsing / printing ---------------------------------------------------

    def element_to_string(self, g):
        co = self.coinv
        coords = list(g.cls.free) + list(g.cls.torsion)
        t = "t[%s]" % ",".join(str(x) for x in coords)
        if g.w.is_identity():
            return t
        w = "w[%s]" % ",".join(str(i + 1) for i in g.w.word)
        if g.cls.is_zero():
            return w
        return t + "*" + w

    def element_from_string(self, text):
        text = text.strip()
        if not text or text in ("e", "1"):
            return self.identity()
        cls = self.coinv.zero()
        w = self.w0.identity
        for part in text.split("*"):
            part = part.strip()
            if part.startswith("t[") and part.endswith("]"):
                coords = _element_ints(part[2:-1].replace(";", ","), part)
                cls = cls + self.class_from_coords(coords)
            elif part.startswith("w[") and part.endswith("]"):
                for ell in _element_ints(part[2:-1], part):
                    if not 1 <= ell <= self.n_simple_lines:
                        raise ElementParseError(
                            f"finite letter {ell} out of range 1..{self.n_simple_lines}")
                    w = w * self.w0.simple_reflections[ell - 1]
            else:
                raise ElementParseError(f"cannot parse element part {part!r}")
        return self.element(cls, w)

    # -- enumeration ---------------------------------------------------------------

    def affine_ball(self, bound):
        """All elements of the affine Weyl group with length <= bound."""
        def up(g):
            for s in self.simple_affine:
                cand = self.left_neighbour(s.index, g)
                if cand.length == g.length + 1 and cand.length <= bound:
                    yield cand

        return set(closure([self.identity()], up))

    def omega_torsion_representatives(self):
        """Length-zero representatives of the torsion part of pi1(G)_I.

        The free part of pi1 corresponds to central translation directions
        whose components all look alike; enumeration-style checks quantify
        over the torsion classes only.
        """
        pi1 = self.pi1
        return {(c.free, c.torsion):
                self.translation(self.coinv.project(pi1.lift(c))).omega
                for c in pi1.classes([(0,) * pi1.free_rank])}
