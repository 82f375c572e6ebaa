"""Based root data and their finite Weyl groups.

A ``BasedRootDatum`` stores roots (character side) and coroots (cocharacter
side) as integer vectors in a fixed Z-basis, with the pairing between the two
sides given by the standard dot product.  Simply-connected and adjoint
lattice realizations of the same Dynkin type are distinct data here: the
quotient of the cocharacter lattice by the coroot lattice depends on the
realization, and everything downstream (component groups, torsion of
coinvariants) is sensitive to it.

The Weyl group is generated by closure from the simple reflections and
elements carry a canonical reduced word (lexicographically least), so all
outputs are deterministic.  The relative Weyl group W0 of an Iwahori-Weyl
group runs on the same core (``iwahori.RelWeylGroup``): it is the Weyl group
of ``fold(action.dual).datum.dual``, whose cocharacters are the free class
coordinates.
"""

from collections import Counter
from functools import cached_property
from operator import mul

from .errors import RootDatumError
from .linalg import (dot, identity, integer_left_inverse, mat_mul, mat_vec,
                     scaled_coordinates)


def reflection_matrix(root, coroot, rank):
    """Cocharacter-side matrix of s_a: s_a(mu) = mu - <mu, a> a^vee.  On
    characters it is the matrix of the dual datum's s_a (roots and coroots
    swapped), s_a(x) = x - <a^vee, x> a."""
    return tuple(
        tuple((1 if i == j else 0) - coroot[i] * root[j] for j in range(rank))
        for i in range(rank)
    )


class BasedRootDatum:
    """Roots and coroots (tuples of integer vectors, indexed alike) on a
    lattice of rank ``rank``, with the indices of the simple roots.  Data
    compare and hash by (rank, roots, coroots, simples, name)."""

    def __init__(self, rank, roots, coroots, simples, name=""):
        self.rank = rank
        self.roots = roots
        self.coroots = coroots
        self.simples = simples
        self.name = name
        self._validate()

    def _key(self):
        return (self.rank, self.roots, self.coroots, self.simples, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- basic structure ---------------------------------------------------

    @cached_property
    def root_index(self):
        return {r: i for i, r in enumerate(self.roots)}

    @cached_property
    def simple_roots(self):
        return tuple(self.roots[i] for i in self.simples)

    @cached_property
    def simple_coroots(self):
        return tuple(self.coroots[i] for i in self.simples)

    @cached_property
    def simple_root_inverse(self):
        """(N, d) = ``integer_left_inverse`` of the simple roots: N v / d are
        the coefficients of v in the simple roots, for v in their span."""
        return integer_left_inverse(self.simple_roots)

    @cached_property
    def simple_coroot_inverse(self):
        """(N, d) = ``integer_left_inverse`` of the simple coroots."""
        return integer_left_inverse(self.simple_coroots)

    def _root_coordinates(self, v):
        """(N v, d): N v / d are the coefficients of v in the simple roots;
        None when v lies outside their span."""
        return scaled_coordinates(self.simple_roots, self.simple_root_inverse, v)

    @cached_property
    def positive_indices(self):
        if self.roots and not self.simples:
            raise RootDatumError("roots present but no simple roots")
        pos = []
        for i, r in enumerate(self.roots):
            sol = self._root_coordinates(r)
            if sol is None:
                raise RootDatumError("root outside the span of the simple roots")
            if all(x >= 0 for x in sol[0]):
                pos.append(i)
            elif not all(x <= 0 for x in sol[0]):
                raise RootDatumError("root is neither positive nor negative")
        return tuple(pos)

    @cached_property
    def positive_roots(self):
        return tuple(self.roots[i] for i in self.positive_indices)

    @cached_property
    def two_rho(self):
        """Sum of the positive roots (a character)."""
        return tuple(map(sum, zip((0,) * self.rank, *self.positive_roots)))

    @cached_property
    def two_rho_check(self):
        """Sum of the positive coroots (a cocharacter)."""
        return tuple(map(sum, zip((0,) * self.rank,
                                  *(self.coroots[i] for i in self.positive_indices))))

    @cached_property
    def simple_steps(self):
        """``dominant_walk``'s steps on characters (cocharacters: the dual's)."""
        return tuple((cv, a, ()) for cv, a in zip(self.simple_coroots, self.simple_roots))

    def is_dominant_char(self, chi):
        return all(dot(av, chi) >= 0 for av in self.simple_coroots)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        n = self.rank
        if n < 0:
            raise RootDatumError("rank must be nonnegative")
        if n == 0 and self.roots:
            raise RootDatumError("rank zero cannot carry roots")
        if len(self.roots) != len(self.coroots):
            raise RootDatumError("roots and coroots must be indexed alike")
        for r, cv in zip(self.roots, self.coroots):
            if len(r) != n:
                raise RootDatumError("root of wrong length")
            if len(cv) != n:
                raise RootDatumError("coroot of wrong length")
        for i, (r, cv) in enumerate(zip(self.roots, self.coroots)):
            if dot(cv, r) != 2:
                raise RootDatumError(f"<coroot, root> != 2 at index {i}")
        rootset = set(self.roots)
        if len(rootset) != len(self.roots):
            raise RootDatumError("duplicate roots")
        for i in self.simples:
            if not 0 <= i < len(self.roots):
                raise RootDatumError("bad simple index")
        # integer_left_inverse gives a column off the pivots a zero row
        if not all(map(any, self.simple_root_inverse[0])):
            raise RootDatumError("simple roots are linearly dependent")
        # reflections permute the root set, and the coroot bijection is
        # equivariant (checked through the simple reflections)
        for i in self.simples:
            char = reflection_matrix(self.coroots[i], self.roots[i], n)
            cochar = reflection_matrix(self.roots[i], self.coroots[i], n)
            for j, r in enumerate(self.roots):
                img = mat_vec(char, r)
                if img not in rootset:
                    raise RootDatumError("simple reflection does not permute roots")
                k = self.root_index[img]
                if mat_vec(cochar, self.coroots[j]) != self.coroots[k]:
                    raise RootDatumError("coroot bijection not reflection-equivariant")
        # positivity preserved by the coroot bijection
        for i in self.positive_indices:
            sol = scaled_coordinates(self.simple_coroots, self.simple_coroot_inverse,
                                     self.coroots[i])
            if sol is None or not all(x >= 0 for x in sol[0]):
                raise RootDatumError("coroot bijection does not preserve positivity")
        if not set(self.simples) <= set(self.positive_indices):
            raise RootDatumError("simple root is not positive")

    # -- Weyl group ----------------------------------------------------------

    @cached_property
    def weyl_order(self):
        """|W| from the root system, without building W (Kostant): with n_k
        positive roots of height k, k is an exponent n_k - n_{k+1} times,
        and |W| is the product of m + 1 over the exponents m."""
        by_height = Counter(sum(num) // den for num, den in
                            map(self._root_coordinates, self.positive_roots))
        order = 1
        for k, n in by_height.items():
            order *= (k + 1) ** (n - by_height[k + 1])
        return order

    @cached_property
    def weyl(self):
        return WeylGroup(self)

    @cached_property
    def dual(self):
        """The Langlands dual datum: roots and coroots swapped, the same
        simple indices, so its characters are this datum's cocharacters;
        ``d.dual.dual is d``."""
        dual = BasedRootDatum(self.rank, self.coroots, self.roots, self.simples,
                              name=self.name and self.name + "-dual")
        dual.dual = self
        return dual


def closure(seeds, step, limit=None):
    """The seeds, then the breadth-first layers of everything ``step`` reaches.

    ``step(x)`` yields the neighbours of ``x``; each item is kept once, at
    its first appearance, so the order is the insertion order of a
    layer-by-layer search.  With a ``limit`` the search stops as soon as more
    than ``limit`` items are kept, and the caller tests
    ``len(result) > limit``.
    """
    out = []
    seen = set()
    for x in seeds:
        if x not in seen:
            seen.add(x)
            out.append(x)
    # the loop also visits what it appends: a first-in first-out queue
    for x in out:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
                if limit is not None and len(out) > limit:
                    return out
    return out


def dominant_walk(state, steps, moduli=()):
    """(end state, letters) of the walk up from state = (v, t): while some
    step (cv, alpha, tau) has n = <cv, v> < 0, the least such, k, sends
    v -> v - n alpha and t -> t - n tau mod the moduli, and k is a letter."""
    v, t = state
    letters = []
    while True:
        # dot inlined: Freudenthal walks every weight it meets
        for k, (cv, alpha, tau) in enumerate(steps):
            if (n := sum(map(mul, cv, v))) < 0:
                break
        else:
            return (v, t), letters
        v = tuple([p - n * q for p, q in zip(v, alpha)])
        t = t and tuple([(p - n * q) % d for p, q, d in zip(t, tau, moduli)])
        letters.append(k)


class WeylElement:
    """Element of a finite reflection group, with a canonical reduced word.

    ``mat`` is the matrix the group was closed on (cocharacters for an
    absolute Weyl group, free class coordinates for a relative one) and
    ``word`` the lexicographically least reduced word in the simple
    reflections.  On characters w acts as the element of ``datum.dual.weyl``
    with the same word.  The relative group fills ``class_mat`` ((free,
    torsion) class coordinates).  Elements hash by index, so elements with
    one index in two loads of a datum hash alike.
    """

    __slots__ = ("group", "index", "mat", "word", "class_mat", "_products",
                 "_inverse")

    def __init__(self, group, index, mat, word):
        self.group = group
        self.index = index
        self.mat = mat
        self.word = word
        self.class_mat = self._inverse = None
        self._products = {}

    @property
    def length(self):
        return len(self.word)

    def __mul__(self, other):
        try:
            return self._products[other.index]
        except KeyError:
            out = self._products[other.index] = self.group._left_walk(self.word, other.index)
            return out

    def inverse(self):
        if self._inverse is None:
            self._inverse = self.group.element_from_word(self.word[::-1])
        return self._inverse

    def apply_cochar(self, mu):
        return mat_vec(self.mat, mu)

    def is_identity(self):
        return not self.word

    def __repr__(self):
        return "w[%s]" % ",".join(str(i) for i in self.word)

    def __hash__(self):
        return hash(self.index)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.group is other.group \
            and self.index == other.index


class FiniteReflectionGroup:
    """A finite group generated by ordered simple reflections.

    One breadth-first closure of the identity under left multiplication by
    the simple-reflection matrices gives everything: the elements, indexed
    in sorted-matrix order; each length, as the breadth-first depth; the
    left table ``_left[a][k]``, the index of s_k * a; and each canonical
    word, by least left descent, which is the lexicographically least
    reduced word.  A product a * b walks the word of a through the left
    table and is memoized on a, so memory stays O(|W| * rank) plus the
    products actually taken.
    """

    def __init__(self, ident, simple_mats):
        gens = tuple(simple_mats)
        rows = []

        def step(m):
            # closure calls step once per item, in its result order
            rows.append(tuple(mat_mul(g, m) for g in gens))
            return rows[-1]

        bfs = closure([ident], step)
        mats = sorted(bfs)
        index = {m: i for i, m in enumerate(mats)}
        order = [index[m] for m in bfs]
        # the closure's own products, moved from breadth-first to sorted order
        left = [None] * len(mats)
        for a, row in zip(order, rows):
            left[a] = tuple(index[p] for p in row)
        depth = [-1] * len(mats)
        depth[order[0]] = 0
        for a in order:
            for c in left[a]:
                if depth[c] < 0:
                    depth[c] = depth[a] + 1
        # breadth-first order reaches every shorter element first
        words = [()] * len(mats)
        for a in order[1:]:
            k = next(k for k, c in enumerate(left[a]) if depth[c] < depth[a])
            words[a] = (k,) + words[left[a][k]]
        self._left = left
        self.elements = [WeylElement(self, i, m, words[i]) for i, m in enumerate(mats)]
        self.by_matrix = dict(zip(mats, self.elements))
        self.identity = self.elements[order[0]]
        self.simple_reflections = tuple(self.elements[c] for c in left[order[0]])

    def __len__(self):
        return len(self.elements)

    def _left_walk(self, letters, b):
        """The element s_{letters[0]} ... s_{letters[-1]} times element b."""
        left = self._left
        for k in reversed(letters):
            b = left[b][k]
        return self.elements[b]

    def element_from_word(self, word):
        return self._left_walk(word, self.identity.index)

    @cached_property
    def longest_element(self):
        return max(self.elements, key=lambda w: w.length)


class WeylGroup(FiniteReflectionGroup):
    """Finite Weyl group of a based root datum, closed on cocharacter matrices.

    The closure keeps every element and its row of generator products, so
    a datum whose order, read off ``weyl_order``, exceeds ``MAX_ORDER``
    (A7's, the largest measured to build) is refused before any element is
    made (``check_order``, which also sizes W0); no command builds one.
    """

    MAX_ORDER = 40320

    @classmethod
    def check_order(cls, datum):
        if datum.weyl_order > cls.MAX_ORDER:
            raise RootDatumError(f"Weyl group of order {datum.weyl_order} exceeds "
                                 f"the cap of {cls.MAX_ORDER} elements")

    def __init__(self, datum):
        self.check_order(datum)
        self.datum = datum
        super().__init__(identity(datum.rank), [
            reflection_matrix(datum.roots[i], datum.coroots[i], datum.rank)
            for i in datum.simples])

    def orbit(self, mu):
        """W-orbit of a cocharacter, as a set of tuples."""
        return set(closure([tuple(mu)], lambda v: (
            s.apply_cochar(v) for s in self.simple_reflections)))

    def dominant_representative(self, mu):
        """(mu+, w) with w * mu = mu+ dominant; least-index descent at each step."""
        (dom, _), letters = dominant_walk((tuple(mu), ()), self.datum.dual.simple_steps)
        return dom, self.element_from_word(letters[::-1])

    def stabilizer_order(self, mu):
        return len(self) // len(self.orbit(mu))
