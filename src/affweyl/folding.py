"""Pinned automorphisms, coinvariant lattices and folded root data.

Coinvariants L_I = L / <(1-g)x> are presented through an exact Smith normal
form, so torsion comes out as honest invariant factors and the projection map
is materialized (with a section).  The lattice is the one owner of its
classes: it enumerates them (``classes``, ``basis``), projects, lifts and
acts on them, and classes sort by (free, torsion).  Folding produces the
based root datum of the neutral fixed-point group on the torsion-free
quotient of the character-side coinvariants: each orbit of simple roots
contributes one folded simple root, with the coroot given by the orbit sum
of coroots (doubled when two orbit members sum to a root, which is the
nonreduced case; the flag is recorded and the Coxeter realization of the
nonreduced restricted system is deferred to the wall tables of the affine
layer).  A fold carries its action, so restriction along it needs nothing
else.
"""

from functools import cached_property
from itertools import product
from operator import mod

from .errors import FoldingError, PairingError
from .linalg import (dot, identity, mat_inverse_int, mat_mul, mat_transpose,
                     mat_vec, vec_add, vec_sub)
from .root_data import BasedRootDatum, closure
from .smith import smith_normal_form, verify_decomposition


class PinnedAction:
    """A finite group of based-root-datum automorphisms.

    ``generators`` are character-side lattice matrices.  Validation checks
    the pinning conditions: each generator permutes the roots, preserves the
    set of simple roots, and is compatible with the coroot bijection.
    Actions compare and hash by (datum, generators, name).
    """

    MAX_ORDER = 10000

    def __init__(self, datum, generators, name=""):
        self.datum = datum
        self.generators = generators
        self.name = name
        self._validate()

    def _key(self):
        return (self.datum, self.generators, self.name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def cochar_generators(self):
        """Cocharacter-side matrices (contragredient of the generators)."""
        return tuple(mat_transpose(mat_inverse_int(g)) for g in self.generators)

    @cached_property
    def dual(self):
        """The same group acting on the dual datum, by ``cochar_generators``;
        ``a.dual.dual is a``."""
        dual = PinnedAction(self.datum.dual, self.cochar_generators, self.name)
        dual.dual = self
        return dual

    @cached_property
    def group_elements(self):
        """All character-side matrices of the generated (finite) group."""
        seen = closure([identity(self.datum.rank)], lambda m: (
            mat_mul(g, m) for g in self.generators), self.MAX_ORDER)
        if len(seen) > self.MAX_ORDER:
            raise FoldingError("automorphism group exceeded the hard cap")
        return tuple(sorted(seen))

    @property
    def order(self):
        return len(self.group_elements)

    @cached_property
    def simple_permutations(self):
        """Each generator as a permutation of the simple slots."""
        datum = self.datum
        perms = []
        for g in self.generators:
            perm = []
            for i in datum.simples:
                img = mat_vec(g, datum.roots[i])
                j = datum.root_index[img]
                perm.append(datum.simples.index(j))
            perms.append(tuple(perm))
        return tuple(perms)

    def is_trivial(self):
        return all(g == identity(self.datum.rank) for g in self.generators)

    def _validate(self):
        datum = self.datum
        rootset = set(datum.roots)
        simpleset = {datum.roots[i] for i in datum.simples}
        # a generator is rank x rank: its row count and each row's length
        if any(len(row) != datum.rank for g in self.generators for row in (g, *g)):
            raise FoldingError("generator has wrong size")
        try:
            cochar = self.cochar_generators
        except ValueError:
            raise FoldingError("generator is not a lattice automorphism")
        for g, ginv_t in zip(self.generators, cochar):
            for i, r in enumerate(datum.roots):
                img = mat_vec(g, r)
                if img not in rootset:
                    raise FoldingError("generator does not permute the roots")
                j = datum.root_index[img]
                if mat_vec(ginv_t, datum.coroots[i]) != datum.coroots[j]:
                    raise FoldingError("generator incompatible with the coroot bijection")
            for i in datum.simples:
                if mat_vec(g, datum.roots[i]) not in simpleset:
                    raise FoldingError("generator does not preserve the simple roots")
        _ = self.group_elements


def trivial_action(datum):
    return PinnedAction(datum, (identity(datum.rank),), name="trivial")


class CoinvariantClass:
    """Element of a coinvariant lattice: free coordinates plus torsion.

    Classes are equal when they share a lattice and coordinates, hash by
    their coordinates and sort by (free, torsion).
    """

    __slots__ = ("lattice", "free", "torsion")

    def __init__(self, lattice, free, torsion):
        self.lattice = lattice
        self.free = free
        self.torsion = torsion

    def __add__(self, other):
        return self.lattice.make(vec_add(self.free, other.free),
                                 vec_add(self.torsion, other.torsion))

    def __sub__(self, other):
        return self.lattice.make(vec_sub(self.free, other.free),
                                 vec_sub(self.torsion, other.torsion))

    def __neg__(self):
        return self.lattice.make(tuple(-x for x in self.free),
                                 tuple(-x for x in self.torsion))

    def scale(self, c):
        return self.lattice.make(tuple(c * x for x in self.free),
                                 tuple(c * x for x in self.torsion))

    def is_zero(self):
        return not any(self.free) and not any(self.torsion)

    def __eq__(self, other):
        return (isinstance(other, CoinvariantClass)
                and self.lattice is other.lattice
                and self.free == other.free and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free, self.torsion))

    def __lt__(self, other):
        return (self.free, self.torsion) < (other.free, other.torsion)

    def __repr__(self):
        if self.torsion:
            return f"[{','.join(map(str, self.free))};{','.join(map(str, self.torsion))}]"
        return f"[{','.join(map(str, self.free))}]"


class CoinvariantLattice:
    """Quotient of Z^n by the column span of a relation matrix.

    Presented as Z^free_rank + sum Z/d_i via Smith normal form; ``project``
    and ``lift`` realize the projection and a section of it.
    """

    def __init__(self, ambient_rank, relation_columns):
        self.ambient_rank = n = ambient_rank
        cols = [tuple(c) for c in relation_columns]
        if not cols:
            cols = [(0,) * n]
        self.relation_matrix = tuple(
            tuple(c[i] for c in cols) for i in range(n))
        s, u, v, uinv, vinv = smith_normal_form(self.relation_matrix)
        if not verify_decomposition(self.relation_matrix, s, u, v, uinv, vinv):
            raise FoldingError("smith decomposition failed to verify")
        self.smith = s
        self.u = u
        self.uinv = uinv
        self.v = v
        diag = [s[i][i] if i < len(s[0]) else 0 for i in range(n)]
        self.diagonal = tuple(diag)
        self.torsion_positions = tuple(i for i, d in enumerate(diag) if d > 1)
        self.free_positions = tuple(i for i, d in enumerate(diag) if d == 0)
        self.torsion = tuple(diag[i] for i in self.torsion_positions)
        self.free_rank = len(self.free_positions)
        self.relation_rank = sum(1 for d in diag if d != 0)

    def make(self, free, torsion):
        torsion = tuple(map(mod, torsion, self.torsion)) if self.torsion else ()
        return CoinvariantClass(self, tuple(free), torsion)

    def zero(self):
        return self.make((0,) * self.free_rank, (0,) * len(self.torsion))

    def classes(self, free_parts):
        """Each free part with every reduced torsion part, free part outer,
        made as the caller iterates."""
        return (self.make(free, tors) for free in free_parts
                for tors in product(*map(range, self.torsion)))

    def basis(self):
        """The unit classes: the free coordinates first, then the torsion ones."""
        units = identity(self.free_rank + len(self.torsion))
        return [self.make(u[:self.free_rank], u[self.free_rank:]) for u in units]

    def project(self, mu):
        """Class of an ambient lattice vector."""
        if len(mu) != self.ambient_rank:
            raise PairingError("vector has wrong ambient dimension")
        y = mat_vec(self.u, mu)
        free = tuple(y[i] for i in self.free_positions)
        torsion = tuple(y[i] % self.diagonal[i] for i in self.torsion_positions)
        return self.make(free, torsion)

    def lift(self, cls):
        """A representative in the ambient lattice (section of project)."""
        y = [0] * self.ambient_rank
        for k, i in enumerate(self.free_positions):
            y[i] = cls.free[k]
        for k, i in enumerate(self.torsion_positions):
            y[i] = cls.torsion[k]
        return mat_vec(self.uinv, tuple(y))

    def act(self, ambient_matrix, cls):
        """Induced action of a relation-preserving ambient matrix."""
        return self.project(mat_vec(ambient_matrix, self.lift(cls)))

    def class_matrix(self, ambient_matrix):
        """Integer matrix of ``act(ambient_matrix, -)`` on class coordinates.

        Rows and columns run over the free then the torsion coordinates, so
        the image of a class with coordinates c has coordinates M c, torsion
        taken mod its factor.  M is read off u A u^-1, with each torsion row
        reduced mod its factor.
        """
        conj = mat_mul(mat_mul(self.u, ambient_matrix), self.uinv)
        pos = self.free_positions + self.torsion_positions
        return tuple(
            tuple(conj[i][j] % self.diagonal[i] if self.diagonal[i] else conj[i][j]
                  for j in pos)
            for i in pos)

    def relation_column(self, j):
        return tuple(self.relation_matrix[i][j] for i in range(self.ambient_rank))

    @property
    def num_relations(self):
        return len(self.relation_matrix[0]) if self.ambient_rank else 0


def coinvariants(action):
    """Coinvariant lattice of the character lattice under the action; the
    cocharacter side is ``coinvariants(action.dual)``."""
    n = action.datum.rank
    cols = []
    for g in action.generators:
        for k in range(n):
            e = tuple(1 if i == k else 0 for i in range(n))
            col = vec_sub(e, mat_vec(g, e))
            if any(col):
                cols.append(col)
    return CoinvariantLattice(n, cols)


def invariant_pairing(action, cls, chi):
    """<cls, chi> for an invariant character chi; independent of the lift.

    The value is computed on one representative and re-checked on its shift
    by every relation column, so ill-posed inputs fail loudly rather than
    silently.
    """
    for g in action.generators:
        if mat_vec(g, chi) != tuple(chi):
            raise PairingError("character is not invariant under the action")
    lat = cls.lattice
    rep = lat.lift(cls)
    val = dot(rep, chi)
    for j in range(lat.num_relations):
        if dot(vec_add(rep, lat.relation_column(j)), chi) != val:
            raise PairingError("pairing depends on the representative")
    return val


class FoldedDatum:
    """Based root datum of the neutral fixed-point group.

    ``datum`` lives on the torsion-free quotient of the character-side
    coinvariants; ``component_group`` is the torsion (the character group of
    the component group of the fixed maximal torus); ``simple_torsion``
    records the torsion coordinates of the projected simple roots, which is
    what lifts folded weights back to the full coinvariant lattice.  Folds
    compare by identity.
    """

    def __init__(self, action, char_coinv, datum, orbit_map, simple_torsion,
                 component_group, nonreduced):
        self.action = action
        self.char_coinv = char_coinv
        self.datum = datum
        self.orbit_map = orbit_map
        self.simple_torsion = simple_torsion
        self.component_group = component_group
        self.nonreduced = nonreduced


def _simple_orbits(action):
    """Orbits of the action on the simple slots, ordered by least member."""
    nslots = len(action.datum.simples)
    perms = action.simple_permutations
    seen = set()
    orbits = []
    for s in range(nslots):
        if s in seen:
            continue
        orbit = closure([s], lambda x: (p[x] for p in perms))
        seen.update(orbit)
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def fold(action):
    """Folded based root datum of a pinned action."""
    datum = action.datum
    coinv = coinvariants(action)
    f = coinv.free_rank
    free_basis = [coinv.lift(b) for b in coinv.basis()[:f]]
    unit_free = [coinv.project(e).free for e in identity(datum.rank)]

    # a functional phi on the ambient character lattice that kills the
    # relations descends to the free quotient; solve c . project = phi
    def descend_functional(phi):
        c = tuple(dot(phi, rep) for rep in free_basis)
        if any(dot(c, u) != x for u, x in zip(unit_free, phi)):
            raise FoldingError("coroot functional does not descend")
        return c

    orbits = _simple_orbits(action)
    rootset = set(datum.roots)
    folded_simple_roots = []
    folded_simple_coroots = []
    simple_torsion = []
    orbit_map = []
    nonreduced = False
    for oi, orbit in enumerate(orbits):
        slot_roots = [datum.roots[datum.simples[s]] for s in orbit]
        doubling = any(
            vec_add(a, b) in rootset
            for i, a in enumerate(slot_roots) for b in slot_roots[i + 1:])
        rep = coinv.project(slot_roots[0])
        if any(coinv.project(r) != rep for r in slot_roots[1:]):
            raise FoldingError("orbit members project to different classes")
        phi = (0,) * datum.rank
        for s in orbit:
            phi = vec_add(phi, datum.coroots[datum.simples[s]])
        if doubling:
            phi = tuple(2 * x for x in phi)
            nonreduced = True
        cvec = descend_functional(phi)
        if dot(cvec, rep.free) != 2:
            raise FoldingError("folded <coroot, root> != 2")
        folded_simple_roots.append(rep.free)
        folded_simple_coroots.append(cvec)
        simple_torsion.append(rep.torsion)
        orbit_map.append((orbit, oi))

    # close the folded simples under their reflections to get all roots
    simple_pairs = list(zip(folded_simple_roots, folded_simple_coroots))

    def reflect(pair):
        r, cv = pair
        for sr, scv in simple_pairs:
            yield (vec_sub(r, tuple(dot(scv, r) * x for x in sr)),
                   vec_sub(cv, tuple(dot(cv, sr) * x for x in scv)))

    cap = 4 * len(datum.roots) + 8
    pairs = closure(simple_pairs, reflect, cap)
    if len(pairs) > cap:
        raise FoldingError("folded root closure does not terminate")
    if f == 0 and folded_simple_roots:
        raise FoldingError("folded simple root in rank zero")
    ordered = sorted(pairs)
    roots = tuple(p[0] for p in ordered)
    coroots = tuple(p[1] for p in ordered)
    simples = tuple(ordered.index((r, cv)) for r, cv in
                    zip(folded_simple_roots, folded_simple_coroots))
    folded = BasedRootDatum(f, roots, coroots, simples,
                            name=(datum.name + "-folded") if datum.name else "folded")
    return FoldedDatum(
        action=action,
        char_coinv=coinv,
        datum=folded,
        orbit_map=tuple(orbit_map),
        simple_torsion=tuple(simple_torsion),
        component_group=coinv.torsion,
        nonreduced=nonreduced,
    )


def pi0_fixed_torus(action):
    """Invariant factors of pi_0 of the fixed torus (character group)."""
    return coinvariants(action).torsion
