"""Coinvariant lattices, pinned actions and folding."""

import sys

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from affweyl.errors import FoldingError, PairingError
from affweyl.folding import (CoinvariantLattice, PinnedAction, coinvariants, fold,
                             invariant_pairing, pi0_fixed_torus,
                             trivial_action)
from affweyl.linalg import (dot, identity, mat_inverse_int, mat_mul, mat_transpose,
                            mat_vec, vec_sub)
from affweyl.presets import load_action, load_datum
from test_branch_closure import FOLDS


def test_trivial_action_identity_projection():
    a2 = load_datum("a2-sc")
    co = coinvariants(trivial_action(a2).dual)
    assert co.free_rank == 2 and co.torsion == ()
    cls = co.project((3, -5))
    assert co.lift(cls) in [(3, -5)] or co.project(co.lift(cls)) == cls


def test_rank_one_inversion():
    act = load_action("t1", "inv")
    co = coinvariants(act)
    assert co.free_rank == 0 and co.torsion == (2,)
    assert co.project((3,)).torsion == (1,)
    assert co.project((4,)).torsion == (0,)
    assert pi0_fixed_torus(act) == (2,)


def test_sl4_cocharacter_swap():
    act = load_action("a3-sc", "swap")
    co = coinvariants(act.dual)
    assert co.free_rank == 2
    # oracle: invariant factors of the relation matrix via sympy
    from sympy.matrices.normalforms import invariant_factors as sf
    facs = [int(x) for x in sf(Matrix(co.relation_matrix)) if int(x) > 1]
    assert tuple(facs) == co.torsion == ()


def test_projection_kernel_rank_matches_relations():
    for base, aname in [("a3-sc", "swap"), ("d3", "swap"), ("a2-sc", "swap")]:
        act = load_action(base, aname)
        for co in (coinvariants(act), coinvariants(act.dual)):
            rank = Matrix(co.relation_matrix).rank()
            assert co.relation_rank == rank
            assert co.free_rank == co.ambient_rank - rank


def test_project_dimension_mismatch():
    act = load_action("t1", "inv")
    co = coinvariants(act)
    with pytest.raises(PairingError):
        co.project((1, 2))


coord3 = st.tuples(*[st.integers(min_value=-8, max_value=8)] * 3)


@settings(max_examples=60, deadline=None)
@given(mu=coord3, nu=coord3)
def test_project_additive(mu, nu):
    act = load_action("d3", "swap")
    co = coinvariants(act.dual)
    total = tuple(a + b for a, b in zip(mu, nu))
    assert co.project(mu) + co.project(nu) == co.project(total)


def test_invariant_pairing():
    act = load_action("d3", "swap")
    co = coinvariants(act.dual)
    # invariant characters have zero last coordinate
    chi = (2, 1, 0)
    mu = (1, 4, -2)
    assert invariant_pairing(act, co.project(mu), chi) == dot(mu, chi)
    # torsion classes pair to zero with any invariant character
    torsion_cls = co.make((0, 0), (1,))
    assert invariant_pairing(act, torsion_cls, chi) == 0
    with pytest.raises(PairingError):
        invariant_pairing(act, co.project(mu), (0, 0, 1))  # not invariant


def test_invariant_pairing_checks_every_relation_column():
    """A lattice whose second relation column pairs nontrivially with chi
    makes the pairing depend on the representative."""
    act = trivial_action(load_datum("a1-sc"))
    lattice = CoinvariantLattice(1, [(0,), (2,)])
    with pytest.raises(PairingError):
        invariant_pairing(act, lattice.project((1,)), (1,))


def test_invariant_pairing_trivial_action():
    a2 = load_datum("a2-sc")
    act = trivial_action(a2)
    co = coinvariants(act.dual)
    assert invariant_pairing(act, co.project((2, 3)), (1, -1)) == dot((2, 3), (1, -1))


@settings(max_examples=60, deadline=None)
@given(mu=coord3, a=st.integers(min_value=-6, max_value=6),
       b=st.integers(min_value=-6, max_value=6))
def test_invariant_pairing_well_defined(mu, a, b):
    """<project(mu), chi> = <mu, chi> for every invariant chi."""
    act = load_action("d3", "swap")
    co = coinvariants(act.dual)
    chi = (a, b, 0)  # the invariant characters of this action
    assert invariant_pairing(act, co.project(mu), chi) == dot(mu, chi)


def test_fold_trivial_is_identity():
    a2 = load_datum("a2-sc")
    fd = fold(trivial_action(a2))
    assert set(zip(fd.datum.roots, fd.datum.coroots)) == \
        set(zip(a2.roots, a2.coroots))
    assert fd.component_group == () and not fd.nonreduced


def test_fold_a3_swap_gives_c2():
    act = load_action("a3-sc", "swap")
    fd = fold(act)
    assert fd.datum.rank == 2
    assert len(fd.datum.positive_roots) == 4
    assert not fd.nonreduced
    # Cartan matrix off-diagonal pattern of type C2
    cart = [[dot(cv, r) for r in fd.datum.simple_roots]
            for cv in fd.datum.simple_coroots]
    off = sorted((cart[0][1], cart[1][0]))
    assert off == [-2, -1]
    assert cart[0][0] == cart[1][1] == 2
    # two orbits of simple slots: {0, 2} and {1}
    orbits = sorted(o for o, _ in fd.orbit_map)
    assert orbits == [(0, 2), (1,)]


def test_fold_a2_swap_nonreduced():
    act = load_action("a2-sc", "swap")
    fd = fold(act)
    assert fd.datum.rank == 1
    assert fd.nonreduced
    # PGL2-pattern: root generates the lattice, coroot is twice a generator
    (root,) = fd.datum.simple_roots
    (coroot,) = fd.datum.simple_coroots
    assert abs(root[0]) == 1 and abs(coroot[0]) == 2
    assert pi0_fixed_torus(act) == ()


def test_fold_d3_swap():
    act = load_action("d3", "swap")
    fd = fold(act)
    assert fd.datum.rank == 2
    assert len(fd.datum.roots) == 8  # B2
    assert fd.component_group == (2,)
    assert pi0_fixed_torus(act) == (2,)


def test_folded_weyl_is_invariant_subgroup():
    """The folded Weyl group equals the invariant absolute elements acting
    on the free quotient of the coinvariants, element by element."""
    for base, aname in [("a3-sc", "swap"), ("d3", "swap"), ("a2-sc", "swap")]:
        act = load_action(base, aname)
        fd = fold(act)
        co = fd.char_coinv
        f = co.free_rank
        basis = [co.make(tuple(1 if i == k else 0 for i in range(f)),
                         (0,) * len(co.torsion)) for k in range(f)]

        def free_mat(absmat):
            cols = [co.act(absmat, b).free for b in basis]
            return tuple(tuple(col[i] for col in cols) for i in range(f))

        invariant = set()
        for w in act.datum.dual.weyl.elements:
            if all(mat_mul(w.mat, g) == mat_mul(g, w.mat) for g in act.generators):
                invariant.add(free_mat(w.mat))
        folded_weyl = {w.mat for w in fd.datum.dual.weyl.elements}
        assert folded_weyl == invariant


def test_longest_element_is_invariant():
    for base, aname in [("a3-sc", "swap"), ("a2-sc", "swap"), ("d3", "swap")]:
        act = load_action(base, aname)
        w0 = act.datum.dual.weyl.longest_element
        for g in act.generators:
            assert mat_mul(w0.mat, g) == mat_mul(g, w0.mat)


@pytest.mark.parametrize("name,action", FOLDS)
def test_dual_action_is_the_contragredient(name, action):
    """The dual acts on the dual datum by the contragredient matrices, and
    its dual is the action itself."""
    act = load_action(name, action)
    assert act.dual.dual is act and act.dual.datum is act.datum.dual
    assert set(act.dual.group_elements) == {
        mat_transpose(mat_inverse_int(g)) for g in act.group_elements}


@pytest.mark.parametrize("name,action", FOLDS)
def test_dual_coinvariants_keep_the_cocharacter_relations(name, action):
    """coinvariants(a.dual) is presented by the columns e - g e, g running
    over the contragredient generators, as the cocharacter coinvariants
    always were, so class coordinates carry over."""
    act = load_action(name, action)
    cols = [col for g in act.cochar_generators for e in identity(act.datum.rank)
            if any(col := vec_sub(e, mat_vec(g, e)))]
    expected = CoinvariantLattice(act.datum.rank, cols)
    assert coinvariants(act.dual).relation_matrix == expected.relation_matrix


def test_unpinned_action_rejected():
    a1 = load_datum("a1-sc")
    with pytest.raises(FoldingError):
        PinnedAction(a1, (((-1,),),))  # inversion sends the simple root away


def test_lattice_build_makes_no_unimodular_inverse(monkeypatch):
    """Every coinvariant and pi_1 lattice of the shipped presets builds with
    ``mat_inverse_int`` raising: U^-1 and V^-1 come out of the reduction."""
    import affweyl.linalg as linalg
    from affweyl.presets import list_presets, load_group
    orig = linalg.mat_inverse_int
    relations = []
    for name, _, _ in list_presets():
        group = load_group(name)
        for lat in (group.coinv, group.pi1):
            relations.append((lat.ambient_rank,
                              [lat.relation_column(j) for j in range(lat.num_relations)]))

    def refuse(m):
        raise AssertionError("a lattice build inverted a matrix")

    for mod in [m for k, m in sys.modules.items() if k.startswith("affweyl.")]:
        for key, val in list(vars(mod).items()):
            if val is orig:
                monkeypatch.setattr(mod, key, refuse)
    for n, cols in relations + [(1, [(2,)]), (3, [(2, 4, 0), (0, 6, 0)])]:
        lat = CoinvariantLattice(n, cols)
        assert lat.uinv == orig(lat.u)
