"""Facets, speciality, restricted roots and admissible sets, and the
integer apartment against the Fraction routes it replaces."""

import pytest
from fractions import Fraction
from itertools import product as iproduct
from math import lcm

from affweyl import facets as fc
from affweyl.errors import CapExceededError, InfiniteGroupError
from affweyl.linalg import dot, primitive_covector, vec_add
from affweyl.presets import list_presets
from oracles import (average_lift, double_coset_count, max_double_coset_rep,
                     nullspace_rational, restricted_lines, solve_rational)


def facet_by_letters(group, letters):
    return fc.Facet(group, letters)


def test_enumerate_facets_affine_a1(group_of):
    group = group_of("a1-sc")
    fs = fc.enumerate_facets(group)
    assert [f.letters for f in fs] == [(), (0,), (1,)]
    with pytest.raises(InfiniteGroupError):
        fc.Facet(group, (0, 1))


def test_enumerate_facets_affine_a2(group_of):
    group = group_of("a2-sc")
    fs = fc.enumerate_facets(group)
    assert len(fs) == 7  # all proper subsets of the three walls
    assert all(len(f.letters) < 3 for f in fs)


def test_parahoric_orders(group_of):
    group = group_of("a2-sc")
    orders = {f.letters: f.order for f in fc.enumerate_facets(group)}
    assert orders[()] == 1
    assert all(orders[(j,)] == 2 for j in (0, 1, 2))
    assert all(v == 6 for k, v in orders.items() if len(k) == 2)


def test_speciality(group_of):
    # alcove facet is never special once there are walls
    for name in ("a1-sc", "a2-sc", "c2-sc", "g2", "folded-a3"):
        group = group_of(name)
        assert not facet_by_letters(group, ()).is_special()
    # both vertices of affine A1 are special
    group = group_of("a1-sc")
    assert facet_by_letters(group, (0,)).is_special()
    assert facet_by_letters(group, (1,)).is_special()
    # split A2: exactly the vertices are special
    group = group_of("a2-sc")
    for f in fc.enumerate_facets(group):
        assert f.is_special() == (len(f.letters) == 2)
    # split C2: the two long vertices are special, the middle one is not
    group = group_of("c2-sc")
    vertex_special = {f.letters: f.is_special()
                      for f in fc.enumerate_facets(group) if len(f.letters) == 2}
    assert sum(vertex_special.values()) == 2


def test_torus_facet_is_special(group_of):
    group = group_of("t1-inv")
    fs = fc.enumerate_facets(group)
    assert [f.letters for f in fs] == [()]
    assert fs[0].is_special()  # vacuously: no walls at all


def test_restricted_roots(group_of):
    group = group_of("a2-sc")
    alcove = facet_by_letters(group, ())
    assert alcove.restricted_roots() == ([], [])
    vertex = facet_by_letters(group, (1, 2))
    allr, pos = vertex.restricted_roots()
    assert len(allr) == 6 and len(pos) == 3
    # J = {s0}: a rank-1 subsystem not generated by a simple root, on the
    # line of the highest root, which on A2 is the sum of the simple ones
    f0 = facet_by_letters(group, (0,))
    allr, pos = f0.restricted_roots()
    assert len(allr) == 2 and len(pos) == 1
    theta = primitive_covector(pos[0])
    simples = group.line_primitives[:group.n_simple_lines]
    assert theta not in simples
    highest = group.line_ids[primitive_covector(vec_add(*simples))]
    assert group.line_ids[theta] == highest == group.simple_affine[0].family.line_id


def test_facet_dominant_rep(group_of):
    group = group_of("folded-a3")
    co = group.coinv
    special_vertex = facet_by_letters(group, (1, 2))
    assert special_vertex.is_special()
    for free in iproduct(range(-2, 3), range(-2, 3)):
        cls = co.make(free, ())
        rep = special_vertex.facet_dominant_rep(cls)
        assert rep == group.dominant_class(cls)
    alcove = facet_by_letters(group, ())
    cls = co.make((1, -2), ())
    assert alcove.facet_dominant_rep(cls) == cls


def test_lambda_mu(group_of):
    group = group_of("folded-a3")
    assert fc.lambda_mu(group, (0, 0, 0)) == {group.coinv.zero()}
    # split case: Lambda is the full orbit of the projected class
    split = group_of("a2-sc")
    lam = fc.lambda_mu(split, (1, 0))
    assert lam == {split.coinv.project(v)
                   for v in split.datum.weyl.orbit((1, 0))}
    # folded: the relative orbit of the projected dominant representative,
    # and it only depends on the absolute orbit
    dom, _ = group.datum.weyl.dominant_representative((1, 0, 0))
    lam = fc.lambda_mu(group, (1, 0, 0))
    assert lam == group.w0_orbit(group.coinv.project(dom))
    for v in list(group.datum.weyl.orbit((1, 0, 0)))[:6]:
        assert fc.lambda_mu(group, v) == lam


@pytest.mark.parametrize("name", ["a1-sc", "a1-ad", "a2-sc", "a2-ad", "a3-sc",
                                  "c2-sc", "g2", "a1xa1-sc", "d3", "t1"])
def test_split_cocharacters_and_classes_name_one_dominant_class(name, group_of):
    """On a split preset, rank-many coordinates read as a cocharacter or as
    class coordinates give one dominant class (``adm --mu`` reads them as a
    class)."""
    group = group_of(name)
    for c in iproduct(range(-1, 2), repeat=group.datum.rank):
        dom = fc._dominant(group, c)
        assert group.is_dominant_class(dom)
        assert dom == fc._dominant(group, group.class_from_coords(c)), c


def test_lambda_mu_maximality(group_of):
    """Lambda_mu consists exactly of the Bruhat-maximal classes among the
    projections of the absolute orbit (translation elements compared)."""
    for name in ("folded-a3", "folded-d3", "folded-a2"):
        group = group_of(name)
        datum = group.datum
        mus = [m for m in iproduct(*[range(0, 2)] * datum.rank)
               if datum.dual.is_dominant_char(m)][:4]
        for mu in mus:
            lam = fc.lambda_mu(group, mu)
            projected = {group.coinv.project(v)
                         for v in datum.weyl.orbit(tuple(mu))}
            trans = {c: group.translation(c) for c in projected}
            maxima = set()
            for c, t in trans.items():
                if not any(h != t and group.bruhat_leq(t, h)
                           for h in trans.values()):
                    maxima.add(c)
            assert maxima == lam


def test_admissible_set_sl2(group_of):
    group = group_of("a1-sc")
    alcove = facet_by_letters(group, ())
    adm = fc.admissible_set(group, (1,), alcove)
    assert adm.size == 5
    names = sorted(group.element_to_string(g) for g in adm.elements)
    assert names == ["t[-1]", "t[-1]*w[1]", "t[0]", "t[1]", "w[1]"]
    assert len(adm.maxima) == 2
    vertex = facet_by_letters(group, (1,))
    adm1 = fc.admissible_set(group, (1,), vertex)
    assert len(adm1.maxima) == 1
    (m,) = adm1.maxima
    assert m == group.translation(group.coinv.project((1,)))


def test_admissible_alcove_equals_relative_version(group_of):
    group = group_of("a2-sc")
    alcove = facet_by_letters(group, ())
    a = fc.admissible_set(group, (1, 0), alcove)
    b = fc.admissible_set(group, (1, 0), None)
    assert a.elements == b.elements
    assert a == b


def test_admissible_sets_compare_by_contents(group_of):
    """Sets at two Facet objects of one J, and at W-conjugate spellings of
    one mu, are equal."""
    group = group_of("a2-sc")
    a = fc.admissible_set(group, (1, 0), fc.Facet(group, (1,)))
    assert a == fc.admissible_set(group, (1, 0), fc.Facet(group, (1,)))
    assert a == fc.admissible_set(group, (0, 1), fc.Facet(group, (1,)))


def test_admissible_cap(group_of):
    group = group_of("a1-sc")
    with pytest.raises(CapExceededError):
        fc.admissible_set(group, (40,), None, length_cap=10)


def test_admissible_default_cap_is_64(group_of):
    """t^(64,) on PGL2 has length 64, at the default cap; t^(65,) is over."""
    group = group_of("a1-ad")
    assert len(fc.admissible_set(group, (64,)).elements) == 129
    with pytest.raises(CapExceededError, match="^translation length 65 exceeds cap 64$"):
        fc.admissible_set(group, (65,))


def test_admissible_maxima_closed_form(group_of):
    """Maxima = translations by the facet-dominant orbit representatives,
    counted by double cosets, all of length <mu, 2rho>."""
    for name in ("a1-sc", "a2-sc", "folded-a3"):
        group = group_of(name)
        datum = group.datum
        mus = [m for m in iproduct(*[range(0, 2)] * datum.rank)
               if datum.dual.is_dominant_char(m) and any(m)][:2]
        for facet in fc.enumerate_facets(group):
            for mu in mus:
                maxima, count = fc.maximal_admissible(group, mu, facet)
                assert set(maxima) == fc.predicted_maxima(group, mu, facet)
                cls = group.coinv.project(tuple(mu))
                assert count == double_coset_count(group, cls, facet)
                expected_len = group.pairing_two_rho(group.dominant_class(cls))
                assert all(m.length == expected_len for m in maxima)


def test_admissible_downward_closed(group_of):
    group = group_of("a2-sc")
    facet = facet_by_letters(group, (1,))
    adm = fc.admissible_set(group, (1, 0), facet)
    for g in adm.elements:
        assert any(group.bruhat_leq(g, m) for m in adm.maxima)
        assert group.kottwitz(g) == group.kottwitz(next(iter(adm.maxima)))


def test_max_double_coset_rep(group_of):
    group = group_of("a1-sc")
    vertex = facet_by_letters(group, (1,))
    t_neg = group.translation(group.coinv.project((-1,)))
    rep = max_double_coset_rep(group, t_neg, vertex)
    assert rep == group.translation(group.coinv.project((1,)))
    # J empty / identity element
    alcove = facet_by_letters(group, ())
    g = group.simple_affine_element(0)
    assert max_double_coset_rep(group, g, alcove) == g
    assert max_double_coset_rep(group, group.identity(), vertex) == \
        group.identity()


def test_dc_rep_matches_enumeration(group_of):
    for name in ("a2-sc", "folded-a3"):
        group = group_of(name)
        for facet in fc.enumerate_facets(group):
            if not facet.letters:
                continue
            for g in list(group.affine_ball(4))[:25]:
                max_double_coset_rep(group, g, facet)  # asserts internally


def test_coset_length_formula(group_of):
    """l((t^mu)^J) = l(t^mu) - #{alpha in R_J^+ : <mu, alpha> < 0}, with one
    root per hyperplane direction (the distinction only matters in the
    nonreduced restricted case)."""
    for name in ("a1-sc", "a2-sc", "c2-sc", "folded-a3", "folded-a2", "folded-d3"):
        group = group_of(name)
        co = group.coinv
        classes = []
        for free in iproduct(*[range(-2, 3)] * co.free_rank):
            for tors in iproduct(*[range(d) for d in co.torsion]):
                classes.append(co.make(free, tors))
        for facet in fc.enumerate_facets(group):
            lines = restricted_lines(facet)
            for cls in classes:
                t = group.translation(cls)
                rep = group.min_coset_rep(t, facet.letters)
                drop = sum(1 for cov in lines if dot(cov, cls.free) < 0)
                assert rep.length == t.length - drop, (name, facet.letters, cls)


def test_parity_check(group_of):
    group = group_of("a1-sc")
    special = facet_by_letters(group, (1,))
    ok, witness = fc.parity_check(group, special, 10)
    assert ok and witness is None
    alcove = facet_by_letters(group, ())
    ok, witness = fc.parity_check(group, alcove, 10)
    assert not ok and witness is not None
    u, v = witness
    assert u.length % 2 != v.length % 2
    assert group.kottwitz(u) == group.kottwitz(v)
    # bound 0: at most one element per class
    ok, _ = fc.parity_check(group, alcove, 0)
    assert ok


def test_top_length_strata_of_sl2(group_of):
    """The strata of top length, which demo 04 flags as irreducible
    components: both translations at the alcove, one at the vertex."""
    group = group_of("a1-sc")

    def top(facet):
        elements = fc.admissible_set(group, (1,), facet).elements
        n = max(g.length for g in elements)
        return [g for g in elements if g.length == n], n

    rows, n = top(facet_by_letters(group, ()))
    assert n == 2
    assert {group.element_to_string(g) for g in rows} == {"t[1]", "t[-1]"}
    rows, _ = top(facet_by_letters(group, (1,)))
    assert len(rows) == 1


def test_speciality_report(group_of):
    group = group_of("a1-sc")
    rows = fc.speciality_report(group)
    assert len(rows) == 3
    for row in rows:
        assert row["agree"]
        if row["facet"] == ():
            assert not row["special"] and not row["parity"] and not row["unique_max"]
            assert row["parity_witness"] is not None
            assert row["nonunique_mu"] is not None
        else:
            assert row["special"] and row["parity"] and row["unique_max"]


# -- the integer apartment against the Fraction routes -----------------------------


def fraction_base_point(group):
    """p0 = -rho / (2 max c(rho)) with rho from one rational solve on the
    simple lines, over the least common denominator."""
    if not group.families:
        return (0,) * group.coinv.free_rank, 1
    rows = [list(fam.covector) for fam in group.families[:group.n_simple_lines]]
    rho = solve_rational(rows, [1] * len(rows))
    k = max(dot(fam.covector, rho) for fam in group.families)
    p0 = [-x / (2 * k) for x in rho]
    den = lcm(*(x.denominator for x in p0))
    return tuple(int(x * den) for x in p0), den


def fraction_relative_roots(group):
    """(covector, positive) per relative root, the covectors taken on the
    average lifts of the free basis classes."""
    co = group.coinv
    f = co.free_rank
    realized = [average_lift(group.action, co.make(
        tuple(int(i == k) for i in range(f)), (0,) * len(co.torsion))) for k in range(f)]
    out = {}
    for idx, r in enumerate(group.datum.roots):
        cov = tuple(dot(real, r) for real in realized)
        out.setdefault(cov, idx in group.datum.positive_indices)
    return list(out.items())


def fraction_hull_point(facet):
    """One rational solve of the facet's wall equations (the origin for the
    alcove, which has no walls)."""
    rows = [list(s.family.covector) for s in facet.walls]
    if not rows:
        return (0,) * facet.group.coinv.free_rank
    return solve_rational(rows, [s.level for s in facet.walls])


def fraction_special_by_parallel_walls(facet):
    """Every wall covector annihilates the facet's direction space (a
    rational nullspace) and is integral on its rational hull point."""
    rows = [list(s.family.covector) for s in facet.walls]
    hull = fraction_hull_point(facet)
    directions = nullspace_rational(rows, facet.group.coinv.free_rank)
    return all(all(dot(fam.covector, b) == 0 for b in directions)
               and Fraction(dot(fam.covector, hull)).denominator == 1
               for fam in facet.group.families)


@pytest.mark.parametrize("name", [name for name, _, _ in list_presets()])
def test_integer_apartment_matches_the_fraction_routes(group_of, name):
    group = group_of(name)
    assert (group.p0_num, group.p0_den) == fraction_base_point(group)
    # the relative roots' lines and signs; how a root is scaled on its line
    # is a convention of the route (fold coroots, orbit sums of lifts)
    order = group.action.dual.order
    assert {(primitive_covector(cov), pos) for cov, pos in group.rel_roots} == \
        {(primitive_covector(tuple(int(order * x) for x in cov)), pos)
         for cov, pos in fraction_relative_roots(group)}
    for facet in fc.enumerate_facets(group):
        v, d = facet.hull_point
        assert tuple(Fraction(x, d) for x in v) == fraction_hull_point(facet), facet
        assert facet._special_by_parallel_walls() == \
            fraction_special_by_parallel_walls(facet), facet
