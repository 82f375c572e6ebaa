"""Iwahori-Weyl group: lengths, words, Bruhat order, Kottwitz map, cosets.

The Bruhat order test uses the fully exhaustive oracle: every reduced word
of v is enumerated and all subword products collected.
"""

import sys
import threading
from itertools import product as iproduct

import pytest

from affweyl.errors import ElementParseError
from affweyl.facets import admissible_set
from affweyl.iwahori import IwahoriWeylGroup
from affweyl.presets import load_action, load_group
from oracles import subword_downset


def sample_classes(group, radius=2):
    co = group.coinv
    out = []
    for free in iproduct(*[range(-radius, radius + 1)] * co.free_rank):
        for tors in iproduct(*[range(d) for d in co.torsion]):
            out.append(co.make(free, tors))
    return out


@pytest.mark.parametrize("name", ["a1-sc", "a1-ad", "a2-sc", "folded-a2",
                                  "folded-a3", "folded-d3"])
def test_word_length_consistency(name, group_of):
    group = group_of(name)
    for g in group.affine_ball(6):
        om, letters = g.reduced_word()
        assert len(letters) == g.length
        assert om.length == 0
        assert group.element_from_word(letters, om) == g


def test_simple_reflection_words(group_of):
    group = group_of("a2-sc")
    for s in group.simple_affine:
        om, letters = s.element.reduced_word()
        assert letters == (s.index,)
        assert om.is_identity()
    om, letters = group.identity().reduced_word()
    assert letters == () and om.is_identity()


def test_translation_lengths_sl2(group_of):
    group = group_of("a1-sc")
    for n in range(-5, 6):
        t = group.translation(group.coinv.project((n,)))
        assert t.length == 2 * abs(n)
    # additivity of translations
    t1 = group.translation(group.coinv.project((2,)))
    t2 = group.translation(group.coinv.project((-3,)))
    assert t1 * t2 == group.translation(group.coinv.project((-1,)))


def test_sl2_reduced_word_convention(group_of):
    group = group_of("a1-sc")
    t = group.translation(group.coinv.project((1,)))
    om, letters = t.reduced_word()
    assert om.is_identity()
    assert letters in ((0, 1), (1, 0))
    assert letters == (1, 0)  # greedy least-descent picks the origin wall first


def test_torsion_translations_have_length_zero(group_of):
    group = group_of("folded-d3")
    tor = group.coinv.make((0, 0), (1,))
    t = group.translation(tor)
    assert t.length == 0
    assert not group.kottwitz(t).is_zero()
    assert t.omega == t  # sits inside the alcove stabilizer


def test_translation_length_pairing_box(group_of):
    for name in ("a1-sc", "a2-sc", "folded-a3", "folded-d3"):
        group = group_of(name)
        for cls in sample_classes(group, 2):
            expected = group.pairing_two_rho(group.dominant_class(cls))
            assert group.translation(cls).length == expected


def test_omega_structure_pgl2(group_of):
    group = group_of("a1-ad")
    t = group.translation(group.coinv.project((1,)))
    assert t.length == 1
    k = group.kottwitz(t)
    assert k.torsion == (1,)
    reps = group.omega_torsion_representatives()
    assert len(reps) == 2
    nontrivial = reps[((), (1,))]
    assert nontrivial.length == 0 and not nontrivial.is_identity()
    # omega conjugation permutes the simple reflections
    for s in group.simple_affine:
        conj = nontrivial * s.element * nontrivial.inverse()
        assert conj.length == 1


def test_kottwitz_morphism(group_of):
    for name in ("a1-ad", "a2-ad", "folded-d3"):
        group = group_of(name)
        sample = [group.element(c, w)
                  for c in sample_classes(group, 1)
                  for w in group.w0.elements[:4]]
        for g in sample[:12]:
            for h in sample[:12]:
                lhs = group.kottwitz(g * h)
                rhs_free = tuple(a + b for a, b in
                                 zip(group.kottwitz(g).free, group.kottwitz(h).free))
                rhs = group.pi1.make(
                    rhs_free,
                    tuple(a + b for a, b in
                          zip(group.kottwitz(g).torsion, group.kottwitz(h).torsion)))
                assert lhs == rhs
        for s in group.simple_affine:
            assert group.kottwitz(s.element).is_zero()


def test_kottwitz_classifies_omega(group_of):
    """kernel of kottwitz = affine Weyl group at sample scale."""
    for name in ("a1-ad", "folded-d3"):
        group = group_of(name)
        for g in list(group.affine_ball(4))[:40]:
            assert group.kottwitz(g).is_zero()
            assert g.omega.is_identity()
        for key, om in group.omega_torsion_representatives().items():
            assert (group.kottwitz(om).free, group.kottwitz(om).torsion) == key


@pytest.mark.parametrize("name", ["a1-sc", "a1-ad", "a2-sc"])
def test_bruhat_against_subword_oracle(name, group_of):
    group = group_of(name)
    ball = sorted(group.affine_ball(5), key=lambda g: (g.length, g.key()))
    if name == "a1-ad":
        om = group.omega_torsion_representatives()[((), (1,))]
        ball = ball + [g * om for g in ball]
    downsets = {g: subword_downset(group, g) for g in ball}
    for v in ball:
        for u in ball:
            assert group.bruhat_leq(u, v) == (u in downsets[v]), (u, v)


def test_bruhat_basics(group_of):
    group = group_of("a1-sc")
    s0 = group.simple_affine_element(0)
    s1 = group.simple_affine_element(1)
    e = group.identity()
    assert group.bruhat_leq(e, s0 * s1)
    assert group.bruhat_leq(s0, s0 * s1)
    assert group.bruhat_leq(s1, s0 * s1)
    assert not group.bruhat_leq(s0 * s1, s1 * s0)
    assert not group.bruhat_leq(s1 * s0, s0 * s1)
    # partial order refines length
    for g in group.affine_ball(4):
        for h in group.affine_ball(4):
            if group.bruhat_leq(g, h) and g != h:
                assert g.length < h.length


def test_min_coset_rep_exhaustive(group_of):
    for name in ("a2-sc", "folded-a3"):
        group = group_of(name)
        letters = (1,)
        wj = [group.identity(), group.simple_affine_element(1)]
        for g in list(group.affine_ball(5))[:60]:
            rep = group.min_coset_rep(g, letters)
            brute = min((g * u for u in wj), key=lambda x: x.length)
            assert rep.length == brute.length
            assert rep == brute


def test_min_coset_rep_trivial_cases(group_of):
    group = group_of("a2-sc")
    g = group.simple_affine_element(1) * group.simple_affine_element(2)
    assert group.min_coset_rep(g, ()) == g
    assert group.min_coset_rep(group.simple_affine_element(1), (1,)) == group.identity()


def test_element_string_roundtrip(group_of):
    for name in ("a1-ad", "folded-d3"):
        group = group_of(name)
        for cls in sample_classes(group, 1):
            for w in group.w0.elements:
                g = group.element(cls, w)
                assert group.element_from_string(group.element_to_string(g)) == g
    with pytest.raises(ElementParseError):
        group_of("a1-ad").element_from_string("t[1,2,3,4]")
    with pytest.raises(ElementParseError):
        group_of("a1-ad").element_from_string("nonsense")


def test_omega_order_three_pgl3(group_of):
    """PGL3 has a cyclic alcove-rotation group of order three."""
    group = group_of("a2-ad")
    assert group.pi1.torsion == (3,)
    reps = group.omega_torsion_representatives()
    r1 = reps[((), (1,))]
    r2 = reps[((), (2,))]
    assert r1.length == r2.length == 0
    assert r1 * r1 == r2 and (r1 * r2).is_identity()
    for s in group.simple_affine:
        assert (r1 * s.element * r1.inverse()).length == 1


def test_omega_sizes(group_of):
    for name, n in (("a1-sc", 1), ("a2-sc", 1), ("a1-ad", 2), ("a2-ad", 3),
                    ("folded-d3", 2), ("folded-a3", 1)):
        assert len(group_of(name).omega_torsion_representatives()) == n


def _fraction_reflection(involutions, cov):
    """The rational-kernel route: the involutions fixing a Fraction basis
    of the hyperplane cov = 0."""
    from affweyl.linalg import mat_vec
    from oracles import nullspace_rational
    kernel = nullspace_rational([cov], len(cov))
    hits = [m for m in involutions if all(mat_vec(m, b) == b for b in kernel)]
    assert len(hits) == 1
    return hits[0]


def test_integer_kernel_reflection_matches_fraction_route():
    from affweyl.iwahori import RelWeylGroup
    from affweyl.linalg import identity, mat_mul
    from affweyl.presets import list_presets, load_group
    lines = 0
    for name, _, _ in list_presets():
        group = load_group(name)
        ident = identity(group.coinv.free_rank)
        involutions = [w.mat for w in group.w0.elements
                       if w.mat != ident and mat_mul(w.mat, w.mat) == ident]
        for line_id, cov in enumerate(group.line_primitives):
            found = RelWeylGroup._find_reflection(involutions, cov)
            assert found == _fraction_reflection(involutions, cov)
            assert found == group.w0.reflections[line_id].mat
            lines += 1
    assert lines > 0


def test_threads_agree_on_each_element():
    """Eight threads build one admissible set on one fresh, shared group,
    switching often, in each of several rounds: each result equals the
    serial one, and each element is the group's one object for its key."""
    mu = (1, 0, 1)
    serial = admissible_set(load_group("a3-sc"), mu)
    keys = sorted(g.key() for g in serial.elements)
    top = sorted(g.key() for g in serial.maxima)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            group = load_group("a3-sc")
            start = threading.Barrier(8)
            results = [None] * 8

            def build(i):
                start.wait()
                results[i] = admissible_set(group, mu)

            threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for adm in results:
                assert sorted(g.key() for g in adm.elements) == keys
                assert sorted(g.key() for g in adm.maxima) == top
                assert all(group.element(g.cls, g.w) is g for g in adm.elements)
                assert adm == results[0]
    finally:
        sys.setswitchinterval(interval)


def test_group_name_defaults_to_the_datum_name_with_iw():
    assert IwahoriWeylGroup(load_action("a1-ad", None)).name == "a1-ad-iw"
    assert IwahoriWeylGroup(load_action("a1-ad", None), name="x").name == "x"
