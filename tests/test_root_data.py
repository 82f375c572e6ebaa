"""Root datum and finite Weyl group tests.

Group orders are checked against a brute-force closure oracle that only uses
the raw reflection formula, independently of the WeylGroup machinery.
"""

import pytest
from hypothesis import given, settings, strategies as st

from affweyl.errors import RootDatumError, UnknownPresetError
from affweyl.folding import fold
from affweyl.presets import list_presets, load_action, load_datum, load_group
from affweyl.root_data import (FiniteReflectionGroup, WeylGroup, closure,
                               reflection_matrix)
from affweyl.linalg import dot, mat_mul, identity, primitive_covector
from oracles import stabilizer_generators
from test_branch_closure import FOLDS


def brute_weyl_order(datum):
    """Closure of the simple-reflection matrices, counted naively."""
    gens = [reflection_matrix(datum.coroots[i], datum.roots[i], datum.rank)
            for i in datum.simples]
    seen = {identity(datum.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(g, m)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


@pytest.mark.parametrize("name,n_roots,order", [
    ("a1-sc", 2, 2),
    ("a1-ad", 2, 2),
    ("a2-sc", 6, 6),
    ("a2-ad", 6, 6),
    ("a3-sc", 12, 24),
    ("c2-sc", 8, 8),
    ("g2", 12, 12),
    ("a1xa1-sc", 4, 4),
    ("d3", 12, 24),
])
def test_preset_orders(name, n_roots, order):
    datum = load_datum(name)
    assert len(datum.roots) == n_roots
    assert brute_weyl_order(datum) == order
    assert len(datum.weyl) == order


@pytest.mark.parametrize("name,action", FOLDS)
def test_dual_swaps_roots_and_coroots(name, action):
    """For every shipped datum and its folds, the dual swaps roots and
    coroots, keeps the simple and positive indices, and has the datum as
    its dual."""
    act = load_action(name, action)
    for datum in (act.datum, fold(act).datum):
        dual = datum.dual
        assert (dual.roots, dual.coroots) == (datum.coroots, datum.roots)
        assert dual.simples == datum.simples
        assert dual.positive_indices == datum.positive_indices
        assert dual.dual is datum and datum.dual is dual


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        load_datum("does-not-exist")


def test_a1_basics():
    a1 = load_datum("a1-sc")
    assert set(a1.roots) == {(2,), (-2,)}
    alpha_idx = a1.roots.index((2,))
    assert dot(a1.coroots[alpha_idx], a1.roots[alpha_idx]) == 2
    assert a1.two_rho == (2,)  # the positive root itself


def test_two_rho_values():
    a2 = load_datum("a2-sc")
    # 2(alpha1 + alpha2) in fundamental-weight coordinates
    a1r = a2.roots[a2.simples[0]]
    a2r = a2.roots[a2.simples[1]]
    assert a2.two_rho == tuple(2 * (x + y) for x, y in zip(a1r, a2r))
    c2 = load_datum("c2-sc")
    assert len(c2.positive_roots) == 4
    total = tuple(sum(col) for col in zip(*c2.positive_roots))
    assert c2.two_rho == total


def test_dominant_representative_examples():
    a1 = load_datum("a1-sc")
    dom, w = a1.weyl.dominant_representative((-1,))
    assert dom == (1,) and w.length == 1
    a2 = load_datum("a2-sc")
    dom, w = a2.weyl.dominant_representative((2, 1))
    assert dom == (2, 1) and w.is_identity()
    # s1 s2 applied to a regular dominant cocharacter, then recovered
    s1, s2 = a2.weyl.simple_reflections
    moved = (s1 * s2).apply_cochar((2, 1))
    dom, w = a2.weyl.dominant_representative(moved)
    assert dom == (2, 1)
    assert w.apply_cochar(moved) == (2, 1)


def test_weyl_orbits():
    a1 = load_datum("a1-sc")
    assert a1.weyl.orbit((0,)) == {(0,)}
    assert a1.weyl.orbit((1,)) == {(1,), (-1,)}
    a2ad = load_datum("a2-ad")
    # fundamental coweight: orbit of size 3
    assert len(a2ad.weyl.orbit((1, 0))) == 3


def test_stabilizers():
    a2 = load_datum("a2-sc")
    assert a2.weyl.stabilizer_order((0, 0)) == 6
    a1 = load_datum("a1-sc")
    assert a1.weyl.stabilizer_order((1,)) == 1
    a2ad = load_datum("a2-ad")
    gens = stabilizer_generators(a2ad.weyl, (1, 0))
    assert a2ad.weyl.stabilizer_order((1, 0)) == 2
    assert len(gens) == 1 and gens[0].length == 1
    for g in gens:
        assert g.apply_cochar((1, 0)) == (1, 0)


def test_length_is_inversion_count():
    for name in ("a2-sc", "c2-sc", "g2"):
        datum = load_datum(name)
        pos = set(datum.positive_roots)
        for w in datum.weyl.elements:
            on_chars = datum.dual.weyl.element_from_word(w.word)
            inv = sum(1 for r in pos if on_chars.apply_cochar(r) not in pos)
            assert inv == w.length
            # the stored word multiplies back to the element
            assert datum.weyl.element_from_word(w.word) == w


def all_reduced_words(weyl, w):
    """Every reduced word of w, by recursion over left descents."""
    if w.is_identity():
        return [()]
    out = []
    for i, s in enumerate(weyl.simple_reflections):
        shorter = s * w
        if shorter.length < w.length:
            out.extend((i,) + rest for rest in all_reduced_words(weyl, shorter))
    return out


def test_canonical_words_are_lex_least():
    for name in ("g2", "a2-sc"):
        weyl = load_datum(name).weyl
        for w in weyl.elements:
            assert w.word == min(all_reduced_words(weyl, w))


coord = st.integers(min_value=-6, max_value=6)


@settings(max_examples=60, deadline=None)
@given(mu=st.tuples(coord, coord), chi=st.tuples(coord, coord),
       widx=st.integers(min_value=0, max_value=7))
def test_pairing_invariance(mu, chi, widx):
    c2 = load_datum("c2-sc")
    w = c2.weyl.elements[widx % len(c2.weyl)]
    on_chars = c2.dual.weyl.element_from_word(w.word)
    assert dot(w.apply_cochar(mu), on_chars.apply_cochar(chi)) == dot(mu, chi)


@settings(max_examples=60, deadline=None)
@given(mu=st.tuples(coord, coord), widx=st.integers(min_value=0, max_value=11))
def test_dominant_rep_constant_on_orbits(mu, widx):
    g2 = load_datum("g2")
    w = g2.weyl.elements[widx % len(g2.weyl)]
    dom1, _ = g2.weyl.dominant_representative(mu)
    dom2, _ = g2.weyl.dominant_representative(w.apply_cochar(mu))
    assert dom1 == dom2
    again, u = g2.weyl.dominant_representative(dom1)
    assert again == dom1 and u.is_identity()


GROUP_PRESETS = sorted(name for name, _, _ in list_presets())


def inverted_lines(group, w):
    """Relative lines sent to the negative side by w^-1 (w's length)."""
    negs = {tuple(-x for x in p) for p in group.line_primitives}
    f = len(w.mat)
    count = 0
    for cov in group.line_primitives:
        img = tuple(sum(cov[i] * w.mat[i][j] for i in range(f)) for j in range(f))
        if primitive_covector(img) in negs:
            count += 1
    return count


@pytest.mark.parametrize("name", GROUP_PRESETS)
def test_relative_weyl_lengths_words_and_inverses(name):
    group = load_group(name)
    w0 = group.w0
    for w in w0.elements:
        assert w.length == inverted_lines(group, w)
        assert w.word == min(all_reduced_words(w0, w))
        assert w0.element_from_word(w.word) is w
        assert w * w.inverse() is w0.identity


def test_closure_keeps_seeds_then_breadth_first_layers():
    graph = {3: [5, 1, 4], 1: [2], 5: [6], 4: [], 2: [3, 6], 6: []}
    assert closure([3, 1, 3], graph.__getitem__) == [3, 1, 5, 4, 2, 6]
    assert closure([], graph.__getitem__) == []


def test_closure_stops_once_past_the_limit():
    visited = []

    def step(x):
        visited.append(x)
        return (10 * x + k for k in range(1, 10))

    assert closure([0], step, limit=3) == [0, 1, 2, 3]
    assert visited == [0]
    assert closure([0], lambda x: (x + 1,), limit=5) == [0, 1, 2, 3, 4, 5]
    assert closure([0], lambda x: (x + 1,) if x < 4 else (), limit=5) == [0, 1, 2, 3, 4]


def test_weyl_order_formula_matches_the_built_group():
    """Kostant's count from the root heights equals |W| on every shipped
    datum and every fold of it."""
    for name, action in FOLDS:
        act = load_action(name, action)
        for datum in (act.datum, fold(act).datum):
            assert datum.weyl_order == len(datum.weyl.elements), (name, action)


def test_weyl_group_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setattr(WeylGroup, "MAX_ORDER", 23)
    a2, a3 = load_datum("a2-sc"), load_datum("a3-sc")
    assert len(a2.weyl) == 6
    # a closure started now would fail with a TypeError, not the cap's error
    monkeypatch.setattr(FiniteReflectionGroup, "__init__", None)
    with pytest.raises(RootDatumError, match="order 24 exceeds the cap of 23"):
        a3.weyl


def test_weyl_element_hashes_repeat_across_loads():
    first, second = load_datum("g2").weyl, load_datum("g2").weyl
    assert first is not second
    for a, b in zip(first.elements, second.elements):
        assert a.index == b.index and a.mat == b.mat
        assert hash(a) == hash(b)
        assert a != b  # equality still requires the same group
