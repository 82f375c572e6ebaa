"""Table-driven W0 and Iwahori-Weyl arithmetic against independent oracles.

Products in W0 are memoized walks through the left table of the shared
reflection-group core, and the W0 action on classes goes through one
class-coordinate matrix per element.  The oracles here never
touch those tables: ambient (absolute) matrix products for W0, and
``CoinvariantLattice.act`` (lift, ambient matrix, project) for the action on
classes and for Iwahori-Weyl products.  Every shipped group preset is
covered, including the torsion presets folded-a2, folded-a3 and folded-d3.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from affweyl.linalg import identity, mat_mul
from affweyl.presets import list_presets, load_group
from affweyl.root_data import reflection_matrix

PRESETS = sorted(name for name, _, _ in list_presets())
SAMPLES = settings(max_examples=40, derandomize=True, deadline=None)

group_of = lru_cache(maxsize=None)(load_group)


@lru_cache(maxsize=None)
def sample_pool(name):
    """Affine ball of radius 3, times every length-zero representative."""
    group = group_of(name)
    ball = sorted(group.affine_ball(3), key=lambda g: (g.length, g.key()))
    omegas = [om for _, om in sorted(group.omega_torsion_representatives().items())]
    return [g * om for om in omegas for g in ball]


def w0_by_ambient(group):
    return {w.abs_mat: w for w in group.w0.elements}


def unit_classes(co):
    n = co.free_rank + len(co.torsion)
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return [co.make(u[:co.free_rank], u[co.free_rank:]) for u in units]


def oracle_product(group, g, h):
    w = w0_by_ambient(group)[mat_mul(g.w.abs_mat, h.w.abs_mat)]
    return group.element(g.cls + group.coinv.act(g.w.abs_mat, h.cls), w)


def draw(data, pool):
    return pool[data.draw(st.integers(0, len(pool) - 1))]


def test_presets_include_torsion_groups():
    for name in ("folded-a2", "folded-a3", "folded-d3"):
        assert name in PRESETS
    assert any(group_of(n).coinv.torsion for n in PRESETS)


@pytest.mark.parametrize("name", PRESETS)
def test_cayley_table_is_the_group_table(name):
    w0 = group_of(name).w0
    by_ambient = w0_by_ambient(group_of(name))
    assert len(by_ambient) == len(w0)
    rank = len(w0.identity.abs_mat)
    assert w0.identity.abs_mat == identity(rank)
    for a in w0.elements:
        assert w0.identity * a is a and a * w0.identity is a
        assert mat_mul(a.abs_mat, a.inverse().abs_mat) == identity(rank)
        for b in w0.elements:
            assert a * b is by_ambient[mat_mul(a.abs_mat, b.abs_mat)]


@pytest.mark.parametrize("name", PRESETS)
def test_class_matrices_match_smith_action_on_units(name):
    group = group_of(name)
    for w in group.w0.elements:
        for b in unit_classes(group.coinv):
            assert group.w0.act_class(w, b) == group.coinv.act(w.abs_mat, b)


@pytest.mark.parametrize("name", PRESETS)
@SAMPLES
@given(data=st.data())
def test_act_class_matches_smith_action(name, data):
    group = group_of(name)
    co = group.coinv
    w = draw(data, group.w0.elements)
    free = data.draw(st.tuples(*[st.integers(-9, 9)] * co.free_rank))
    torsion = data.draw(st.tuples(*[st.integers(0, d - 1) for d in co.torsion]))
    cls = co.make(free, torsion)
    assert group.w0.act_class(w, cls) == co.act(w.abs_mat, cls)


@pytest.mark.parametrize("name", PRESETS)
@SAMPLES
@given(data=st.data())
def test_product_matches_lift_act_project(name, data):
    group = group_of(name)
    pool = sample_pool(name)
    g, h = draw(data, pool), draw(data, pool)
    assert g * h == oracle_product(group, g, h)


@pytest.mark.parametrize("name", PRESETS)
@SAMPLES
@given(data=st.data())
def test_product_associative_with_inverses(name, data):
    pool = sample_pool(name)
    g, h, k = draw(data, pool), draw(data, pool), draw(data, pool)
    assert g * (h * k) == (g * h) * k
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_hash_by_value_across_loads():
    """Equal-key elements of two loads of a preset hash alike, so set
    iteration order, and with it the work done, repeats between runs."""
    first, second = load_group("folded-d3"), load_group("folded-d3")
    assert first is not second
    for g in sample_pool("folded-d3"):
        cls = second.coinv.make(g.cls.free, g.cls.torsion)
        twin = second.element(cls, second.w0.elements[g.w.index])
        assert twin.key() == g.key()
        assert hash(twin) == hash(g)
        assert hash(twin.cls) == hash(g.cls)
        assert hash(twin.w) == hash(g.w)
        assert twin != g  # equality still requires the same group


@pytest.mark.parametrize("name", PRESETS)
def test_left_table_is_simple_left_multiplication(name):
    """_left[a][k] is the index of gens[k] * mats[a], in the absolute Weyl
    group (simple cocharacter reflections) and in the relative one (the
    reflections in the simple relative lines)."""
    group = group_of(name)
    datum = group.datum
    absolute = [reflection_matrix(datum.roots[i], datum.coroots[i], datum.rank)
                for i in datum.simples]
    relative = [group.w0.reflections[k].mat for k in range(group.n_simple_lines)]
    for weyl, gens in ((datum.weyl, absolute), (group.w0, relative)):
        index = {w.mat: w.index for w in weyl.elements}
        assert len(index) == len(weyl)
        for a, w in enumerate(weyl.elements):
            assert w.index == a
            assert len(weyl._left[a]) == len(gens)
            for k, gen in enumerate(gens):
                assert weyl._left[a][k] == index[mat_mul(gen, w.mat)]
