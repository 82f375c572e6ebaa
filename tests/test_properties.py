"""Properties of the Iwahori-Weyl group on every shipped preset, on
elements drawn from the affine ball of radius 4 times the length-zero
representatives: reduced words have the length, the Bruhat order is
antisymmetric and transitive, and the Kottwitz map is a homomorphism."""

from hypothesis import given, settings, strategies as st

from affweyl.presets import list_presets, load_group

SAMPLES = settings(max_examples=300, derandomize=True, deadline=None)
PRESETS = [name for name, _, _ in list_presets()]

_elements = {}


def elements(name):
    """(group, the ball of radius 4 times each length-zero representative),
    sorted by (length, key)."""
    if name not in _elements:
        group = load_group(name)
        ball = group.affine_ball(4)
        omegas = group.omega_torsion_representatives().values()
        _elements[name] = group, sorted({g * om for g in ball for om in omegas},
                                        key=lambda g: (g.length, g.key()))
    return _elements[name]


def subword_product(group, g, keep):
    """The product of the letters of g's reduced word that ``keep`` marks,
    times g's omega; it lies below g (subword property)."""
    om, letters = g.reduced_word()
    return group.element_from_word([i for i, k in zip(letters, keep) if k], om)


@SAMPLES
@given(name=st.sampled_from(PRESETS), data=st.data())
def test_reduced_word_has_the_length(name, data):
    group, els = elements(name)
    g, h = data.draw(st.sampled_from(els)), data.draw(st.sampled_from(els))
    for x in (g, h, g * h):
        om, letters = x.reduced_word()
        assert len(letters) == x.length
        assert om.length == 0 and group.element_from_word(letters, om) == x


@SAMPLES
@given(name=st.sampled_from(PRESETS), data=st.data())
def test_bruhat_antisymmetric_and_transitive(name, data):
    group, els = elements(name)
    leq = group.bruhat_leq
    g, h, k = (data.draw(st.sampled_from(els)) for _ in range(3))
    assert leq(g, g)
    if leq(g, h) and leq(h, g):
        assert g == h
    if leq(g, h) and leq(h, k):
        assert leq(g, k)
    # a chain g' <= h' <= k by subwords, so the premises hold
    masks = st.lists(st.booleans(), min_size=k.length, max_size=k.length)
    h2 = subword_product(group, k, data.draw(masks))
    g2 = subword_product(group, h2, data.draw(masks))
    assert leq(h2, k) and leq(g2, h2) and leq(g2, k)
    assert h2 == k or not leq(k, h2)
    assert g2 == h2 or not leq(h2, g2)


@SAMPLES
@given(name=st.sampled_from(PRESETS), data=st.data())
def test_kottwitz_is_a_homomorphism(name, data):
    group, els = elements(name)
    g, h = data.draw(st.sampled_from(els)), data.draw(st.sampled_from(els))
    assert group.kottwitz(g * h) == group.kottwitz(g) + group.kottwitz(h)
