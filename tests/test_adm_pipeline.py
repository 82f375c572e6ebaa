"""The shared Adm(mu) pipeline of ``facets`` against direct recomputations.

``speciality_report`` builds the alcove closure once per mu and projects it
to every facet; each shortcut it takes is checked here, on every shipped
preset, against the plain computation it replaces: one-letter deletions by
``element_from_word``, maxima by all-pairs Bruhat tests over the whole set,
the parity check without the descent filter, the projection by one
``dc_rep`` per element, and the report by the public per-facet functions.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import facets as fc
from affweyl.presets import list_presets, load_group

PRESETS = sorted(name for name, _, _ in list_presets())
SAMPLES = settings(max_examples=30, derandomize=True, deadline=None)
BOUND = 4

group_of = lru_cache(maxsize=None)(load_group)


@lru_cache(maxsize=None)
def facets_of(name):
    return fc.enumerate_facets(group_of(name))


@lru_cache(maxsize=None)
def mu_sample(name):
    """Up to four dominant classes with <mu, 2 rho> <= 4."""
    group = group_of(name)
    return tuple(c for c in fc.default_mu_sample(group)
                 if group.pairing_two_rho(c) <= 4)[:4]


@lru_cache(maxsize=None)
def element_pool(name):
    """The affine ball of radius 3 times every length-zero representative,
    then the alcove closures of the mu sample."""
    group = group_of(name)
    ball = sorted(group.affine_ball(3), key=lambda g: (g.length, g.key()))
    omegas = [om for _, om in sorted(group.omega_torsion_representatives().items())]
    pool = [g * om for om in omegas for g in ball]
    for cls in mu_sample(name):
        pool.extend(fc._alcove(group, cls, 64)[0])
    return pool


def word_deletions(group, g):
    om, letters = g.reduced_word()
    return [group.element_from_word(letters[:k] + letters[k + 1:], om)
            for k in range(len(letters))]


def unfiltered_parity(group, facet, bound):
    """The parity check with one dc_rep call per ball element."""
    ball = sorted(group.affine_ball(bound), key=lambda g: (g.length, g.key()))
    for _, om in sorted(group.omega_torsion_representatives().items()):
        parities = {}
        for u in (w * om for w in ball):
            if group.dc_rep(u, facet.letters) != u:
                continue
            p = u.length % 2
            if (1 - p) in parities:
                return False, (parities[1 - p], u)
            parities.setdefault(p, u)
    return True, None


def per_facet_report(group, sample, bound):
    """speciality_report rows, one public admissible_set call per
    (facet, mu) and one parity_check per facet."""
    rows = []
    for facet in fc.enumerate_facets(group):
        special = facet.is_special()
        parity_ok, witness = fc.parity_check(group, facet, bound)
        counts = tuple(len(fc.admissible_set(group, cls, facet).maxima)
                       for cls in sample)
        nonunique = [cls for cls, n in zip(sample, counts) if n != 1]
        unique = not nonunique
        rows.append({
            "facet": facet.letters,
            "special": special,
            "parity": parity_ok,
            "parity_witness": witness,
            "unique_max": unique,
            "nonunique_mu": nonunique[0] if nonunique else None,
            "component_counts": counts,
            "bound": bound,
            "agree": special == parity_ok == unique,
        })
    return rows


@pytest.mark.parametrize("name", PRESETS)
@SAMPLES
@given(data=st.data())
def test_prefix_suffix_deletions_match_word_deletions(name, data):
    group = group_of(name)
    pool = element_pool(name)
    g = pool[data.draw(st.integers(0, len(pool) - 1))]
    assert list(fc._deletions(group, g)) == word_deletions(group, g)


@pytest.mark.parametrize("name", PRESETS)
def test_closure_maxima_are_all_pairs_maxima(name):
    group = group_of(name)
    for cls in mu_sample(name):
        adm, maxima = fc._alcove(group, cls, 64)
        assert len(set(adm)) == len(adm)
        assert set(maxima) == set(fc.bruhat_maxima(group, set(adm)))


@pytest.mark.parametrize("name", PRESETS)
def test_facet_maxima_are_all_pairs_maxima(name):
    """Maxima read off the images of the translations equal the all-pairs
    Bruhat maxima of the whole projected set, over the default mu sample."""
    group = group_of(name)
    for cls in fc.default_mu_sample(group):
        alcove = fc._alcove(group, cls, 64)
        for facet in facets_of(name):
            if not facet.letters:
                continue
            adm = fc._relative(group, cls, facet, alcove, {})
            expected = fc.bruhat_maxima(group, adm.elements)
            assert adm.maxima == frozenset(expected), (cls, facet)


@pytest.mark.parametrize("name", PRESETS)
def test_report_runs_dc_rep_once_per_double_coset(name, monkeypatch):
    group = load_group(name)
    dc_rep = group.dc_rep
    results = []

    def recording_dc_rep(g, letters):
        rep = dc_rep(g, letters)
        results.append((tuple(letters), rep))
        return rep

    monkeypatch.setattr(group, "dc_rep", recording_dc_rep)
    fc.speciality_report(group)
    assert results
    assert len(set(results)) == len(results)


@pytest.mark.parametrize("name", PRESETS)
def test_filtered_parity_matches_unfiltered(name):
    group = group_of(name)
    for facet in facets_of(name):
        expected = unfiltered_parity(group, facet, BOUND)
        assert fc.parity_check(group, facet, BOUND) == expected, facet


@pytest.mark.parametrize("name", PRESETS)
def test_memoized_projection_matches_dc_rep(name):
    group = group_of(name)
    for cls in mu_sample(name):
        adm, _ = fc._alcove(group, cls, 64)
        for facet in facets_of(name):
            expected = {group.dc_rep(g, facet.letters) for g in adm}
            projected = {rep for _, rep in fc._dc_reps(group, adm, facet.letters)}
            assert projected == expected


@pytest.mark.parametrize("name", PRESETS)
def test_shared_closure_report_matches_per_facet(name):
    group = group_of(name)
    sample = list(mu_sample(name))
    assert fc.speciality_report(group, sample, BOUND) == \
        per_facet_report(group, sample, BOUND)


def test_bruhat_maxima_tests_depend_only_on_contents(monkeypatch):
    """Equal sets built in different orders, one of them shrunk from a larger
    set, give the same maxima after the same Bruhat tests."""
    group = load_group("a2-sc")
    adm = fc.admissible_set(group, (1, 1), None).elements
    facet = fc.Facet(group, (1,))
    elements = sorted({rep for _, rep in fc._dc_reps(group, adm, facet.letters)},
                      key=lambda g: (g.length, g.key()))
    forward = set(elements)
    backward = set()
    for g in reversed(elements):
        backward.add(g)
    shrunk = set(adm) | forward
    shrunk -= set(adm) - forward
    assert forward == backward == shrunk
    leq = group.bruhat_leq
    seen = []

    def counting_leq(u, v):
        seen.append((u, v))
        return leq(u, v)

    monkeypatch.setattr(group, "bruhat_leq", counting_leq)
    runs = []
    for elements in (forward, backward, shrunk):
        seen.clear()
        maxima = fc.bruhat_maxima(group, elements)
        runs.append((maxima, list(seen)))
    assert runs[0][1]
    assert runs[0] == runs[1] == runs[2]
