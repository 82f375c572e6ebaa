"""The shared Adm(mu) pipeline of ``facets`` against direct recomputations.

``speciality_report`` builds the alcove closure once per mu and projects it
to every facet; each shortcut it takes is checked here, on every shipped
preset, against the plain computation it replaces: one-letter deletions by
``element_from_word``, maxima by all-pairs Bruhat tests over the whole set,
the parity check without the descent filter, the projection by one
``dc_rep`` per element, and the report by the public per-facet functions.
The neighbours and deletions each element stores, the report's one
expansion of each closure element and its torsion twins are checked
against direct products and closures, and the one object per element
against threads.
"""

import sys
import threading
import time
from functools import lru_cache
from itertools import chain, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import facets as fc
from affweyl.iwahori import IwahoriWeylElement
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
    assert g.deletions() == word_deletions(group, g)


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
            adm = fc._relative(group, facet, alcove)
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
def test_report_expands_each_closure_element_once(name, monkeypatch):
    """The sample's closures are nested; the report expands each distinct
    element once, and skips the closures of torsion twins.  The closures are
    taken on a second group, whose elements compare by key."""
    group = load_group(name)
    firsts = {}
    for cls in fc.default_mu_sample(group):
        firsts.setdefault(cls.free, cls)
    expected = set()
    for cls in firsts.values():
        expected.update(g.key() for g in fc._alcove(group_of(name), cls, 64)[0])
    deletions = IwahoriWeylElement.deletions
    expanded = []

    def recording_deletions(g):
        if g._dels is None:
            expanded.append(g)
        return deletions(g)

    monkeypatch.setattr(IwahoriWeylElement, "deletions", recording_deletions)
    fc.speciality_report(group)
    assert len(set(expanded)) == len(expanded)
    assert {g.key() for g in expanded} == expected


@pytest.mark.parametrize("name", PRESETS)
def test_neighbour_table_holds_direct_products(name):
    """The group's neighbours are the direct products, and every neighbour
    an element stores is the canonical object of its own key and equals the
    direct product."""
    group = group_of(name)
    for g in element_pool(name):
        for s in group.simple_affine:
            assert group.left_neighbour(s.index, g) == s.element * g
            assert group.right_neighbour(g, s.index) == g * s.element
    assert_neighbour_slots(group)


def assert_neighbour_slots(group):
    n = len(group.simple_affine)
    filled = [g for g in group._elements.values() if g._next is not None]
    assert filled or not group.simple_affine
    for g in filled:
        assert group.element(g.cls, g.w) is g
        for s in group.simple_affine:
            k = group._slot[s.index]
            for h, product in ((g._next[k], s.element * g),
                               (g._next[n + k], g * s.element)):
                assert h is None or (h == product and group._elements[h.key()] is h)


def run_switching_often(threads):
    """Start and join the threads, switching between them every 10 us."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_reports_sharing_a_group_across_threads():
    """Reports on one group from several threads share its elements and
    their neighbours, and every row comes out as in a lone report."""
    group = load_group("folded-d3")
    sample = list(mu_sample("folded-d3"))
    expected = fc.speciality_report(group, sample, BOUND)
    results = []
    threads = [threading.Thread(target=lambda: results.append(
        fc.speciality_report(group, sample, BOUND))) for _ in range(4)]
    run_switching_often(threads)
    assert results == [expected] * 4


def test_elements_are_one_object_per_key_across_threads(monkeypatch):
    """Threads taking products and neighbours on one fresh group get one
    object per key(), and every neighbour slot holds its key's object.
    Each new element gives up the interpreter lock once it is built, so
    threads often build one element at the same time."""
    init = IwahoriWeylElement.__init__

    def yielding_init(*args):
        init(*args)
        time.sleep(0)

    monkeypatch.setattr(IwahoriWeylElement, "__init__", yielding_init)
    group = load_group("folded-d3")
    letters = [s.index for s in group.simple_affine]
    words = list(iproduct(letters, repeat=4))
    seen = [[] for _ in range(4)]
    start = threading.Barrier(4)

    def work(t):
        start.wait()
        for word in words:
            g = group.element_from_word(word)
            seen[t].append(g)
            for j in letters:
                seen[t].append(group.left_neighbour(j, g))
                seen[t].append(group.right_neighbour(g, j))
                seen[t].append(g * group.simple_affine_element(j))

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    run_switching_often(threads)
    objects = {}
    for g in chain.from_iterable(seen):
        assert objects.setdefault(g.key(), g) is g
    assert all(group._elements[key] is g for key, g in objects.items())
    assert_neighbour_slots(group)


def test_torsion_twins_on_folded_d3():
    """Classes of the sample with one free part differ by a torsion tau;
    t^tau commutes with every simple affine reflection, and Adm(mu + tau) =
    Adm(mu) t^tau, at the alcove and relative to every facet."""
    group = group_of("folded-d3")
    firsts = {}
    twins = []
    for cls in fc.default_mu_sample(group):
        first = firsts.setdefault(cls.free, cls)
        if first is not cls:
            twins.append((first, cls))
    assert twins
    for mu, twin in twins:
        t = group.translation(twin - mu)
        assert t.length == 0 and not t.is_identity()
        assert all(s.element * t == t * s.element for s in group.simple_affine)
        assert fc._torsion_twin(group, t)
        alcove, twin_alcove = fc._alcove(group, mu, 64), fc._alcove(group, twin, 64)
        assert {g * t for g in alcove[0]} == set(twin_alcove[0])
        for facet in facets_of("folded-d3"):
            adm = fc._relative(group, facet, alcove)
            twin_adm = fc._relative(group, facet, twin_alcove)
            assert {g * t for g in adm.elements} == twin_adm.elements
            assert {g * t for g in adm.maxima} == twin_adm.maxima


@pytest.mark.parametrize("name", PRESETS)
def test_parity_components_skip_only_torsion_twins(name):
    group = group_of(name)
    ball = sorted(group.affine_ball(2), key=lambda g: (g.length, g.key()))
    omegas = [om for _, om in sorted(group.omega_torsion_representatives().items())]
    kept = [om for om in omegas if om.is_identity() or not fc._torsion_twin(group, om)]
    assert omegas[0].is_identity()
    assert fc._components(group, 2) == [[w * om for w in ball] for om in kept]
    twins = len(omegas) - len(kept)
    assert twins == (name in ("folded-d3", "t1-inv"))


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
            projected = {rep for _, rep in group.dc_reps(adm, facet.letters)}
            assert projected == expected


@pytest.mark.parametrize("name", PRESETS)
def test_shared_closure_report_matches_per_facet(name):
    group = group_of(name)
    sample = list(mu_sample(name))
    assert fc.speciality_report(group, sample, BOUND) == \
        per_facet_report(group, sample, BOUND)


@pytest.mark.parametrize("name,sample", [
    ("folded-d3", [(1, 0, 0), (0, 0, 1), (1, 1, 0)]),
    ("a2-sc", [(1, 0), (1, 1)]),
])
def test_report_takes_cocharacters(name, sample):
    """A sample of absolute cocharacters is compared by dominant classes:
    on folded-d3, (1, 0, 0) and (0, 0, 1) name one class and share counts."""
    group = group_of(name)
    assert fc.speciality_report(group, sample, BOUND) == \
        per_facet_report(group, sample, BOUND)


def test_bruhat_maxima_tests_depend_only_on_contents(monkeypatch):
    """Equal sets built in different orders, one of them shrunk from a larger
    set, give the same maxima after the same Bruhat tests."""
    group = load_group("a2-sc")
    adm = fc.admissible_set(group, (1, 1), None).elements
    facet = fc.Facet(group, (1,))
    elements = sorted({rep for _, rep in group.dc_reps(adm, facet.letters)},
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
