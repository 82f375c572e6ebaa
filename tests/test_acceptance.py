"""Acceptance criteria, one test per criterion, exact tolerances.

Every test prints a single PASS line so the run doubles as a checklist
(`pytest -s tests/test_acceptance.py`).
"""

import json
import subprocess
import sys
from itertools import product as iproduct

import pytest

from affweyl import facets as fc
from affweyl import highest_weight as hw
from affweyl.folding import coinvariants, fold
from affweyl.linalg import dot, mat_mul, mat_inverse_int
from affweyl.presets import list_presets, load_action, load_datum, load_group
from affweyl.smith import verify_decomposition
from conftest import child_env
from oracles import (DominanceOrder, double_coset_count, kostant_multiplicity,
                     restricted_lines, subword_downset)

PRESETS = ["a1-sc", "a1-ad", "a2-sc", "c2-sc", "g2", "folded-a3"]
BRUHAT_PRESETS = ["a1-sc", "a1-ad", "a2-sc"]
BRUHAT_RADIUS = 8

_groups = {}


def grp(name):
    if name not in _groups:
        _groups[name] = load_group(name)
    return _groups[name]


def class_box(group, radius):
    co = group.coinv
    out = []
    for free in iproduct(*[range(-radius, radius + 1)] * co.free_rank):
        for tors in iproduct(*[range(d) for d in co.torsion]):
            out.append(co.make(free, tors))
    return out


def group_elements_up_to(group, bound):
    ball = sorted(group.affine_ball(bound), key=lambda g: (g.length, g.key()))
    out = list(ball)
    for key, om in sorted(group.omega_torsion_representatives().items()):
        if om.is_identity():
            continue
        out.extend(g * om for g in ball)
    return out


def test_criterion_1_length_concordance():
    """Hyperplane-separation length equals reduced-word length (l <= 10),
    and l(t^mu) = <mu_dom, 2 rho_B> on the coordinate box |.| <= 4 plus all
    torsion classes."""
    for name in PRESETS:
        group = grp(name)
        for g in group_elements_up_to(group, 10):
            om, letters = g.reduced_word()
            assert len(letters) == g.length
            assert group.element_from_word(letters, om) == g
        for cls in class_box(group, 4):
            expected = group.pairing_two_rho(group.dominant_class(cls))
            assert group.translation(cls).length == expected, (name, cls)
    print("ACCEPTANCE 1 (length concordance): PASS")


def test_criterion_2_coset_length_formula():
    """l((t^mu)^J) = l(t^mu) - #{alpha in R_J^+ : <mu, alpha> < 0} at every
    standard facet, cross-checked against coset enumeration; exact."""
    for name in PRESETS:
        group = grp(name)
        classes = class_box(group, 3 if group.coinv.free_rank <= 2 else 2)
        for facet in fc.enumerate_facets(group):
            lines = restricted_lines(facet)
            wj = sorted(facet.parahoric, key=lambda g: (g.length, g.key()))
            for cls in classes:
                t = group.translation(cls)
                rep = group.min_coset_rep(t, facet.letters)
                brute = min((t * u for u in wj), key=lambda x: x.length)
                assert rep.length == brute.length
                drop = sum(1 for cov in lines if dot(cov, cls.free) < 0)
                assert rep.length == t.length - drop, (name, facet.letters, cls)
    print("ACCEPTANCE 2 (coset length formula): PASS")


def test_criterion_3_maximal_admissible():
    """Maxima of Adm relative to each facet are exactly the translations by
    the facet-dominant orbit representatives, counted by double cosets, all
    of length <mu, 2 rho_B>; dominant mu with pairing <= 10; exact."""
    for name in PRESETS:
        group = grp(name)
        sample = [c for c in fc.default_mu_sample(group, 10)
                  if group.pairing_two_rho(c) <= 10]
        for facet in fc.enumerate_facets(group):
            for cls in sample:
                maxima, count = fc.maximal_admissible(group, cls, facet)
                assert set(maxima) == fc.predicted_maxima(group, cls, facet)
                assert count == double_coset_count(group, cls, facet)
                expected_len = group.pairing_two_rho(group.dominant_class(cls))
                assert all(m.length == expected_len for m in maxima)
    print("ACCEPTANCE 3 (maximal admissible elements): PASS")


def test_criterion_4_speciality_criteria():
    """Speciality, bounded parity, and unique-maximum columns agree on every
    facet; every non-special facet has an explicit parity witness and a mu
    with >= |W_0J \\ W_0 / W_0mu| >= 2 maxima; exact."""
    for name in PRESETS:
        group = grp(name)
        rows = fc.speciality_report(group)
        facets = {f.letters: f for f in fc.enumerate_facets(group)}
        sample = fc.default_mu_sample(group)
        for row in rows:
            assert row["agree"], (name, row)
            if not row["special"]:
                assert row["parity_witness"] is not None
                u, v = row["parity_witness"]
                assert u.length % 2 != v.length % 2
                assert group.kottwitz(u) == group.kottwitz(v)
                assert row["nonunique_mu"] is not None
                facet = facets[row["facet"]]
                cls = row["nonunique_mu"]
                _, count = fc.maximal_admissible(group, cls, facet)
                lower = double_coset_count(group, cls, facet)
                assert count >= lower >= 2
    print("ACCEPTANCE 4 (speciality criteria agree at sample scale): PASS")


def test_criterion_5_projected_orbit_maxima():
    """On folded presets the Bruhat-maximal classes among the projections of
    an absolute orbit are exactly the relative orbit of the projected
    dominant representative; exact."""
    for name in ("folded-a2", "folded-a3", "folded-d3"):
        group = grp(name)
        datum = group.datum
        mus = sorted(m for m in iproduct(*[range(0, 2)] * datum.rank)
                     if datum.dual.is_dominant_char(m))
        for mu in mus:
            lam = fc.lambda_mu(group, mu)
            projected = {group.coinv.project(v)
                         for v in datum.weyl.orbit(tuple(mu))}
            trans = {c: group.translation(c) for c in projected}
            maxima = {c for c, t in trans.items()
                      if not any(h != t and group.bruhat_leq(t, h)
                                 for h in trans.values())}
            assert maxima == lam, (name, mu)
    print("ACCEPTANCE 5 (projected orbit maxima): PASS")


def test_criterion_6_bruhat_oracle():
    """bruhat_leq agrees with the exhaustive all-reduced-words subword
    oracle on every pair with l <= 8 (BRUHAT_RADIUS); exact."""
    for name in BRUHAT_PRESETS:
        group = grp(name)
        ball = group_elements_up_to(group, BRUHAT_RADIUS)
        downsets = {v: subword_downset(group, v) for v in ball}
        for v in ball:
            dv = downsets[v]
            for u in ball:
                assert group.bruhat_leq(u, v) == (u in dv), (name, u, v)
    print("ACCEPTANCE 6 (Bruhat order vs subword oracle): PASS")


def test_criterion_7_coinvariants():
    """Smith reconstruction is bit-exact, the projection kernel has the rank
    of the relation span, and the rank-one inversion gives Z/2; exact."""
    from sympy import Matrix
    pairs = [("a2-sc", "swap"), ("a3-sc", "swap"), ("d3", "swap"),
             ("t1", "inv"), ("a1xa1-sc", "swap")]
    for base, aname in pairs:
        act = load_action(base, aname)
        for co in (coinvariants(act), coinvariants(act.dual)):
            assert verify_decomposition(co.relation_matrix, co.smith, co.u, co.v)
            assert mat_mul(mat_mul(mat_inverse_int(co.u), co.smith),
                           mat_inverse_int(co.v)) == co.relation_matrix
            assert co.relation_rank == Matrix(co.relation_matrix).rank()
    act = load_action("t1", "inv")
    co = coinvariants(act)
    assert co.free_rank == 0 and co.torsion == (2,)
    print("ACCEPTANCE 7 (coinvariant presentations): PASS")


def test_criterion_8_highest_weight_theory():
    """Highest weight multiplicity one; weight window; Freudenthal equals
    the Weyl-formula oracle for rank <= 3 and <lambda, 2 rho> <= 12;
    Clebsch-Gordan through the swap restriction; induced dimension equals
    |pi0| times the connected dimension; exact."""
    for name in ("a1-sc", "a1-ad", "a2-sc", "a2-ad", "c2-sc", "g2",
                 "a3-sc", "d3"):
        datum = load_datum(name)
        lams = sorted(
            lam for lam in iproduct(*[range(0, 7)] * datum.rank)
            if datum.is_dominant_char(lam)
            and dot(datum.two_rho_check, lam) <= 12)
        for lam in lams:
            dom = hw.freudenthal(datum, lam)
            assert dom[tuple(lam)] == 1
            ch = hw.irreducible_character(datum, lam)
            assert ch.dimension() == hw.weyl_dimension(datum, lam), (name, lam)
        for lam in lams[:4]:
            for mu, m in hw.freudenthal(datum, lam).items():
                assert m == kostant_multiplicity(datum, lam, mu)
    # weight window w0(mu) <= lambda <= mu on a folded datum with torsion
    act = load_action("d3", "swap")
    fd = fold(act)
    order = DominanceOrder(fd)
    co = fd.char_coinv
    w0 = fd.datum.dual.weyl.longest_element
    for free in ((0, 1), (1, 1), (2, 2)):
        for tors in ((0,), (1,)):
            mu = co.make(free, tors)
            ch = hw.character_with_torsion(fd, mu)
            assert ch[mu] == 1
            low_free = w0.apply_cochar(mu.free)
            low = [w for w in ch.entries if w.free == low_free]
            assert len(low) == 1
            for w in ch.entries:
                assert order.leq(w, mu) and order.leq(low[0], w)
            assert hw.induced_dimension(fd, mu) == 2 * ch.dimension()
    # Clebsch-Gordan via the factor swap
    act = load_action("a1xa1-sc", "swap")
    dec = hw.restrict_to_fixed_group(fold(act), (1, 1))
    assert [(c.free, m) for c, m in dec] == [((2,), 1), ((0,), 1)]
    print("ACCEPTANCE 8 (highest-weight theory): PASS")


def test_criterion_9_cli_determinism():
    """report/branch byte-identical across runs; selftest exits 0."""
    cmd = [sys.executable, "-m", "affweyl"]

    def run(*args):
        return subprocess.run(cmd + list(args), capture_output=True, text=True,
                              env=child_env())

    for args in (("report", "--preset", "folded-a3", "--format", "json"),
                 ("report", "--preset", "a2-sc", "--format", "tsv"),
                 ("branch", "--preset", "d3", "--action", "swap",
                  "--lambda", "1,1,0", "--format", "json")):
        a = run(*args)
        b = run(*args)
        assert a.returncode == 0 and a.stdout == b.stdout and a.stdout
        if args[-1] == "json":
            assert json.loads(a.stdout)["schema"] == "affweyl/1"
    st = run("selftest")
    assert st.returncode == 0, st.stdout + st.stderr
    print("ACCEPTANCE 9 (CLI determinism and selftest): PASS")


# The shipped presets PRESETS leaves out.  Criteria 1 to 4 run on each of
# them, one test per preset, with the assertions of the tests above.
OTHER_PRESETS = ["a1xa1-sc", "a2-ad", "a3-sc", "d3", "folded-a2", "folded-d3",
                 "t1", "t1-inv"]
# Criterion 6 runs at radius 8 on every shipped preset but a3-sc and d3,
# whose balls of radius 8 make the all-reduced-words oracle slow (5-10 s
# each); those two run at radius 6 (195 and 390 elements).
OTHER_BRUHAT_PRESETS = ["a1xa1-sc", "a2-ad", "c2-sc", "folded-a2", "folded-a3",
                        "folded-d3", "g2", "t1", "t1-inv"]
LARGE_BRUHAT_PRESETS = ["a3-sc", "d3"]


@pytest.mark.parametrize("name", OTHER_PRESETS)
def test_criterion_1_on_other_presets(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "PRESETS", [name])
    test_criterion_1_length_concordance()


@pytest.mark.parametrize("name", OTHER_PRESETS)
def test_criterion_2_on_other_presets(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "PRESETS", [name])
    test_criterion_2_coset_length_formula()


@pytest.mark.parametrize("name", OTHER_PRESETS)
def test_criterion_3_on_other_presets(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "PRESETS", [name])
    test_criterion_3_maximal_admissible()


@pytest.mark.parametrize("name", OTHER_PRESETS)
def test_criterion_4_on_other_presets(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "PRESETS", [name])
    test_criterion_4_speciality_criteria()


@pytest.mark.parametrize("name", OTHER_BRUHAT_PRESETS)
def test_criterion_6_on_other_presets(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "BRUHAT_PRESETS", [name])
    test_criterion_6_bruhat_oracle()


@pytest.mark.parametrize("name", LARGE_BRUHAT_PRESETS)
def test_criterion_6_on_large_presets_at_radius_6(name, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "BRUHAT_PRESETS", [name])
    monkeypatch.setattr(sys.modules[__name__], "BRUHAT_RADIUS", 6)
    test_criterion_6_bruhat_oracle()


def satake_triples(group, folded):
    """(mu, K, Adm^K(mu), {dc_rep(t^lam) : lam a weight of V_mu}) for every
    mu in ``default_mu_sample`` and every special facet K with letters; V_mu
    is the irreducible of highest weight mu of the fold.  The fold of
    ``group.action.dual`` has the group's coinvariants as its character-side
    ones (the same relation columns), so class coordinates carry over."""
    special = [f for f in fc.enumerate_facets(group) if f.letters and f.is_special()]
    for cls in fc.default_mu_sample(group):
        weights = hw.character_with_torsion(
            folded, folded.char_coinv.make(cls.free, cls.torsion)).entries
        for facet in special:
            adm = fc.admissible_set(group, cls, facet).elements
            reps = {group.dc_rep(group.translation(group.coinv.make(w.free, w.torsion)),
                                 facet.letters) for w in weights}
            yield cls, facet, adm, reps


@pytest.mark.parametrize("name", [name for name, _, _ in list_presets()])
def test_criterion_10_satake_weights(name):
    """At a special facet K, Adm^K(mu) is the set of images dc_rep(t^lam),
    lam running over the weights of the irreducible of highest weight mu of
    the fixed-point group of the dual group, and dc_rep(t^mu) has length
    <mu, 2 rho>: the cells of Gr_{<= mu} in the ramified geometric Satake
    equivalence; exact."""
    group = grp(name)
    for cls, facet, adm, reps in satake_triples(group, fold(group.action.dual)):
        assert adm == reps, (name, cls, facet.letters)
        top = group.dc_rep(group.translation(cls), facet.letters)
        assert top.length == group.pairing_two_rho(group.dominant_class(cls))
    print(f"ACCEPTANCE 10 (Satake weights) on {name}: PASS")


@pytest.mark.parametrize("name", ["g2", "folded-a3", "a2-sc", "c2-sc", "a1-ad"])
def test_criterion_10_needs_the_dual(name):
    """Folding the group's own datum instead of its dual breaks the set
    equality, so criterion 10 discriminates."""
    group = grp(name)
    triples = list(satake_triples(group, fold(group.action)))
    assert triples and any(adm != reps for _, _, adm, reps in triples)
