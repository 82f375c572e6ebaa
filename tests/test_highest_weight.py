"""Highest-weight combinatorics: Freudenthal vs. the classical oracles,
dominance order, component-group twists, restriction."""

import pytest
from itertools import product as iproduct

from affweyl import highest_weight as hw
from affweyl.errors import DominanceError
from affweyl.folding import fold, trivial_action
from affweyl.linalg import dot, vec_sub
from affweyl.presets import load_action, load_datum
from oracles import DominanceOrder, kostant_multiplicity
from test_branch_closure import FOLDS


def freudenthal_walk(datum, v):
    """The dominant-representative walk inside ``freudenthal``: reflect in
    the first simple root whose coroot pairs negatively, until none does."""
    simple = tuple(zip(datum.simple_coroots, datum.simple_roots))
    while True:
        for cv, alpha in simple:
            if (n := dot(cv, v)) < 0:
                v = tuple(x - n * a for x, a in zip(v, alpha))
                break
        else:
            return v


@pytest.mark.parametrize("name,action", FOLDS)
def test_dominant_of_char_walks_in_the_dual_weyl_group(name, action):
    """dominant_of_char gives freudenthal's representative, with an element
    of the dual's Weyl group that carries the weight there."""
    act = load_action(name, action)
    for datum in (act.datum, fold(act).datum):
        for v in iproduct(range(-3, 4), repeat=datum.rank):
            dom, w = hw.dominant_of_char(datum, v)
            assert dom == freudenthal_walk(datum, v), (name, action, v)
            assert w.group is datum.dual.weyl and w.apply_cochar(v) == dom


def brute_cone_membership(order, lam, mu, depth=20):
    """Spec oracle: bounded search over nonnegative generator combinations."""
    gens = order.generators
    diff = mu - lam
    if not gens:
        return diff.is_zero()
    from itertools import product
    for coeffs in product(range(depth + 1), repeat=len(gens)):
        acc = None
        for c, g in zip(coeffs, gens):
            term = g.scale(c)
            acc = term if acc is None else acc + term
        if acc == diff:
            return True
    return False


def test_dominance_order():
    act = load_action("a3-sc", "swap")
    fd = fold(act)
    order = DominanceOrder(fd)
    co = fd.char_coinv
    zero = co.zero()
    assert order.leq(zero, zero)
    for gen in order.generators:
        assert order.leq(zero, gen)
        assert not order.leq(gen, zero)
    # random pairs against the brute-force coefficient search
    import random
    rng = random.Random(7)
    f = co.free_rank
    for _ in range(40):
        lam = co.make(tuple(rng.randint(-3, 3) for _ in range(f)), ())
        mu = co.make(tuple(rng.randint(-3, 3) for _ in range(f)), ())
        assert order.leq(lam, mu) == brute_cone_membership(order, lam, mu)


def test_dominance_with_torsion():
    act = load_action("d3", "swap")
    fd = fold(act)
    order = DominanceOrder(fd)
    co = fd.char_coinv
    lam = co.make((0, 0), (0,))
    # the projected short simple root carries torsion offset 1
    short = [g for g in order.generators if g.torsion == (1,)]
    assert short
    assert order.leq(lam, short[0])
    # same free part but wrong torsion is not in the cone
    wrong = co.make(short[0].free, (0,))
    assert not order.leq(lam, wrong)


def test_freudenthal_small_cases():
    a1 = load_datum("a1-sc")
    ch = hw.irreducible_character(a1, (2,))
    assert ch.entries == {(2,): 1, (0,): 1, (-2,): 1}
    with pytest.raises(DominanceError):
        hw.freudenthal(a1, (-1,))
    c2 = load_datum("c2-sc")
    assert hw.irreducible_character(c2, (1, 0)).dimension() == 4
    assert hw.weyl_dimension(c2, (1, 0)) == 4


def test_trivial_highest_weight():
    for name in ("a1-sc", "c2-sc"):
        datum = load_datum(name)
        zero = (0,) * datum.rank
        assert hw.irreducible_character(datum, zero).entries == {zero: 1}


@pytest.mark.parametrize("name", ["a1-sc", "a1-ad", "a2-sc", "a2-ad",
                                  "c2-sc", "g2", "a3-sc", "d3"])
def test_freudenthal_against_weyl_and_kostant(name):
    datum = load_datum(name)
    rank = datum.rank
    lams = []
    for lam in iproduct(*[range(0, 3)] * rank):
        if datum.is_dominant_char(lam) and dot(datum.two_rho_check, lam) <= 8:
            lams.append(lam)
    for lam in lams[:6]:
        ch = hw.irreducible_character(datum, lam)
        assert ch.dimension() == hw.weyl_dimension(datum, lam)
        for mu, m in hw.freudenthal(datum, lam).items():
            assert m == kostant_multiplicity(datum, lam, mu), (lam, mu)


def test_weight_window():
    """Every weight lies between w0(mu) and mu in the dominance order."""
    for base, aname in [("a3-sc", "swap"), ("d3", "swap")]:
        act = load_action(base, aname)
        fd = fold(act)
        order = DominanceOrder(fd)
        co = fd.char_coinv
        w0 = fd.datum.dual.weyl.longest_element
        for free in iproduct(*[range(0, 2)] * co.free_rank):
            if not fd.datum.is_dominant_char(free):
                continue
            for tors in iproduct(*[range(d) for d in co.torsion]):
                mu = co.make(free, tors)
                ch = hw.character_with_torsion(fd, mu)
                assert ch[mu] == 1  # highest weight multiplicity one
                low_free = w0.apply_cochar(mu.free)
                coeffs = order._coefficients(vec_sub(mu.free, low_free))
                off = hw._torsion_offset(fd, coeffs)
                low = co.make(low_free,
                              tuple((a - b) % d for a, b, d in
                                    zip(mu.torsion, off, co.torsion)))
                for w, m in ch.items():
                    assert order.leq(w, mu), (mu, w)
                    assert order.leq(low, w), (mu, w)


def test_component_twist_trivial_pi0():
    act = load_action("a3-sc", "swap")
    fd = fold(act)
    assert fd.component_group == ()
    mu = fd.char_coinv.make((1, 0), ())
    if not fd.datum.is_dominant_char((1, 0)):
        mu = fd.char_coinv.make((0, 1), ())
    conn = hw.irreducible_character(fd.datum, mu.free)
    lifted = hw.extend_by_component_twist(conn, mu, fd)
    assert lifted.dimension() == conn.dimension()
    assert {w.free for w in lifted.entries} == set(conn.entries)


def test_rank_one_torus_twist():
    """Pure torus with inversion: one-dimensional representation whose only
    weight is the torsion class itself."""
    act = load_action("t1", "inv")
    fd = fold(act)
    assert fd.datum.rank == 0
    co = fd.char_coinv
    g = co.make((), (1,))
    ch = hw.character_with_torsion(fd, g)
    assert ch.entries == {g: 1}


def test_frobenius_reciprocity_dimension():
    act = load_action("d3", "swap")
    fd = fold(act)
    co = fd.char_coinv
    for free in [(0, 0), (0, 1), (1, 1)]:
        if not fd.datum.is_dominant_char(free):
            continue
        for tors in (0,), (1,):
            mu = co.make(free, tors)
            ch = hw.character_with_torsion(fd, mu)
            # both sides computed independently: left = |pi0| * dim rho_mu-bar,
            # right = sum over component characters of dim(rho (x) chi)
            left = hw.induced_dimension(fd, mu)
            right = 0
            for chi in range(2):
                twisted = co.make(free, ((tors[0] + chi) % 2,))
                right += hw.character_with_torsion(fd, twisted).dimension()
            assert left == right == 2 * ch.dimension()


def test_restriction_identity_action():
    a2 = load_datum("a2-sc")
    act = trivial_action(a2)
    fd = fold(act)
    dec = hw.restrict_to_fixed_group(fd, (1, 1))
    assert len(dec) == 1
    cls, mult = dec[0]
    assert mult == 1 and cls.free == (1, 1)
    assert hw.restrict_to_fixed_group(fd, (0, 0))[0][1] == 1


def test_clebsch_gordan_via_swap():
    act = load_action("a1xa1-sc", "swap")
    fd = fold(act)
    dec = hw.restrict_to_fixed_group(fd, (1, 1))
    assert [(c.free, m) for c, m in dec] == [((2,), 1), ((0,), 1)]
    # an independent tensor-character oracle: multiply two sl2 characters
    a1 = load_datum("a1-sc")
    v1 = hw.irreducible_character(a1, (1,))
    tensor = {}
    for w1, m1 in v1.items():
        for w2, m2 in v1.items():
            k = w1[0] + w2[0]
            tensor[k] = tensor.get(k, 0) + m1 * m2
    peeled = []
    while any(tensor.values()):
        top = max(k for k, m in tensor.items() if m)
        mult = tensor[top]
        for w, m in hw.irreducible_character(a1, (top,)).items():
            tensor[w[0]] -= m * mult
        peeled.append((top, mult))
    assert peeled == [(2, 1), (0, 1)]
    assert [(c.free[0], m) for c, m in dec] == peeled


def test_restriction_preserves_dimension():
    for base, aname, lams in [
        ("a3-sc", "swap", [(1, 0, 0), (0, 1, 0), (1, 0, 1)]),
        ("d3", "swap", [(1, 1, 0), (1, 0, 0), (2, 0, 0)]),
        ("a2-sc", "swap", [(1, 1), (2, 2)]),
    ]:
        act = load_action(base, aname)
        fd = fold(act)
        for lam in lams:
            if not act.datum.is_dominant_char(lam):
                continue
            total = hw.weyl_dimension(act.datum, lam)
            dec = hw.restrict_to_fixed_group(fd, lam)
            got = sum(hw.character_with_torsion(fd, c).dimension() * m
                      for c, m in dec)
            assert got == total
            assert all(m > 0 for _, m in dec)
            # the constituents reconstruct the projected character exactly
            projected = hw.WeightMultiset()
            for w, m in hw.irreducible_character(act.datum, lam).items():
                projected.add(fd.char_coinv.project(w), m)
            rebuilt = hw.WeightMultiset()
            for c, m in dec:
                for w, k in hw.character_with_torsion(fd, c).items():
                    rebuilt.add(w, k * m)
            assert rebuilt == projected


def test_restriction_nonreduced_case():
    """The a2 swap fold is the nonreduced case; restriction still peels."""
    act = load_action("a2-sc", "swap")
    fd = fold(act)
    assert fd.nonreduced
    dec = hw.restrict_to_fixed_group(fd, (1, 1))
    assert sum(hw.character_with_torsion(fd, c).dimension() * m
               for c, m in dec) == 8


def test_highest_weight_table():
    fd = fold(load_action("a3-sc", "swap"))
    rows = hw.highest_weight_table(fd, [(1, 0, 0), (0, 1, 0)])
    assert rows
    for row in rows:
        ch = hw.character_with_torsion(fd, row["mu"])
        assert row["dim"] == ch.dimension()
        assert row["provenance"]
    assert hw.highest_weight_table(fd, []) == []
