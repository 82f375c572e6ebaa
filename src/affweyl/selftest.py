"""Runtime invariant battery behind ``affweyl selftest``.

A trimmed version of the test suite that needs no test runner: every shipped
preset is built (construction already validates the datum, the action and
the wall tables) and the structural identities that hold at any scale are
spot-checked at small bounds.
"""

from itertools import product as iproduct

from . import facets as fc
from . import highest_weight as hw
from .folding import fold
from .presets import load_action, load_group

GROUP_PRESETS = ["a1-sc", "a1-ad", "a2-sc", "a2-ad", "a3-sc", "c2-sc", "g2",
                 "a1xa1-sc", "d3", "folded-a2", "folded-a3", "folded-d3",
                 "t1", "t1-inv"]


def _check(label, ok):
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        raise AssertionError(label)


def run_selftest():
    for name in GROUP_PRESETS:
        group = load_group(name)
        _check(f"{name}: preset builds and validates", True)
        co = group.coinv
        sample = co.classes(iproduct(*[range(-2, 3)] * co.free_rank))
        ok = all(group.translation(c).length ==
                 group.pairing_two_rho(group.dominant_class(c))
                 for c in sample)
        _check(f"{name}: translation lengths match <mu_dom, 2rho>", ok)
        ball = group.affine_ball(5)
        ok = all(len(g.reduced_word()[1]) == g.length for g in ball)
        _check(f"{name}: word length = separating-wall count (<=5)", ok)
        ok = all(group.kottwitz(s.element).is_zero()
                 for s in group.simple_affine)
        _check(f"{name}: simple affine reflections lie in ker(kottwitz)", ok)
        for facet in fc.enumerate_facets(group):
            facet.is_special()  # raises when the two criteria disagree
        _check(f"{name}: speciality criteria agree on all facets", True)
    # highest-weight spot checks
    fd = fold(load_action("a1xa1-sc", "swap"))
    dec = hw.restrict_to_fixed_group(fd, (1, 1))
    ok = [(c.free, m) for c, m in dec] == [((2,), 1), ((0,), 1)]
    _check("a1xa1 swap: restriction reproduces the tensor-square split", ok)
    fd = fold(load_action("d3", "swap"))
    mu = fd.char_coinv.make((0, 1), (0,))
    ch = hw.character_with_torsion(fd, mu)
    ok = hw.induced_dimension(fd, mu) == 2 * ch.dimension()
    _check("d3 swap: induction dimension is |pi0| * dim", ok)
    # Satake weights (criterion 10) on a non-split group with torsion in pi1
    group = load_group("folded-d3")
    fd = group.dual_fold
    special = [f for f in fc.enumerate_facets(group) if f.letters and f.is_special()]
    ok = all(fc.admissible_set(group, mu, f).elements == {
        group.dc_rep(group.translation(w), f.letters)
        for w in hw.character_with_torsion(fd, mu).entries}
        for mu in fc.default_mu_sample(group)[:3] for f in special)
    _check("folded-d3: Adm^K(mu) = {dc_rep(t^lam) : lam a weight of V_mu}, K special", ok)
    print("selftest passed for %d presets" % len(GROUP_PRESETS))
    return 0
