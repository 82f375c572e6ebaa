"""The shortcuts of the branch path against the computations they replace:
dominant weights by Stembridge's closure against the enumeration of every
nonnegative combination of simple roots, Weyl orbits by downward
reflections against the closure under every simple reflection, the peel's
negative-multiplicity check (tests/oracles.py) against a constituent made
too large, and the checks of Weyl's character formula in
``restrict_to_fixed_group`` against an absolute character made too large."""

import pytest
from hypothesis import given, settings, strategies as st

from affweyl import highest_weight as hw
from affweyl.errors import PeelingError
from affweyl.folding import fold
from affweyl.linalg import dot, vec_sub
from affweyl.presets import _find_file, _parse_datum_file, list_presets, load_action
from affweyl.root_data import closure
import oracles
from oracles import dominant_peel

SAMPLES = settings(max_examples=25, derandomize=True, deadline=None)


def enumerated_dominant_weights_below(datum, lam):
    """Oracle: every lam - sum c_i alpha_i with c_i >= 0 and sum c_i up to
    the height <2 rho^vee, lam>, kept when dominant, in lexicographic order
    of (c_1, c_2, ...); ``highest_weight.dominant_weights_below`` before its
    closure form."""
    height_cap = dot(datum.two_rho_check, lam)
    simples = datum.simple_roots
    out = []

    def rec(idx, current, remaining):
        if idx == len(simples):
            if datum.is_dominant_char(current):
                out.append(tuple(current))
            return
        vec = current
        for c in range(remaining + 1):
            rec(idx + 1, vec, remaining - c)
            vec = vec_sub(vec, simples[idx])

    rec(0, tuple(lam), max(height_cap, 0))
    return out


def _declared_actions(name):
    return sorted(_parse_datum_file(_find_file(name, ".datum"))[1])


# every shipped datum under the trivial action and every action it declares
FOLDS = tuple((name, action)
              for name, kind, _ in list_presets() if kind == "split"
              for action in (None, *_declared_actions(name)))


def _data(name, action):
    """The datum and its fold's datum."""
    act = load_action(name, action)
    return act.datum, fold(act).datum


def _dominant(datum, data, box=4):
    v = data.draw(st.tuples(*[st.integers(-box, box)] * datum.rank))
    return hw.dominant_of_char(datum, v)[0]


def test_folds_cover_nonreduced_reducible_and_rootless_data():
    assert {("a2-sc", "swap"), ("a1xa1-sc", None), ("a1xa1-sc", "swap"),
            ("t1", None), ("t1", "inv")} <= set(FOLDS)


@pytest.mark.parametrize("name,action", FOLDS)
@SAMPLES
@given(data=st.data())
def test_closure_matches_the_enumeration_in_order(name, action, data):
    for datum in _data(name, action):
        lam = _dominant(datum, data)
        assert hw.dominant_weights_below(datum, lam) == \
            enumerated_dominant_weights_below(datum, lam), (name, action, lam)


@pytest.mark.parametrize("name,action", FOLDS)
@SAMPLES
@given(data=st.data())
def test_downward_orbits_match_the_closure_under_every_reflection(name, action, data):
    for datum in _data(name, action):
        lam = _dominant(datum, data)
        full = closure([lam], lambda v: (
            s.apply_cochar(v) for s in datum.dual.weyl.simple_reflections))
        steps = [(cv, a, ()) for cv, a in zip(datum.simple_coroots, datum.simple_roots)]
        orbit = {v for v, _ in hw.downward_orbit((lam, ()), steps)}
        assert orbit == set(full), (name, action, lam)


@pytest.mark.parametrize("name,lam", [("a1xa1-sc", (1, 1)), ("a2-sc", (1, 1)),
                                      ("a3-sc", (1, 0, 1)), ("d3", (1, 1, 0))])
@pytest.mark.parametrize("which", ["highest", "lowest"])
def test_inflated_constituent_fails_the_peel(monkeypatch, name, lam, which):
    act = load_action(name, "swap")
    fd = fold(act)
    assert dominant_peel(act.datum, lam, fd)
    excess = hw.weyl_dimension(act.datum, lam) + 1
    original = oracles.dominant_character_with_torsion
    height = fd.datum.two_rho_check

    def inflated(folded, mu_cls):
        char = original(folded, mu_cls)
        pick = max if which == "highest" else min
        w = pick(char.entries, key=lambda w: (dot(height, w.free), w.free, w.torsion))
        char.add(w, excess)
        return char

    monkeypatch.setattr(oracles, "dominant_character_with_torsion", inflated)
    with pytest.raises(PeelingError, match="^negative multiplicity while peeling$"):
        dominant_peel(act.datum, lam, fd)


SWAPS = [("a1xa1-sc", (1, 1)), ("a2-sc", (1, 1)), ("a3-sc", (1, 0, 1)),
         ("d3", (2, 1, 0))]


@pytest.mark.parametrize("name,lam", SWAPS)
def test_inflated_reflected_weight_fails_the_alternating_sum(monkeypatch, name, lam):
    """Count one non-dominant absolute weight too often: one whose class is
    s_i(lam's class), for the first folded simple root beta_i with n =
    <beta_i^vee, lam's class> >= 2.  Its dot-action walk is one step long
    and ends, with sign -1, at lam's class minus beta_i's (torsion
    included), so that coefficient goes negative."""
    act = load_action(name, "swap")
    fd = fold(act)
    co, rank = fd.char_coinv, act.datum.rank
    top = co.project(lam)
    n, beta, tau = next((n, b, t) for cv, b, t in zip(
        fd.datum.simple_coroots, fd.datum.simple_roots, fd.simple_torsion)
        if (n := dot(cv, top.free)) >= 2)
    target = co.make(vec_sub(top.free, tuple(n * b for b in beta)),
                     tuple(t - n * s for t, s in zip(top.torsion, tau)))
    x = min(w for w in hw.irreducible_character(act.datum, lam).entries
            if co.project(w) == target)
    assert not act.datum.is_dominant_char(x)
    excess = hw.weyl_dimension(act.datum, lam) + 1
    original = closure

    def inflated(seeds, step):
        # the orbit walk visits (weight + its class's free part, torsion)
        # pairs; Freudenthal's closure visits plain weights
        out = original(seeds, step)
        return out + [s for s in out if type(s[0]) is tuple and s[0][:rank] == x] * excess

    monkeypatch.setattr(hw, "closure", inflated)
    with pytest.raises(PeelingError, match="^negative multiplicity while peeling$"):
        hw.restrict_to_fixed_group(act.datum, act, lam, fd)


@pytest.mark.parametrize("name,lam", SWAPS)
def test_inflated_lowest_orbit_fails_the_dimension_check(monkeypatch, name, lam):
    """Count the whole orbit of the lowest dominant weight mu too often.
    That orbit sum is the character of mu, whose restriction has no
    negative coefficient, so only the dimension check can see it."""
    act = load_action(name, "swap")
    fd = fold(act)
    excess = hw.weyl_dimension(act.datum, lam) + 1
    original = hw.freudenthal

    def inflated(datum, top):
        mult = original(datum, top)
        low = min(mult, key=lambda mu: (dot(datum.two_rho_check, mu), mu))
        mult[low] += excess
        return mult

    monkeypatch.setattr(hw, "freudenthal", inflated)
    with pytest.raises(PeelingError, match="^constituent dimensions do not sum to lam's$"):
        hw.restrict_to_fixed_group(act.datum, act, lam, fd)
