"""Value semantics of the data classes, the caches of the Iwahori-Weyl layer,
and what importing the CLI pulls in."""

import subprocess
import sys

import pytest

from affweyl import facets as fc
from affweyl.folding import coinvariants, fold
from affweyl.presets import load_action, load_datum
from conftest import child_env


def test_two_loads_give_equal_data_and_actions():
    d1, d2 = load_datum("a3-sc"), load_datum("a3-sc")
    assert d1 is not d2 and d1 == d2 and hash(d1) == hash(d2)
    assert d1 != load_datum("a2-sc") and d1 != d1.roots
    assert len({d1, d2, load_datum("a2-sc")}) == 2
    a1, a2 = load_action("a3-sc", "swap"), load_action("a3-sc", "swap")
    assert a1 is not a2 and a1 == a2 and hash(a1) == hash(a2)
    assert a1 != load_action("a3-sc", "trivial")
    assert len({a1, a2, load_action("d3", "swap")}) == 2


def test_coinvariant_classes_equal_by_lattice_and_coordinates():
    act = load_action("a3-sc", "swap")
    co = coinvariants(act.dual)
    other = coinvariants(act.dual)
    x = co.make((1, 2), ())
    assert x == co.make((1, 2), ()) and hash(x) == hash(co.make((1, 2), ()))
    assert x != co.make((2, 1), ())
    assert x != other.make((1, 2), ())
    assert x != (1, 2)
    assert hash(x) == hash(other.make((1, 2), ()))
    assert len({x, co.make((1, 2), ()), co.make((0, 0), ())}) == 2
    tors = coinvariants(load_action("t1", "inv"))
    assert tors.torsion == (2,)
    assert tors.make((), (3,)) == tors.make((), (1,)) != tors.make((), (0,))
    assert hash(tors.make((), (3,))) == hash(tors.make((), (1,)))
    with pytest.raises(AttributeError):
        x.extra = 1


def test_folds_compare_by_identity():
    act = load_action("a3-sc", "swap")
    f1, f2 = fold(act), fold(act)
    assert f1 == f1 and f1 != f2
    assert f1.datum == f2.datum
    assert len({f1, f2}) == 2


def test_admissible_sets_compare_by_fields(group_of):
    group = group_of("a2-sc")
    a = fc.admissible_set(group, (1, 0), None)
    b = fc.admissible_set(group, (1, 0), None)
    assert a is not b and a == b
    # (1, 0) and (1, 1) have one dominant class, so they name one set
    assert a == fc.admissible_set(group, (1, 1), None)
    assert a != fc.admissible_set(group, (2, 2), None)
    assert a != a.elements
    with pytest.raises(TypeError):
        hash(a)


def test_values_fixed_and_caches_filled_once(group_of):
    """Products leave their operands as they were, and asking the group
    again for an element gives the same object, with the length and
    reduced word it holds."""
    group = group_of("g2")
    ball = sorted(group.affine_ball(3), key=lambda g: g.key())
    before = [(g.key(), g.cls.free, g.cls.torsion, g.w.index) for g in ball]
    words = {g.key(): g.reduced_word() for g in ball}
    lengths = {g.key(): g._len for g in ball}
    assert None not in lengths.values()
    for g in ball:
        for h in ball[:8]:
            g * h
        fresh = group.element(g.cls, g.w)
        assert fresh is g
        assert fresh.reduced_word() == words[g.key()] and fresh.length == g.length
    assert [(g.key(), g.cls.free, g.cls.torsion, g.w.index) for g in ball] == before
    assert all(g._len == lengths[g.key()] for g in ball)


def test_cli_import_leaves_out_dataclasses():
    """Nor pathlib, which pulls in urllib.parse and ipaddress: importing
    the CLI loads neither."""
    code = ("import affweyl.cli, sys; "
            "print('dataclasses' in sys.modules, 'pathlib' in sys.modules)")
    r = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "False"]
