"""Preset catalog: based root data, pinned actions and wall tables.

Data files live in ``affweyl/data`` (additional search directories can be
prepended through the ``AFFWEYL_PRESET_PATH`` environment variable, separated
by ``os.pathsep``).

``<name>.datum`` describes a based root datum, one root per line::

    name a2-sc
    lattice simply-connected
    rank 2
    simples 0 1
    root  2 -1 | coroot 1 0
    ...
    action swap | perm 1 0
    action foo  | matrix -1 0 ; 0 -1

Actions are either permutations of the simple slots (extended linearly to
the lattice, which requires the simple roots to span) or explicit
character-side matrices (rows separated by ``;``).

``<name>.group`` describes an Iwahori-Weyl group over a base datum::

    name folded-a3
    base a3-sc
    action swap
    wall 1 -1 | 1/2
    ...

Each ``wall`` line gives a relative root direction a (a covector on the free
quotient of the cocharacter coinvariants) and its level-set stride s > 0,
written ``p`` or ``p/q`` in integers.  The reader normalizes the entry to
the integer wall covector c = a/s, whose walls are {v : c(v) in Z}; a
stride that leaves c fractional is refused here.  Split groups need no
``.group`` file: every datum name doubles as a split preset with the
trivial action and stride 1 on every root.
"""

import os
from math import gcd

from .errors import (AffweylError, EchelonnageError, FoldingError, PresetSyntaxError,
                     UnknownPresetError)
from .folding import PinnedAction, trivial_action
from .iwahori import IwahoriWeylGroup
from .linalg import identity, mat_mul, mat_transpose
from .root_data import BasedRootDatum

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
ENV_VAR = "AFFWEYL_PRESET_PATH"


def _search_dirs():
    extra = os.environ.get(ENV_VAR, "")
    return [part for part in extra.split(os.pathsep) if part] + [DATA_DIR]


def _find_file(name, suffix):
    for d in _search_dirs():
        p = os.path.join(d, name + suffix)
        if os.path.isfile(p):
            return p
    return None


def _directives(path, heads):
    """(head, rest) for each line of a preset file, comments and blank lines
    dropped; a head outside ``heads`` is a syntax error."""
    with open(path) as f:
        text = f.read()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            head, _, rest = line.partition(" ")
            if head not in heads:
                raise PresetSyntaxError(f"{path}: unknown directive {head!r}")
            yield head, rest.strip()


def _ints(text, where):
    """The whitespace-separated integers of ``text``; ``where`` names the
    file and directive for the error."""
    try:
        return tuple(int(x) for x in text.split())
    except ValueError:
        raise PresetSyntaxError(f"{where}: expected integers, got {text!r}") from None


def _parse_datum_file(path):
    rank = None
    simples = ()
    roots = []
    coroots = []
    actions = {}
    name = os.path.splitext(os.path.basename(path))[0]
    for head, rest in _directives(path, ("name", "lattice", "rank", "simples", "root",
                                         "action")):
        if head == "name":
            name = rest
        elif head == "rank":
            values = _ints(rest, f"{path}: rank")
            if len(values) != 1:
                raise PresetSyntaxError(f"{path}: rank: expected one integer, got {rest!r}")
            rank = values[0]
        elif head == "simples":
            simples = _ints(rest, f"{path}: simples")
        elif head == "root":
            left, _, right = rest.partition("|")
            rvec = _ints(left, f"{path}: root")
            rkw = right.strip().split()
            if not rkw or rkw[0] != "coroot":
                raise PresetSyntaxError(f"{path}: root line without coroot")
            cvec = _ints(" ".join(rkw[1:]), f"{path}: coroot")
            roots.append(rvec)
            coroots.append(cvec)
        elif head == "action":
            aname, _, decl = rest.partition("|")
            actions[aname.strip()] = decl.strip()
    if rank is None:
        raise PresetSyntaxError(f"{path}: missing rank")
    datum = BasedRootDatum(rank, tuple(roots), tuple(coroots), simples, name=name)
    return datum, actions


def _action_matrix(datum, decl, where):
    parts = decl.split()
    if not parts:
        raise PresetSyntaxError(f"{where}: empty action declaration")
    if parts[0] == "matrix":
        body = " ".join(parts[1:])
        return tuple(_ints(r, where) for r in body.split(";"))
    if parts[0] == "perm":
        perm = _ints(" ".join(parts[1:]), where)
        if sorted(perm) != list(range(len(datum.simples))):
            raise FoldingError("action permutation is not a permutation")
        # linear extension: M = imgs N / d, with (N, d) the simple roots'
        # left inverse, needs the simple roots to span the lattice
        if any(datum._root_coordinates(e) is None for e in identity(datum.rank)):
            raise FoldingError(
                "permutation action needs the simple roots to span; "
                "declare a matrix instead")
        num, den = datum.simple_root_inverse
        imgs = mat_transpose([datum.roots[datum.simples[k]] for k in perm])
        scaled = mat_mul(imgs, num)
        if any(x % den for row in scaled for x in row):
            raise FoldingError("permutation action is not integral on the lattice")
        return tuple(tuple(x // den for x in row) for row in scaled)
    raise PresetSyntaxError(f"{where}: unknown action declaration {decl!r}")


def _wall_covector(rest, where):
    """The integer covector a * q / p of a ``wall a | p/q`` line."""
    left, _, right = rest.partition("|")
    cov = _ints(left, where)
    stride = right.strip()
    num, slash, den = stride.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        p = q = 0
    if p == 0 or q <= 0 or len(stride.split()) > 1:
        raise PresetSyntaxError(
            f"{where} stride must be a nonzero rational p or p/q, got {stride!r}")
    g = gcd(p, q)
    p, q = p // g, q // g
    if p < 0:
        raise EchelonnageError(
            f"wall stride must be positive, got {p}" + (f"/{q}" if q > 1 else ""))
    if any(x * q % p for x in cov):
        raise EchelonnageError("normalized wall covector is not integral; bad stride")
    return tuple(x * q // p for x in cov)


def _parse_group_file(path):
    name = os.path.splitext(os.path.basename(path))[0]
    base = None
    action = None
    walls = []
    for head, rest in _directives(path, ("name", "base", "action", "wall")):
        if head == "name":
            name = rest
        elif head == "base":
            base = rest
        elif head == "action":
            action = rest
        elif head == "wall":
            walls.append(_wall_covector(rest, f"{path}: wall"))
    if base is None:
        raise PresetSyntaxError(f"{path}: missing base datum")
    return name, base, action, walls


def _datum_file(name):
    """(path, datum, actions) of the ``.datum`` preset ``name``."""
    path = _find_file(name, ".datum")
    if path is None:
        raise UnknownPresetError(f"unknown datum preset {name!r}")
    return (path,) + _parse_datum_file(path)


def load_datum(name):
    return _datum_file(name)[1]


def load_action(datum_name, action_name):
    path, datum, actions = _datum_file(datum_name)
    if action_name in (None, "", "trivial"):
        return trivial_action(datum)
    if action_name not in actions:
        raise UnknownPresetError(
            f"datum {datum_name!r} has no action {action_name!r}")
    mat = _action_matrix(datum, actions[action_name], f"{path}: action {action_name}")
    return PinnedAction(datum, (mat,), name=action_name)


def load_group(name):
    """Iwahori-Weyl group preset: a .group manifest or a split datum name."""
    path = _find_file(name, ".group")
    if path is not None:
        gname, base, action_name, walls = _parse_group_file(path)
        action = load_action(base, action_name)
        return IwahoriWeylGroup(action, wall_table=walls or None, name=gname)
    return IwahoriWeylGroup(load_action(name, None), name=name)


def _catalog_row(p, stem, suffix):
    if suffix == ".datum":
        datum, actions = _parse_datum_file(p)
        detail = f"rank {datum.rank}, {len(datum.roots)} roots"
        if actions:
            detail += ", actions: " + ",".join(sorted(actions))
        return stem, "split", detail
    _, base, action_name, walls = _parse_group_file(p)
    return stem, "folded", f"base {base}, action {action_name}, {len(walls)} walls"


def list_presets(errors=None):
    """Catalog rows: (name, kind, detail).

    A file that does not parse raises its domain error; when ``errors`` is
    a list, the error is appended to it instead and the file is left out.
    A file shadows a later one of the same name, whether it parses or not.
    """
    rows = []
    seen = set()
    for d in _search_dirs():
        if not os.path.isdir(d):
            continue
        for fname in sorted(os.listdir(d)):
            stem, suffix = os.path.splitext(fname)
            if suffix not in (".datum", ".group") or stem in seen:
                continue
            seen.add(stem)
            try:
                rows.append(_catalog_row(os.path.join(d, fname), stem, suffix))
            except AffweylError as e:
                if errors is None:
                    raise
                errors.append(e)
    rows.sort()
    return rows
