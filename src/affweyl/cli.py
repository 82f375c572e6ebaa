"""Command-line interface.

Subcommands: list-presets, fold, wgroup (length|word|leq|kottwitz), adm,
report, branch, char, selftest.  Exit codes: 0 success, 1 argument parse
error, 2 domain error (printed with its module-local name), 3 internal
invariant violation, 141 (128 + SIGPIPE, what a shell shows for a writer
stopped by a closed pipe) when stdout closes before all output is written,
as in ``affweyl adm ... | head -1``; the rest is dropped without a message.

The process flushes stdout and stderr and ends with ``os._exit``, skipping
the interpreter's teardown, so at-exit hooks (subprocess coverage, say) do
not run in it; ``main(argv)`` returns its exit code to in-process callers.

Elements are written ``t[c1,...]*w[i1,...]``: translation class coordinates
(free then torsion) and a word in the finite simple reflections (1-based,
matching the S_aff indices of the origin walls).  Output is deterministic:
identical invocations produce byte-identical output.  JSON documents carry
a schema version field.
"""

import argparse
import json
import os
import re
import sys

from .errors import (AffweylError, CapExceededError, CoordinateCountError,
                     InternalInvariantError)
from . import facets as fc
from . import highest_weight as hw
from .folding import fold as fold_action
from .linalg import dot
from .presets import list_presets, load_action, load_group

SCHEMA = "affweyl/1"


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a coordinate list may begin with a minus sign (``--mu -1,0,0``);
        # argparse's own pattern takes only a single number for a value
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc, fmt, table_keys=None):
    """Render a result document: json, tsv (the rows, or for a document
    without rows its fields as one row) or plain text."""
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    rows = doc.get("rows", [])
    keys = table_keys or (sorted(rows[0]) if rows else [])
    meta = {k: v for k, v in doc.items() if k not in ("rows", "schema")}
    if fmt == "tsv":
        if "rows" not in doc:
            rows, keys = [meta], sorted(meta)
        print("\t".join(keys))
        for row in rows:
            print("\t".join(str(row.get(k, "")) for k in keys))
        return
    for k in sorted(meta):
        print(f"{k}: {meta[k]}")
    if rows:
        widths = [max(len(str(k)), max((len(str(r.get(k, ""))) for r in rows),
                                       default=0)) for k in keys]
        print("  ".join(str(k).ljust(w) for k, w in zip(keys, widths)))
        for row in rows:
            print("  ".join(str(row.get(k, "")).ljust(w)
                            for k, w in zip(keys, widths)))


def _print_error(e):
    print(f"error[{e.name}]: {e}", file=sys.stderr)


def _int_list(text):
    """argparse type: comma-separated integers, empty for a blank string."""
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _nonnegative_int(text):
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _mu_for_group(group, coords):
    """Class coordinates as a class, else rank-many ints as a cocharacter."""
    n = group.datum.rank
    need = group.coinv.free_rank + len(group.coinv.torsion)
    if len(coords) == need:
        return group.class_from_coords(coords)
    if len(coords) == n:
        return coords
    counts = f"{n}" if n == need else f"{n} (absolute) or {need} (class)"
    raise CoordinateCountError(f"mu needs {counts} coordinates")


def _check_height(two_rho_check, weight, cap):
    """Refuse a highest weight whose height <weight, 2 rho^vee> is above the
    cap, before any character work: Freudenthal visits every dominant
    weight below it, a number that grows with the height."""
    height = dot(two_rho_check, weight)
    if height > cap:
        raise CapExceededError(f"height {height} exceeds cap {cap}")


def _check_walk(g, cap):
    """Refuse an element whose reduced word is above the cap in length,
    before the walk: it crosses l(g) walls, one step each, and l(g) is
    read in closed form."""
    if g.length > cap:
        raise CapExceededError(f"length {g.length} exceeds cap {cap}")


def cmd_list_presets(args):
    """The presets that parse on stdout, one error line per bad file on
    stderr; exit 2 if there was one."""
    errors = []
    rows = [{"name": n, "kind": k, "detail": d} for n, k, d in list_presets(errors)]
    _emit({"schema": SCHEMA, "rows": rows}, args.format,
          ["name", "kind", "detail"])
    for e in errors:
        _print_error(e)
    return 2 if errors else 0


def cmd_fold(args):
    action = load_action(args.preset, args.action)
    fd = fold_action(action)
    rows = [{"root": ",".join(map(str, fd.datum.roots[i])),
             "coroot": ",".join(map(str, fd.datum.coroots[i])),
             "simple": i in fd.datum.simples} for i in range(len(fd.datum.roots))]
    doc = {
        "schema": SCHEMA,
        "preset": args.preset,
        "action": args.action,
        "rank": fd.datum.rank,
        "torsion": list(fd.component_group),
        "nonreduced": fd.nonreduced,
        "orbit_map": [{"orbit": list(o), "folded_simple": i}
                      for o, i in fd.orbit_map],
        "rows": rows,
    }
    if args.format != "json":
        doc["orbit_map"] = "; ".join(f"{list(o)}->{i}" for o, i in fd.orbit_map)
    _emit(doc, args.format, ["root", "coroot", "simple"])
    return 0


def cmd_wgroup(args):
    group = load_group(args.preset)
    g = group.element_from_string(args.element)
    if args.operation == "length":
        doc = {"schema": SCHEMA, "element": group.element_to_string(g),
               "length": g.length}
    elif args.operation == "word":
        _check_walk(g, args.cap)
        om, letters = g.reduced_word()
        doc = {"schema": SCHEMA, "element": group.element_to_string(g),
               "omega": group.element_to_string(om),
               "letters": list(letters)}
    elif args.operation == "leq":
        other = group.element_from_string(args.other)
        _check_walk(other, args.cap)
        doc = {"schema": SCHEMA, "element": group.element_to_string(g),
               "other": group.element_to_string(other),
               "leq": group.bruhat_leq(g, other)}
    else:  # kottwitz; argparse's choices admit no other operation
        k = group.kottwitz(g)
        doc = {"schema": SCHEMA, "element": group.element_to_string(g),
               "kottwitz_free": list(k.free), "kottwitz_torsion": list(k.torsion)}
    _emit(doc, args.format)
    return 0


def cmd_adm(args):
    group = load_group(args.preset)
    facet = fc.Facet(group, args.facet)
    mu = _mu_for_group(group, args.mu)
    adm = fc.admissible_set(group, mu, facet, length_cap=args.cap)
    rows = sorted(({"element": group.element_to_string(g), "length": g.length,
                    "maximal": g in adm.maxima} for g in adm.elements),
                  key=lambda r: (r["length"], r["element"]))
    doc = {
        "schema": SCHEMA,
        "preset": args.preset,
        "facet": list(facet.letters),
        "size": len(adm.elements),
        "n_maxima": len(adm.maxima),
        "length_cap": args.cap,
        "rows": rows,
    }
    if args.format != "json":
        doc["facet"] = ",".join(map(str, facet.letters))
    _emit(doc, args.format, ["element", "length", "maximal"])
    return 0


def cmd_report(args):
    group = load_group(args.preset)
    rows = fc.speciality_report(group, bound=args.bound, length_cap=args.cap)
    out = []
    for r in rows:
        witness = r["parity_witness"]
        out.append({
            "facet": ",".join(map(str, r["facet"])) or "-",
            "special": r["special"],
            "parity": r["parity"],
            "unique_max": r["unique_max"],
            "agree": r["agree"],
            "max_counts": ",".join(map(str, r["component_counts"])),
            "parity_witness": "" if witness is None else
                f"{group.element_to_string(witness[0])}|{group.element_to_string(witness[1])}",
            "nonunique_mu": "" if r["nonunique_mu"] is None else repr(r["nonunique_mu"]),
        })
    doc = {"schema": SCHEMA, "preset": args.preset,
           "bound": rows[0]["bound"] if rows else 0,
           "length_cap": args.cap, "rows": out}
    _emit(doc, args.format,
          ["facet", "special", "parity", "unique_max", "agree", "max_counts",
           "parity_witness", "nonunique_mu"])
    return 0


def cmd_branch(args):
    action = load_action(args.preset, args.action)
    datum = action.datum
    lam = args.lam
    if len(lam) != datum.rank:
        raise CoordinateCountError(f"lambda needs {datum.rank} coordinates")
    _check_height(datum.two_rho_check, lam, args.cap)
    fd = fold_action(action)
    dec = hw.restrict_to_fixed_group(fd, lam)
    rows = [{"mu_free": ",".join(map(str, cls.free)),
             "mu_torsion": ",".join(map(str, cls.torsion)),
             "multiplicity": mult,
             "dim": hw.weyl_dimension(fd.datum, cls.free)} for cls, mult in dec]
    doc = {"schema": SCHEMA, "preset": args.preset, "action": args.action,
           "lambda": ",".join(map(str, lam)),
           "dim_total": hw.weyl_dimension(datum, lam), "rows": rows}
    _emit(doc, args.format, ["mu_free", "mu_torsion", "multiplicity", "dim"])
    return 0


def cmd_char(args):
    action = load_action(args.preset, args.action)
    fd = fold_action(action)
    co = fd.char_coinv
    coords = args.mu
    need = co.free_rank + len(co.torsion)
    if len(coords) != need:
        raise CoordinateCountError(f"mu needs {need} coordinates (free then torsion)")
    _check_height(fd.datum.two_rho_check, coords[:co.free_rank], args.cap)
    cls = co.make(coords[:co.free_rank], coords[co.free_rank:])
    ch = hw.character_with_torsion(fd, cls)
    rows = [{"weight_free": ",".join(map(str, w.free)),
             "weight_torsion": ",".join(map(str, w.torsion)),
             "multiplicity": m} for w, m in ch.items()]
    doc = {"schema": SCHEMA, "preset": args.preset, "action": args.action,
           "mu": ",".join(map(str, coords)), "dim": ch.dimension(),
           "rows": rows}
    _emit(doc, args.format, ["weight_free", "weight_torsion", "multiplicity"])
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest
    return run_selftest()


def _arg(*flags, **kwargs):
    return flags, kwargs


_PRESET = _arg("--preset", required=True)
_MU = _arg("--mu", type=_int_list, required=True)
_CAP = _arg("--cap", type=_nonnegative_int, default=64)
_FORMAT = _arg("--format", choices=["text", "tsv", "json"], default="text")

# name -> (handler, help, arguments), in the order of the top-level help
COMMANDS = {
    "list-presets": (cmd_list_presets, "catalog of shipped presets", [_FORMAT]),
    "fold": (cmd_fold, "folded root datum of a pinned action",
             [_PRESET, _arg("--action", required=True), _FORMAT]),
    "wgroup": (cmd_wgroup, "Iwahori-Weyl group operations",
               [_arg("operation", choices=["length", "word", "leq", "kottwitz"]),
                _PRESET, _arg("--element", required=True),
                _arg("--other", help="second element for leq"), _CAP, _FORMAT]),
    "adm": (cmd_adm, "admissible set relative to a facet",
            [_PRESET, _arg("--facet", type=_int_list, default=(),
                           help="comma-separated S_aff indices"),
             _MU, _CAP, _FORMAT]),
    "report": (cmd_report, "facet table of speciality criteria",
               [_PRESET, _arg("--bound", type=_nonnegative_int, default=None),
                _CAP, _FORMAT]),
    "branch": (cmd_branch, "restriction to the fixed-point group",
               [_PRESET, _arg("--action", required=True),
                _arg("--lambda", dest="lam", type=_int_list, required=True),
                _CAP, _FORMAT]),
    "char": (cmd_char, "weight multiset of an irreducible",
             [_PRESET, _arg("--action", default=None), _MU, _CAP, _FORMAT]),
    "selftest": (cmd_selftest, "run the invariant battery", []),
}


def build_parser(command=None):
    """The ``affweyl`` parser.  A known ``command`` gets only its own
    subparser; anything else (none, ``--help``, a typo) gets every one, so
    the top-level help and the invalid-choice error list them all."""
    p = _ArgumentParser(prog="affweyl", description=__doc__,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        func, help_text, arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "wgroup" and args.operation == "leq" and args.other is None:
            parser.error("wgroup leq requires --other")
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout is flushed again at exit: point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except AffweylError as e:
        _print_error(e)
        return 2
    except InternalInvariantError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 3


def run():
    """The process entry point (``python -m affweyl``, the ``affweyl``
    script): ``main``, a flush of stdout and stderr, then ``os._exit``, so
    the interpreter tears down no modules or objects.  An exception that
    escapes ``main`` takes the ordinary exit."""
    code = main()
    # a stream is None when its descriptor was closed at start (``>&-``)
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 141
    os._exit(code)
