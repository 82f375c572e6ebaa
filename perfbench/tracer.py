"""Per-layer tracing of the affweyl modules, installed from outside the package.

``Tracer.install()`` replaces public functions and methods of the imported
``affweyl`` modules by timing wrappers.  A module-level function is replaced
under every name that refers to it in any ``affweyl`` module, because some
modules bind others' functions at import time (``affweyl.cli`` imports
``load_group`` and ``fold`` by name).  Methods are replaced on their class.

Two kinds of wrapper exist:

* span wrappers, for calls at or above the ``facets`` and ``highest_weight``
  public functions (plus group builds and preset loading), record one span
  each: name, start, end and the index of the parent span;
* aggregate wrappers, for the hot leaves (products, lengths, the coinvariant
  action, Bruhat tests), record only call count, total time, self time,
  products made inside and how many calls returned True, keyed by the
  name of the wrapped caller.

Self time is a call's duration minus the time covered by wrapped calls made
inside it; a wrapped call never recurses into its own name.
"""

import functools
import sys
import time

# (module, attribute path, metric name, span?)
TARGETS = (
    ("presets", "load_group", "presets.load_group", True),
    ("presets", "load_datum", "presets.load_datum", True),
    ("presets", "load_action", "presets.load_action", True),
    ("folding", "fold", "folding.fold", True),
    ("folding", "coinvariants", "folding.coinvariants", True),
    ("folding", "CoinvariantLattice.act", "folding.act", False),
    ("smith", "smith_normal_form", "smith.smith_normal_form", False),
    ("root_data", "WeylGroup.__init__", "root_data.weyl_build", True),
    ("iwahori", "IwahoriWeylGroup.__init__", "iwahori.group_build", True),
    ("iwahori", "IwahoriWeylElement.__mul__", "iwahori.mul", False),
    ("iwahori", "IwahoriWeylGroup._length", "iwahori.length", False),
    ("iwahori", "IwahoriWeylElement.reduced_word", "iwahori.reduced_word", False),
    ("iwahori", "IwahoriWeylGroup.element_from_word", "iwahori.element_from_word", False),
    ("iwahori", "IwahoriWeylGroup.bruhat_leq", "iwahori.bruhat_leq", False),
    ("iwahori", "IwahoriWeylGroup.dc_rep", "iwahori.dc_rep", False),
    ("iwahori", "IwahoriWeylGroup.affine_ball", "iwahori.affine_ball", False),
    ("facets", "enumerate_facets", "facets.enumerate_facets", True),
    ("facets", "admissible_set", "facets.admissible_set", True),
    ("facets", "bruhat_maxima", "facets.bruhat_maxima", True),
    ("facets", "maximal_admissible", "facets.maximal_admissible", True),
    ("facets", "predicted_maxima", "facets.predicted_maxima", True),
    ("facets", "parity_check", "facets.parity_check", True),
    ("facets", "default_mu_sample", "facets.default_mu_sample", True),
    ("facets", "speciality_report", "facets.speciality_report", True),
    ("highest_weight", "freudenthal", "highest_weight.freudenthal", True),
    ("highest_weight", "irreducible_character", "highest_weight.irreducible_character", True),
    ("highest_weight", "character_with_torsion", "highest_weight.character_with_torsion", True),
    ("highest_weight", "extend_by_component_twist",
     "highest_weight.extend_by_component_twist", True),
    ("highest_weight", "restrict_to_fixed_group", "highest_weight.restrict", True),
    ("highest_weight", "weyl_dimension", "highest_weight.weyl_dimension", True),
    ("highest_weight", "dominant_of_char", "highest_weight.dominant_of_char", False),
    ("cli", "main", "cli.main", True),
)

MUL = "iwahori.mul"
# wrapped calls whose results are also measured: name -> size of a result
SIZES = {"facets.admissible_set": lambda adm: len(adm.elements)}


class Tracer:
    """Spans and aggregates of one process, kept in memory."""

    def __init__(self):
        # frame: [name, time covered by wrapped children, enclosing span id]
        self.root = ["-", 0.0, -1]
        self.stack = [self.root]
        self.spans = []    # [name, start, end, parent span id]
        self.agg = {}      # (name, caller name) -> [calls, total, self, true, products]
        self.errors = {}   # module -> exceptions escaping wrapped calls
        self.sizes = {}    # name -> summed result sizes, for SIZES
        self.products = [0]

    def wrap(self, fn, name, span):
        module = name.split(".", 1)[0]
        stack, spans, agg, errors = self.stack, self.spans, self.agg, self.errors
        products, sizes = self.products, self.sizes
        is_mul = name == MUL
        size_of = SIZES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_mul:
                products[0] += 1
            parent = stack[-1]
            if span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0, parent[2]])
            else:
                sid = parent[2]
            frame = [name, 0.0, sid]
            n0 = products[0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] = errors.get(module, 0) + 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[4] += products[0] - n0
                if span:
                    spans[sid][1] = t0
                    spans[sid][2] = t0 + dur
            if result is True:
                rec[3] += 1
            if size_of is not None:
                sizes[name] = sizes.get(name, 0) + size_of(result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; the affweyl modules must already be imported."""
        mods = {k: v for k, v in sys.modules.items()
                if k == "affweyl" or k.startswith("affweyl.")}
        for modname, path, name, span in TARGETS:
            owner = sys.modules["affweyl." + modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self.wrap(orig, name, span)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def report(self):
        """JSON-ready record of what was traced."""
        return {
            "spans": self.spans,
            "agg": [[n, p, *rec] for (n, p), rec in sorted(self.agg.items())],
            "errors": self.errors,
            "sizes": self.sizes,
        }
