"""Workload pools and their seeded, stratified draws.

Every command the benchmark can run is an entry of ``pool.json``, which
``record.py`` writes from the candidates below: the argv, the sha256 of its
stdout at the recording commit, and its in-process cost there.  A draw
depends only on the seed and on ``pool.json``, so one seed always gives the
same argv list, on any commit.

Draws are balanced: a draw is redrawn (from the same seeded generator) until
its summed recorded cost and, for ``adm``, its median cost and summed closure
size lie within a few percent of the typical draw, so every seed does about
the same work.

Workloads, and why each was chosen:

* ``report``: ``affweyl report`` on c2-sc, folded-a3, folded-d3 and g2 (a
  split group, strides of 1/2, torsion in pi_1, |W0| = 12); the seed sets
  only the order.  The paper's headline computation: facets, parity balls,
  Adm closure per facet and mu, maxima and ``dc_rep`` over ``iwahori``
  products.  Rank-3 ``report`` is left out: one invocation takes 54-101 s.
* ``adm``: 13 ``affweyl adm`` calls on a3-sc and d3 (rank 3, |W0| = 24),
  drawn by strata of the closure size |Adm(mu)| (alcove set), half of them
  at the alcove and half at a drawn standard facet.  Runs closure,
  ``bruhat_maxima`` and ``dc_rep`` on sets of up to 721 elements and never
  calls ``parity_check`` or ``enumerate_facets``, so report-level sharing
  should leave it unchanged while closure, maxima and multiply work show
  their largest effect.
* ``branch``: a ladder of ``affweyl branch`` calls per folded datum (a3-sc,
  d3, a2-sc, a1xa1-sc under ``swap``) plus ``affweyl char`` calls.  Runs
  Freudenthal, peeling and component twists and never builds an
  Iwahori-Weyl group, so ``iwahori`` and ``facets`` changes should leave it
  unchanged; most calls are short, so interpreter start, ``cli`` and
  ``folding`` decide the per-command median.
"""

import itertools
import json
import random
import statistics
from pathlib import Path

POOL_FILE = Path(__file__).resolve().parent / "pool.json"

REPORT_PRESETS = ("c2-sc", "folded-a3", "folded-d3", "g2")

# Dominant cocharacters (class coordinates) with |Adm(mu)| from 33 to 721.
ADM_MUS = {
    "a3-sc": ((1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (1, 2, 3),
              (3, 2, 1), (2, 2, 2)),
    "d3": ((1, 0, 0), (1, 1, -1), (1, 1, 1), (1, 1, 0), (2, 0, 0),
           (2, 1, -1), (2, 1, 1), (2, 2, -2), (2, 2, 2), (2, 1, 0),
           (3, 0, 0), (2, 2, -1), (2, 2, 1), (2, 2, 0)),
}
# Standard facets of both presets: every proper subset of S_aff = {0,1,2,3}.
ADM_FACETS = tuple(c for r in range(4)
                   for c in itertools.combinations(range(4), r))
# name, closure-size band [lo, hi), draws at the alcove, draws at a facet
ADM_STRATA = (("A", 0, 150, 2, 2), ("B", 150, 250, 1, 1),
              ("C", 250, 450, 2, 2), ("D", 450, 800, 2, 1))

# Candidate weights; record.py keeps those the CLI accepts.
BRANCH_BOXES = {"a3-sc": (4, 4, 4), "d3": (3, 3, 3), "a2-sc": (5, 5),
                "a1xa1-sc": (6, 6)}
# preset -> (first weight, last weight, rungs kept from the top); the seed
# orders the unit steps between them
LADDERS = {"a3-sc": ((0, 0, 0), (4, 4, 4), 10), "d3": ((1, 0, 0), (3, 2, 0), 5),
           "a2-sc": ((1, 0), (3, 1), 4), "a1xa1-sc": ((1, 0), (2, 1), 3)}
CHAR_BOXES = {"d3": (4, 4, 1), "a3-sc": (5, 5), "a2-sc": (8,)}

BALANCE_TOL = {"cost": 0.02, "median": 0.05, "closure": 0.05}


def fmt(v):
    return ",".join(str(x) for x in v)


def candidates():
    """Every command of every pool, with the facts a draw needs."""
    out = {"report": [], "adm": [], "branch": []}
    for p in REPORT_PRESETS:
        out["report"].append({"argv": ["report", "--preset", p,
                                       "--format", "json"]})
    for preset, mus in ADM_MUS.items():
        for mu in mus:
            for facet in ADM_FACETS:
                argv = ["adm", "--preset", preset, "--mu", fmt(mu)]
                if facet:
                    argv += ["--facet", fmt(facet)]
                out["adm"].append({"argv": argv + ["--format", "json"],
                                   "preset": preset, "mu": list(mu),
                                   "facet": list(facet)})
    for preset, box in BRANCH_BOXES.items():
        for lam in itertools.product(*(range(b + 1) for b in box)):
            out["branch"].append({
                "argv": ["branch", "--preset", preset, "--action", "swap",
                         "--lambda", fmt(lam), "--format", "json"],
                "kind": "branch", "preset": preset, "weight": list(lam)})
    for preset, box in CHAR_BOXES.items():
        for mu in itertools.product(*(range(b + 1) for b in box)):
            out["branch"].append({
                "argv": ["char", "--preset", preset, "--action", "swap",
                         "--mu", fmt(mu), "--format", "json"],
                "kind": "char", "preset": preset, "weight": list(mu)})
    return out


def load_pool():
    with open(POOL_FILE) as f:
        return json.load(f)


def _balanced(draw, features, tol, seed):
    """Redraw until every feature is within tol of its typical value.

    The typical value is the median over draws from a fixed generator, so
    it does not depend on the seed.
    """
    ref = random.Random("typical")
    samples = [features(draw(ref)) for _ in range(501)]
    target = {k: statistics.median(s[k] for s in samples) for k in tol}
    rng = random.Random(seed)
    for _ in range(100000):
        picked = draw(rng)
        f = features(picked)
        if all(abs(f[k] / target[k] - 1) <= tol[k] for k in tol):
            return picked
    raise RuntimeError("no balanced draw found")


def _adm_draw(pool):
    groups = {}
    for e in pool:
        band = next(s for s in ADM_STRATA if s[1] <= e["closure"] < s[2])
        groups.setdefault((band[0], bool(e["facet"])), []).append(e)

    def draw(rng):
        picked = []
        for name, _, _, n_alcove, n_facet in ADM_STRATA:
            picked += rng.sample(groups[(name, False)], n_alcove)
            picked += rng.sample(groups[(name, True)], n_facet)
        rng.shuffle(picked)
        return picked
    return draw


def _ladder(rng, weights, start, end, keep):
    """A seeded monotone unit-step path through accepted weights."""
    steps = [i for i, (a, b) in enumerate(zip(start, end)) for _ in range(b - a)]
    for _ in range(1000):
        cur, path = tuple(start), [tuple(start)]
        order = rng.sample(steps, len(steps))
        for i in order:
            cur = tuple(c + (k == i) for k, c in enumerate(cur))
            path.append(cur)
        if all(w in weights for w in path):
            return path[-keep:]
    raise RuntimeError("no ladder found")


def _branch_draw(pool):
    by_key = {(e["kind"], e["preset"], tuple(e["weight"])): e for e in pool}
    chars = {}
    for e in pool:
        if e["kind"] == "char":
            chars.setdefault(e["preset"], []).append(e)

    def draw(rng):
        blocks = []
        for preset, (start, end, keep) in LADDERS.items():
            weights = {w for k, p, w in by_key if k == "branch" and p == preset}
            path = _ladder(rng, weights, start, end, keep)
            blocks.append([by_key[("branch", preset, w)] for w in path])
        blocks.append([rng.choice(chars[p]) for p in sorted(chars)])
        rng.shuffle(blocks)
        return [e for b in blocks for e in b]
    return draw


def _features(picked):
    costs = [e["cost_s"] for e in picked]
    return {"cost": sum(costs), "median": statistics.median(costs),
            "closure": sum(e.get("closure", 1) for e in picked)}


def generate(workload, seed, pool):
    """The seeded list of pool entries one pass runs, in order."""
    if workload == "report":
        picked = list(pool["report"])
        random.Random(seed).shuffle(picked)
        return picked
    if workload == "adm":
        return _balanced(_adm_draw(pool["adm"]), _features, BALANCE_TOL, seed)
    if workload == "branch":
        tol = {"cost": BALANCE_TOL["cost"]}
        return _balanced(_branch_draw(pool["branch"]), _features, tol, seed)
    raise KeyError(workload)


def builds(picked):
    """What the commands build before querying: groups, or data with a
    folded action."""
    out = []
    for e in picked:
        argv = e["argv"]
        preset = argv[argv.index("--preset") + 1]
        spec = (["fold", preset, argv[argv.index("--action") + 1]]
                if "--action" in argv else ["group", preset])
        if spec not in out:
            out.append(spec)
    return out
