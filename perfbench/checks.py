"""Semantic checks of the CLI's JSON output, each by a route that does not
trust the command that produced it."""

import json


class Oracle:
    """Independent answers computed with the library in this process;
    groups are built once per preset."""

    def __init__(self):
        self._groups = {}

    def predicted_maxima_count(self, preset, mu, facet_letters):
        from affweyl import facets
        from affweyl.presets import load_group
        group = self._groups.get(preset)
        if group is None:
            group = self._groups[preset] = load_group(preset)
        co = group.coinv
        if len(mu) == co.free_rank + len(co.torsion):
            cls = group.class_from_coords(mu)
        else:
            cls = group.project_cocharacter(mu)
        facet = facets.Facet(group, facet_letters)
        return len(facets.predicted_maxima(group, cls, facet))


def failure(entry, stdout, oracle):
    """None when the output of a pool entry passes its check, else why not."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    rows = doc.get("rows", [])
    command = entry["argv"][0]
    if command == "report":
        bad = [r["facet"] for r in rows if r["agree"] is not True]
        return f"agree is not True on facets {bad}" if bad or not rows else None
    if command == "adm":
        n_max = sum(1 for r in rows if r["maximal"])
        if len(rows) != doc["size"]:
            return f"{len(rows)} rows but size {doc['size']}"
        if n_max != doc["n_maxima"]:
            return f"{n_max} maximal rows but n_maxima {doc['n_maxima']}"
        want = oracle.predicted_maxima_count(entry["preset"], entry["mu"],
                                             entry["facet"])
        if want != n_max:
            return f"{n_max} maxima but the closed form predicts {want}"
        return None
    if command == "branch":
        total = sum(r["multiplicity"] * r["dim"] for r in rows)
        if total != doc["dim_total"]:
            return f"sum of multiplicity*dim {total} != Weyl dimension {doc['dim_total']}"
        return None
    if command == "char":
        total = sum(r["multiplicity"] for r in rows)
        return None if total == doc["dim"] else f"multiplicities sum to {total}, dim {doc['dim']}"
    return f"no check for command {command!r}"
