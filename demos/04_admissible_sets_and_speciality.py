"""Facets, admissible sets, and the finite speciality criteria.

A standard facet is a subset of the simple affine reflections generating a
finite group.  For each facet and dominant class the admissible set is a
union of Bruhat intervals; its maxima are translations by the
facet-dominant orbit representatives.  Speciality of the facet is
equivalent to the parity property of stratum dimensions and to the
uniqueness of the maximal admissible element, and the report table checks
all three columns against each other."""

from affweyl import admissible_set, load_group, speciality_report
from affweyl.facets import Facet, parity_check

g = load_group("a1-sc")
print("== the SL2 admissible set for alpha-check ==")
alcove = Facet(g, ())
adm = admissible_set(g, (1,), alcove)
for el in sorted(adm.elements, key=lambda x: (x.length, str(x))):
    mark = "  <- maximal" if el in adm.maxima else ""
    print(f"  {g.element_to_string(el):14s} length {el.length}{mark}")

print()
print("== stratum dimensions at the special vertex ==")
vertex = Facet(g, (1,))
strata = admissible_set(g, (1,), vertex).elements
top = max(el.length for el in strata)
for el in sorted(strata, key=lambda x: (-x.length, g.element_to_string(x))):
    print(f"  {g.element_to_string(el):12s} dim {el.length}" +
          ("  (irreducible component)" if el.length == top else ""))

print()
print("== parity at the alcove fails, with a witness ==")
ok, witness = parity_check(g, alcove, 10)
print("parity:", ok, " witness:", witness)

print()
print("== the three criteria, side by side (twisted A3 group) ==")
f = load_group("folded-a3")
rows = speciality_report(f)
header = f"{'facet':8s} {'special':8s} {'parity':7s} {'unique_max':10s} agree"
print(header)
for row in rows:
    print(f"{str(row['facet']):8s} {str(row['special']):8s} "
          f"{str(row['parity']):7s} {str(row['unique_max']):10s} {row['agree']}")
