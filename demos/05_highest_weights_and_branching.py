"""Highest-weight characters for fixed-point groups and branching.

The connected theory is Freudenthal's recursion; component groups enter
through torsion offsets dictated by the projected simple roots; and
restriction along a fold projects an absolute character and reads the
multiplicities of its constituents off it by Weyl's character formula.
"""

from affweyl import (character_with_torsion, fold, irreducible_character,
                     load_action, load_datum, restrict_to_fixed_group,
                     weyl_dimension)
from affweyl.highest_weight import highest_weight_table, induced_dimension

print("== characters on a split datum ==")
c2 = load_datum("c2-sc")
for lam in ((1, 0), (0, 1), (1, 1)):
    ch = irreducible_character(c2, lam)
    print(f"V{lam}: dim {ch.dimension()} (Weyl formula: {weyl_dimension(c2, lam)})")

print()
print("== Clebsch-Gordan through the factor swap ==")
act = load_action("a1xa1-sc", "swap")
dec = restrict_to_fixed_group(fold(act), (1, 1))
print("V(1,1) restricted to the diagonal:",
      [(c.free, m) for c, m in dec])

print()
print("== branching with a component group: D3 by the flip ==")
act = load_action("d3", "swap")
fd = fold(act)
dec = restrict_to_fixed_group(fd, (1, 1, 0))
print("the 15-dimensional representation decomposes as:")
for cls, m in dec:
    ch = character_with_torsion(fd, cls)
    print(f"  mu = {cls}  multiplicity {m}  dim {ch.dimension()}")
mu = fd.char_coinv.make((0, 1), (0,))
print("Frobenius reciprocity check: dim ind =", induced_dimension(fd, mu),
      "= |pi0| x", character_with_torsion(fd, mu).dimension())

print()
print("== a table of simple constituents ==")
for row in highest_weight_table(fd, [(1, 0, 0), (1, 1, 0)]):
    print(f"  mu {str(row['mu']):12s} dim {row['dim']:3d} "
          f"weights {row['n_weights']:3d}  from {row['provenance']}")
