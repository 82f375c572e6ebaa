"""Pinned automorphisms, coinvariant lattices, and folded root data.

A diagram automorphism acting on a based root datum has two shadows that
drive everything here: the coinvariant lattice of the (co)character lattice
(free part + torsion, presented by an exact Smith normal form), and the
folded root datum of the neutral fixed-point group.  Torsion in the
character-side coinvariants is precisely the character group of the
component group of the fixed maximal torus.
"""

from affweyl import coinvariants, fold, load_action, pi0_fixed_torus

print("== a rank-one torus with inversion ==")
inv = load_action("t1", "inv")
co = coinvariants(inv)
print("free rank:", co.free_rank, " torsion:", co.torsion)
print("project(3) =", co.project((3,)), " project(4) =", co.project((4,)))
print("pi0 of the fixed torus:", pi0_fixed_torus(inv))

print()
print("== folding A3 by the diagram flip ==")
swap = load_action("a3-sc", "swap")
fd = fold(swap)
print("folded rank:", fd.datum.rank)
print("folded simple roots:", fd.datum.simple_roots)
print("folded simple coroots:", fd.datum.simple_coroots)
print("positive roots:", len(fd.datum.positive_roots), "-> type C2")
print("orbit map (simple slots -> folded simples):", fd.orbit_map)

print()
print("== the nonreduced case: A2 by the flip ==")
fd2 = fold(load_action("a2-sc", "swap"))
print("folded rank:", fd2.datum.rank, " nonreduced flag:", fd2.nonreduced)
print("roots:", fd2.datum.roots, " coroots:", fd2.datum.coroots)

print()
print("== D3 by the flip: torsion appears ==")
fd3 = fold(load_action("d3", "swap"))
print("folded positive roots:", len(fd3.datum.positive_roots), "-> type B2")
print("component group invariant factors:", fd3.component_group)
print("torsion offsets of the projected simple roots:", fd3.simple_torsion)
