"""Combinatorics of Iwahori-Weyl groups, admissible sets, root-datum
folding and highest-weight theory for fixed-point groups."""

from .root_data import BasedRootDatum, WeylGroup
from .folding import (CoinvariantClass, CoinvariantLattice, FoldedDatum,
                      PinnedAction, coinvariants, fold, invariant_pairing,
                      pi0_fixed_torus, trivial_action)
from .iwahori import IwahoriWeylElement, IwahoriWeylGroup
from .facets import (AdmissibleSet, Facet, admissible_set, enumerate_facets,
                     lambda_mu, maximal_admissible, parity_check,
                     speciality_report)
from .highest_weight import (WeightMultiset, character_with_torsion,
                             extend_by_component_twist, freudenthal,
                             highest_weight_table, irreducible_character,
                             restrict_to_fixed_group, weyl_dimension)
from .presets import list_presets, load_action, load_datum, load_group

__version__ = "0.1.0"
