"""Exact combinatorics of the fermionic translation on exterior algebras.

The package computes, over exact rationals, the translation-invariant
subalgebra of the rank-2n exterior algebra and the matching cokernel, their
bigraded dimensions and symmetric-group characters, the Lefschetz and duality
isomorphisms between complementary bidegrees, and the normal form of the
matching invariants over the noncrossing matching basis.
"""

from .exterior import (
    Bidegree,
    Element,
    Generator,
    LiteralParseError,
    Monomial,
    Permutation,
    alpha,
    derivative,
    exp_raising,
    format_element,
    generator_element,
    generator_product,
    lefschetz_element,
    lowering,
    pairing,
    parse_element,
    permute,
    raising,
    subset_monomial,
    paired_element,
    theta,
    translate,
    volume_form,
    weight,
)
from .linalg import Matrix, boolean_incidence
from .cohomology import (
    BidegreeBasis,
    coinvariants_dimension,
    coinvariants_representatives,
    diagonal_census,
    dimension_table,
    duality_gram,
    invariants_basis,
    invariants_character,
    invariants_dimension,
    lefschetz_matrix,
    raising_matrix,
    trace_on_basis,
    wedge_character,
)
from .matchings import (
    LabelledMatching,
    MatchingCombination,
    alpha_nestings,
    crossings,
    matching_from_subsets,
    matching_invariant,
    noncrossing_matchings,
    normal_form,
    parse_matching,
    skein_move_alpha,
    skein_uncross,
    subsets_from_matching,
)

__version__ = "0.1.0"
