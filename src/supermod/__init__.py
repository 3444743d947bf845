"""Exact arithmetic for supermodular games on lattices of down-sets.

Players live in a finite poset; feasible coalitions are its down-sets, which
form a distributive lattice.  The package builds that lattice, works with
games on it (Moebius transforms, normalization, supermodularity), computes
core vertices from marginal vectors, and describes the cone of supermodular
games by facets and extreme rays, all over exact rationals.
"""

from .cone import (
    FacetTriple,
    cone_dimension,
    double_description,
    extreme_rays,
    face_compare,
    facet_triples,
    facet_witness,
    is_extreme,
    is_extreme_via_games,
)
from .errors import (
    ConsistencyError,
    CrossCheckError,
    CycleError,
    EmptyCoalitionError,
    LatticeMismatchError,
    NotComparableError,
    NotSupermodularError,
    SizeError,
    SupermodError,
)
from .game import (
    Game,
    is_modular,
    is_monotone,
    is_nonnegative,
    is_supermodular,
    mobius_inverse,
    mobius_transform,
    modular_from_irreducibles,
    unanimity,
    zero_game,
    zero_normalize,
)
from .lattice import DownSetLattice, MaximalChain, addable_pairs, build_lattice
from .marginals import (
    core_contains,
    core_h_representation,
    core_vertices,
    game_from_configuration,
    lower_envelope,
    marginal_vector,
    payoff,
    point_configuration,
    tight_sets,
    unboundedness_witness,
    zero_coords,
)
from .poset import (
    Poset,
    mask_from_players,
    players_from_mask,
    poset_from_covers,
    poset_from_dict,
    poset_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "CrossCheckError",
    "CycleError",
    "DownSetLattice",
    "EmptyCoalitionError",
    "FacetTriple",
    "Game",
    "LatticeMismatchError",
    "MaximalChain",
    "NotComparableError",
    "NotSupermodularError",
    "Poset",
    "SizeError",
    "SupermodError",
    "addable_pairs",
    "build_lattice",
    "cone_dimension",
    "core_contains",
    "core_h_representation",
    "core_vertices",
    "double_description",
    "extreme_rays",
    "face_compare",
    "facet_triples",
    "facet_witness",
    "game_from_configuration",
    "is_extreme",
    "is_extreme_via_games",
    "is_modular",
    "is_monotone",
    "is_nonnegative",
    "is_supermodular",
    "lower_envelope",
    "marginal_vector",
    "mask_from_players",
    "mobius_inverse",
    "mobius_transform",
    "modular_from_irreducibles",
    "payoff",
    "players_from_mask",
    "point_configuration",
    "poset_from_covers",
    "poset_from_dict",
    "poset_to_dict",
    "tight_sets",
    "unanimity",
    "unboundedness_witness",
    "zero_coords",
    "zero_game",
    "zero_normalize",
]
