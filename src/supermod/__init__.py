"""Exact arithmetic for supermodular games on lattices of down-sets.

Players live in a finite poset; feasible coalitions are its down-sets, which
form a distributive lattice.  The package builds that lattice, works with
games on it (Moebius transforms, normalization, supermodularity), computes
core vertices from marginal vectors, and describes the cone of supermodular
games by facets and extreme rays, all over exact rationals.
"""

from . import cone, errors, game, lattice, marginals, poset
from .cone import *
from .errors import *
from .game import *
from .lattice import *
from .marginals import *
from .poset import *

__version__ = "0.1.0"

__all__ = sorted(
    name for mod in (cone, errors, game, lattice, marginals, poset) for name in mod.__all__
)
