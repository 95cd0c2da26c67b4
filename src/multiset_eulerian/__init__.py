"""Exact Eulerian and ordered Stirling combinatorics over multisets.

The package computes descent, partition and segmentation statistics of
multiset permutations together with their q-analogs, relates them to
lattice points of dilated order-simplex products, and verifies the
resulting identities by independent routes with exact arithmetic
throughout.

Each public name is declared once, in the `__all__` of the module that
defines it; the package re-exports the five lists.
"""

from . import combinatorics, lattice, numbers, qpoly, verify
from .combinatorics import *
from .lattice import *
from .numbers import *
from .qpoly import *
from .verify import *

__version__ = "0.1.0"

__all__ = (
    combinatorics.__all__
    + lattice.__all__
    + numbers.__all__
    + qpoly.__all__
    + verify.__all__
)
