"""Structure codes and Virasoro frame stabilizer orders from Z4-codes.

The pipeline: a linear code over Z4 determines (through Construction A) an
even lattice with a 4-frame, hence a framed vertex operator algebra, whose
Virasoro frame has an exactly computable stabilizer order. Everything here
is exact: bitmask GF(2) algebra, Howell forms over Z4, and
base-and-strong-generating-set permutation groups.
"""

__version__ = "0.1.0"
