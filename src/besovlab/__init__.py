"""besovlab: numerical laboratory for restriction pathologies of Besov functions.

Builds the dyadic block sequences, rearrangements, and bump-atom fields that
witness the loss of generalized smoothness under restriction to lower
dimensions, and estimates the associated finite-difference quasi-norms on
grids.  See the ``besovlab`` CLI for the packaged experiments.
"""

__version__ = "0.1.0"
