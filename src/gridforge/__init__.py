"""Gridded surfaces in cubic honeycombs.

Tools for building square complexes out of the faces of cubical tilings
(the integer lattices Z^2, Z^3, Z^4 and the hyperbolic honeycombs with
Schlafli symbols {4,3,5} and {4,3,3,5}), validating that they are surfaces,
and classifying their topology exactly.

The package root re-exports nothing: import names from the submodules
(gridforge.lattice, gridforge.surface, gridforge.coxeter, ...).
"""

__version__ = "0.1.0"
