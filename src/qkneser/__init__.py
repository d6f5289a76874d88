"""Generalized q-Kneser graph toolkit.

Exact counting formulas (Gaussian binomials, degree, independence number,
treewidth), explicit graph construction over finite fields, extremal
t-intersecting families, constructive tree decompositions, and desk-scale
exact solvers that verify the formulas independently.
"""

__version__ = "0.1.0"
