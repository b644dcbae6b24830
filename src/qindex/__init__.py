"""qindex: index theory of conditional expectations on multimatrix
C*-algebras, combinatorial data of tracial module categories, and the
classification of finite-index sublattices between root and weight
lattices."""

__version__ = "0.1.0"
