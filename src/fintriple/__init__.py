"""Verification workbench for the finite spectral triple of the Standard
Model internal space: constructs the concrete algebras, Dirac operators,
real structure and gradings on the 32-dimensional internal Hilbert space and
machine-checks the order conditions, KO-dimension, Clifford algebras, Morita
property, orientability obstructions and irreducibility.

The Python API is the modules: ``from fintriple import catalog, morita``."""

__version__ = "0.1.0"
