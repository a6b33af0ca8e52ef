"""Numerical laboratory for spectral flow and Chern indices of wave operators.

The package quantizes affine matrix symbols in a truncated Hermite basis
(``hermite``; the shipped models are in ``models``), counts the spectral flow
of eigenvalues through a gap as the parameter mu sweeps (``flow``), computes
the Chern index of the symbol's eigenvector bundles over the parameter sphere
by three methods (``topology``), and verifies that the two integers agree
(``cli``). ``errors`` holds the exceptions. This root holds only the version.
"""

__version__ = "0.1.0"
