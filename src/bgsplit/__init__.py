"""Exact mod-p computer algebra for Brown-Gitler comodule splittings.

The package verifies, degree by degree up to a configurable bound, the
algebraic skeleton of the splitting of BP<2> smash BP<2> at odd primes:
weight decompositions of the homology of BP<n> spectra, the weight-shifting
theta maps, length and S/R splittings, Margolis homology with its
invertible-module classification, and Ext charts over the exterior algebra
E(Q_0,Q_1,Q_2) and its Koszul-dual polynomial algebra.
"""

__version__ = "0.1.0"
