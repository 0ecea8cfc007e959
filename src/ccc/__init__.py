"""Exact-arithmetic kernel for the coherent-constructible correspondence of toric orbifolds.

The package computes, entirely in arbitrary-precision rational arithmetic:

* stacky fans (weighted simplicial fans) and their face/completeness combinatorics,
* theta indices (cone, integer thresholds) with their supports, partial order and homs,
* the conical Lagrangian skeleton and ample polytopes with Minkowski monoidality,
* three Fourier-Mukai transforms between weighted fans (same base, divisorial
  contraction pushforward, and its inverse staircase transform), together with
  full-faithfulness checks on finite character windows,
* independent brute-force oracles (character point sets, Koszul/stalk Euler counts,
  a 2D raster contractibility check: pixel rows are stored as runs, and their union
  is contractible exactly when the graph of touching runs is a tree),
* a ``ccc`` command line front end emitting deterministic JSON reports and SVG figures.
"""

__version__ = "0.1.0"
