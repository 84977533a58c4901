"""Numerical laboratory for open quantum random walks on the integer line.

A walk is driven by a Kraus pair (B, C) with B*B + C*C = I: each step sends
the site-resolved internal state to rho_x -> B rho_{x+1} B* + C rho_{x-1} C*,
so B moves mass left and C right. Three independent engines compute the
position law p_x = Tr(rho_x): direct lattice evolution, Fourier inversion of
the dual (adjoint-side) process, and Monte Carlo over quantum trajectories.
On top sit invariant-state analysis with CLT drift/variance extraction, a
catalog of named walk families with exact laws, and asymptotic helpers.
"""

__version__ = "0.1.0"
