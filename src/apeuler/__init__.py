"""Finite-volume solvers for barotropic compressible flow at low Mach
number, the matching incompressible limit scheme, and refinement-statistics
tooling on periodic structured grids.

The compressible scheme treats mass transport implicitly with an upwind
flux driven by a pressure-stabilized advective velocity, which keeps the
time step bounded away from zero as the Mach number drops while the total
energy stays non-increasing.  The limit scheme replaces the density update
by a pressure Poisson equation, solved directly in Fourier space.  The
analysis layer compares refinement sequences of either scheme through
Cesaro averages, first variances, and per-cell Wasserstein distances.
"""
