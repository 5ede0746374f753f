"""Exact symmetric-function and local-field matrix toolkit.

Layers (bottom up):

* ``errors`` -- the exceptions that the command line maps to exit codes.
* ``scalars`` -- Gaussian rationals, Laurent polynomials in q, formal
  fractions.
* ``torus`` / ``weyl`` -- multivariate Laurent polynomials carrying a
  hyperoctahedral group action, exact binomial division.
* ``hall_littlewood`` -- orbit sums with parameter, their normalizations,
  and Poincare-type counting series.
* ``spherical`` -- the explicit-value machinery on the parameter torus:
  phased evaluation, functional equations, rank-one closed forms.
* ``plancherel`` -- quadrature on the compact torus, inner products,
  transform and inversion checks.
* ``residue`` -- residue-ring kernels on ints: the local field, norm
  counts, Haar sampling, cell counts, Monte Carlo integration of the
  defining kernel.
* ``padic`` -- finite-precision local-field matrices: membership tests,
  orbit invariants, diagonalization.
* ``cli`` -- the ``hermlab`` command-line entry point.
"""

__version__ = "0.1.0"
