"""Decoupling constants, admissible exponent regions, and determinant bounds
for finite centered Gaussian vectors given by their covariance matrix.

The package root exports nothing; import the modules (``matcore``,
``decouple``, ``bounds``, ``verify``, ``covgen``, ``cli``)."""
