"""Exact computer algebra for the transpose duals of the weighted homogeneous
bimodal singularity classes: weight systems, curve configurations, K-group
lattices, Coxeter elements and Poincare-series identities, all over the
integers."""
