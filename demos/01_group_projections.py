#!/usr/bin/env python3
"""Group averaging on the triangle-symmetric network.

Builds the 6-element permutation group from its two generator matrices,
projects a few matrices onto the commutant, and shows the projection's
fixed points.
"""

import numpy as np

from equnfold.groups import commutant_basis, equivariant_average
from equnfold.d3 import triangle_rep
from equnfold.invariants import BY_NAME, DEFAULT_TOL

np.set_printoptions(precision=4, suppress=True)

rep = triangle_rep()
print(f"closed group of order {rep.group.order}, "
      f"generators at indices {rep.group.generator_indices}")
# rho(x) rho(g) = rho(xg) over every element x and generator g, at verify's bound
check = BY_NAME["group.representation"].report(rep, tol=DEFAULT_TOL)
print(f"homomorphism check: {'ok' if check.passed else 'FAILED'}, {check.detail}")

# Averaging E11 spreads the single diagonal entry evenly over the diagonal.
E11 = np.zeros((3, 3))
E11[0, 0] = 1.0
print("\naverage of E11:\n", equivariant_average(rep, rep, E11).real)

# A single off-diagonal entry spreads over all off-diagonal positions.
E12 = np.zeros((3, 3))
E12[0, 1] = 1.0
print("\naverage of E12:\n", equivariant_average(rep, rep, E12).real)

# Matrices of the form a I + b (J - I) are exactly the fixed points.
M = 2.0 * np.eye(3) + 0.5 * (np.ones((3, 3)) - np.eye(3))
print("\nfixed-point residual:",
      np.max(np.abs(equivariant_average(rep, rep, M) - M)))

basis = commutant_basis(rep)
print(f"\ncommutant dimension: {len(basis)} (diagonal + coupling patterns)")
for K in basis:
    print(np.round(K.real, 4), "\n")
