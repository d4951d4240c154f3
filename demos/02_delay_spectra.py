#!/usr/bin/env python3
"""Characteristic roots and the adjoint pairing for point-delay operators.

A scalar delayed feedback z'(t) = -z(t - pi/2) has a root exactly at i;
Newton iteration on the characteristic determinant finds it, and the
closed-form adjoint pairing of its eigenfunctions agrees with the
Gauss-Legendre quadrature oracle.
"""

import numpy as np

from equnfold.delays import DelayOperator, bilinear_form, bilinear_form_quadrature
from equnfold.frames import eigenbasis, find_root

op = DelayOperator(n=1, terms=((np.pi / 2, [[-1.0]]),))

res = find_root(op, 0.9j)
print(f"root from seed 0.9i: {res.root:.12f}  |det| = {res.residual:.2e} "
      f"({res.iterations} Newton steps)")

frame = eigenbasis(op, [res.root, res.root.conjugate()])
print("reduced matrix B:", np.round(np.diag(frame.B), 10))
print("Gram residual:", np.max(np.abs(frame.gram() - np.eye(frame.c))))

# pairing of psi(s) = w exp(-lam s) with phi(theta) = u exp(mu theta):
# closed form vs quadrature
pair = ([0.7 - 0.2j], 1.3 + 0.4j, [1.1 + 0.3j], -0.8 + 2.1j, op)
closed = bilinear_form(*pair)
for n in (8, 16, 32, 64):
    quad = bilinear_form_quadrature(*pair, npoints=n)
    print(f"quadrature with {n:3d} nodes per panel: error {abs(quad - closed):.2e}")

# distinct eigenvalues pair to zero
print("pairing across distinct roots:", abs(bilinear_form([1.0], 1j, [1.0], -1j, op)))
