#!/usr/bin/env python3
"""Characteristic roots and the adjoint pairing for point-delay operators.

A scalar delayed feedback z'(t) = -z(t - pi/2) has a root exactly at i;
Newton iteration on the characteristic determinant finds it, and the
closed-form adjoint pairing of its eigenfunctions agrees with a short
Gauss-Legendre quadrature written out below (the package ships only the
closed form).
"""

import numpy as np

from equnfold.delays import DelayOperator, bilinear_form
from equnfold.frames import eigenbasis, find_root

op = DelayOperator(n=1, terms=((np.pi / 2, [[-1.0]]),))


def quadrature(w, lam, u, mu, op, npoints):
    """(psi, phi) of psi(s) = w e^{-lam s} and phi(theta) = u e^{mu theta}:
    w u plus, per delay term r, A, the integral over [-r, 0] of
    e^{-lam (x + r)} w A u e^{mu x}, on one Gauss-Legendre panel per unit of r."""
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    val = complex(np.dot(w, u))
    for r, A in op.terms:
        edges = np.linspace(-r, 0.0, max(1, int(np.ceil(r))) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            val += 0.5 * (b - a) * np.sum(weights * np.exp(-lam * (x + r) + mu * x)) \
                * complex(np.dot(w, A @ u))
    return val


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
    quad = quadrature(*pair, npoints=n)
    print(f"quadrature with {n:3d} nodes per panel: error {abs(quad - closed):.2e}")

# distinct eigenvalues pair to zero
print("pairing across distinct roots:", abs(bilinear_form([1.0], 1j, [1.0], -1j, op)))
