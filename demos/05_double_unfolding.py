#!/usr/bin/env python3
"""End-to-end unfolding at a point with four double imaginary eigenvalues.

Second-factor crossings carry doubly degenerate eigenvalues: the center
space is 8-dimensional and the group acts through rotation characters and
a swap.  Of the 16 matrix-level unfolding slots, the group average kills
slots 5..12 and identifies 13..16 with 1..4, so the equivariant family
again needs only 4 parameters, with the same structure-preserving
coefficient patterns as the simple case.
"""

import numpy as np

from equnfold import d3

np.set_printoptions(precision=4, suppress=True, linewidth=140)


def eta_pair(v):
    """The two rotation-character functionals of a 3-vector: how a direction
    splits over the rotation eigenvectors (both vanish on the symmetric mode)."""
    w = d3.OMEGA
    return (v[0] + w.conjugate() * v[1] + w * v[2],
            v[0] + w * v[1] + w.conjugate() * v[2])


p = d3.default_point("double")
result = d3.run_case("double", p)
print(f"double-Hopf point: alpha*={p.alpha:.6f}  tau_s*={p.tau_s:.6f}  "
      f"beta={p.beta}  tau_n={p.tau_n}")
print(f"center dimension c = {result.frame.c}")

kap, gam = result.rep.group.generator_indices
G = result.frame.G
print("\ninduced action of the rotation (diagonal):")
print(np.round(np.diag(G.matrices[gam]), 4))
print("induced action of the swap (2x2 exchange blocks):")
print(np.round(G.matrices[kap].real, 4))

norms = [float(np.max(np.abs(D))) for D in result.assembly.directions]
print("\nprojected direction norms per slot:")
print(np.round(norms, 6))

theta = result.assembly.theta
print(f"Theta rank {theta.rank}; rows 13-16 minus rows 1-4: "
      f"{np.max(np.abs(theta.theta[12:16] - theta.theta[0:4])):.2e}")
print(f"selected slots: {tuple(i + 1 for i in theta.selected_rows)}")

# which rotation functional survives on each solved slot vector
print("\nrotation-functional signature per slot (eta1, eta2):")
for m, R in enumerate(result.assembly.r_matrices):
    col = int(np.argmax(np.abs(R).sum(axis=0)))
    e1, e2 = eta_pair(R[:, col])
    print(f"  slot {m + 1:2d}: ({abs(e1):.4f}, {abs(e2):.4f})")

ver = result.assembly.versality
print(f"\nequivariant versality: {ver.tangent_dim} + {ver.n_directions} "
      f"= {ver.commutant_dim}; mini-versal = {ver.mini_versal}")
