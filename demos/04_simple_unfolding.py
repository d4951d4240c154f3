#!/usr/bin/env python3
"""End-to-end unfolding at a point with four simple imaginary eigenvalues.

At a crossing of two first-factor curves the critical spectrum is
{+-i w1, +-i w2}, each simple, the center space is 4-dimensional and the
group acts trivially on it.  The pipeline produces a 4-parameter family
that perturbs the model's own coupling structure: identity coefficients at
lags {0, tau_s}, coupling-pattern coefficients at {tau_n, tau_3}.
"""

import numpy as np

from equnfold import d3
from equnfold.unfolding import realify

np.set_printoptions(precision=4, suppress=True, linewidth=120)

p = d3.default_point("simple")
result = d3.run_case("simple", p)
print(f"double-Hopf point: alpha*={p.alpha:.6f}  tau_s*={p.tau_s:.6f}  "
      f"beta={p.beta}  tau_n={p.tau_n}")
print(f"frequencies: {p.omega1:.6f}, {p.omega2:.6f}")
fam = result.assembly.family
print(f"center dimension c = {result.frame.c}; lags = {np.round(fam.delays, 4)}")

theta = result.assembly.theta
print("\nTheta (diagonal; every row needed):")
print(np.round(theta.theta.real, 6))

print("\ncoefficient patterns per parameter (diagonal part, coupling part):")
I = np.eye(3)
offp = np.ones((3, 3)) - I
for name, row in zip(fam.names, fam.directions):
    scal = []
    for A, pat in zip(row, [I, I, offp, offp]):
        scal.append(complex(np.vdot(pat, A) / np.vdot(pat, pat)))
    print(f"  {name}: " + "  ".join(f"{z:.4f}" for z in scal))

ver = result.assembly.versality
print(f"\nequivariant versality: tangent {ver.tangent_dim} + directions "
      f"{ver.n_directions} = {ver.commutant_dim}; mini-versal = {ver.mini_versal}")

real_family, real_reparam = realify(fam)
print("\nreal family parameters:", real_family.names)
s = np.linalg.svd(real_reparam, compute_uv=False)
print(f"reparametrization condition: smallest/largest singular value "
      f"= {s[-1] / s[0]:.3e}")
