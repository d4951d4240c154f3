#!/usr/bin/env python3
"""Matrix-level orbit geometry, including nontrivial Jordan structure.

The function-space pipeline handles semisimple spectra, but the matrix
engine itself works for arbitrary Jordan structure: the orbit codimension
from rank computations always matches the closed-form block-size formula,
and candidate directions decompose over tangent + complement with the
independent Theta rows selecting a mini-versal subfamily.
"""

import numpy as np

from equnfold.unfolding import orbit_geometry, theta_extract

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(7)

# one eigenvalue with blocks (2, 1), another with a single 2-block
spec = [(0.5, (2, 1)), (-1.0 + 0.3j, (2,))]
B = np.zeros((5, 5), dtype=complex)
B[:2, :2] = 0.5 * np.eye(2) + np.eye(2, k=1)
B[2, 2] = 0.5
B[3:, 3:] = (-1.0 + 0.3j) * np.eye(2) + np.eye(2, k=1)

geo = orbit_geometry(B)
# Arnold's formula: sum over eigenvalues of (2l - 1) n_l, block sizes descending
formula = sum((2 * l - 1) * size for _, sizes in spec
              for l, size in enumerate(sorted(sizes, reverse=True), start=1))
print("matrix B:\n", np.round(B, 3))
print(f"\norbit codimension: rank-based {geo.delta}, formula {formula}")
print(f"tangent dim {geo.tangent_dim} + complement dim {geo.delta} "
      f"= {B.shape[0] ** 2}")

# random directions decompose; a spanning set gets selected
dirs = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        for _ in range(geo.delta + 3)]
report = theta_extract(geo, dirs)
print(f"\n{len(dirs)} random directions -> Theta rank {len(report.selected_rows)}, "
      f"selected rows {report.selected_rows}")
print("max decomposition residual:", max(report.residuals))
