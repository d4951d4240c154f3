"""Independent oracles that tests compare the pipeline against; no
subcommand runs them, so they live here rather than in ``src/``
(``test_reach.py`` keeps ``src/`` to what a subcommand runs)."""

import cmath

import numpy as np

from equnfold.d3 import _hopf_angles
from equnfold.errors import EqunfoldError


def bilinear_form_quadrature(w, lam, u, mu, op, npoints=64):
    """Same pairing as :func:`equnfold.delays.bilinear_form` by composite
    Gauss-Legendre panels.

    Each delay term contributes ``int_{-r_k}^0 psi(xi + r_k) A_k phi(xi) dxi``
    integrated on one panel per unit of delay, ``npoints`` nodes per panel.
    Serves as the independent oracle for the closed form.
    """
    if npoints < 8:
        raise EqunfoldError("npoints must be at least 8")
    w, u = np.asarray(w, dtype=complex), np.asarray(u, dtype=complex)
    nodes, weights = np.polynomial.legendre.leggauss(npoints)
    val = complex(w @ u)
    for r, A in op.terms:
        if r == 0.0:
            continue
        npanels = max(1, int(np.ceil(r)))
        edges = np.linspace(-r, 0.0, npanels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            xi = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            half = 0.5 * (b - a)
            for x, wq in zip(xi, weights):
                val += half * wq * complex(w * np.exp(-lam * (x + r)) @ A
                                           @ (u * np.exp(mu * x)))
    return val


def hopf_curve(factor, omega, beta, tau_n, sign=1, branch=0):
    """Point (alpha, tau_s) on a curve of imaginary roots of a factor.

    ``sign`` picks the curve alpha = +-sqrt(C^2 + S^2) of
    ``equnfold.d3._hopf_angles``; ``branch`` adds full turns to the angle so
    tau_s covers every positive solution.  Accepts scalar or array ``omega``.
    """
    omega = np.asarray(omega, dtype=float)
    alpha, theta = _hopf_angles(factor, omega, beta, tau_n)[-1 if sign < 0 else 1]
    return alpha, (theta + 2.0 * np.pi * branch) / omega


def exponential_delay_matrix(eigenvalues, delays):
    """The matrix ``M[k, j] = exp(-lam_k r_j)`` over distinct eigenvalues.

    Singular exactly when two lags coincide or two eigenvalues coincide;
    its determinant is the genericity certificate for a lag selection.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    delays = np.asarray(delays, dtype=float)
    return np.exp(-np.outer(eigenvalues, delays))


def scaled_det(M):
    """|det| of M after normalizing each row to unit Euclidean norm."""
    norms = np.linalg.norm(M, axis=1, keepdims=True)
    if np.any(norms == 0):
        return 0.0
    return float(abs(np.linalg.det(M / norms)))


def jordan_codimension(jordan_spec):
    """Arnold's orbit codimension ``sum_j sum_l (2l - 1) n_{j,l}`` of a Jordan
    matrix, from its ``[(eigenvalue, block sizes), ...]`` alone.

    Block sizes are sorted descending within each eigenvalue before the
    weights 1, 3, 5, ... are applied.
    """
    delta = 0
    for _, sizes in jordan_spec:
        for l, njl in enumerate(sorted(sizes, reverse=True), start=1):
            delta += (2 * l - 1) * njl
    return delta


def lambert_w(z, branch):
    """Branch ``branch`` of Lambert's W at ``z != 0``: the w with w e^w = z.

    Halley's iteration from the asymptotic start L1 - log(L1), where
    L1 = log z + 2 pi i branch, stopped when a step falls to rounding.
    Away from the branch point -1/e (every use here) it converges in a few
    steps.
    """
    l1 = cmath.log(z) + 2j * cmath.pi * branch
    w = l1 - cmath.log(l1)
    for _ in range(100):
        ew = cmath.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1) - (w + 2) * f / (2 * w + 2))
        w -= step
        if abs(step) <= 4e-16 * abs(w):
            return w
    raise EqunfoldError(f"Lambert W, branch {branch}, did not converge at {z}")
