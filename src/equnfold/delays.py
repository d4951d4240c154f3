"""Linear retarded equations with point delays and their adjoint pairing.

The operators handled here have the form

    L0 z = sum_k  A_k z(t - r_k),        r_k >= 0,

acting on histories in C([-tau, 0], C^n) with tau = max r_k.  This is the
point-mass specialization of the bounded-variation Stieltjes form; smooth
distributed kernels are out of scope.

Two evaluations of the adjoint bilinear form are provided: a closed form
(exponentials integrate analytically) and a composite Gauss-Legendre
quadrature used as an independent oracle in the test-suite.
"""

from typing import NamedTuple

import numpy as np

from ._linalg import LAG_MATCH_TOL, scaled
from .errors import StructuralError
from .groups import commutator_residual

# Below this exponent gap the analytic limit of the exponential integral
# is used (avoids catastrophic cancellation near coincident exponents).
EXPONENT_GAP = 1e-9


class DelayOperator(NamedTuple("DelayOperator", [("n", int), ("terms", tuple)])):
    """Point-delay linear operator ``L0 z = sum_k A_k z(-r_k)`` on C^n.

    ``terms`` is ``((r_k, A_k), ...)`` with r_k >= 0 and A_k an (n, n) matrix.
    """

    __slots__ = ()

    def __new__(cls, n, terms):
        if n <= 0:
            raise StructuralError("state dimension must be positive")
        if not terms:
            raise StructuralError("need at least one delay term")
        clean = []
        seen = []
        for r, A in terms:
            r = float(r)
            if r < 0:
                raise StructuralError(f"negative delay {r}")
            if any(abs(r - s) < scaled(LAG_MATCH_TOL, r) for s in seen):
                raise StructuralError(f"duplicate delay {r}")
            seen.append(r)
            A = np.asarray(A, dtype=complex)
            if A.shape != (n, n):
                raise StructuralError(f"coefficient shape {A.shape} != ({n}, {n})")
            clean.append((r, A))
        return super().__new__(cls, n, tuple(clean))

    @property
    def tau(self):
        """History horizon: the largest delay."""
        return max(r for r, _ in self.terms)

    @property
    def is_real(self):
        """Every coefficient is exactly real, so Delta(conj(lam)) is
        conj(Delta(lam)) bit for bit; within a tolerance it is not."""
        return not any(A.imag.any() for _, A in self.terms)

    def char_matrix(self, lam):
        """Characteristic matrix ``Delta(lam) = lam I - sum_k A_k exp(-lam r_k)``."""
        D = lam * np.eye(self.n, dtype=complex)
        for r, A in self.terms:
            D -= A * np.exp(-lam * r)
        return D

    def char_matrix_deriv(self, lam):
        """d/dlam of the characteristic matrix: ``I + sum_k r_k A_k exp(-lam r_k)``."""
        D = np.eye(self.n, dtype=complex)
        for r, A in self.terms:
            D += r * A * np.exp(-lam * r)
        return D


def check_dims(op, rep):
    """The group must act on the model's state space."""
    if rep.dim != op.n:
        raise StructuralError(f"representation dim {rep.dim} != state dim {op.n}")


def check_equivariance(op, rep):
    """Max residual of ``rho(g) A_k - A_k rho(g)`` over all elements and terms.

    Zero (within tolerance) exactly when the delay equation commutes with the
    group action, i.e. is equivariant.
    """
    check_dims(op, rep)
    return commutator_residual(rep, [A for _, A in op.terms])


def _cmul(a, b):
    """Complex product ``(a_r b_r - a_i b_i) + i (a_r b_i + a_i b_r)``, taken
    entrywise in real arithmetic so it rounds as a scalar complex product
    does (numpy's vectorized complex multiply may fuse a product and a sum)."""
    a, b = np.asarray(a), np.asarray(b)
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def pairing_matrix(W, lam, V, mu, op):
    """Every adjoint pairing ``(psi_i, phi_j)_n`` in closed form, as a (p, q) matrix.

    Row i is psi_i(s) = W[i] exp(-lam_i s) and column j is
    phi_j(theta) = V[j] exp(mu_j theta), so W is (p, n) and V is (q, n);

        (psi_i, phi_j)_n = w u - sum_k exp(-lam r_k) (w A_k u) E(mu - lam, r_k),

    with E(d, r) = int_0^{-r} exp(d xi) dxi, and E = -r, its analytic limit,
    where |d| < EXPONENT_GAP.  For an eigenpair at a common root lam the
    pairing collapses to ``w Delta'(lam) u``.

    ``w A_k`` and ``exp(-lam_i r_k)`` are taken once per row and term.  Each
    entry goes through the same scalar operations as a lone pairing: one
    BLAS dot per product ``w u`` (stacked matmul of row against column),
    one vector-matrix product per ``w A_k``, and real-arithmetic complex
    products (:func:`_cmul`), so a stacked call is bitwise equal to one call
    per entry.
    """
    W = np.ascontiguousarray(W, dtype=complex)
    V = np.ascontiguousarray(V, dtype=complex)
    lam = np.asarray(lam, dtype=complex).reshape(-1)
    mu = np.asarray(mu, dtype=complex).reshape(-1)
    if W.shape != (len(lam), op.n) or V.shape != (len(mu), op.n):
        raise StructuralError("direction length does not match operator dimension")
    cols = V[None, :, :, None]
    val = (W[:, None, None, :] @ cols)[:, :, 0, 0]
    d = mu[None, :] - lam[:, None]
    small = np.abs(d) < EXPONENT_GAP
    d = np.where(small, 1.0, d)
    for r, A in op.terms:
        r_c = np.complex128(r)
        e = np.exp(_cmul(-lam, r_c))
        wAu = ((W[:, None, :] @ A)[:, None, :, :] @ cols)[:, :, 0, 0]
        E = np.where(small, -r, (np.exp(_cmul(-d, r_c)) - 1.0) / d)
        val -= _cmul(_cmul(e[:, None], wAu), E)
    return val


def bilinear_form(w, lam, u, mu, op):
    """Adjoint bilinear form ``(psi, phi)_n`` of psi(s) = w exp(-lam s) and
    phi(theta) = u exp(mu theta): the 1 x 1 case of :func:`pairing_matrix`."""
    return complex(pairing_matrix(np.reshape(w, (1, -1)), [lam],
                                  np.reshape(u, (1, -1)), [mu], op)[0, 0])


def bilinear_form_quadrature(w, lam, u, mu, op, npoints=64):
    """Same pairing as :func:`bilinear_form` by composite Gauss-Legendre panels.

    Each delay term contributes ``int_{-r_k}^0 psi(xi + r_k) A_k phi(xi) dxi``
    integrated on one panel per unit of delay, ``npoints`` nodes per panel.
    Serves as the independent oracle for the closed form.
    """
    if npoints < 8:
        raise StructuralError("npoints must be at least 8")
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
